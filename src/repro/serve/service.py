"""The job tier of the mining service: priority queue + bounded worker pool.

:class:`MiningService` accepts mining jobs (any algorithm registered in
:mod:`repro.core.registry`), runs them on a fixed pool of worker threads,
and layers three amortizations over the one-shot API:

* identical resubmissions hit the :class:`~repro.serve.cache.ResultCache`
  and complete instantly (``via="memoized"``);
* identical *concurrent* submissions coalesce — followers attach to the
  in-flight primary and share its result (``via="coalesced"``);
* datasets and warm engine contexts persist across jobs in the
  :class:`~repro.serve.cache.DatasetCache` / ``ContextPool``.

Each job gets a configurable timeout, client cancellation (queued or
running), and bounded retry-with-backoff for transient engine faults
(:class:`~repro.common.errors.EngineError` and subclasses — injected
failures, task-retry exhaustion; programming errors fail immediately).

Jobs are all this module knows.  Named datasets are the dataset tier's
(:mod:`repro.serve.datasets`): a job for one reaches it twice — a
snapshot at submit, a warm answer at run — and the service's four
dataset verbs are the registry's own methods, forwarded per the protocol
table's routing column.  ``MiningService._lock`` guards the queue, the
job table and every job's state; it is never held together with a
dataset's lock, in either order.

Use it embedded::

    with MiningService(n_workers=4) as svc:
        job = svc.submit(txns, MiningConfig(min_support=0.3))
        job.wait()
        print(job.result.summary())

or behind the HTTP front-end in :mod:`repro.serve.http`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque

from repro.common.errors import EngineError
from repro.core.registry import MiningConfig, get_algorithm, run_algorithm
from repro.serve.api import BY_DATASET, OPERATIONS
from repro.serve.cache import ContextPool, DatasetCache, ResultCache
from repro.serve.datasets import DatasetRegistry
from repro.serve.jobs import (
    ApiError,
    Job,
    JobRequest,
    JobState,
    RejectedError,
    ServeError,
)

#: exception types treated as transient (retried with backoff)
TRANSIENT_ERRORS = (EngineError,)

def _quantile(samples: list, q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of non-empty sorted ``samples``."""
    return samples[min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))]


class LatencyHistogram:
    """Bounded-reservoir latency recorder with percentile summaries.

    Keeps the most recent ``max_samples`` observations (enough for stable
    p50/p95/p99 at serving rates) plus lifetime count/total, so the
    ``/metrics`` payload stays O(1) in served-job count.  Thread-safe.
    """

    def __init__(self, max_samples: int = 2048):
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=max_samples)
        self.count = 0
        self.total_s = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total_s += seconds

    @property
    def mean_s(self) -> float:
        with self._lock:
            return self.total_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the retained window (0.0 empty)."""
        with self._lock:
            samples = sorted(self._samples)
        return _quantile(samples, q) if samples else 0.0

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean, p50/p95/p99, max."""
        with self._lock:
            samples = sorted(self._samples)
            count, total = self.count, self.total_s
        if not samples:
            return {"count": count, "mean_s": 0.0, "p50_s": 0.0,
                    "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
        return {
            "count": count,
            "mean_s": round(total / count, 6),
            "p50_s": round(_quantile(samples, 0.50), 6),
            "p95_s": round(_quantile(samples, 0.95), 6),
            "p99_s": round(_quantile(samples, 0.99), 6),
            "max_s": round(samples[-1], 6),
        }


class MiningService:
    """Job queue + worker pool + caches; the serving layer's single object.

    Parameters
    ----------
    n_workers:
        Worker threads executing jobs (each holds at most one warm engine
        context at a time).
    dataset_cache_bytes:
        Byte budget for parsed transaction lists shared across jobs.
    result_cache_entries / result_ttl_s:
        LRU size and freshness window of the result memoizer.
    default_timeout_s:
        Timeout applied to jobs that do not specify their own; ``None``
        means no deadline.
    max_idle_contexts:
        Warm engine contexts kept per ``(backend, parallelism)`` key.
    queue_limit:
        Admission control: maximum jobs waiting in the queue.  A submit
        that would exceed it raises :class:`RejectedError` (HTTP 429)
        instead of growing the queue without bound.  Memoized hits and
        coalesced followers never consume a slot and are always admitted.
        ``None`` (default) keeps the queue unbounded.
    tenant_weights:
        SLO weights for fair-share scheduling, tenant name -> weight > 0
        (missing tenants get 1.0).  Workers pick jobs deficit-round-robin
        across per-tenant sub-queues — each tenant earns ``weight`` jobs
        of credit per scheduling round, so one tenant's backlog cannot
        starve the rest; priority still orders jobs *within* a tenant.
    name:
        Optional shard name, stamped on every accepted job and reported
        in metrics (the router names its shards ``shard-0..n-1``).
    on_job_finished:
        Optional callback invoked (under the service lock) with each job
        as it reaches a terminal state — the router feeds observed
        runtimes back to the planner through this.  Must not call back
        into the service.
    """

    def __init__(
        self,
        n_workers: int = 2,
        dataset_cache_bytes: int = 64 * 1024 * 1024,
        result_cache_entries: int = 256,
        result_ttl_s: float = 300.0,
        default_timeout_s: float | None = None,
        max_idle_contexts: int = 2,
        queue_limit: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        name: str | None = None,
        on_job_finished=None,
    ):
        if n_workers < 1:
            raise ServeError(f"n_workers must be >= 1, got {n_workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        for tenant, weight in (tenant_weights or {}).items():
            if not weight > 0:
                raise ServeError(f"tenant weight must be > 0, got {tenant}={weight}")
        self.datasets = DatasetCache(dataset_cache_bytes)
        self.results = ResultCache(result_cache_entries, result_ttl_s)
        self.contexts = ContextPool(max_idle_contexts)
        self.dataset_registry = DatasetRegistry(self.datasets, self.results)
        self.default_timeout_s = default_timeout_s
        self.queue_limit = queue_limit
        self.tenant_weights = dict(tenant_weights or {})
        self.name = name
        self.on_job_finished = on_job_finished
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        # Per-tenant priority heaps of (priority, seq, job), served
        # deficit-round-robin (see _pop_next_locked).
        self._tenant_heaps: dict[str, list[tuple[int, int, Job]]] = {}
        self._tenant_order: list[str] = []
        self._deficits: dict[str, float] = {}
        self._rr_cursor = 0
        self._queued = 0  # PENDING jobs currently in a tenant heap
        self._seq = itertools.count()
        self._jobs: dict[str, Job] = {}
        #: result_key -> primary in-flight Job (for coalescing)
        self._inflight: dict[tuple, Job] = {}
        #: result_key -> follower Jobs attached to the primary
        self._followers: dict[tuple, list[Job]] = {}
        self._shutdown = False
        self.jobs_submitted = 0
        self.jobs_coalesced = 0
        self.jobs_rejected = 0
        #: p50/p95/p99 for the two state transitions: pending->running
        #: (queue wait) and running->terminal (run time)
        self.queue_wait_hist = LatencyHistogram()
        self.run_time_hist = LatencyHistogram()
        self._tenant_counts: dict[str, dict[str, int]] = {}
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for w in self._workers:
            w.start()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        transactions,
        config: MiningConfig,
        *,
        priority: int = 0,
        timeout_s: float | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.05,
        tenant: str = "default",
        fingerprint: str | None = None,
        dataset_id: str | None = None,
    ) -> Job:
        """Queue one mining job; returns immediately with its :class:`Job`.

        The job may already be terminal on return: a fresh result-cache hit
        comes back ``DONE`` with ``via="memoized"`` without ever queueing.

        ``dataset_id`` names a registered dataset instead of passing raw
        ``transactions`` (exactly one of the two): the job snapshots the
        dataset's *current* version — its transactions and versioned
        fingerprint — at submit time, so a concurrent append can never
        change what this job answers for, and a result cached for a
        pre-append version can never answer it.

        Raises :class:`RejectedError` when ``queue_limit`` is set and the
        queue is full — except for memoized hits and coalesced followers,
        which consume no queue slot and are always admitted.
        """
        get_algorithm(config.algorithm)  # fail fast on unknown algorithms
        request = JobRequest(
            config=config,
            priority=priority,
            timeout_s=self.default_timeout_s if timeout_s is None else timeout_s,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            tenant=tenant,
        )
        dataset_entry = dataset_version = None
        if dataset_id is not None:
            if transactions is not None:
                raise ServeError("pass transactions or dataset_id, not both")
            dataset_entry, dataset_version, fingerprint, transactions = (
                self.dataset_registry.snapshot(dataset_id)
            )
        elif transactions is None:
            raise ServeError("submit requires transactions or a dataset_id")
        txns = transactions if isinstance(transactions, list) else list(transactions)
        fingerprint = self.datasets.add(txns, fingerprint)
        job = Job(
            request=request,
            dataset_fingerprint=fingerprint,
            shard=self.name,
            dataset_id=dataset_id,
            dataset_version=dataset_version,
        )
        job._txns = txns  # released in _finish_locked
        job._dataset_entry = dataset_entry
        key = job.result_key

        # An approx request is answered by its exact twin's entry first —
        # the exact result is strictly better, and the approx entry must
        # never shadow it.  One get_first probe = one hit/miss recorded,
        # so the twin lookup cannot inflate the miss count.
        lookup = [key]
        if config.approx:
            lookup.insert(0, (fingerprint, config.exact_twin().cache_key()))
        memoized = self.results.get_first(lookup)
        with self._queue_cond:
            if self._shutdown:
                raise ServeError("service is shut down")
            if memoized is not None:
                self._register_locked(job)
                self._finish_locked(job, JobState.DONE, result=memoized, via="memoized")
                return job
            primary = self._inflight.get(key)
            if primary is not None and not primary.is_terminal:
                self._register_locked(job)
                job.via = "coalesced"
                job.coalesced_with = primary.job_id
                self.jobs_coalesced += 1
                self._followers.setdefault(key, []).append(job)
                return job
            if self.queue_limit is not None and self._queued >= self.queue_limit:
                self.jobs_rejected += 1
                raise RejectedError(
                    f"queue full ({self._queued}/{self.queue_limit} jobs waiting)"
                    + (f" on {self.name}" if self.name else ""),
                    retry_after_s=self._retry_after_locked(),
                    shard=self.name,
                    queue_depth=self._queued,
                    queue_limit=self.queue_limit,
                )
            self._register_locked(job)
            self._inflight[key] = job
            self._enqueue_locked(job)
        return job

    def _register_locked(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self.jobs_submitted += 1
        counts = self._tenant_counts.setdefault(job.request.tenant, {"submitted": 0})
        counts["submitted"] += 1

    def _retry_after_locked(self) -> float:
        """Load-based Retry-After estimate: time for the backlog to drain
        one slot, from the observed mean run time (floored when cold)."""
        mean_run = self.run_time_hist.mean_s or 0.1
        estimate = mean_run * (self._queued + 1) / len(self._workers)
        return min(30.0, max(0.05, estimate))

    # -- tenant queues (deficit round-robin) -------------------------------
    def _enqueue_locked(self, job: Job) -> None:
        tenant = job.request.tenant
        heap = self._tenant_heaps.get(tenant)
        if heap is None:
            heap = self._tenant_heaps[tenant] = []
            self._tenant_order.append(tenant)
            self._deficits.setdefault(tenant, 0.0)
        heapq.heappush(heap, (job.request.priority, next(self._seq), job))
        job._queued = True
        self._queued += 1
        self._queue_cond.notify()

    def _dequeue_account_locked(self, job: Job) -> None:
        """A queued job left the queue (popped, cancelled, or drained)."""
        if job._queued:
            job._queued = False
            self._queued -= 1

    def _pop_next_locked(self) -> Job | None:
        """Next runnable job under deficit round-robin, or ``None``.

        Each visit to a tenant grants it ``weight`` credit; one job costs
        one credit.  A weight-2 tenant therefore drains two jobs per
        round for every one of a weight-1 tenant, and an idle tenant's
        credit resets (no banking while the queue is empty).  Within a
        tenant the existing (priority, FIFO) heap order applies.
        """
        while self._queued:
            order = self._tenant_order
            tenant = order[self._rr_cursor % len(order)]
            heap = self._tenant_heaps.get(tenant) or []
            # drop entries finished while queued (lazy removal)
            while heap and not heap[0][2]._queued:
                heapq.heappop(heap)
            if not heap:
                self._deficits[tenant] = 0.0
                self._rr_cursor += 1
                continue
            if self._deficits[tenant] < 1.0:
                self._deficits[tenant] += self.tenant_weights.get(tenant, 1.0)
                if self._deficits[tenant] < 1.0:
                    self._rr_cursor += 1
                continue
            self._deficits[tenant] -= 1.0
            _, _, job = heapq.heappop(heap)
            self._dequeue_account_locked(job)
            if self._deficits[tenant] < 1.0:
                self._rr_cursor += 1
            return job
        return None

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(f"unknown job {job_id!r}", status=404, code="unknown_job")
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` is terminal (or ``timeout`` elapses)."""
        job = self.get(job_id)
        job.wait(timeout)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True when the cancellation took effect.

        A queued job is cancelled immediately; a running job has its cancel
        flag raised and transitions once the worker observes it (the
        underlying computation is abandoned, its result discarded).
        Terminal jobs are left untouched (returns False).
        """
        job = self.get(job_id)
        with self._queue_cond:
            if job.is_terminal:
                return False
            if job.state is JobState.PENDING:
                if job.coalesced_with is not None:
                    followers = self._followers.get(job.result_key, [])
                    if job in followers:
                        followers.remove(job)
                self._finish_locked(job, JobState.CANCELLED, error="cancelled by client")
                return True
            job.cancel_event.set()
            return True

    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def jobs_by_state(self) -> dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts

    def tenant_stats(self) -> dict:
        """Per-tenant submitted/terminal-state counts, pending depth, and
        SLO weight — the router's balance decisions, observable."""
        with self._lock:
            out = {}
            for tenant, counts in self._tenant_counts.items():
                heap = self._tenant_heaps.get(tenant) or []
                out[tenant] = {
                    **counts,
                    "pending": sum(1 for _, _, j in heap if j._queued),
                    "weight": self.tenant_weights.get(tenant, 1.0),
                }
        return out

    def healthz(self) -> dict:
        """The ``GET /healthz`` payload."""
        return {"status": "ok", "workers": len(self._workers)}

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: queue, states, caches, latency
        histograms, per-tenant counts, recent jobs."""
        with self._lock:
            jobs = list(self._jobs.values())
        recent = []
        for job in jobs[-20:]:
            entry = job.snapshot()
            metrics = getattr(job.result, "engine_metrics", None)
            if metrics is not None:
                entry["engine_metrics"] = metrics.summary()
            trace = getattr(job.result, "trace", None)
            if trace is not None:
                entry["trace_spans"] = len(trace.spans)
            recent.append(entry)
        return {
            "name": self.name,
            "queue_depth": self.queue_depth(),
            "queue_limit": self.queue_limit,
            "workers": len(self._workers),
            "jobs_submitted": self.jobs_submitted,
            "jobs_coalesced": self.jobs_coalesced,
            "jobs_rejected": self.jobs_rejected,
            "jobs_by_state": self.jobs_by_state(),
            "latency": {
                "queue_wait": self.queue_wait_hist.snapshot(),
                "run": self.run_time_hist.snapshot(),
            },
            "tenants": self.tenant_stats(),
            "dataset_cache": self.datasets.stats(),
            "dataset_registry": self.dataset_registry.stats(),
            "result_cache": self.results.stats(),
            "context_pool": self.contexts.stats(),
            "recent_jobs": recent,
        }

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, cancel queued jobs, drain the workers."""
        with self._queue_cond:
            if self._shutdown:
                return
            self._shutdown = True
            for heap in self._tenant_heaps.values():
                for _, _, job in heap:
                    if job.state is JobState.PENDING:
                        self._finish_locked(
                            job, JobState.CANCELLED, error="service shut down"
                        )
                heap.clear()
            self._queue_cond.notify_all()
        if wait:
            for w in self._workers:
                w.join(timeout=10.0)
        self.dataset_registry.close(wait)
        self.contexts.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- worker internals --------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._queue_cond:
                job = None
                while not self._shutdown:
                    job = self._pop_next_locked()
                    if job is not None:
                        break
                    self._queue_cond.wait()
                if self._shutdown:
                    return
                job.state = JobState.RUNNING
                job.started_s = time.monotonic()
                self.queue_wait_hist.record(job.started_s - job.submitted_s)
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        deadline = (
            job.started_s + job.request.timeout_s
            if job.request.timeout_s is not None
            else None
        )
        while True:
            job.attempts += 1
            outcome = self._attempt(job, deadline)
            if outcome is not None:
                state, result, error = outcome
                with self._queue_cond:
                    self._finish_locked(job, state, result=result, error=error)
                return
            # transient failure with retry budget left: back off, then go
            # again (the backoff sleep itself honours cancel + deadline)
            backoff = job.request.retry_backoff_s * (2 ** (job.attempts - 1))
            if deadline is not None:
                backoff = min(backoff, max(0.0, deadline - time.monotonic()))
            if job.cancel_event.wait(backoff):
                with self._queue_cond:
                    self._finish_locked(
                        job, JobState.CANCELLED, error="cancelled by client"
                    )
                return
            if deadline is not None and time.monotonic() >= deadline:
                with self._queue_cond:
                    self._finish_locked(
                        job,
                        JobState.TIMED_OUT,
                        error=f"timed out after {job.request.timeout_s:g}s",
                    )
                return

    def _attempt(self, job: Job, deadline: float | None):
        """Run one attempt; returns ``(state, result, error)`` or ``None``
        when the attempt failed transiently and the retry budget allows
        another go."""
        box: dict[str, object] = {}

        def target():
            ctx = None
            config = job.request.config
            try:
                txns = self.datasets.get(job.dataset_fingerprint)
                if txns is None:
                    # evicted while queued: run from the job's own pin and
                    # re-warm the cache for followers and repeat traffic
                    txns = job._txns
                    if txns is None:
                        raise ServeError(
                            f"dataset {job.dataset_fingerprint[:12]} lost before run"
                        )
                    self.datasets.add(txns, job.dataset_fingerprint)
                result = None
                entry = job._dataset_entry
                if config.incremental:
                    # in-process tier: no engine context to check out, and
                    # a named dataset's warm miner answers when it can
                    if entry is not None:
                        result = self.dataset_registry.warm_result(
                            entry, job.dataset_version, len(txns), config
                        )
                elif config.approx or get_algorithm(config.algorithm).needs_engine:
                    ctx = self.contexts.acquire(
                        config.backend, config.parallelism, label=job.job_id
                    )
                if result is None:
                    result = run_algorithm(txns, config, ctx=ctx)
                box["result"] = result
            except BaseException as exc:  # noqa: BLE001 - reported to client
                box["error"] = exc
            finally:
                if ctx is not None:
                    self.contexts.release(ctx)

        thread = threading.Thread(target=target, name=f"{job.job_id}-run", daemon=True)
        thread.start()
        while thread.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                # abandon the attempt: the stray thread releases its context
                # when it eventually finishes; its result is discarded
                return (
                    JobState.TIMED_OUT,
                    None,
                    f"timed out after {job.request.timeout_s:g}s",
                )
            if job.cancel_event.is_set():
                return (JobState.CANCELLED, None, "cancelled by client")
            thread.join(timeout=0.01)

        error = box.get("error")
        if error is None:
            return (JobState.DONE, box["result"], None)
        if isinstance(error, ApiError):
            # dataset disappeared mid-run etc.: a client error, not a fault
            return (JobState.FAILED, None, str(error))
        if (
            isinstance(error, TRANSIENT_ERRORS)
            and job.attempts <= job.request.max_retries
        ):
            return None
        kind = "transient" if isinstance(error, TRANSIENT_ERRORS) else "permanent"
        return (
            JobState.FAILED,
            None,
            f"{kind} failure after {job.attempts} attempt(s): {error!r}",
        )

    def _finish_locked(
        self,
        job: Job,
        state: JobState,
        *,
        result=None,
        error: str | None = None,
        via: str | None = None,
    ) -> None:
        """Transition ``job`` to a terminal state (caller holds the lock)
        and settle its followers."""
        if job.is_terminal:
            return
        self._dequeue_account_locked(job)
        job._txns = job._dataset_entry = None
        job.state = state
        job.result = result
        job.error = error
        job.finished_s = time.monotonic()
        if job.started_s is not None:
            self.run_time_hist.record(job.finished_s - job.started_s)
        counts = self._tenant_counts.setdefault(
            job.request.tenant, {"submitted": 0}
        )
        counts[state.value] = counts.get(state.value, 0) + 1
        if via is not None:
            job.via = via
        if self.on_job_finished is not None:
            try:
                self.on_job_finished(job)
            except Exception:  # noqa: BLE001 - observers must not kill workers
                pass
        key = job.result_key
        followers: list[Job] = []
        if self._inflight.get(key) is job:
            del self._inflight[key]
            followers = self._followers.pop(key, [])
        if state is JobState.DONE and via is None:
            config = job.request.config
            if config.approx:
                self.results.put_approx(
                    key, result,
                    exact_key=(job.dataset_fingerprint, config.exact_twin().cache_key()),
                )
            else:
                self.results.put(key, result)
        job.done_event.set()
        if state is JobState.DONE:
            for follower in followers:
                self._finish_locked(follower, JobState.DONE, result=result)
        elif self._shutdown:
            # Workers exit as soon as they see the shutdown flag and the
            # pending-cancel sweep has already run, so a re-queued follower
            # would stay PENDING forever — settle it now instead.
            for follower in followers:
                self._finish_locked(
                    follower, JobState.CANCELLED, error="service shut down"
                )
        else:
            # The primary did not produce a result — promote followers to
            # independent runs rather than failing them for someone else's
            # timeout/cancellation.
            for follower in followers:
                if follower.is_terminal:
                    continue
                follower.via = "run"
                follower.coalesced_with = None
                self._inflight[key] = follower
                # Promotion bypasses admission control: the follower never
                # held a queue slot, and it inherits the one its primary
                # just freed.
                self._enqueue_locked(follower)
                break  # first follower becomes the new primary; rest re-attach
            else:
                return
            new_primary = self._inflight[key]
            for follower in followers:
                if follower is new_primary or follower.is_terminal:
                    continue
                follower.coalesced_with = new_primary.job_id
                self._followers.setdefault(key, []).append(follower)


def _dataset_verb(op):
    def verb(self, *args, **kwargs):
        return getattr(self.dataset_registry, op.call)(*args, **kwargs)

    verb.__name__ = op.call
    verb.__doc__ = f"``DatasetRegistry.{op.call}`` on this service's dataset tier."
    return verb


for _op in OPERATIONS:
    if _op.route == BY_DATASET:
        setattr(MiningService, _op.call, _dataset_verb(_op))
