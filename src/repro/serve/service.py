"""The job tier of the mining service: admission, the job table, workers.

:class:`MiningService` accepts mining jobs (any algorithm registered in
:mod:`repro.core.registry`), runs them on a fixed pool of workers — each
a thread of this process paired with a persistent job-worker process
(:mod:`repro.serve.jobworker`) where every job that can leave this
interpreter is mined — and layers three amortizations over the one-shot
API:

* identical resubmissions hit the :class:`~repro.serve.cache.ResultCache`
  and complete instantly (``via="memoized"``);
* identical *concurrent* submissions coalesce — followers attach to the
  in-flight primary and share its result (``via="coalesced"``);
* datasets persist across jobs: parsed rows in the
  :class:`~repro.serve.cache.DatasetCache` and, where the counting runs,
  in each job worker's own LRU.

The mine itself is not layered over: a job that runs is
``run_algorithm(rows, config)`` — the one-shot call, engine context built
and stopped per job — in a job worker or, for what cannot leave, here.

Every piece of job state has one owner.  *Is it queued, who runs next*:
:class:`~repro.serve.queue.TenantQueue`.  *How it executes* (in which
process, timeout, cancellation, retry-with-backoff for transient engine
faults): :class:`~repro.serve.runner.JobRunner`, which takes none of this
module's locks — a worker is pop → run → finish.  *Where its record is,
what was planned for it*: the :class:`Job` in this service's **job
table** — live jobs plus the most recent ``result_cache_entries``
terminal ones, so memory stays bounded; an id the shard minted but no
longer holds answers 410 ``job_expired``.

Jobs are all this module knows.  Named datasets are the dataset tier's
(:mod:`repro.serve.datasets`): a job for one reaches it twice — a
snapshot at submit, a warm answer at run — and the service's four
dataset verbs are the registry's own methods, forwarded per the protocol
table's routing column.  ``MiningService._lock`` guards the queue, the
job table and every job's state; under it only leaf locks are taken (the
caches', the histograms'), and it is never held together
with a dataset's lock, in either order.

Use it embedded::

    with MiningService(n_workers=4) as svc:
        job = svc.submit(txns, MiningConfig(min_support=0.3))
        job.wait()
        print(job.result.summary())

or behind the HTTP front-end in :mod:`repro.serve.http`.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import OrderedDict, deque

from repro.core.registry import MiningConfig, get_algorithm
from repro.serve.api import BY_DATASET, OPERATIONS
from repro.serve.cache import DatasetCache, ResultCache, dataset_fingerprint
from repro.serve.datasets import DatasetRegistry
from repro.serve.jobworker import JobWorker
from repro.serve.jobs import (
    ApiError,
    Job,
    JobRequest,
    JobState,
    RejectedError,
    RowsNotResident,
    ServeError,
    mint_job_id,
    parse_job_id,
)
from repro.serve.owner import DatasetOwner
from repro.serve.queue import TenantQueue
from repro.serve.runner import JobRunner


#: tenant names ``/metrics`` counts one by one.  A name is client-supplied:
#: past this many, the one that submitted longest ago folds into the
#: ``OTHER_TENANTS`` bucket, so no string a client sends grows the shard
MAX_TENANT_NAMES = 256
OTHER_TENANTS = "other"


def _summed(stats: list[dict]) -> dict:
    """Key-wise sum of same-shaped counter dicts."""
    return {key: sum(s[key] for s in stats) for key in stats[0]}


def _quantile(samples: list, q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of non-empty sorted ``samples``."""
    return samples[min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))]


class LatencyHistogram:
    """Bounded-reservoir latency recorder with percentile summaries.

    Keeps the most recent ``max_samples`` observations (enough for stable
    p50/p95/p99 at serving rates) plus lifetime count/total.  The window
    is kept sorted as samples come and go, so a summary is a few index
    reads: the ``/metrics`` payload costs the same however many jobs were
    served.  Thread-safe.
    """

    def __init__(self, max_samples: int = 2048):
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=max_samples)  # arrival order
        self._sorted: list[float] = []  # the same samples, ascending
        self.count = 0
        self.total_s = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            if len(self._window) == self._window.maxlen:  # the oldest falls out
                del self._sorted[bisect.bisect_left(self._sorted, self._window[0])]
            self._window.append(seconds)
            bisect.insort(self._sorted, seconds)
            self.count += 1
            self.total_s += seconds

    @property
    def mean_s(self) -> float:
        with self._lock:
            return self.total_s / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean, p50/p95/p99, max."""
        with self._lock:
            samples = self._sorted
            if not samples:
                return {"count": self.count, "mean_s": 0.0, "p50_s": 0.0,
                        "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
            return {
                "count": self.count,
                "mean_s": round(self.total_s / self.count, 6),
                "p50_s": round(_quantile(samples, 0.50), 6),
                "p95_s": round(_quantile(samples, 0.95), 6),
                "p99_s": round(_quantile(samples, 0.99), 6),
                "max_s": round(samples[-1], 6),
            }


class MiningService:
    """Admission + job table + worker pool + caches: one shard's job tier.

    Parameters
    ----------
    n_workers:
        Concurrent running jobs: worker threads, each paired with its own
        job-worker process (forked here when this process is still
        single-threaded; otherwise spawned by the first job that ships).
        The threads start with the first queued job.
    dataset_cache_bytes:
        Byte budget for parsed transaction lists shared across jobs —
        and, separately, of each job worker's resident rows.
    result_cache_entries / result_ttl_s:
        LRU size and freshness window of the result memoizer; the job
        table also retains ``result_cache_entries`` terminal jobs (live
        ones always), oldest-finished out first.
    default_timeout_s:
        Timeout applied to jobs that do not specify their own; ``None``
        means no deadline.
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
        Optional shard name, stamped on every accepted job (and into its
        id) and reported in metrics (the router names its shards
        ``shard-0..n-1``).

    ``planner`` is an attribute: assign a
    :class:`~repro.serve.planner.CostPlanner` (the router hands every
    shard its one instance) and the service plans each raw-transaction
    submit.
    """

    def __init__(
        self,
        n_workers: int = 2,
        dataset_cache_bytes: int = 64 * 1024 * 1024,
        result_cache_entries: int = 256,
        result_ttl_s: float = 300.0,
        default_timeout_s: float | None = None,
        queue_limit: int | None = None,
        tenant_weights: dict[str, float] | None = None,
        name: str | None = None,
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
        self.default_timeout_s = default_timeout_s
        self.queue_limit = queue_limit
        self.tenant_weights = dict(tenant_weights or {})
        self.name = name
        self.planner = None
        self._lock = threading.Lock()
        self._queue_cond = threading.Condition(self._lock)
        self._queue = TenantQueue(self.tenant_weights)
        #: the job table, in submission order: every live job, plus the
        #: terminal ones whose ids are in ``_finished`` (oldest first)
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self._state_counts = {state.value: 0 for state in JobState}
        #: result_key -> the jobs in flight for it: the primary (queued or
        #: running), then the followers coalesced onto it
        self._inflight: dict[tuple, list[Job]] = {}
        self._shutdown = False
        #: jobs accepted so far — also the number in the newest job's id
        self.jobs_submitted = 0
        self.jobs_coalesced = 0
        self.jobs_rejected = 0
        #: p50/p95/p99 for the two state transitions: pending->running
        #: (queue wait) and running->terminal (run time)
        self.queue_wait_hist = LatencyHistogram()
        self.run_time_hist = LatencyHistogram()
        #: tenant -> {"submitted": n, <terminal state>: n...}, least
        #: recently submitting first; at most ``MAX_TENANT_NAMES`` names
        self._tenant_counts: OrderedDict[str, dict[str, int]] = OrderedDict()
        # Processes first, threads at the first queued job (or dataset): a
        # job worker or dataset owner is forked only while this process
        # has one thread (spawned otherwise, ~0.4 s to its first reply),
        # so the shards of a router — and the HTTP front-end, which binds
        # its socket after them — must all exist before any of them
        # starts a thread.
        self.dataset_registry = DatasetRegistry(
            self.datasets, self.results, DatasetOwner(name or "serve")
        )
        self._job_workers = [
            JobWorker(f"{name or 'serve'}-{i}", dataset_cache_bytes) for i in range(n_workers)
        ]
        self._workers = [
            threading.Thread(
                target=self._worker_loop, args=(worker,), name=f"repro-serve-{i}",
                daemon=True,
            )
            for i, worker in enumerate(self._job_workers)
        ]
        self._runner = JobRunner(self.datasets, self.dataset_registry)

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
        pinned=(),
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

        ``fingerprint`` with no ``transactions`` (and no ``dataset_id``)
        says "the rows you already hold": the submit of a request whose
        rows this shard was sent before (the socket transport recognises
        such a body by its digest, :class:`repro.serve.http.RepeatMemo`).
        Everything below runs as for any submit; only a job that must
        actually run reads rows — it takes them from the
        :class:`~repro.serve.cache.DatasetCache`, and when they are no
        longer there raises :class:`RowsNotResident` with nothing changed,
        for the caller to submit again with the rows.

        With a ``planner`` set, a raw-transaction job is keyed as asked
        and run as planned: the knobs the planner chose (none of those
        named in ``pinned``) ride on the job as ``planned`` and never
        enter its memoization key.

        Raises :class:`RejectedError` when ``queue_limit`` is set and the
        queue is full — except for memoized hits and coalesced followers,
        which consume no queue slot and are always admitted.  A refused
        submit leaves the job table, tenant counters and caches as it
        found them (its one result-cache probe is counted).
        """
        get_algorithm(config.algorithm)  # fail fast on unknown algorithms
        dataset_entry = dataset_version = decision = None
        if dataset_id is not None:
            if transactions is not None:
                raise ServeError("pass transactions or dataset_id, not both")
            dataset_entry, dataset_version, fingerprint, transactions = (
                self.dataset_registry.snapshot(dataset_id)
            )
        elif transactions is None and fingerprint is None:
            raise ServeError("submit requires transactions or a dataset_id")
        txns = transactions
        if txns is not None and not isinstance(txns, list):
            txns = list(txns)
        fingerprint = fingerprint or dataset_fingerprint(txns)
        if self.planner is not None and dataset_id is None:
            _, decision = self.planner.plan(txns, config, pinned=pinned, fingerprint=fingerprint)
        request = JobRequest(
            config=config,
            priority=priority,
            timeout_s=self.default_timeout_s if timeout_s is None else timeout_s,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            tenant=tenant,
        )
        key = (fingerprint, config.cache_key())
        memoized = self.results.get(key)
        with self._queue_cond:
            # admit first: nothing below this block runs for a refused submit
            if self._shutdown:
                raise ServeError("service is shut down")
            group = None if memoized is not None else self._inflight.get(key)
            needs_slot = memoized is None and group is None
            depth = len(self._queue)
            if needs_slot and self.queue_limit is not None and depth >= self.queue_limit:
                self.jobs_rejected += 1
                # load-based hint: time for the backlog to drain one slot, from
                # the observed mean run time (floored when cold)
                mean_run = self.run_time_hist.mean_s or 0.1
                raise RejectedError(
                    f"queue full ({depth}/{self.queue_limit} jobs waiting)"
                    + (f" on {self.name}" if self.name else ""),
                    retry_after_s=min(
                        30.0, max(0.05, mean_run * (depth + 1) / len(self._workers))
                    ),
                    shard=self.name,
                    queue_depth=depth,
                    queue_limit=self.queue_limit,
                )
            if txns is None and needs_slot:
                txns = self._resident_rows(fingerprint)  # the run reads them
            self.jobs_submitted += 1
            job = Job(
                request=request,
                dataset_fingerprint=fingerprint,
                job_id=mint_job_id(self.name, self.jobs_submitted),
                shard=self.name,
                decision=decision,
                dataset_id=dataset_id,
                dataset_version=dataset_version,
                rows_resident=transactions is None and dataset_id is None,
                _txns=txns,  # released in _finish_locked
                _dataset_entry=dataset_entry,
            )
            self._jobs[job.job_id] = job
            self._state_counts[job.state.value] += 1
            self._tenant_counts_locked(tenant, submitting=True)["submitted"] += 1
            if txns is not None:
                self.datasets.add(txns, fingerprint)
            if memoized is not None:
                self._finish_locked(job, JobState.DONE, result=memoized, via="memoized")
            elif group is not None:
                job.via = "coalesced"
                job.coalesced_with = group[0].job_id
                self.jobs_coalesced += 1
                group.append(job)
            else:
                self._inflight[key] = [job]
                self._queue.push(job)
                if self._workers[0].ident is None:  # the first queued job
                    for w in self._workers:
                        w.start()
                self._queue_cond.notify()
        return job

    def _resident_rows(self, fingerprint: str) -> list:
        txns = self.datasets.get(fingerprint)
        if txns is None:
            raise RowsNotResident(f"dataset {fingerprint[:12]} is not resident")
        return txns

    def _tenant_counts_locked(self, tenant: str, submitting: bool = False) -> dict:
        """``tenant``'s counters.  A submit makes the name the most recent
        one, folding the least recent into ``OTHER_TENANTS`` when that
        would be one name too many; a job that finishes after its name was
        folded counts where its submit went."""
        counts = self._tenant_counts
        if tenant in counts:
            if submitting:
                counts.move_to_end(tenant)
            return counts[tenant]
        if not submitting:
            return counts[OTHER_TENANTS]
        while len(counts) >= MAX_TENANT_NAMES:
            folded = counts.pop(next(name for name in counts if name != OTHER_TENANTS))
            other = counts.setdefault(OTHER_TENANTS, {"submitted": 0})
            for key, n in folded.items():
                other[key] = other.get(key, 0) + n
        return counts.setdefault(tenant, {"submitted": 0})

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job's record.  Raises :class:`ApiError` 410 ``job_expired``
        for an id this shard minted and has since let go (the table keeps
        ``result_cache_entries`` terminal jobs), 404 ``unknown_job`` for
        one it never minted."""
        with self._lock:
            job = self._jobs.get(job_id)
            minted = self.jobs_submitted
        if job is not None:
            return job
        shard, number = parse_job_id(job_id)
        if shard == (self.name or None) and 0 < number <= minted:
            raise ApiError(
                f"job {job_id!r} finished and is no longer retained",
                status=410, code="job_expired",
            )
        raise ApiError(f"unknown job {job_id!r}", status=404, code="unknown_job")

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` is terminal (or ``timeout`` elapses)."""
        job = self.get(job_id)
        job.wait(timeout)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True when the cancellation took effect.

        A queued job is cancelled immediately; a running job has its cancel
        flag raised and transitions once the worker observes it (its
        job-worker process is killed; a computation that runs in this
        process is abandoned and its result discarded).
        Terminal jobs are left untouched (returns False).
        """
        job = self.get(job_id)
        with self._queue_cond:
            if job.is_terminal:
                return False
            if job.state is JobState.PENDING:
                if job.coalesced_with is not None:
                    self._inflight[job.result_key].remove(job)
                self._finish_locked(job, JobState.CANCELLED, error="cancelled by client")
                return True
            job.cancel_event.set()
            return True

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def jobs_by_state(self) -> dict[str, int]:
        """Jobs accepted so far, by current state (retained or not)."""
        with self._lock:
            return dict(self._state_counts)

    def tenant_stats(self) -> dict:
        """Per-tenant submitted/terminal-state counts, pending depth, and
        SLO weight — the router's balance decisions, observable."""
        with self._lock:
            pending = self._queue.pending()
            stats = {
                tenant: {
                    **counts,
                    "pending": pending.pop(tenant, 0),
                    "weight": self.tenant_weights.get(tenant, 1.0),
                }
                for tenant, counts in self._tenant_counts.items()
            }
            if pending:  # queued under names since folded
                stats[OTHER_TENANTS]["pending"] += sum(pending.values())
            return stats

    def healthz(self) -> dict:
        """The ``GET /healthz`` payload."""
        return {"status": "ok", "workers": len(self._workers)}

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: queue, states, caches, latency
        histograms, per-tenant counts, recent jobs — at a cost that does
        not depend on how many jobs the shard has served."""
        with self._lock:
            tail = list(itertools.islice(reversed(self._jobs.values()), 20))
        recent = []
        for job in reversed(tail):
            entry = job.snapshot()
            metrics = getattr(job.result, "engine_metrics", None)
            if metrics is not None:
                entry["engine_metrics"] = metrics.summary()
            trace = getattr(job.result, "trace", None)
            if trace is not None:
                entry["trace_spans"] = trace.n_spans
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
            # constant: no context outlives a job.  Kept for its one reader,
            # the frozen benchmarks/ledger/client.py:128 (goes with ROADMAP item 1)
            "context_pool": {"idle": 0, "created": 0, "reused": 0},
            "job_workers": _summed([w.stats() for w in self._job_workers]),
            "dataset_owner": self.dataset_registry.owner.stats(),
            "recent_jobs": recent,
        }

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, cancel queued jobs, drain the workers
        (``wait``: up to 10 s per worker thread), then kill the job-worker
        processes — none is left, and a job still out on one fails."""
        with self._queue_cond:
            if self._shutdown:
                return
            self._shutdown = True
            for job in self._queue.drain():
                self._finish_locked(job, JobState.CANCELLED, error="service shut down")
            self._queue_cond.notify_all()
        if wait and self._workers[0].ident is not None:
            for w in self._workers:
                w.join(timeout=10.0)
        self.dataset_registry.close(wait)
        for worker in self._job_workers:
            worker.stop()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- worker internals --------------------------------------------------
    def _worker_loop(self, worker: JobWorker) -> None:
        """pop -> run -> finish; the run holds no service lock.  ``worker``
        is this thread's own job-worker process."""
        while True:
            with self._queue_cond:
                job = None
                while not self._shutdown:
                    job = self._queue.pop()
                    if job is not None:
                        break
                    self._queue_cond.wait()
                if self._shutdown:
                    return
                self._set_state_locked(job, JobState.RUNNING)
                job.started_s = time.monotonic()
                self.queue_wait_hist.record(job.started_s - job.submitted_s)
            state, result, error = self._runner.run(job, worker)
            with self._queue_cond:
                self._finish_locked(job, state, result=result, error=error)

    def _set_state_locked(self, job: Job, state: JobState) -> None:
        self._state_counts[job.state.value] -= 1
        job.state = state
        self._state_counts[state.value] += 1

    def _finish_locked(
        self,
        job: Job,
        state: JobState,
        *,
        result=None,
        error: str | None = None,
        via: str | None = None,
    ) -> None:
        """Transition ``job`` to a terminal state (caller holds the lock),
        retire the oldest retained record past the cap, and settle its
        followers."""
        if job.is_terminal:
            return
        self._queue.discard(job)
        job._txns = job._dataset_entry = None
        self._set_state_locked(job, state)
        job.result = result
        job.error = error
        job.finished_s = time.monotonic()
        if job.started_s is not None:
            self.run_time_hist.record(job.finished_s - job.started_s)
        counts = self._tenant_counts_locked(job.request.tenant)
        counts[state.value] = counts.get(state.value, 0) + 1
        if via is not None:
            job.via = via
        self._finished.append(job.job_id)
        if len(self._finished) > self.results.max_entries:
            del self._jobs[self._finished.popleft()]
        key = job.result_key
        group = self._inflight.get(key)
        followers: list[Job] = []
        if group is not None and group[0] is job:  # the primary leaves: settle the rest
            del self._inflight[key]
            followers = group[1:]
        if state is JobState.DONE and via is None:
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
        elif followers:
            # The primary did not produce a result — promote the first
            # follower to an independent run rather than failing it for
            # someone else's timeout/cancellation; the rest re-attach.
            # Promotion bypasses admission control: the follower never
            # held a queue slot, and it inherits the one its primary freed.
            new_primary = followers[0]
            new_primary.via = "run"
            new_primary.coalesced_with = None
            self._inflight[key] = followers
            self._queue.push(new_primary)
            self._queue_cond.notify()
            for follower in followers[1:]:
                follower.coalesced_with = new_primary.job_id


def _dataset_verb(op):
    def verb(self, *args, **kwargs):
        return getattr(self.dataset_registry, op.call)(*args, **kwargs)

    verb.__name__ = op.call
    verb.__doc__ = f"``DatasetRegistry.{op.call}`` on this service's dataset tier."
    return verb


for _op in OPERATIONS:
    if _op.route == BY_DATASET:
        setattr(MiningService, _op.call, _dataset_verb(_op))
