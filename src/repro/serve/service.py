"""The multi-tenant mining service: priority queue + bounded worker pool.

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

from repro.common.errors import EngineError, MiningError
from repro.core.incremental import FamilyDiff, IncrementalMiner, incremental_store
from repro.core.registry import MiningConfig, get_algorithm, run_algorithm
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

#: server-side cap on one long-poll wait (``/changes``, ``/jobs/<id>``)
#: — below the HTTP client's 30s socket timeout so a quiet feed or a
#: long job answers "nothing yet", not with a connection error
MAX_POLL_S = 25.0


def _mining_key(min_support, max_length, store) -> tuple:
    """What names a dataset's warm miner in ``entry.miners``.  ``store``
    is however the caller spelt it — a job's config, a watcher's query
    argument or nothing — so one logical key is one miner."""
    return (min_support, max_length, incremental_store(store))


def _in_payload_order(by_itemset: dict) -> list:
    """``(itemset, value)`` pairs in the order payloads list them:
    shorter itemsets first, equal lengths in the items' own order.  That
    is a native tuple sort — no key object per itemset, which at a few
    thousand changed itemsets per version is GIL time taken from the
    writer.  Itemsets whose items do not compare with each other (mixed
    types) fall back to the order of their ``str`` forms."""
    try:
        pairs = sorted(by_itemset.items())
    except TypeError:
        pairs = sorted(by_itemset.items(), key=lambda kv: [str(x) for x in kv[0]])
    pairs.sort(key=lambda kv: len(kv[0]))  # stable: item order kept within a length
    return pairs


def _family_payload(family: dict) -> list:
    """JSON-safe ``[[itemset, count], ...]`` in deterministic order."""
    return [[list(itemset), count] for itemset, count in _in_payload_order(family)]


def _diff_payload(diff) -> dict:
    return {
        "added": _family_payload(diff.added),
        "removed": _family_payload(diff.removed),
        "changed": [
            [list(itemset), old, new]
            for itemset, (old, new) in _in_payload_order(diff.changed)
        ],
    }


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
        self.dataset_registry = DatasetRegistry()
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
        # Background ingest flusher: started lazily by the first dataset
        # registered with an age-based policy (flush_age_s / max_age_s);
        # scans entries and applies age-triggered buffer flushes and
        # age-based retires even when no new append arrives.
        self._flusher: threading.Thread | None = None
        self._flusher_stop = threading.Event()
        self._flusher_tick = 0.5
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
        dataset_version = None
        dataset_entry = None
        if dataset_id is not None:
            if transactions is not None:
                raise ServeError("pass transactions or dataset_id, not both")
            entry = self.dataset_registry.get(dataset_id)
            with entry.lock:
                # Read-your-writes: buffered-but-unflushed appends must be
                # visible to a mine of the same dataset, so flush first.
                if entry.pending_buffered:
                    self._apply_advance_locked(entry, entry.take_buffer())
                transactions = list(entry.transactions)
                fingerprint = entry.fingerprint
                dataset_version = entry.version
                # Pin the snapshot version so its prefix-guard entry
                # survives until this job is terminal (released in
                # _finish_locked); unpinned stale versions are pruned.
                entry.pin_version(dataset_version)
            dataset_entry = entry
        elif transactions is None:
            raise ServeError("submit requires transactions or a dataset_id")
        try:
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
            job._dataset_entry = dataset_entry  # pin released there too
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
        except BaseException:
            # The job never reached a terminal state (rejection, shutdown,
            # unexpected error): the pin would otherwise leak its version.
            if dataset_entry is not None:
                dataset_entry.release_version(dataset_version)
            raise

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

    # -- named datasets ----------------------------------------------------
    def create_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        replace: bool = False,
        max_window: int | None = None,
        max_age_s: float | None = None,
        flush_rows: int | None = None,
        flush_age_s: float | None = None,
    ) -> dict:
        """Register a named, versioned dataset; returns its info dict.

        ``max_window`` / ``max_age_s`` are window policies: every advance
        retires the oldest transactions beyond the count/age bound.
        ``flush_rows`` / ``flush_age_s`` turn on the ingest buffer: small
        appends are staged and folded into one delta update when either
        trigger fires (or on ``flush=True`` / a submit for the dataset).

        Raises :class:`ApiError` 409 ``dataset_exists`` when the name is
        taken and ``replace`` is false.  Replacing retires the old entry
        *under its own lock* before invalidating its cache entries — a
        concurrent append through a stale reference either lands before
        that barrier (and is invalidated with the rest) or gets a 409
        ``dataset_retired``.
        """
        entry, old = self.dataset_registry.create(
            dataset_id,
            transactions,
            replace=replace,
            max_window=max_window,
            max_age_s=max_age_s,
            flush_rows=flush_rows,
            flush_age_s=flush_age_s,
        )
        if old is not None:
            with old.lock:
                old.retired = True
                replaced_fp = old.fingerprint
                old.changed.notify_all()  # wake its long-pollers -> 409
            if replaced_fp != entry.fingerprint:
                self.datasets.remove(replaced_fp)
                self.results.invalidate_dataset(replaced_fp)
        if entry.flush_age_s is not None or entry.max_age_s is not None:
            self._ensure_flusher(entry)
        with entry.lock:
            self.datasets.add(list(entry.transactions), entry.fingerprint)
            return entry.info()

    def append_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        expected_version: int | None = None,
        flush: bool = False,
    ) -> dict:
        """Append transactions to a named dataset and invalidate everything
        cached for the old version.

        On a buffering dataset the delta is *staged*: the window (and
        version) only advance when a flush trigger fires — ``flush_rows``
        staged, the buffer older than ``flush_age_s``, ``flush=True``, or
        a submit for this dataset.  The returned info dict's ``flushed``
        says which happened; ``buffered`` counts rows still staged.

        ``expected_version`` is optimistic concurrency control: when set
        and the dataset has moved on, raises :class:`ApiError` 409
        ``version_conflict`` instead of appending.  ``invalidated_results``
        reports how many stale cached results a flush evicted.
        """
        entry = self.dataset_registry.get(dataset_id)
        with entry.lock:
            entry.check_live()
            if expected_version is not None and entry.version != expected_version:
                raise ApiError(
                    f"dataset {dataset_id!r} is at version {entry.version}, "
                    f"expected {expected_version}",
                    status=409,
                    code="version_conflict",
                )
            delta = list(transactions) if transactions is not None else []
            if not delta and not flush:
                raise ApiError("append requires at least one transaction")
            if delta:
                self.dataset_registry.record_append()
            if entry.buffering:
                entry.buffer_add(delta)
                if not flush and not entry.buffer_ready():
                    info = entry.info()
                    info["invalidated_results"] = 0
                    info["flushed"] = False
                    return info
                delta = entry.take_buffer()
            invalidated, _ = self._apply_advance_locked(entry, delta)
            info = entry.info()
        info["invalidated_results"] = invalidated
        info["flushed"] = True
        return info

    def _apply_advance_locked(self, entry, delta: list) -> tuple[int, object]:
        """Advance ``entry`` by ``delta`` + any due policy retire, keep the
        caches and warm miners coherent, and feed the change log (caller
        holds ``entry.lock``).  Returns ``(invalidated_results, AppendResult
        or None)``."""
        res = entry.append(delta)
        if res is None:
            return 0, None
        self.dataset_registry.record_flush()
        self._sync_miners_locked(entry, res)
        # stale-version hygiene: the old window must never be served
        # again — drop its parsed copy and every memoized result for it
        self.datasets.remove(res.old_fingerprint)
        invalidated = self.results.invalidate_dataset(res.old_fingerprint)
        self.datasets.add(list(entry.transactions), res.new_fingerprint)
        entry.changed.notify_all()
        return invalidated, res

    def _sync_miners_locked(self, entry, res) -> None:
        """Bring warm miners in step with one window advance.

        Watched mining keys update eagerly on every advance — their
        :class:`~repro.core.incremental.FamilyDiff` transitions are what
        the change feed ships.  Unwatched miners stay lazy (the next job
        folds the delta) *except* across a retire: the retired rows leave
        the window now, so every miner must retire now or its window
        stops being a prefix of the entry's.  A miner that cannot follow
        (e.g. the retire would empty it) is dropped and rebuilt on demand.
        """
        for mkey, miner in list(entry.miners.items()):
            watch = entry.watches.get(mkey)
            if watch is None and res.n_retired == 0:
                continue
            try:
                # ONE update per version bump: the window between the
                # append and the retire is never mined
                update = miner.slide(
                    res.pre_trim_window[miner.n_transactions :], res.n_retired
                )
            except MiningError:
                del entry.miners[mkey]
                if watch is not None:
                    watch.reset()
                continue
            if watch is not None and watch.start_version is not None:
                watch.record(
                    res.old_version, res.new_version, update.family_diff or FamilyDiff()
                )

    def dataset_info(self, dataset_id: str) -> dict:
        """Info dict for a named dataset (404 ``unknown_dataset`` if absent)."""
        return self.dataset_registry.get(dataset_id).info()

    def dataset_changes(
        self,
        dataset_id: str,
        *,
        since: int,
        min_support: float,
        max_length: int | None = None,
        candidate_store: str | None = None,
        timeout_s: float = 0.0,
    ) -> dict:
        """The change feed: what happened to the frequent-itemset family
        of ``dataset_id`` (under the given mining key) since version
        ``since``.

        Establishes a watch on first use — the dataset's warm miner for
        the key is built (a full mine) and from then on updated eagerly
        on every window advance, logging one
        :class:`~repro.core.incremental.FamilyDiff` per version
        transition.  When ``since`` is the current version the call
        long-polls up to ``timeout_s`` (capped server-side) for the next
        advance.  A ``since`` older than the log covers answers
        ``reset=true`` with the full current family instead of a diff.
        """
        entry = self.dataset_registry.get(dataset_id)
        deadline = time.monotonic() + max(0.0, min(float(timeout_s), MAX_POLL_S))
        with entry.changed:
            entry.check_live()
            if since > entry.version:
                raise ApiError(
                    f"since={since} is ahead of {dataset_id!r} version {entry.version}"
                )
            mkey, miner = self._ensure_watch_locked(
                entry, min_support, max_length, candidate_store
            )
            while entry.version == since and not entry.retired:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                entry.changed.wait(remaining)
            entry.check_live()
            header, diff, family = self._changes_locked(entry, mkey, since)
        # Sorting and rendering every changed itemset is the slow part of
        # an answer, and nothing in it needs the dataset any more: the
        # writer's next append or submit must not queue behind it.
        if diff is None:
            return {**header, "reset": True, "family": _family_payload(family)}
        return {**header, "reset": False, **_diff_payload(diff)}

    def _ensure_watch_locked(self, entry, min_support, max_length, candidate_store):
        """The (mining key, warm miner) for a change-feed subscription,
        building or catching up the miner so its window IS the entry's
        current window (caller holds ``entry.lock``)."""
        mkey = _mining_key(min_support, max_length, candidate_store)
        if entry.pending_buffered:
            self._apply_advance_locked(entry, entry.take_buffer())
        watch = entry.watch(mkey)
        miner = entry.miners.get(mkey)
        if miner is None:
            miner = IncrementalMiner(
                list(entry.transactions),
                min_support,
                max_length=max_length,
                candidate_store=mkey[-1],
            )
            entry.miners[mkey] = miner
            watch.reset()
        elif miner.n_transactions < len(entry.transactions):
            # Lazily-behind miner: fold the pending delta now.  The
            # skipped transitions predate the watch baseline being set
            # below, so no log entries are lost to subscribers.
            miner.append(entry.transactions[miner.n_transactions :])
        miner.track_family_diff = True  # from here on somebody reads it
        if watch.start_version is None:
            watch.start_version = entry.version
            watch.log.clear()
        return mkey, miner

    def _changes_locked(self, entry, mkey, since: int) -> tuple:
        """``(payload header, diff, family)`` for a change-feed answer:
        the composed diff from ``since``, or — when the log no longer
        covers ``since`` — ``None`` and a snapshot of the full family
        (caller holds ``entry.lock``; both are the caller's to render)."""
        header = {
            "dataset_id": entry.dataset_id,
            "since": since,
            "version": entry.version,
            "n_transactions": len(entry.transactions),
        }
        diff = entry.changes_since(mkey, since)
        family = entry.miners[mkey].itemsets() if diff is None else None
        return header, diff, family

    # -- ingest flusher ----------------------------------------------------
    def _ensure_flusher(self, entry) -> None:
        """Start (or re-tune) the background flusher for age triggers."""
        ages = [a for a in (entry.flush_age_s, entry.max_age_s) if a is not None]
        if ages:
            self._flusher_tick = min(
                self._flusher_tick, max(0.02, min(ages) / 4.0)
            )
        with self._lock:
            if self._flusher is not None or self._shutdown:
                return
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="repro-serve-flusher", daemon=True
            )
        self._flusher.start()

    def _flusher_loop(self) -> None:
        while not self._flusher_stop.wait(self._flusher_tick):
            for dataset_id in self.dataset_registry.ids():
                try:
                    entry = self.dataset_registry.get(dataset_id)
                except ServeError:
                    continue
                try:
                    with entry.lock:
                        if entry.retired:
                            continue
                        if entry.pending_buffered and entry.buffer_ready():
                            self._apply_advance_locked(entry, entry.take_buffer())
                        elif entry.age_retire_due():
                            self._apply_advance_locked(entry, [])
                except ServeError:
                    # hygiene loop: one entry's failure must not stop the rest
                    continue

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
        self._flusher_stop.set()
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
            if self._flusher is not None:
                self._flusher.join(timeout=5.0)
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
                if (
                    config.approx
                    or config.incremental
                    or get_algorithm(config.algorithm).needs_engine
                ):
                    ctx = self.contexts.acquire(
                        config.backend, config.parallelism, label=job.job_id
                    )
                result = None
                if config.incremental and job.dataset_id is not None:
                    result = self._run_incremental_warm(job, txns, ctx)
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

    def _run_incremental_warm(self, job: Job, txns: list, ctx):
        """Serve an incremental named-dataset job from the dataset's warm
        :class:`~repro.core.incremental.IncrementalMiner`.

        The first job for a (dataset, mining-key) pair builds the miner
        (a full mine); every later job pays one delta pass over the
        transactions appended since the miner's window — the ≥5× update
        win the incremental tier exists for.  The engine context is only
        *lent* to the persistent miner for the duration of the call; the
        miner itself outlives the job inside the dataset entry.

        Returns ``None`` (→ cold ``run_algorithm``) when warm state
        cannot answer this job's snapshot: the dataset was deleted or
        replaced, or the miner's window is already ahead of the snapshot
        (an append landed after this job was submitted — the job must
        still answer for its own version).
        """
        config = job.request.config
        try:
            entry = self.dataset_registry.get(job.dataset_id)
        except ServeError:
            return None
        mkey = _mining_key(config.min_support, config.max_length, config)
        with entry.lock:
            if entry.versions.get(job.dataset_version) != job.dataset_fingerprint:
                return None  # replaced under the same name: snapshot mismatch
            miner = entry.miners.get(mkey)
            if miner is None:
                miner = IncrementalMiner(
                    txns,
                    config.min_support,
                    max_length=config.max_length,
                    candidate_store=mkey[-1],
                    num_partitions=config.num_partitions,
                    ctx=ctx,
                    # a job reads families, not diffs: the miner starts
                    # emitting them when a watch on its key asks
                    track_family_diff=False,
                )
                try:
                    return miner.result()
                finally:
                    miner.ctx = None
                    entry.miners[mkey] = miner
            if miner.n_transactions > len(txns):
                return None
            miner.ctx = ctx
            try:
                delta = txns[miner.n_transactions :]
                if delta:
                    miner.append(delta)
                return miner.result()
            finally:
                miner.ctx = None

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
        if job._dataset_entry is not None:
            # Lock order here is service lock -> entry lock; safe because
            # no path acquires the service lock while holding an entry
            # lock (dataset mutation never touches the queue).
            entry = job._dataset_entry
            job._dataset_entry = None
            entry.release_version(job.dataset_version)
        job._txns = None
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
