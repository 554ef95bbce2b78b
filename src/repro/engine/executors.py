"""Executor backends: serial, persistent process pool.

The scheduler hands an executor a batch of :class:`~repro.engine.stage.Task`
objects; the executor returns ``(task, result_or_exception)`` pairs.

The process backend keeps **persistent, stateful workers**: a task ships
as a small closure blob plus *references* to named data blocks
(broadcast payloads, cached RDD partitions, parallelized source slices,
shuffle segments) — no data and no lineage below a block rides in the
closure — and each
worker resolves the references through its process-local
:class:`~repro.engine.workerstore.WorkerBlockStore` — the driver pushes
blocks a worker lacks piggybacked on the task batch, the worker pulls
anything else (e.g. after an LRU eviction) over its pipe.  Tasks are
batched per worker slot so one cloudpickle round covers the whole batch,
and every shipped byte is accounted in :class:`ShippingMetrics`.
"""

from __future__ import annotations

import collections
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.stage import Task, TaskResult


@dataclass
class ShippingMetrics:
    """Driver-side accounting of everything the process pool ships.

    ``naive_block_bytes`` models the seed per-task-pickling path (every
    task re-ships every payload it references) so benchmarks can report
    the saving without re-running the old code.
    """

    batches: int = 0
    task_bytes: int = 0  # serialized closure blobs (per-batch, shared graph)
    result_bytes: int = 0
    blocks_pushed: int = 0
    block_bytes_pushed: int = 0
    blocks_pulled: int = 0
    block_bytes_pulled: int = 0
    ref_requests: int = 0  # (batch, ref) demand
    dedup_hits: int = 0  # refs already resident on the target worker
    broadcast_blocks_shipped: int = 0
    broadcast_bytes_shipped: int = 0
    broadcast_unique_blocks: int = 0
    broadcast_payload_bytes: int = 0  # sum of distinct broadcast blob sizes
    naive_block_bytes: int = 0  # modeled per-task embedding volume
    worker_store_evictions: int = 0
    worker_store_hits: int = 0

    @property
    def dedup_hit_rate(self) -> float:
        return self.dedup_hits / self.ref_requests if self.ref_requests else 0.0

    @property
    def total_shipped_bytes(self) -> int:
        return self.task_bytes + self.block_bytes_pushed + self.block_bytes_pulled


class Executor:
    """Backend interface."""

    needs_preload = False  # True when tasks run outside the driver process
    shipping_metrics: ShippingMetrics | None = None
    #: Called as ``hook(bc_id, worker_id, nbytes)`` whenever a broadcast
    #: payload physically reaches a worker (wired by the Context to
    #: ``BroadcastManager.record_shipment``).
    broadcast_ship_hook: Callable[[int, str, int], None] | None = None

    def run_tasks(self, tasks: list["Task"]) -> list[tuple["Task", "TaskResult | BaseException"]]:
        raise NotImplementedError

    def offer_block(self, key: tuple, data: Any, owner: Any = None) -> None:
        """Driver-side registration of a referenceable payload (no-op for
        backends that share the driver's memory).  A payload nothing will
        ever invalidate explicitly (a parallelized slice) names its
        ``owner``: it is forgotten once the owner is garbage collected."""

    def invalidate_block(self, key: tuple) -> None:
        """Forget a payload (destroyed broadcast); workers drop it too."""

    def invalidate_prefix(self, prefix: tuple) -> None:
        """Forget every payload whose key starts with ``prefix`` — e.g.
        ``("shuf", 3)`` when shuffle 3's map outputs are released, or
        ``("rdd",)`` when the block manager is cleared.  Iterative jobs
        rely on this to keep driver and worker memory bounded."""

    def shipped_bytes_total(self) -> int:
        return 0

    def shutdown(self) -> None:
        pass

    @property
    def parallelism(self) -> int:
        return 1


class SerialExecutor(Executor):
    """Runs tasks one by one on the driver thread (deterministic; used by
    the benchmark harness so per-task durations are interference-free)."""

    def run_tasks(self, tasks):
        out = []
        for task in tasks:
            try:
                out.append((task, task.run(worker_id="worker-0")))
            except BaseException as exc:  # noqa: BLE001 - scheduler decides
                out.append((task, exc))
        return out


@dataclass
class _WorkerHandle:
    """One pool slot: its process and what the driver believes it holds."""

    slot: int
    process: Any = None  # the slot's WorkerProcess
    known: set = field(default_factory=set)  # keys believed resident
    pending_drops: list = field(default_factory=list)

    @property
    def worker_id(self) -> str:
        return f"worker-{self.slot}"


class ProcessExecutor(Executor):
    """Persistent process-pool backend with worker-resident block caches.

    Workers are long-lived (stable ``worker-{slot}`` identities, one pipe
    each); ``run_tasks`` batches tasks round-robin across slots, ships
    each batch as one cloudpickle blob with broadcasts reduced to ids,
    and pushes only the block payloads the target worker does not
    already hold.  Worker-side misses (LRU evictions, restarts) fall
    back to a pull over the pipe.  How a worker starts, dies and ends is
    :class:`~repro.engine.workerstore.WorkerProcess`'s.
    """

    needs_preload = True

    def __init__(self, n_processes: int | None = None, worker_store_bytes: int | None = None):
        from repro.engine.workerstore import DEFAULT_STORE_BYTES

        self._n = n_processes or max(1, (os.cpu_count() or 2) - 1)
        self._store_budget = (
            DEFAULT_STORE_BYTES if worker_store_bytes is None else worker_store_bytes
        )
        self._handles: list[_WorkerHandle] | None = None
        self._dispatch: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._driver_blocks: dict[tuple, Any] = {}  # key -> payload object
        self._blob_cache: dict[tuple, bytes] = {}  # key -> serialized payload
        self._bc_payloads: dict[tuple, Any] = {}  # ("bc", id) -> Broadcast
        # Keys whose owner died; finalizers only append (they can fire
        # inside any allocation, also under ``_lock``), ``run_tasks`` drains.
        self._orphaned: collections.deque[tuple] = collections.deque()
        self.shipping_metrics = ShippingMetrics()

    @property
    def parallelism(self) -> int:
        return self._n

    # -- driver-side block registry ---------------------------------------
    def offer_block(self, key: tuple, data: Any, owner: Any = None) -> None:
        with self._lock:
            if key not in self._driver_blocks:
                self._driver_blocks[key] = data
                if owner is not None:
                    weakref.finalize(owner, self._orphaned.append, key)

    def invalidate_block(self, key: tuple) -> None:
        self.invalidate_prefix(key)

    def invalidate_prefix(self, prefix: tuple) -> None:
        n = len(prefix)
        with self._lock:
            for registry in (self._driver_blocks, self._blob_cache, self._bc_payloads):
                for key in [k for k in registry if k[:n] == prefix]:
                    del registry[key]
            if self._handles:
                for handle in self._handles:
                    dropped = [k for k in handle.known if k[:n] == prefix]
                    if dropped:
                        handle.known.difference_update(dropped)
                        handle.pending_drops.extend(dropped)

    def shipped_bytes_total(self) -> int:
        return self.shipping_metrics.total_shipped_bytes

    def _payload_blob(self, key: tuple) -> bytes | None:
        """Serialized payload for ``key``: a broadcast's own blob, or one
        pickling per block — under the lock, so a concurrent dispatch
        thread waits for the blob instead of making a second one (pickling
        holds the GIL either way)."""
        import cloudpickle

        with self._lock:
            blob = self._blob_cache.get(key)
            if blob is None:
                if key in self._bc_payloads:
                    blob = self._bc_payloads[key].shipping_blob()
                elif key in self._driver_blocks:
                    blob = cloudpickle.dumps(self._driver_blocks[key])
                if blob is not None:
                    self._blob_cache[key] = blob
            return blob

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_started(self) -> None:
        if self._handles is not None:
            return
        # on the calling thread, before the dispatch threads exist: a
        # single-threaded driver forks its pool
        self._handles = [self._start_slot(slot) for slot in range(self._n)]
        self._dispatch = ThreadPoolExecutor(
            max_workers=self._n, thread_name_prefix="repro-ship"
        )

    def _start_slot(self, slot: int) -> _WorkerHandle:
        from repro.engine.workerstore import WorkerProcess, _worker_main

        handle = _WorkerHandle(slot)

        def forget() -> None:  # a replacement holds nothing
            with self._lock:
                handle.known.clear()
                handle.pending_drops.clear()

        handle.process = WorkerProcess(
            f"repro-worker-{slot}", _worker_main, lambda: (slot, self._store_budget), forget
        )
        handle.process.start()
        return handle

    # -- execution ---------------------------------------------------------
    def run_tasks(self, tasks):
        if not tasks:
            return []
        self._ensure_started()
        while self._orphaned:
            self.invalidate_prefix(self._orphaned.popleft())
        batches: list[list] = [[] for _ in range(self._n)]
        for i, task in enumerate(tasks):
            batches[i % self._n].append(task)
        futures = [
            self._dispatch.submit(self._run_batch, slot, batch)
            for slot, batch in enumerate(batches)
            if batch
        ]
        out = []
        for fut in futures:
            out.extend(fut.result())
        return out

    def _run_batch(self, slot: int, batch: list):
        import pickle

        import cloudpickle

        from repro.engine.broadcast import broadcast_key, ship_broadcasts_by_ref
        from repro.engine.dependencies import ship_without_lineage

        handle = self._handles[slot]
        ms = self.shipping_metrics

        # One cloudpickle round per batch: the RDD graph is serialized
        # once (pickle memoization shares it across the batch's tasks),
        # broadcasts collapse to ids, collected for shipping below, and
        # RDDs the stage reads as blocks collapse to stubs (a batch never
        # mixes stages, so its tasks share one resident set).
        collector: dict[int, Any] = {}
        with ship_broadcasts_by_ref(collector), ship_without_lineage(batch[0].resident_rdds):
            batch_blob = cloudpickle.dumps(batch)

        bc_refs = {broadcast_key(bc_id): bc for bc_id, bc in collector.items()}
        with self._lock:
            self._bc_payloads.update(bc_refs)
        ref_demand: dict[tuple, int] = {}  # key -> number of referencing tasks
        for key in bc_refs:
            ref_demand[key] = len(batch)  # the closure is shared batch-wide
        for task in batch:
            for key in task.block_refs:
                ref_demand[key] = ref_demand.get(key, 0) + 1

        push: dict[tuple, bytes] = {}
        for key in sorted(ref_demand):
            blob = self._payload_blob(key)
            if blob is None:
                continue  # resolvable driver-side only; worker will fail loudly
            demand = ref_demand[key]
            with self._lock:
                # Count demand per *task reference*: that is the unit the
                # seed shipped at (one embedded copy per task), so the
                # dedup hit-rate reads as "fraction of references served
                # from a worker-resident copy".
                ms.ref_requests += demand
                ms.naive_block_bytes += len(blob) * demand
                if key in handle.known:
                    ms.dedup_hits += demand
                    continue
                push[key] = blob
                ms.dedup_hits += demand - 1  # one shipment covers the rest
                handle.known.add(key)
                ms.blocks_pushed += 1
                ms.block_bytes_pushed += len(blob)
                if key[0] == "bc":
                    self._record_broadcast_shipment(key, handle, len(blob))
        with self._lock:
            drops, handle.pending_drops = handle.pending_drops, []

        def pulled(key: tuple) -> bytes | None:
            blob = self._payload_blob(key)
            if blob is not None:
                with self._lock:
                    handle.known.add(key)
                    ms.blocks_pulled += 1
                    ms.block_bytes_pulled += len(blob)
                    if key[0] == "bc":
                        self._record_broadcast_shipment(key, handle, len(blob))
            return blob

        try:
            reply, _ = handle.process.exchange(
                pickle.dumps(("run", batch_blob, drops, push), pickle.HIGHEST_PROTOCOL), pulled
            )
        except EngineError as err:  # the worker died; its replacement is up
            return [(task, err) for task in batch]
        _tag, results_blob, stored_keys, stats = reply

        with self._lock:
            handle.known.update(stored_keys)
            ms.batches += 1
            ms.task_bytes += len(batch_blob)
            ms.result_bytes += len(results_blob)
            ms.worker_store_evictions += stats.get("evictions", 0)
            ms.worker_store_hits += stats.get("store_hits", 0)

        outcomes = pickle.loads(results_blob)
        if len(outcomes) != len(batch):
            # zip() would silently drop tasks; a worker that miscounts its
            # batch cannot be trusted — restart it and fail the whole batch
            # as retryable so the scheduler re-runs every task.
            handle.process.start()
            err = EngineError(
                f"worker-{slot} returned {len(outcomes)} outcomes for a "
                f"batch of {len(batch)} tasks"
            )
            return [(task, err) for task in batch]
        out = []
        for task, (ok, payload) in zip(batch, outcomes):
            if ok:
                payload.task = task  # reattach the driver's Task object
            out.append((task, payload))
        return out

    def _record_broadcast_shipment(self, key: tuple, handle: _WorkerHandle, nbytes: int) -> None:
        """Caller holds ``self._lock``."""
        ms = self.shipping_metrics
        ms.broadcast_blocks_shipped += 1
        ms.broadcast_bytes_shipped += nbytes
        shipped_before = any(
            key in h.known for h in self._handles if h is not handle
        )
        if not shipped_before:
            ms.broadcast_unique_blocks += 1
            ms.broadcast_payload_bytes += nbytes
        if self.broadcast_ship_hook is not None:
            self.broadcast_ship_hook(key[1], handle.worker_id, nbytes)

    def shutdown(self) -> None:
        if self._handles is not None:
            for handle in self._handles:
                handle.process.kill()
            self._handles = None
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None


#: Valid ``backend=`` names, in documentation order.  The CLI derives its
#: ``--backend`` choices from this tuple so typos fail at argument parsing
#: instead of deep inside the engine.
BACKENDS = ("serial", "processes")

#: The backend of a caller who names none (``MiningConfig``, the one-shot
#: API, ``Context`` and the CLI read it): every kernel is pure Python, so
#: only separate processes run two at once, and they pay only on inputs
#: large enough to amortise the pool's start (docs/engine.md).
DEFAULT_BACKEND = "serial"


def make_executor(
    backend: str,
    parallelism: int | None = None,
    worker_store_bytes: int | None = None,
) -> Executor:
    """Factory: ``"serial"`` or ``"processes"``.

    ``worker_store_bytes`` budgets each process-pool worker's resident
    block cache (ignored by ``serial``).
    """
    if backend == "serial":
        return SerialExecutor()
    if backend == "processes":
        return ProcessExecutor(parallelism, worker_store_bytes=worker_store_bytes)
    raise ValueError(
        f"unknown executor backend {backend!r}; valid backends: {', '.join(BACKENDS)}"
    )
