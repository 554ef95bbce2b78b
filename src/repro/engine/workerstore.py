"""Worker-resident block store for the persistent process-pool backend.

The paper's §IV-C economics — ship the candidate hash tree once per node
per iteration, keep the transaction data resident — only hold if workers
outlive tasks and remember what they were sent.  This module is the
worker half of that design (the driver half is
:class:`~repro.engine.executors.ProcessExecutor`):

* a task arrives as a small closure blob plus *references* to named data
  blocks — ``("bc", broadcast_id)``, ``("rdd", rdd_id, partition)`` (a
  cached partition or a parallelized collection's slice) or
  ``("shuf", shuffle_id, partition)``;
* each worker process owns one :class:`WorkerBlockStore`, an LRU cache
  with a byte budget, that resolves those references;
* on a miss the worker **pulls** the block once from the driver over its
  IPC pipe (the driver also **pushes** blocks it knows the worker lacks,
  piggybacked on the task batch), after which every later task on the
  worker hits the cache;
* a worker outlives tasks but never its driver: :func:`exit_with_parent`
  (shared with the serve tier's job workers, which also reuse the store
  and the pull half of this protocol for resident transaction rows).

This mirrors Spark's Torrent broadcast + executor-side block manager
(see PAPERS.md: Zaharia et al., NSDI'12): data moves by id, workers
cache it, and the driver ships each payload at most once per worker.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.common.errors import EngineError

#: Default per-worker cache budget (bytes).  Large enough to hold a
#: YAFIM iteration's hash tree plus several cached transaction
#: partitions at benchmark scale; small enough that a worker never
#: doubles the driver's footprint.
DEFAULT_STORE_BYTES = 64 * 1024 * 1024

_MISS = object()


def broadcast_key(bc_id: int) -> tuple:
    return ("bc", bc_id)


def rdd_block_key(rdd_id: int, partition: int) -> tuple:
    return ("rdd", rdd_id, partition)


def shuffle_block_key(shuffle_id: int, partition: int) -> tuple:
    return ("shuf", shuffle_id, partition)


class WorkerBlockStore:
    """Process-local LRU cache of resolved blocks, byte-budgeted.

    Values are stored *deserialized* (a worker resolves a block many
    times but deserializes it once); sizes are the serialized blob
    lengths the driver shipped, which keeps the budget comparable to
    actual transfer volume.
    """

    def __init__(self, budget_bytes: int | None = DEFAULT_STORE_BYTES):
        self.budget_bytes = budget_bytes  # None = unbounded
        self._blocks: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Any:
        """The cached value, or the :data:`_MISS` sentinel (checked via
        :meth:`lookup` by callers outside this module)."""
        entry = self._blocks.get(key)
        if entry is None:
            self.misses += 1
            return _MISS
        self._blocks.move_to_end(key)
        self.hits += 1
        return entry[0]

    def lookup(self, key: tuple) -> tuple[bool, Any]:
        """(hit, value) — the miss-sentinel-free public accessor."""
        value = self.get(key)
        return (value is not _MISS, None if value is _MISS else value)

    def put(self, key: tuple, value: Any, nbytes: int) -> None:
        old = self._blocks.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._blocks[key] = (value, nbytes)
        self.total_bytes += nbytes
        if self.budget_bytes is not None:
            # Keep at least the newest block even when it alone exceeds
            # the budget — evicting the block a task is about to use
            # would livelock the pull protocol.
            while self.total_bytes > self.budget_bytes and len(self._blocks) > 1:
                _victim, (_value, size) = self._blocks.popitem(last=False)
                self.total_bytes -= size
                self.evictions += 1

    def remove(self, key: tuple) -> bool:
        entry = self._blocks.pop(key, None)
        if entry is not None:
            self.total_bytes -= entry[1]
            return True
        return False

    def __contains__(self, key: tuple) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)


class WorkerRuntime:
    """Per-process execution environment: the store plus the pull channel."""

    def __init__(self, store: WorkerBlockStore, conn, worker_id: str):
        self.store = store
        self.conn = conn
        self.worker_id = worker_id
        # Per-batch accounting, reset by the worker loop:
        self.pulled = 0
        self.pulled_bytes = 0
        self.local_hits = 0

    def resolve(self, key: tuple) -> Any:
        """Resolve a block reference: local cache first, pull on a miss."""
        import pickle

        value = self.store.get(key)
        if value is not _MISS:
            self.local_hits += 1
            return value
        self.conn.send(("pull", key))
        tag, rkey, blob = self.conn.recv()
        if tag != "block" or rkey != key:  # protocol is strictly request/reply
            raise EngineError(f"worker pull protocol violation: got {tag} for {key}")
        if blob is None:
            raise EngineError(f"driver has no payload for block {key}")
        value = pickle.loads(blob)
        self.store.put(key, value, len(blob))
        self.pulled += 1
        self.pulled_bytes += len(blob)
        return value


_runtime: WorkerRuntime | None = None


def set_worker_runtime(runtime: WorkerRuntime | None) -> None:
    global _runtime
    _runtime = runtime


def current_worker_runtime() -> WorkerRuntime | None:
    return _runtime


def resolve_block(key: tuple) -> Any:
    """Resolve a block reference in the current worker process (used by
    :class:`~repro.engine.broadcast.Broadcast` when shipped by id)."""
    if _runtime is None:
        raise EngineError(
            f"block reference {key} resolved outside a worker process "
            "(by-reference payloads only exist inside the process pool)"
        )
    return _runtime.resolve(key)


def exit_with_parent(last_act=None) -> None:
    """Called first thing in a worker process: from here on it dies when
    its parent does, however the parent went (SIGKILL included) — after
    ``last_act()``, if given (a worker removing its own temporary files).

    A pipe's EOF cannot say so: a forked worker inherits the parent end of
    its own pipe — and of every sibling's started before it — so
    ``conn.recv()`` blocks forever on a dead driver.  The parent's
    ``multiprocessing`` sentinel does fire; a daemon thread parks on it
    (costing a task batch nothing) and ``os._exit``\ s, whether the worker
    is waiting for work, mid-task, mid-pull or blocked sending a result
    nobody will read.  Siblings holding each other's sentinels go in
    reverse start order, each death releasing the next.
    """
    import multiprocessing
    import os
    import threading
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:  # not a multiprocessing child: nobody to follow
        return

    def watch() -> None:
        wait([parent.sentinel])
        try:
            if last_act is not None:
                last_act()
        finally:
            os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _worker_main(conn, slot: int, budget_bytes: int | None) -> None:
    """Persistent worker loop: receive task batches, resolve block refs
    through the local store (pulling misses from the driver), run tasks,
    return the results; gone with its driver (:func:`exit_with_parent`).

    Protocol (driver -> worker):
      ``("run", batch_blob, drops, push)`` — run a batch; ``drops`` are
      keys to forget (destroyed broadcasts), ``push`` maps keys to
      serialized payloads the driver believes this worker lacks.
      ``("stop",)`` — exit the loop.

    Worker -> driver:
      ``("pull", key)`` — mid-batch block request (replied with
      ``("block", key, blob)``).
      ``("done", results_blob, stored_keys, stats)`` — batch finished;
      ``stored_keys`` are blocks the worker now additionally holds (from
      cache-backs), so the driver can skip pushing them later.
    """
    import pickle

    import cloudpickle

    exit_with_parent()
    store = WorkerBlockStore(budget_bytes)
    worker_id = f"worker-{slot}"
    runtime = WorkerRuntime(store, conn, worker_id)
    set_worker_runtime(runtime)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _tag, batch_blob, drops, push = msg
            for key in drops:
                store.remove(key)
            for key, blob in push.items():
                store.put(key, pickle.loads(blob), len(blob))
            runtime.pulled = 0
            runtime.pulled_bytes = 0
            runtime.local_hits = 0
            evictions_before = store.evictions
            stored_keys: list[tuple] = []
            tasks = pickle.loads(batch_blob)
            outcomes = []
            for task in tasks:
                try:
                    task.resolve_refs(runtime.resolve)
                    result = task.run(worker_id=worker_id)
                    for (rdd_id, part), data in result.cache_back.items():
                        key = rdd_block_key(rdd_id, part)
                        from repro.common.sizeof import estimate_size

                        store.put(key, data, estimate_size(data))
                        stored_keys.append(key)
                    # The driver reattaches its own Task object by batch
                    # order; shipping the graph back would undo the
                    # closure-splitting savings.
                    result.task = None
                    outcomes.append((True, result))
                except BaseException as exc:  # noqa: BLE001 - scheduler decides
                    outcomes.append((False, _picklable_exception(exc)))
            stats = {
                "evictions": store.evictions - evictions_before,
                "store_hits": runtime.local_hits,
                "store_blocks": len(store),
                "store_bytes": store.total_bytes,
            }
            conn.send(("done", cloudpickle.dumps(outcomes), stored_keys, stats))
    finally:
        set_worker_runtime(None)
        conn.close()


def _picklable_exception(exc: BaseException) -> BaseException:
    """Exceptions cross the pipe by pickle; fall back to a summary when
    the original carries unpicklable state."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001
        return EngineError(f"{type(exc).__name__}: {exc}")
