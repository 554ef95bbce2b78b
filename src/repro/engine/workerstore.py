"""Persistent worker processes: one lifecycle, and the block store a
worker keeps.

The paper's §IV-C economics — ship the candidate hash tree once per node
per iteration, keep the transaction data resident — only hold if workers
outlive tasks and remember what they were sent.  This module is that
machinery, once, for the engine's
:class:`~repro.engine.executors.ProcessExecutor` pool and the serve
tier's :class:`~repro.serve.jobworker.JobWorker`:

* :class:`WorkerProcess`, the driver's handle on one child: fork or spawn
  decided at every start (:func:`start_method`), one
  :meth:`~WorkerProcess.exchange` that serves the child's pulls until its
  reply arrives, a dead child replaced and reported as ``EngineError``,
  :meth:`~WorkerProcess.kill` to end one;
* :func:`worker_loop`, the child: gone with its parent
  (:func:`exit_with_parent`), deaf to SIGINT, one :class:`WorkerBlockStore`
  (a byte-budgeted LRU), then receive → handle → reply;
* what a worker is sent names data by *reference* — ``("bc", id)``,
  ``("rdd", rdd_id, partition)`` (a cached partition or a parallelized
  slice), ``("shuf", shuffle_id, partition)``, a job worker's ``("rows",
  fingerprint)`` — and on a miss the worker **pulls** the block once over
  its pipe (the engine's driver also **pushes** blocks it knows the worker
  lacks, piggybacked on the task batch); every later request hits the cache.

This mirrors Spark's Torrent broadcast + executor-side block manager
(see PAPERS.md: Zaharia et al., NSDI'12): data moves by id, workers
cache it, and the driver ships each payload at most once per worker.
"""

from __future__ import annotations

import threading
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
        self.evictions = 0

    def get(self, key: tuple) -> Any:
        """The cached value, or the :data:`_MISS` sentinel."""
        entry = self._blocks.get(key)
        if entry is None:
            return _MISS
        self._blocks.move_to_end(key)
        self.hits += 1
        return entry[0]

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

    def __len__(self) -> int:
        return len(self._blocks)


class WorkerRuntime:
    """Per-process execution environment: the store plus the pull channel."""

    def __init__(self, store: WorkerBlockStore, conn, worker_id: str):
        self.store = store
        self.conn = conn
        self.worker_id = worker_id

    def resolve(self, key: tuple) -> Any:
        """Resolve a block reference: local cache first, pull on a miss."""
        import pickle

        value = self.store.get(key)
        if value is not _MISS:
            return value
        self.conn.send(("pull", key))
        tag, rkey, blob = self.conn.recv()
        if tag != "block" or rkey != key:  # protocol is strictly request/reply
            raise EngineError(f"worker pull protocol violation: got {tag} for {key}")
        if blob is None:
            raise EngineError(f"driver has no payload for block {key}")
        value = pickle.loads(blob)
        self.store.put(key, value, len(blob))
        return value


_runtime: WorkerRuntime | None = None  # this process's, set by worker_loop


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


#: how often a :meth:`WorkerProcess.exchange` that may be abandoned asks
#: whether it is (the reply itself wakes it at once)
POLL_S = 0.01


def start_method() -> str:
    """How a worker started *now* is started.  Fork is cheap (6 ms, the
    driver's imports inherited), but a child forked beside other threads
    can deadlock on a lock one of them held (deprecated on Python 3.12+):
    there a worker is spawned (~0.4 s of imports)."""
    import multiprocessing as mp

    forkable = "fork" in mp.get_all_start_methods() and threading.active_count() == 1
    return "fork" if forkable else "spawn"


class WorkerProcess:
    """Driver-side handle on one persistent child process.

    ``main(conn, *args())`` is the child's entry point (module-level, so a
    spawned child can import it; it ends in :func:`worker_loop`), ``args``
    is evaluated at every start, ``on_gone`` is called after a child was
    discarded — the owner forgets what only that process held.  One thread
    owns a handle; :meth:`kill` and :attr:`alive` may be called from any.
    """

    def __init__(self, name: str, main, args, on_gone):
        self.name = name
        self._main, self._args, self._on_gone = main, args, on_gone
        self._lock = threading.Lock()  # start / replace vs. kill()
        self._ended = False
        self.proc = self.conn = None
        self.started = 0  # children started, replacements included
        self.started_by: str | None = None  # "fork" or "spawn": the current child

    def start(self) -> None:
        """Start a child — in place of the current one, if there is one.
        Fork or spawn is decided at every start: a pool forked by a
        single-threaded driver spawns its replacements beside the threads
        that driver has grown since."""
        import multiprocessing as mp

        with self._lock:
            if self._ended:
                raise EngineError(f"worker process {self.name} is stopped")
            self._discard()
            self.started_by = start_method()
            ctx = mp.get_context(self.started_by)
            self.conn, child_conn = ctx.Pipe()
            self.proc = ctx.Process(
                target=self._main, args=(child_conn, *self._args()), name=self.name, daemon=True
            )
            self.proc.start()
            child_conn.close()
            self.started += 1

    def _discard(self) -> None:
        """SIGKILL the child (no handler to run, nothing of its to save)
        and reap it.  Caller holds the lock."""
        if self.proc is None:
            return
        self.proc.kill()
        self.proc.join(timeout=5.0)
        self.conn.close()
        self.proc = None
        self._on_gone()

    def kill(self) -> None:
        """Final, and the one way a worker is ended (nothing it holds is
        worth a stop handshake): no other is started, and an
        :meth:`exchange` still out on it raises :class:`EngineError`."""
        with self._lock:
            self._ended = True
            self._discard()

    @property
    def alive(self) -> bool:
        proc = self.proc
        return proc is not None and proc.is_alive()

    @property
    def pid(self) -> int | None:
        proc = self.proc
        return None if proc is None else proc.pid

    def exchange(self, message: bytes, payload_for, abandoned=None) -> tuple:
        """Send one pickled ``message`` and wait for the reply, answering
        each ``("pull", key)`` the child sends meanwhile with ``("block",
        key, payload_for(key))``.  Returns ``(reply, None)`` — or ``(None,
        early)`` once the polled ``abandoned()`` returns an ``early`` other
        than ``None``: the child, mid-request, is replaced.

        A child that is not there (never started, died idle) is started
        first: nobody's failure.  One that dies under the request is
        replaced and :class:`EngineError` raised — the caller's to retry.
        """
        if not self.alive:
            self.start()
        conn = self.conn
        try:
            conn.send_bytes(message)
            while True:
                while abandoned is not None and not conn.poll(POLL_S):
                    early = abandoned()
                    if early is not None:
                        self.start()
                        return None, early
                reply = conn.recv()
                if reply[0] != "pull":
                    return reply, None
                conn.send(("block", reply[1], payload_for(reply[1])))
        except (EOFError, OSError) as exc:
            self.start()
            raise EngineError(f"worker process {self.name} died mid-job: {exc!r}") from None


def worker_loop(conn, store_bytes: int | None, handle, worker_id: str, last_act=None) -> None:
    """What every worker's ``main`` ends in.  The process follows its
    parent into death (:func:`exit_with_parent`, after ``last_act()``),
    ignores SIGINT — Ctrl-C reaches the whole foreground group; stopping a
    worker is its driver's call — and keeps one :class:`WorkerBlockStore`
    of ``store_bytes``; then, until it is killed: receive a message, send
    ``handle(runtime, message)``.  What the work raised goes *into* the
    reply (:func:`picklable_exception`); an exception that escapes
    ``handle`` is a death like any other.
    """
    import signal

    exit_with_parent(last_act)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _runtime
    _runtime = runtime = WorkerRuntime(WorkerBlockStore(store_bytes), conn, worker_id)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        conn.send(handle(runtime, message))


def _worker_main(conn, slot: int, budget_bytes: int | None) -> None:
    worker_loop(conn, budget_bytes, _run_batch, f"worker-{slot}")


def _run_batch(runtime: WorkerRuntime, message: tuple) -> tuple:
    """An engine worker's ``handle``: resolve the batch's block refs through
    the local store (pulling misses from the driver) and run its tasks.

    Driver -> worker: ``("run", batch_blob, drops, push)`` — ``drops`` are
    keys to forget (destroyed broadcasts), ``push`` maps keys to
    serialized payloads the driver believes this worker lacks.
    Worker -> driver: ``("done", results_blob, stored_keys, stats)`` —
    ``stored_keys`` are blocks the worker now additionally holds (from
    cache-backs), so the driver can skip pushing them later.
    """
    import pickle

    import cloudpickle

    from repro.common.sizeof import estimate_size

    store, worker_id = runtime.store, runtime.worker_id
    _tag, batch_blob, drops, push = message
    for key in drops:
        store.remove(key)
    for key, blob in push.items():
        store.put(key, pickle.loads(blob), len(blob))
    hits_before, evictions_before = store.hits, store.evictions
    stored_keys: list[tuple] = []
    outcomes = []
    for task in pickle.loads(batch_blob):
        try:
            task.resolve_refs(runtime.resolve)
            result = task.run(worker_id=worker_id)
            for (rdd_id, part), data in result.cache_back.items():
                key = rdd_block_key(rdd_id, part)
                store.put(key, data, estimate_size(data))
                stored_keys.append(key)
            # The driver reattaches its own Task object by batch order;
            # shipping the graph back would undo the closure-splitting savings.
            result.task = None
            outcomes.append((True, result))
        except BaseException as exc:  # noqa: BLE001 - scheduler decides
            outcomes.append((False, picklable_exception(exc)))
    stats = {
        "evictions": store.evictions - evictions_before,
        "store_hits": store.hits - hits_before,
        "store_blocks": len(store),
        "store_bytes": store.total_bytes,
    }
    return ("done", cloudpickle.dumps(outcomes), stored_keys, stats)


def picklable_exception(exc: BaseException) -> BaseException:
    """Exceptions cross the pipe by pickle; fall back to a summary when
    the original carries unpicklable state."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001
        return EngineError(f"{type(exc).__name__}: {exc}")
