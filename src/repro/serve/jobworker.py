"""Job-worker processes: where a fresh mine runs when it can leave the
server's interpreter.

Every service worker thread is paired with one persistent child process
(:class:`JobWorker` is the thread's handle on it).  The thread keeps
owning the job — attempts, deadline, cancel, retry, all in
:class:`~repro.serve.runner.JobRunner` — and sends the process ``(dataset
fingerprint, config as planned, algorithm spec, trace label)``; the
process answers with the pickled
:class:`~repro.core.results.MiningRunResult`.  What makes a process
worth keeping lives in it, §IV-B of the paper one level up:

* **rows, by fingerprint** — a byte-budgeted LRU
  (:class:`~repro.engine.workerstore.WorkerBlockStore`).  A request never
  carries rows: the worker pulls the ones it does not hold over the pipe
  (:meth:`~repro.engine.workerstore.WorkerRuntime.resolve`, the engine
  pool's own miss path), so a dataset crosses once per worker until the
  LRU lets it go;
* **warm engine contexts** — its own
  :class:`~repro.serve.cache.ContextPool`; the counters ride back on every
  reply so ``/metrics`` ``context_pool`` stays the sum over every pool of
  the shard.

A timed-out or cancelled job is **killed**: :meth:`JobWorker.kill` SIGKILLs
the process and starts its replacement.  A worker that dies on its own is
replaced the same way and the job sees an
:class:`~repro.common.errors.EngineError` (the runner's transient-retry
ladder).  Workers are forked while the service's process is still
single-threaded and spawned otherwise (``ProcessExecutor``'s rule); they
are daemonic, follow their parent into death
(:func:`~repro.engine.workerstore.exit_with_parent`) and keep their
temporary files under a directory the handle removes with them.

All of a handle's methods but :meth:`JobWorker.stop` and
:meth:`JobWorker.stats` are called by the one thread that owns it.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import threading
import time

from repro.common.errors import EngineError
from repro.engine.workerstore import (
    WorkerBlockStore,
    WorkerRuntime,
    _picklable_exception,
    exit_with_parent,
)

#: how often a waiting :meth:`JobWorker.run` looks at the job's deadline
#: and cancel flag (the reply itself wakes it at once)
POLL_S = 0.01


def _can_fork() -> bool:
    """``ProcessExecutor``'s rule: fork is cheap but only safe while no
    other thread can be holding a lock the child would need."""
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods() and threading.active_count() == 1


class JobWorker:
    """One service worker thread's handle on its job-worker process.

    ``store_bytes`` budgets the process's resident rows,
    ``max_idle_contexts`` its context pool — the shard's own
    ``dataset_cache_bytes`` / ``max_idle_contexts``.
    """

    def __init__(self, name: str, store_bytes: int, max_idle_contexts: int):
        self.name = name
        self._child_args = (store_bytes, max_idle_contexts)
        self._lock = threading.Lock()  # start/replace vs. stop()
        self._stopped = False
        self.started = 0  # processes started, replacements included
        self.killed = 0  # replacements this handle forced (timeout, cancel)
        self.jobs_run = 0
        self.rows_shipped = 0
        self.ship_bytes = 0
        self.datasets_resident = 0
        # context-pool counters: of the processes that are gone, and as
        # last reported by the live one
        self._pool_gone = {"idle": 0, "created": 0, "reused": 0}
        self._pool_live = dict(self._pool_gone)
        self._proc = None
        if _can_fork():
            # now or never: 6 ms and the imports inherited.  A handle made
            # beside live threads leaves the spawn (0.4 s of imports) to
            # the first job that ships — a worker that never runs one (a
            # shard fed incremental jobs only) never pays it.
            self._start()

    # -- process lifecycle -------------------------------------------------
    def _start(self) -> None:
        """Start a process — in place of the current one, if there is one."""
        import multiprocessing as mp

        with self._lock:
            if self._stopped:
                raise EngineError(f"job worker {self.name} is stopped")
            if self._proc is not None:
                self._discard()
            # a replacement is started beside live threads and spawns
            ctx = mp.get_context("fork" if _can_fork() else "spawn")
            self._tmp = tempfile.mkdtemp(prefix="repro-job-worker-")
            self._conn, child_conn = ctx.Pipe()
            self._proc = ctx.Process(
                target=_job_worker_main,
                args=(child_conn, self._tmp, *self._child_args),
                name=f"repro-job-worker-{self.name}",
                daemon=True,
            )
            self._proc.start()
            child_conn.close()
            self.started += 1

    def _discard(self) -> None:
        """SIGKILL the process (no handler to run, nothing of its to save),
        reap it, and fold away what dies with it.  Caller holds the lock."""
        if self._proc is None:
            return
        self._proc.kill()
        self._proc.join(timeout=5.0)
        self._conn.close()
        shutil.rmtree(self._tmp, ignore_errors=True)
        for key in ("created", "reused"):
            self._pool_gone[key] += self._pool_live[key]
        self._pool_live = dict.fromkeys(self._pool_live, 0)
        self.datasets_resident = 0

    def kill(self) -> None:
        """Abandon whatever the process is running: it stops consuming CPU
        now, and a new process takes its place (spawned, ~10 ms of this
        thread; the newcomer's imports overlap the next job's queue wait)."""
        self.killed += 1
        self._start()

    def stop(self) -> None:
        """Final: kill the process and start no other.  A job still out
        on it fails with :class:`EngineError`."""
        with self._lock:
            if not self._stopped:
                self._stopped = True
                self._discard()

    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    # -- one job -----------------------------------------------------------
    def run(self, request: bytes, rows: list, abandoned):
        """Send one pickled request, serve the worker's pull for ``rows``,
        wait for the reply.  Returns ``(result, None)``; or, once the
        polled ``abandoned()`` returns an outcome instead of ``None``,
        kills the process and returns ``(None, outcome)``.

        Raises what the algorithm raised in the worker, or
        :class:`EngineError` when the process died under the job.  A
        result that carries a trace gets one ``job_worker`` span covering
        ship + wait + unpickle, so the job's ``run_seconds`` decomposes
        into the worker's own time and the crossing.
        """
        if self._proc is None or not self._proc.is_alive():
            self._start()  # not started yet, or died idle: not this job's failure
        conn, rows_shipped, shipped = self._conn, 0, len(request)
        t0 = time.perf_counter()
        try:
            conn.send_bytes(request)
            self.ship_bytes += len(request)
            while True:
                if not conn.poll(POLL_S):
                    outcome = abandoned()
                    if outcome is not None:
                        self.kill()
                        return None, outcome
                    continue
                message = conn.recv()
                if message[0] != "pull":
                    break
                blob = pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
                conn.send(("block", message[1], blob))
                rows_shipped, shipped = len(rows), shipped + len(blob)
                self.rows_shipped += len(rows)
                self.ship_bytes += len(blob)
        except (EOFError, OSError) as exc:
            self._start()
            raise EngineError(f"job worker {self.name} died mid-job: {exc!r}") from None
        tag, payload, stats = message
        self.jobs_run += 1
        self._pool_live = stats["context_pool"]
        self.datasets_resident = stats["datasets_resident"]
        if tag == "error":
            raise payload
        result = pickle.loads(payload)
        if getattr(result, "trace", None) is not None:
            result.trace.add_span(
                "job_worker", "ship", t0, time.perf_counter() - t0,
                pid=self.pid, rows_shipped=rows_shipped, ship_bytes=shipped,
                result_bytes=len(payload), worker_s=round(stats["seconds"], 6),
            )
        return result, None

    # -- observability -----------------------------------------------------
    @property
    def context_pool(self) -> dict:
        """This worker's share of the shard's ``context_pool`` block."""
        return {k: self._pool_gone[k] + self._pool_live[k] for k in self._pool_gone}

    def stats(self) -> dict:
        return {
            "alive": int(self._proc is not None and self._proc.is_alive()),
            "started": self.started,
            "restarts": max(0, self.started - 1),
            "killed": self.killed,
            "jobs_run": self.jobs_run,
            "rows_shipped": self.rows_shipped,
            "ship_bytes": self.ship_bytes,
            "datasets_resident": self.datasets_resident,
        }


def _job_worker_main(conn, tmp_dir: str, store_bytes: int, max_idle_contexts: int) -> None:
    """The job-worker process: ``run_algorithm`` per request, exactly as
    the one-shot API runs it, over resident rows and warm contexts.

    Parent -> worker: ``(fingerprint, config, spec, label)``; worker ->
    parent: ``("pull", key)`` answered by ``("block", key, blob)``, then
    ``("done", pickled result, stats)`` or ``("error", exception, stats)``.
    There is no stop message: the handle kills the process.
    """
    import signal

    from repro.core.registry import register_algorithm
    from repro.serve.cache import ContextPool
    from repro.serve.runner import run_with_pool

    # nobody else is left to remove tmp_dir once the server is gone
    exit_with_parent(lambda: shutil.rmtree(tmp_dir, ignore_errors=True))
    # Ctrl-C reaches the whole foreground group; stopping is the server's call
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tempfile.tempdir = tmp_dir
    store = WorkerBlockStore(store_bytes)
    runtime = WorkerRuntime(store, conn, "job-worker")
    contexts = ContextPool(max_idle_contexts)
    while True:
        try:
            fingerprint, config, spec, label = conn.recv()
        except (EOFError, OSError):
            return
        t0 = time.perf_counter()
        try:
            rows = runtime.resolve(("rows", fingerprint))
            # the registry is this process's own: an algorithm registered
            # (or replaced) after the fork arrives with its first job
            register_algorithm(
                spec.name, spec.runner, needs_engine=spec.needs_engine, overwrite=True
            )
            result = run_with_pool(contexts, rows, config, label)
            reply = ("done", pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # noqa: BLE001 - the client's to read
            reply = ("error", _picklable_exception(exc))
        stats = {
            "seconds": time.perf_counter() - t0,
            "context_pool": contexts.stats(),
            "datasets_resident": len(store),
        }
        conn.send((*reply, stats))


__all__ = ["JobWorker"]
