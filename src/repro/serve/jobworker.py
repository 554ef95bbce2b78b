"""Job-worker processes: where a fresh mine runs when it can leave the
server's interpreter.

Every service worker thread is paired with one persistent child process
(:class:`JobWorker` is the thread's handle on it).  The thread keeps
owning the job — attempts, deadline, cancel, retry, all in
:class:`~repro.serve.runner.JobRunner` — and sends the process ``(dataset
fingerprint, config as planned, algorithm spec, candidate store)``; the process answers
with the pickled :class:`~repro.core.results.MiningRunResult`, its
itemsets already rendered to the JSON text they are sent as
(:func:`~repro.serve.jobs.kept`).  What
makes a process worth keeping lives in it, §IV-B of the paper one level
up: **rows, by fingerprint** — a byte-budgeted LRU
(:class:`~repro.engine.workerstore.WorkerBlockStore`).  A request never
carries rows: the worker pulls the ones it does not hold over the pipe
(:meth:`~repro.engine.workerstore.WorkerRuntime.resolve`, the engine
pool's own miss path), so a dataset crosses once per worker until the
LRU lets it go.  Nothing else outlives a job: the mine is
``run_algorithm(rows, config)``, which builds its engine context and
stops it, as the one-shot API does.

A timed-out or cancelled job is **killed**: the process is SIGKILLed and
its replacement started.  A worker that dies on its own is replaced the
same way and the job sees an :class:`~repro.common.errors.EngineError`
(the runner's transient-retry ladder).  How a worker starts (forked while
the service's process is still single-threaded, spawned otherwise), how
its pulls are served, how it dies and how it is ended is
:class:`~repro.engine.workerstore.WorkerProcess` — the engine pool's own
worker handle; what is a job worker's alone is below: the rows as the
pull payload, the counters, the ``job_worker`` span, and a directory for
its temporary files that goes when the process does.

All of a handle's methods but :meth:`JobWorker.stop` and
:meth:`JobWorker.stats` are called by the one thread that owns it.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time

from repro.engine.workerstore import (
    WorkerProcess,
    picklable_exception,
    start_method,
    worker_loop,
)


class JobWorker:
    """One service worker thread's handle on its job-worker process.

    ``store_bytes`` budgets the process's resident rows — the shard's
    own ``dataset_cache_bytes``.
    """

    def __init__(self, name: str, store_bytes: int):
        self._store_bytes = store_bytes
        self.killed = 0  # replacements this handle forced (timeout, cancel)
        self.jobs_run = 0
        self.rows_shipped = 0
        self.ship_bytes = 0
        self.datasets_resident = 0
        self._process = WorkerProcess(
            f"repro-job-worker-{name}", _job_worker_main, self._new_child, self._child_gone
        )
        if start_method() == "fork":
            # now or never: 6 ms and the imports inherited.  A handle made
            # beside live threads leaves the spawn (0.4 s of imports) to
            # the first job that ships — a worker that never runs one (a
            # shard fed incremental jobs only) never pays it.
            self._process.start()

    # -- process lifecycle -------------------------------------------------
    def _new_child(self) -> tuple:
        """A process's arguments: each gets a ``tempfile.tempdir`` of its own."""
        self._tmp = tempfile.mkdtemp(prefix="repro-job-worker-")
        return (self._tmp, self._store_bytes)

    def _child_gone(self) -> None:
        """Fold away what died with a process."""
        _remove_dir(self._tmp)
        self.datasets_resident = 0

    def stop(self) -> None:
        """Final: kill the process and start no other.  A job still out
        on it fails with :class:`~repro.common.errors.EngineError`."""
        self._process.kill()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    # -- one job -----------------------------------------------------------
    def run(self, request: bytes, rows: list, abandoned):
        """Send one pickled request, serve the worker's pull for ``rows``,
        wait for the reply.  Returns ``(result, None)``; or, once the
        polled ``abandoned()`` returns an outcome instead of ``None``,
        ``(None, outcome)`` — the process killed: it stops consuming CPU
        now, and a new one takes its place (spawned, ~10 ms of this
        thread; the newcomer's imports overlap the next job's queue wait).

        Raises what the algorithm raised in the worker, or
        :class:`~repro.common.errors.EngineError` when the process died
        under the job.  A result that carries a trace gets one
        ``job_worker`` span covering ship + wait + unpickle, so the job's
        ``run_seconds`` decomposes into the worker's own time and the
        crossing.
        """
        rows_before, bytes_before = self.rows_shipped, self.ship_bytes

        def pulled(_key: tuple) -> bytes:
            blob = pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
            self.rows_shipped += len(rows)
            self.ship_bytes += len(blob)
            return blob

        t0 = time.perf_counter()
        self.ship_bytes += len(request)
        message, early = self._process.exchange(request, pulled, abandoned)
        if early is not None:
            self.killed += 1
            return None, early
        tag, payload, stats = message
        self.jobs_run += 1
        self.datasets_resident = stats["datasets_resident"]
        if tag == "error":
            raise payload
        result = pickle.loads(payload)
        if getattr(result, "trace", None) is not None:
            result.trace.add_span(
                "job_worker", "ship", t0, time.perf_counter() - t0,
                pid=self.pid, rows_shipped=self.rows_shipped - rows_before,
                ship_bytes=self.ship_bytes - bytes_before,
                result_bytes=len(payload), worker_s=round(stats["seconds"], 6),
            )
        return result, None

    # -- observability -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "alive": int(self._process.alive),
            "started": self._process.started,
            "restarts": max(0, self._process.started - 1),
            "killed": self.killed,
            "jobs_run": self.jobs_run,
            "rows_shipped": self.rows_shipped,
            "ship_bytes": self.ship_bytes,
            "datasets_resident": self.datasets_resident,
        }


def _job_worker_main(conn, tmp_dir: str, store_bytes: int) -> None:
    """The job-worker process: ``run_algorithm`` per request, exactly as
    the one-shot API runs it, over resident rows.

    Parent -> worker: ``(fingerprint, config, spec, store name, store
    class)``; worker ->
    parent: ``("pull", key)`` answered by ``("block", key, blob)``, then
    ``("done", pickled result, stats)`` or ``("error", exception, stats)``.
    """
    from repro.core.candidatestore import register_store
    from repro.core.registry import register_algorithm, run_algorithm
    from repro.serve.jobs import kept

    tempfile.tempdir = tmp_dir

    def run_job(runtime, message: tuple) -> tuple:
        fingerprint, config, spec, store, store_cls = message
        t0 = time.perf_counter()
        try:
            rows = runtime.resolve(("rows", fingerprint))
            # the registries are this process's own: an algorithm or store
            # registered (or replaced) after the fork arrives with its first job
            register_algorithm(
                spec.name, spec.runner, needs_engine=spec.needs_engine, overwrite=True
            )
            register_store(store, store_cls, overwrite=True)
            # rendered here, once: the server unpickles one string
            result = kept(run_algorithm(rows, config))
            reply = ("done", pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        except BaseException as exc:  # noqa: BLE001 - the client's to read
            reply = ("error", picklable_exception(exc))
        stats = {
            "seconds": time.perf_counter() - t0,
            "datasets_resident": len(runtime.store),
        }
        return (*reply, stats)

    # nobody else is left to remove tmp_dir once the server is gone
    worker_loop(conn, store_bytes, run_job, "job-worker", last_act=lambda: _remove_dir(tmp_dir))


def _remove_dir(path: str) -> None:
    """Remove a job worker's temporary directory, which a thread of the
    worker may still be adding to (its parent-watch thread removes it
    while the job runs on).  The directory is renamed first: nothing can
    be created under its name after that, so the tree removed is the
    whole of it.  A directory already gone is no error; a removal that
    fails is not hidden."""
    gone = f"{path}.gone"
    try:
        os.rename(path, gone)
    except FileNotFoundError:
        return
    shutil.rmtree(gone)


__all__ = ["JobWorker"]
