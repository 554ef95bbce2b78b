"""The job tier's runner: one RUNNING job to its outcome.

:class:`JobRunner` owns "how a job executes": where it runs, the
deadline, client cancellation, bounded retry-with-backoff for transient
engine faults and the warm-miner answer for a named dataset (asked of
the shard's dataset owner, :mod:`repro.serve.owner`, the worker thread
waiting with the GIL released).  Any other mine is the one-shot call —
``run_algorithm(rows, config)``, in either home — so a served job has no
engine-facing path the one-shot API lacks.
It holds no reference to the service and takes none of its locks —
:meth:`JobRunner.run` is called by a worker holding nothing and
*returns* the outcome; recording it (state, caches, followers) is the
service's job.  Of the job it writes only ``attempts``.

A job has two possible homes, and which one is a fact about the job
(:func:`shipping_request` is the one place it is decided): the worker
thread's :class:`~repro.serve.jobworker.JobWorker` process — outside this
interpreter, killed on timeout or cancel — or, for what cannot leave, an
attempt thread here that can only be abandoned.  Either home hands back
its answer already rendered to the JSON it is sent as
(:func:`~repro.serve.jobs.kept`), so the service keeps that text and
never the dict.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
import time

from repro.common.errors import EngineError
from repro.core.candidatestore import get_store
from repro.core.registry import MiningConfig, get_algorithm, run_algorithm, runs_on_engine
from repro.serve.jobs import ApiError, Job, JobState, ServeError, kept

#: exception types treated as transient (retried with backoff)
TRANSIENT_ERRORS = (EngineError,)

#: what :meth:`JobRunner.run` returns: terminal state, result, error text
Outcome = tuple[JobState, object, str | None]

_CANCELLED: Outcome = (JobState.CANCELLED, None, "cancelled by client")


def _timed_out(job: Job) -> Outcome:
    return (JobState.TIMED_OUT, None, f"timed out after {job.request.timeout_s:g}s")


def _abandoned(job: Job, deadline: float | None) -> Outcome | None:
    """The outcome that ends a running attempt early, if one is due."""
    if deadline is not None and time.monotonic() >= deadline:
        return _timed_out(job)
    if job.cancel_event.is_set():
        return _CANCELLED
    return None


def shipping_request(job: Job, config: MiningConfig) -> bytes | None:
    """The pickled request that runs ``job`` (``config``: as planned) in a
    job-worker process, or ``None`` for a job that stays in the server.

    Which jobs ship is decided here, from the job alone — never an option
    (an incremental job on a named dataset gets here only when its warm
    miner could not answer: its cold run ships like any other):

    * an engine-backed job on **``backend="processes"``** stays: a job
      worker is a daemonic child and may not have children, and this
      job's counting already runs outside the GIL, in its context's own
      workers;
    * a job whose **runner or options exist only in this interpreter**
      stays: stdlib ``pickle`` sends a function as its import path, so a
      closure or lambda registered by an embedding caller (every gate
      algorithm under ``tests/serve`` closes over a ``threading.Event``)
      cannot be named to another process;
    * everything else ships.  The request carries the algorithm's spec and
      its candidate store's class, so the worker need not have seen either
      registration.
    """
    if config.backend == "processes" and runs_on_engine(config):
        return None
    spec = get_algorithm(config.algorithm)
    store = config.candidate_store
    try:
        return pickle.dumps(
            (job.dataset_fingerprint, config, spec, store, get_store(store)),
            pickle.HIGHEST_PROTOCOL,
        )
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


class JobRunner:
    """Runs jobs against a shard's caches.

    ``datasets`` is the shard's :class:`~repro.serve.cache.DatasetCache`
    (what a job worker's pull for rows is answered from);
    ``dataset_registry`` answers ``warm_result`` for jobs that
    snapshotted a named dataset.
    """

    def __init__(self, datasets, dataset_registry):
        self.datasets = datasets
        self.dataset_registry = dataset_registry

    def run(self, job: Job, worker=None) -> Outcome:
        """Drive ``job`` (already RUNNING, ``started_s`` set) through its
        attempts; returns ``(state, result, error)`` with a terminal state.
        ``worker`` is the calling thread's
        :class:`~repro.serve.jobworker.JobWorker`; without one every job
        runs in this process."""
        timeout_s = job.request.timeout_s
        deadline = None if timeout_s is None else job.started_s + timeout_s
        while True:
            job.attempts += 1
            outcome = self._attempt(job, deadline, worker)
            if outcome is not None:
                return outcome
            # transient failure with retry budget left: back off, then go
            # again (the backoff sleep itself honours cancel + deadline)
            backoff = job.request.retry_backoff_s * (2 ** (job.attempts - 1))
            if deadline is not None:
                backoff = min(backoff, max(0.0, deadline - time.monotonic()))
            if job.cancel_event.wait(backoff):
                return _CANCELLED
            if deadline is not None and time.monotonic() >= deadline:
                return _timed_out(job)

    def _attempt(self, job: Job, deadline: float | None, worker) -> Outcome | None:
        """Run one attempt; ``None`` when it failed transiently and the
        retry budget allows another go."""
        try:
            # keyed as asked, run as planned: the planner's knobs apply here
            config = job.request.config
            if job.planned:
                config = dataclasses.replace(config, **job.planned)
            txns = self._rows(job)
            result = early = None
            if config.incremental and job._dataset_entry is not None:
                # a named dataset's warm miner answers when it can
                result = self.dataset_registry.warm_result(
                    job._dataset_entry, job.dataset_version, len(txns), config,
                    abandoned=lambda: _abandoned(job, deadline),
                )
                early = None if result is not None else _abandoned(job, deadline)
            if result is None and early is None:
                request = None if worker is None else shipping_request(job, config)
                if request is not None:
                    result, early = worker.run(request, txns, lambda: _abandoned(job, deadline))
                else:
                    result, early = self._run_here(job, config, txns, deadline)
            if job.rows_resident and getattr(result, "trace", None) is not None:
                # the run's own trace says why its submit was cheap
                result.trace.instant(
                    "rows_resident", "serve", fingerprint=job.dataset_fingerprint[:12]
                )
            return early or (JobState.DONE, kept(result), None)
        except BaseException as error:  # noqa: BLE001 - reported to the client
            # (whatever a runner raised, SystemExit included: a worker
            # thread must outlive every job it runs)
            if isinstance(error, ApiError):
                # dataset disappeared mid-run etc.: a client error, not a fault
                return (JobState.FAILED, None, str(error))
            transient = isinstance(error, TRANSIENT_ERRORS)
            if transient and job.attempts <= job.request.max_retries:
                return None
            kind = "transient" if transient else "permanent"
            return (
                JobState.FAILED,
                None,
                f"{kind} failure after {job.attempts} attempt(s): {error!r}",
            )

    def _rows(self, job: Job) -> list:
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
        return txns

    def _run_here(self, job: Job, config, txns: list, deadline: float | None):
        """The home of what cannot ship (see :func:`shipping_request`): an
        attempt thread of this interpreter.  A thread cannot be killed, so
        on timeout or cancel it is abandoned — it finishes in the
        background (``run_algorithm`` stops the engine context it built
        on the way out), and its result is dropped.
        Returns ``(result, None)`` or ``(None, early outcome)``."""
        box: dict[str, object] = {}

        def mine() -> None:
            try:
                # rendered as a job worker renders it, holding no lock
                box["result"] = kept(run_algorithm(txns, config))
            except BaseException as exc:  # noqa: BLE001 - reported to client
                box["error"] = exc

        thread = threading.Thread(target=mine, name=f"{job.job_id}-run", daemon=True)
        thread.start()
        while thread.is_alive():
            early = _abandoned(job, deadline)
            if early is not None:
                return None, early
            thread.join(timeout=0.01)
        if "error" in box:
            raise box["error"]
        return box["result"], None


__all__ = ["JobRunner", "TRANSIENT_ERRORS", "shipping_request"]
