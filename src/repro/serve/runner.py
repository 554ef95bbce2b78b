"""The job tier's runner: one RUNNING job to its outcome.

:class:`JobRunner` owns "how a job executes": the attempt thread, the
deadline, client cancellation, bounded retry-with-backoff for transient
engine faults, the engine-context checkout and the warm-miner answer for
a named dataset.  It holds no reference to the service and takes none of
its locks — :meth:`JobRunner.run` is called by a worker holding nothing
and *returns* the outcome; recording it (state, caches, followers) is
the service's job.  Of the job it writes only ``attempts``.

This is the seam a process-backed execution mode replaces: everything a
run needs arrives through the three collaborators and the job.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.common.errors import EngineError
from repro.core.registry import get_algorithm, run_algorithm
from repro.serve.jobs import ApiError, Job, JobState, ServeError

#: exception types treated as transient (retried with backoff)
TRANSIENT_ERRORS = (EngineError,)

#: what :meth:`JobRunner.run` returns: terminal state, result, error text
Outcome = tuple[JobState, object, str | None]

_CANCELLED: Outcome = (JobState.CANCELLED, None, "cancelled by client")


def _timed_out(job: Job) -> Outcome:
    return (JobState.TIMED_OUT, None, f"timed out after {job.request.timeout_s:g}s")


class JobRunner:
    """Runs jobs against a shard's caches.

    ``datasets`` / ``contexts`` are the shard's
    :class:`~repro.serve.cache.DatasetCache` and ``ContextPool``;
    ``dataset_registry`` answers :meth:`warm_result` for jobs that
    snapshotted a named dataset.
    """

    def __init__(self, datasets, contexts, dataset_registry):
        self.datasets = datasets
        self.contexts = contexts
        self.dataset_registry = dataset_registry

    def run(self, job: Job) -> Outcome:
        """Drive ``job`` (already RUNNING, ``started_s`` set) through its
        attempts; returns ``(state, result, error)`` with a terminal state."""
        timeout_s = job.request.timeout_s
        deadline = None if timeout_s is None else job.started_s + timeout_s
        while True:
            job.attempts += 1
            outcome = self._attempt(job, deadline)
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

    def _attempt(self, job: Job, deadline: float | None) -> Outcome | None:
        """Run one attempt; ``None`` when it failed transiently and the
        retry budget allows another go."""
        box: dict[str, object] = {}
        thread = threading.Thread(
            target=self._mine, args=(job, box), name=f"{job.job_id}-run", daemon=True
        )
        thread.start()
        while thread.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                # abandon the attempt: the stray thread releases its context
                # when it eventually finishes; its result is discarded
                return _timed_out(job)
            if job.cancel_event.is_set():
                return _CANCELLED
            thread.join(timeout=0.01)

        error = box.get("error")
        if error is None:
            return (JobState.DONE, box["result"], None)
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

    def _mine(self, job: Job, box: dict) -> None:
        """The attempt thread's body: ``box`` gets ``result`` or ``error``."""
        ctx = None
        try:
            # keyed as asked, run as planned: the planner's knobs apply here
            config = job.request.config
            if job.planned:
                config = dataclasses.replace(config, **job.planned)
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
            if config.incremental:
                # in-process tier: no engine context to check out, and
                # a named dataset's warm miner answers when it can
                if job._dataset_entry is not None:
                    result = self.dataset_registry.warm_result(
                        job._dataset_entry, job.dataset_version, len(txns), config
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


__all__ = ["JobRunner", "TRANSIENT_ERRORS"]
