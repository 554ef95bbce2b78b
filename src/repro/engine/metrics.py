"""Task/stage metrics and the job event log.

Every task records its wall-clock duration and byte counters.  The event
log is the bridge to :mod:`repro.cluster`: scalability experiments replay
these *measured* task records through the cluster cost model instead of
inventing task costs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass
class TaskMetrics:
    """Counters for one task attempt."""

    stage_id: int = -1
    partition: int = -1
    attempt: int = 0
    kind: str = ""  # "shuffle_map" | "result"
    start_s: float = 0.0  # perf_counter at task start (feeds the tracer)
    duration_s: float = 0.0
    records_in: int = 0
    #: shuffle-map tasks: records written to the buckets; result tasks:
    #: length of the returned collection (0 when the result is a scalar)
    records_out: int = 0
    #: Records entering the shuffle-map bucket/combine step — the pairs the
    #: upstream pipeline actually allocated; equals records_out when no
    #: map-side combine runs.
    combine_records_in: int = 0
    input_bytes: int = 0  # bytes read from the mini-DFS
    shuffle_read_bytes: int = 0
    shuffle_write_bytes: int = 0
    #: estimated size of the value a result task returned to the driver
    result_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_id: str = ""


@dataclass
class StageSummary:
    stage_id: int
    kind: str
    n_tasks: int
    total_task_seconds: float
    max_task_seconds: float
    shuffle_read_bytes: int
    shuffle_write_bytes: int
    input_bytes: int
    #: Bytes the executor physically shipped to workers while running this
    #: stage (closure blobs + pushed/pulled blocks); 0 on ``serial``.
    shipped_bytes: int = 0


@dataclass
class JobSummary:
    job_id: int
    duration_s: float
    n_stages: int
    n_tasks: int


class EventLog:
    """Append-only record of every completed task/stage/job.

    Thread-safe: executor threads append concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.tasks: list[TaskMetrics] = []
        self.stages: list[StageSummary] = []
        self.jobs: list[JobSummary] = []

    def record_task(self, metrics: TaskMetrics) -> None:
        with self._lock:
            self.tasks.append(metrics)

    def record_stage(self, summary: StageSummary) -> None:
        with self._lock:
            self.stages.append(summary)

    def record_job(self, summary: JobSummary) -> None:
        with self._lock:
            self.jobs.append(summary)

    # -- queries -----------------------------------------------------------
    def tasks_for_stage(self, stage_id: int) -> list[TaskMetrics]:
        return [t for t in self.tasks if t.stage_id == stage_id]

    def tasks_since(self, index: int) -> list[TaskMetrics]:
        """Tasks appended after a previously captured :meth:`mark`."""
        return self.tasks[index:]

    def mark(self) -> int:
        """Current task count; pair with :meth:`tasks_since` to scope a run."""
        return len(self.tasks)

    def total_task_seconds(self) -> float:
        return sum(t.duration_s for t in self.tasks)

    def summarize_stage(self, stage_id: int, kind: str, shipped_bytes: int = 0) -> StageSummary:
        ts = self.tasks_for_stage(stage_id)
        summary = StageSummary(
            stage_id=stage_id,
            kind=kind,
            n_tasks=len(ts),
            total_task_seconds=sum(t.duration_s for t in ts),
            max_task_seconds=max((t.duration_s for t in ts), default=0.0),
            shuffle_read_bytes=sum(t.shuffle_read_bytes for t in ts),
            shuffle_write_bytes=sum(t.shuffle_write_bytes for t in ts),
            input_bytes=sum(t.input_bytes for t in ts),
            shipped_bytes=shipped_bytes,
        )
        self.record_stage(summary)
        return summary
