"""Deterministic replay of measured task sets onto a modeled cluster.

The scalability experiments (paper Figs. 4 and 5) vary node counts we do
not physically have.  Rather than fabricate numbers, both runtimes record
*measured* per-task durations and byte counters (engine event log / MR job
metrics); this module replays those records through a list scheduler plus
the :class:`~repro.cluster.model.ClusterSpec` byte-cost model to produce
time-vs-cores and time-vs-datasize curves.  The replay is conservative and
fully deterministic: same inputs, same output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.common.errors import ClusterModelError
from repro.cluster.model import ClusterSpec


def list_schedule_makespan(durations: list[float], n_workers: int) -> float:
    """Greedy earliest-free-worker makespan for tasks in submission order.

    This is exactly what a FIFO task scheduler produces; it is within 2x of
    optimal (Graham's bound) and matches Spark's behaviour for a single
    stage's task set.
    """
    if n_workers < 1:
        raise ClusterModelError("n_workers must be >= 1")
    if not durations:
        return 0.0
    heap = [0.0] * min(n_workers, len(durations))
    heapq.heapify(heap)
    for dur in durations:
        if dur < 0:
            raise ClusterModelError("negative task duration")
        free_at = heapq.heappop(heap)
        heapq.heappush(heap, free_at + dur)
    return max(heap)


@dataclass
class StageRecord:
    """Measured facts about one stage (one MR phase or one engine stage)."""

    label: str
    task_durations: list[float]
    input_bytes: int = 0  # HDFS reads feeding the stage
    output_bytes: int = 0  # HDFS writes produced by the stage
    shuffle_bytes: int = 0  # network all-to-all volume
    result_bytes: int = 0  # task results collected by the driver (network)


@dataclass
class SimulatedStage:
    label: str
    compute_s: float
    io_s: float
    network_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.io_s + self.network_s + self.overhead_s


@dataclass
class SimulatedRun:
    stages: list[SimulatedStage] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(s.total_s for s in self.stages)

    def stage_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.stages:
            out[s.label] = out.get(s.label, 0.0) + s.total_s
        return out


def simulate_spark_stage(record: StageRecord, spec: ClusterSpec) -> SimulatedStage:
    """One engine stage: makespan over all cores + byte costs + task launch.

    The network pays for the shuffle and for the results the driver
    collects — a driver-side merge of per-partition counts moves them
    just as a shuffle would have."""
    compute = list_schedule_makespan(record.task_durations, spec.total_cores)
    waves = -(-len(record.task_durations) // spec.total_cores) if record.task_durations else 0
    return SimulatedStage(
        label=record.label,
        compute_s=compute,
        io_s=spec.disk_read_seconds(record.input_bytes)
        + spec.disk_write_seconds(record.output_bytes),
        network_s=spec.network_seconds(record.shuffle_bytes + record.result_bytes),
        overhead_s=waves * spec.spark_task_overhead_s,
    )


def simulate_mr_stage(record: StageRecord, spec: ClusterSpec) -> SimulatedStage:
    """One MapReduce phase: per-task JVM overhead joins the task duration."""
    padded = [d + spec.mr_task_overhead_s for d in record.task_durations]
    compute = list_schedule_makespan(padded, spec.total_cores)
    return SimulatedStage(
        label=record.label,
        compute_s=compute,
        io_s=spec.disk_read_seconds(record.input_bytes)
        + spec.disk_write_seconds(record.output_bytes),
        network_s=spec.network_seconds(record.shuffle_bytes),
        overhead_s=0.0,
    )


def simulate_spark_run(records: list[StageRecord], spec: ClusterSpec) -> SimulatedRun:
    return SimulatedRun([simulate_spark_stage(r, spec) for r in records])


def simulate_mr_job(
    map_record: StageRecord, reduce_record: StageRecord, spec: ClusterSpec
) -> SimulatedRun:
    """One MapReduce job = startup + map phase + shuffle + reduce phase."""
    startup = SimulatedStage(
        label=f"{map_record.label}:startup",
        compute_s=0.0,
        io_s=0.0,
        network_s=0.0,
        overhead_s=spec.mr_job_startup_s,
    )
    return SimulatedRun(
        [startup, simulate_mr_stage(map_record, spec), simulate_mr_stage(reduce_record, spec)]
    )


def simulate_mr_run(
    jobs: list[tuple[StageRecord, StageRecord]], spec: ClusterSpec
) -> SimulatedRun:
    """A chain of MapReduce jobs (one per Apriori level)."""
    run = SimulatedRun()
    for map_rec, red_rec in jobs:
        run.stages.extend(simulate_mr_job(map_rec, red_rec, spec).stages)
    return run


def speedup_curve(
    simulate: "callable[[ClusterSpec], SimulatedRun]",
    base_spec: ClusterSpec,
    node_counts: list[int],
) -> list[tuple[int, float]]:
    """(total_cores, simulated seconds) for each node count."""
    out = []
    for n in node_counts:
        spec = base_spec.with_nodes(n)
        out.append((spec.total_cores, simulate(spec).total_s))
    return out
