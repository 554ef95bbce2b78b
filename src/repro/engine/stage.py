"""Stages and tasks — the schedulable units built from an RDD lineage.

A job splits into a tree of stages at shuffle boundaries: every
:class:`ShuffleDependency` becomes a :class:`ShuffleMapStage` whose tasks
bucket their output by the shuffle's partitioner; the action itself runs
as a :class:`ResultStage`.  Task bodies are pure with respect to driver
state — every driver-resident input they need (cached blocks, shuffle
buckets) is resolved into the task context beforehand when running on the
process backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.common.sizeof import estimate_size
from repro.engine.dependencies import ShuffleDependency
from repro.engine.metrics import TaskMetrics
from repro.engine.partition import Partition
from repro.engine.task import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


@dataclass
class Stage:
    stage_id: int
    rdd: "RDD"
    parents: list["Stage"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass
class ShuffleMapStage(Stage):
    shuffle_dep: ShuffleDependency | None = None

    @property
    def kind(self) -> str:
        return "shuffle_map"


@dataclass
class ResultStage(Stage):
    func: Callable[[TaskContext, Any], Any] | None = None
    partitions: list[int] | None = None  # None = all

    @property
    def kind(self) -> str:
        return "result"


@dataclass
class Task:
    """One partition's worth of work for one stage."""

    stage_id: int
    kind: str  # "shuffle_map" | "result"
    rdd: "RDD"
    partition: Partition
    func: Callable | None = None  # result tasks
    shuffle_dep: ShuffleDependency | None = None  # shuffle-map tasks
    #: References to driver-registered data blocks this task needs —
    #: ``("rdd", rdd_id, part)`` / ``("shuf", shuffle_id, part)`` tuples.
    #: The process backend ships these ids instead of the payloads; the
    #: worker resolves them through its block store (see
    #: :mod:`repro.engine.workerstore`) before running the task.
    block_refs: list = field(default_factory=list)
    #: Ids of the RDDs whose partitions *every* task of this stage reads
    #: through :attr:`block_refs` (cache hits, parallelized slices).  The
    #: process backend ships those RDDs as stubs, without their lineage
    #: (:func:`repro.engine.dependencies.ship_without_lineage`).
    resident_rdds: frozenset = frozenset()
    #: The :attr:`block_refs` that are parallelized-collection slices;
    #: released once this task's output is cached (it supersedes them).
    slice_refs: list = field(default_factory=list)
    preloaded_blocks: dict = field(default_factory=dict)
    preloaded_shuffle: dict = field(default_factory=dict)
    attempt: int = 0

    def describe(self) -> str:
        return f"{self.kind}(stage={self.stage_id}, partition={self.partition.index})"

    def resolve_refs(self, resolver: Callable[[tuple], Any]) -> None:
        """Materialize :attr:`block_refs` into the preloaded-input dicts
        (worker side; ``resolver`` is the block store's cache-or-pull)."""
        for ref in self.block_refs:
            kind = ref[0]
            if kind == "rdd":
                self.preloaded_blocks[(ref[1], ref[2])] = resolver(ref)
            elif kind == "shuf":
                self.preloaded_shuffle[(ref[1], ref[2])] = resolver(ref)

    def run(self, worker_id: str = "driver") -> "TaskResult":
        metrics = TaskMetrics(
            stage_id=self.stage_id,
            partition=self.partition.index,
            attempt=self.attempt,
            kind=self.kind,
            worker_id=worker_id,
        )
        ctx = TaskContext(metrics, worker_id=worker_id)
        ctx.preloaded_blocks = self.preloaded_blocks
        ctx.preloaded_shuffle = self.preloaded_shuffle
        t0 = time.perf_counter()
        metrics.start_s = t0
        with ctx:
            if self.kind == "shuffle_map":
                value = self._run_shuffle_map(ctx)
            else:
                value = self.func(ctx, self.rdd.iterator(self.partition, ctx))
                if isinstance(value, (list, tuple, dict, set, frozenset)):
                    metrics.records_out = len(value)
                # what a cluster would move to the driver; the replay
                # charges it as it charges shuffle_write_bytes
                metrics.result_bytes = estimate_size(value)
        metrics.duration_s = time.perf_counter() - t0
        return TaskResult(
            task=self,
            value=value,
            metrics=metrics,
            cache_back=ctx.cache_back,
        )

    def _run_shuffle_map(self, ctx: TaskContext) -> list[list]:
        """Bucket this partition's records by the shuffle partitioner.

        With map-side combine enabled the buckets hold (key, combiner)
        pairs pre-merged per key — Apriori's per-partition support counts —
        which is what makes ``reduceByKey`` shuffle O(distinct keys) rather
        than O(records).
        """
        dep = self.shuffle_dep
        assert dep is not None
        n_out = dep.partitioner.num_partitions
        records = self.rdd.iterator(self.partition, ctx)
        n_in = 0
        if dep.map_side_combine:
            # Combine first, partition after: the partitioner then runs
            # once per distinct key instead of once per record (profiling
            # showed per-record hashing dominating Apriori counting).
            agg = dep.aggregator
            combined: dict = {}
            for k, v in records:
                n_in += 1
                if k in combined:
                    combined[k] = agg.merge_value(combined[k], v)
                else:
                    combined[k] = agg.create_combiner(v)
            buckets = [[] for _ in range(n_out)]
            for k, c in combined.items():
                buckets[dep.partitioner.partition(k)].append((k, c))
        else:
            buckets = [[] for _ in range(n_out)]
            for k, v in records:
                n_in += 1
                buckets[dep.partitioner.partition(k)].append((k, v))
        ctx.metrics.combine_records_in += n_in
        ctx.metrics.records_out += sum(len(b) for b in buckets)
        return buckets


@dataclass
class TaskResult:
    task: Task
    value: Any
    metrics: TaskMetrics
    cache_back: dict[tuple[int, int], list]
