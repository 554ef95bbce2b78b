"""The MapReduce job runner.

Faithful to Hadoop 1.x structure — and, crucially for the paper's
argument, faithful to its *I/O behaviour*:

1. input splits are computed from mini-DFS blocks (data really on disk),
2. each map task reads its split from the DFS, runs the mapper, sorts and
   combines its output, and **spills each reduce bucket to a real local
   file**,
3. each reduce task reads its spill files back **from disk**, merge-sorts
   them, runs the reducer, and **writes its part file back to the DFS**.

Every Apriori level executed on this runtime therefore pays a genuine
disk round-trip (DFS read -> shuffle spill -> DFS write) plus the modeled
job-startup overhead, which is exactly the per-iteration tax the paper
attributes to MapReduce and that YAFIM's in-memory RDDs avoid.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import MapReduceError
from repro.engine.tracing import Tracer
from repro.hdfs.filesystem import MiniDfs
from repro.hdfs.textio import compute_splits, read_split_lines
from repro.mapreduce.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    GROUP_TASK,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    Counters,
)
from repro.mapreduce.job import JobSpec


@dataclass
class JobMetrics:
    """Measured facts about one executed job (feeds the cluster replay)."""

    name: str = ""
    map_task_durations: list[float] = field(default_factory=list)
    reduce_task_durations: list[float] = field(default_factory=list)
    hdfs_read_bytes: int = 0
    hdfs_write_bytes: int = 0
    shuffle_bytes: int = 0
    wall_seconds: float = 0.0


@dataclass
class JobResult:
    spec: JobSpec
    counters: Counters
    metrics: JobMetrics

    @property
    def output_path(self) -> str:
        return self.spec.output_path


class JobRunner:
    """Executes jobs against a mini-DFS, one task at a time: map tasks in
    split order, then reduce tasks in partition order, so every task's
    measured duration is free of interference (the cluster replay reads
    them).

    Parameters
    ----------
    dfs:
        The mini-DFS holding inputs and receiving outputs.
    tracer:
        Optional shared :class:`~repro.engine.tracing.Tracer`; the runner
        creates its own when not given, so every job is always traced.
    """

    def __init__(self, dfs: MiniDfs, tracer: Tracer | None = None):
        self.dfs = dfs
        self.jobs_run = 0
        self.tracer = tracer if tracer is not None else Tracer(label="mapreduce")

    # -- public --------------------------------------------------------------
    def run(self, spec: JobSpec) -> JobResult:
        spec.validate()
        if self.dfs.exists(spec.output_path) or self.dfs.list_files(spec.output_path):
            raise MapReduceError(
                f"output path {spec.output_path} already exists (Hadoop semantics)"
            )
        t0 = time.perf_counter()
        counters = Counters()
        metrics = JobMetrics(name=spec.name)
        dfs_before = self.dfs.metrics.snapshot()
        shuffle_dir = tempfile.mkdtemp(prefix=f"mr_shuffle_{self.jobs_run}_")
        try:
            with self.tracer.span(f"mr_job {spec.name}", "job", reducers=spec.num_reducers):
                splits = [
                    (path, split)
                    for path in spec.input_paths
                    for split in compute_splits(self.dfs, path)
                ]
                if not splits:
                    raise MapReduceError(f"job {spec.name!r}: empty input")
                with self.tracer.span(f"map_phase {spec.name}", "stage", n_tasks=len(splits)):
                    self._run_map_phase(spec, splits, shuffle_dir, counters, metrics)
                with self.tracer.span(
                    f"reduce_phase {spec.name}", "stage", n_tasks=spec.num_reducers
                ):
                    self._run_reduce_phase(spec, len(splits), shuffle_dir, counters, metrics)
        finally:
            shutil.rmtree(shuffle_dir, ignore_errors=True)
        delta = self.dfs.metrics.delta(dfs_before)
        metrics.hdfs_read_bytes = delta.bytes_read
        metrics.hdfs_write_bytes = delta.bytes_written
        metrics.wall_seconds = time.perf_counter() - t0
        self.jobs_run += 1
        return JobResult(spec=spec, counters=counters, metrics=metrics)

    # -- map phase --------------------------------------------------------------
    def _run_map_phase(self, spec, splits, shuffle_dir, counters, metrics) -> None:
        def map_task(task_id_and_split):
            task_id, (path, split) = task_id_and_split
            t0 = time.perf_counter()
            task_counters = Counters()
            mapper = spec.mapper_factory()
            mapper.setup(self._task_config(spec))
            output: list[tuple] = []
            emit = lambda k, v: output.append((k, v))  # noqa: E731
            lines = read_split_lines(self.dfs, split)
            for line in lines:
                mapper.map(split.start, line, emit)
            mapper.cleanup(emit)
            task_counters.increment(GROUP_TASK, MAP_INPUT_RECORDS, len(lines))
            task_counters.increment(GROUP_TASK, MAP_OUTPUT_RECORDS, len(output))
            if spec.combiner_factory is not None:
                output = self._combine(spec, output, task_counters)
            buckets = self._partition_and_sort(spec, output)
            shuffle_bytes = self._spill(shuffle_dir, task_id, buckets)
            duration = time.perf_counter() - t0
            self.tracer.add_span(
                f"map {spec.name}#{task_id}", "task", t0, duration,
                track=threading.current_thread().name,
                records=len(lines), shuffle_bytes=shuffle_bytes,
            )
            return duration, task_counters, shuffle_bytes

        results = [map_task(item) for item in enumerate(splits)]
        for dur, task_counters, shuffle_bytes in results:
            metrics.map_task_durations.append(dur)
            metrics.shuffle_bytes += shuffle_bytes
            counters.merge(task_counters)

    def _combine(self, spec, output, task_counters) -> list[tuple]:
        combiner = spec.combiner_factory()
        combiner.setup(self._task_config(spec))
        grouped: dict = {}
        for k, v in output:
            grouped.setdefault(k, []).append(v)
        combined: list[tuple] = []
        emit = lambda k, v: combined.append((k, v))  # noqa: E731
        for k in grouped:
            combiner.reduce(k, grouped[k], emit)
        combiner.cleanup(emit)
        task_counters.increment(GROUP_TASK, COMBINE_INPUT_RECORDS, len(output))
        task_counters.increment(GROUP_TASK, COMBINE_OUTPUT_RECORDS, len(combined))
        return combined

    def _partition_and_sort(self, spec, output) -> list[list[tuple]]:
        buckets: list[list[tuple]] = [[] for _ in range(spec.num_reducers)]
        for k, v in output:
            buckets[spec.partitioner(k, spec.num_reducers)].append((k, v))
        for bucket in buckets:
            bucket.sort(key=lambda kv: repr(kv[0]))  # total order even for mixed keys
        return buckets

    def _spill(self, shuffle_dir: str, map_task_id: int, buckets) -> int:
        """Write each reduce bucket to a real local file; returns bytes."""
        total = 0
        for r, bucket in enumerate(buckets):
            path = os.path.join(shuffle_dir, f"map_{map_task_id:05d}_r{r:03d}.spill")
            with open(path, "wb") as f:
                pickle.dump(bucket, f, protocol=pickle.HIGHEST_PROTOCOL)
            total += os.path.getsize(path)
        return total

    # -- reduce phase --------------------------------------------------------------
    def _run_reduce_phase(self, spec, n_maps, shuffle_dir, counters, metrics) -> None:
        def reduce_task(r: int):
            t0 = time.perf_counter()
            task_counters = Counters()
            merged: list[tuple] = []
            for m in range(n_maps):
                path = os.path.join(shuffle_dir, f"map_{m:05d}_r{r:03d}.spill")
                with open(path, "rb") as f:
                    merged.extend(pickle.load(f))
            merged.sort(key=lambda kv: repr(kv[0]))
            reducer = spec.reducer_factory()
            reducer.setup(self._task_config(spec))
            out_pairs: list[tuple] = []
            emit = lambda k, v: out_pairs.append((k, v))  # noqa: E731
            i = 0
            while i < len(merged):
                j = i
                key = merged[i][0]
                values = []
                while j < len(merged) and merged[j][0] == key:
                    values.append(merged[j][1])
                    j += 1
                reducer.reduce(key, values, emit)
                i = j
            reducer.cleanup(emit)
            task_counters.increment(GROUP_TASK, REDUCE_INPUT_RECORDS, len(merged))
            task_counters.increment(GROUP_TASK, REDUCE_OUTPUT_RECORDS, len(out_pairs))
            lines = [spec.output_formatter(k, v) for k, v in out_pairs]
            self.dfs.write_lines(f"{spec.output_path.rstrip('/')}/part-r-{r:05d}", lines)
            duration = time.perf_counter() - t0
            self.tracer.add_span(
                f"reduce {spec.name}#{r}", "task", t0, duration,
                track=threading.current_thread().name, records=len(merged),
            )
            return duration, task_counters

        results = [reduce_task(r) for r in range(spec.num_reducers)]
        for dur, task_counters in results:
            metrics.reduce_task_durations.append(dur)
            counters.merge(task_counters)

    # -- helpers -----------------------------------------------------------------
    def _task_config(self, spec: JobSpec) -> dict:
        config = dict(spec.config)
        config["__cache__"] = spec.distributed_cache
        return config


def read_job_output(dfs: MiniDfs, output_path: str) -> list[str]:
    """All lines of a job's part files, in part order."""
    lines: list[str] = []
    for part in dfs.list_files(output_path):
        lines.extend(dfs.read_lines(part))
    return lines
