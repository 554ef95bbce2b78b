"""DAG scheduler: lineage -> stages -> tasks -> results.

The algorithm is Spark's: walk the action RDD's lineage, cut it at every
:class:`ShuffleDependency` into :class:`ShuffleMapStage`s, run parents
before children, and finish with a :class:`ResultStage` that applies the
action function to each requested partition.  Shuffle stages whose map
outputs are already registered are skipped (map-output reuse across jobs),
which is what lets an iterative algorithm reuse the previous iteration's
work.  Failed task attempts are retried up to ``max_task_failures``.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import TaskFailedError
from repro.engine.dependencies import ShuffleDependency
from repro.engine.metrics import JobSummary, TaskMetrics
from repro.engine.stage import ResultStage, ShuffleMapStage, Stage, Task, TaskResult
from repro.engine.storage import BlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context
    from repro.engine.rdd import RDD


class DAGScheduler:
    def __init__(self, context: "Context", max_task_failures: int = 4):
        self.context = context
        self.max_task_failures = max_task_failures
        self._stage_ids = itertools.count()
        self._job_ids = itertools.count()
        self._shuffle_stages: dict[int, ShuffleMapStage] = {}
        self._final_results: dict[int, dict[int, Any]] = {}

    # -- public entry point --------------------------------------------------
    def run_job(
        self,
        rdd: "RDD",
        func: Callable,
        partitions: list[int] | None = None,
    ) -> list[Any]:
        job_id = next(self._job_ids)
        t0 = time.perf_counter()
        target = list(range(rdd.num_partitions)) if partitions is None else list(partitions)
        final = ResultStage(
            stage_id=next(self._stage_ids),
            rdd=rdd,
            parents=self._parent_stages(rdd),
            func=func,
            partitions=target,
        )
        with self.context.tracer.span(
            f"job-{job_id}", "job", n_partitions=len(target), rdd=type(rdd).__name__
        ):
            n_stages, n_tasks = self._execute_stage(final, counters=[0, 0])
            results = self._final_results.pop(final.stage_id)
        self.context.event_log.record_job(
            JobSummary(
                job_id=job_id,
                duration_s=time.perf_counter() - t0,
                n_stages=n_stages,
                n_tasks=n_tasks,
            )
        )
        return [results[p] for p in target]

    # -- stage graph ----------------------------------------------------------
    def _parent_stages(self, rdd: "RDD") -> list[Stage]:
        parents: list[Stage] = []
        visited: set[int] = set()

        def visit(r: "RDD") -> None:
            if r.id in visited:
                return
            visited.add(r.id)
            for dep in r.dependencies:
                if isinstance(dep, ShuffleDependency):
                    parents.append(self._shuffle_stage_for(dep))
                else:
                    visit(dep.rdd)

        visit(rdd)
        return parents

    def _shuffle_stage_for(self, dep: ShuffleDependency) -> ShuffleMapStage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = ShuffleMapStage(
                stage_id=next(self._stage_ids),
                rdd=dep.rdd,
                parents=self._parent_stages(dep.rdd),
                shuffle_dep=dep,
            )
            self._shuffle_stages[dep.shuffle_id] = stage
        return stage

    def reset_shuffle_state(self) -> None:
        """Forget completed shuffle stages so later jobs rebuild (and
        re-run) them.  Pair with ``ShuffleManager.clear()`` — iterative
        drivers call both between iterations via
        :meth:`Context.clear_shuffle_outputs`."""
        self._shuffle_stages.clear()

    # -- execution --------------------------------------------------------------
    def _execute_stage(self, stage: Stage, counters: list[int]) -> tuple[int, int]:
        """Run ``stage`` (parents first). Returns (stages_run, tasks_run)."""
        if (
            isinstance(stage, ShuffleMapStage)
            and self.context.shuffle_manager.is_complete(stage.shuffle_dep.shuffle_id)
        ):
            return tuple(counters)  # map outputs already materialized
        for parent in stage.parents:
            self._execute_stage(parent, counters)

        with self.context.tracer.span(
            f"stage-{stage.stage_id}", "stage", kind=stage.kind
        ):
            ship_mark = self.context.executor.shipped_bytes_total()
            tasks = self._make_tasks(stage)
            results = self._run_with_retries(stage, tasks)
            shipped = self.context.executor.shipped_bytes_total() - ship_mark
            if shipped:
                self.context.tracer.instant(
                    f"stage_ship s{stage.stage_id}", "ship", bytes=shipped
                )

            if isinstance(stage, ShuffleMapStage):
                dep = stage.shuffle_dep
                self.context.shuffle_manager.register_shuffle(
                    dep.shuffle_id, len(stage.rdd.partitions())
                )
                for res in results.values():
                    written = self.context.shuffle_manager.put_map_output(
                        dep.shuffle_id, res.task.partition.index, res.value
                    )
                    res.metrics.shuffle_write_bytes = written
            else:
                self._final_results[stage.stage_id] = {
                    p: res.value for p, res in results.items()
                }
            for res in results.values():
                self._finish_task(res)
        self.context.event_log.summarize_stage(
            stage.stage_id, stage.kind, shipped_bytes=shipped
        )
        counters[0] += 1
        counters[1] += len(tasks)
        return tuple(counters)

    def _make_tasks(self, stage: Stage) -> list[Task]:
        rdd = stage.rdd
        parts = rdd.partitions()
        if isinstance(stage, ResultStage):
            indices = stage.partitions
            kind = "result"
        else:
            indices = list(range(len(parts)))
            kind = "shuffle_map"
        tasks = []
        for i in indices:
            task = Task(
                stage_id=stage.stage_id,
                kind=kind,
                rdd=rdd,
                partition=parts[i],
                func=stage.func if isinstance(stage, ResultStage) else None,
                shuffle_dep=stage.shuffle_dep if isinstance(stage, ShuffleMapStage) else None,
            )
            tasks.append(task)
        if self.context.executor.needs_preload:
            resident: set[int] = set()
            computed: set[int] = set()
            for task in tasks:
                self._resolve_task_inputs(
                    rdd, task.partition.index, task, resident, computed
                )
            # A cached RDD one task hit and another missed (a dropped or
            # evicted block) keeps its lineage for the whole stage.
            lineage_free = frozenset(resident - computed)
            for task in tasks:
                task.resident_rdds = lineage_free
        return tasks

    def _resolve_task_inputs(
        self, rdd: "RDD", partition_index: int, task: Task,
        resident: set[int], computed: set[int],
    ) -> None:
        """Turn driver-resident inputs a remote worker cannot reach into
        block *references*: the payload is registered with the executor
        (``offer_block``) under a stable key and only the key rides on the
        task — the executor ships the bytes at most once per worker.

        ``resident`` collects the ids of RDDs whose partition arrived as
        a block (the worker never computes it), ``computed`` the ids of
        RDDs the worker will compute from their parents."""
        from repro.engine.rdd import CoGroupedRDD, ParallelCollectionRDD, ShuffledRDD

        offer = self.context.executor.offer_block
        block = BlockId(rdd.id, partition_index)
        ref = block.ref()
        if rdd.storage_level is not None:
            data = self.context.block_manager.get(block)
            if data is not None:
                offer(ref, data)
                task.block_refs.append(ref)
                resident.add(rdd.id)
                return  # the cache hit cuts the pipeline here
        if isinstance(rdd, ParallelCollectionRDD):
            # The slice has no unpersist to release it: the executor
            # forgets it when the RDD itself is garbage collected.
            offer(ref, rdd.slice(partition_index), owner=rdd)
            task.block_refs.append(ref)
            task.slice_refs.append(ref)
            resident.add(rdd.id)
            return
        computed.add(rdd.id)
        if isinstance(rdd, ShuffledRDD):
            key = (rdd.shuffle_dep.shuffle_id, partition_index)
            buckets, _ = self.context.shuffle_manager.fetch(*key)
            ref = ("shuf",) + key
            offer(ref, buckets)
            task.block_refs.append(ref)
            return
        if isinstance(rdd, CoGroupedRDD):
            for dep in rdd.shuffle_deps:
                key = (dep.shuffle_id, partition_index)
                buckets, _ = self.context.shuffle_manager.fetch(*key)
                ref = ("shuf",) + key
                offer(ref, buckets)
                task.block_refs.append(ref)
            return
        for dep in rdd.dependencies:
            for parent_idx in dep.get_parents(partition_index):
                self._resolve_task_inputs(dep.rdd, parent_idx, task, resident, computed)

    def _run_with_retries(self, stage: Stage, tasks: list[Task]) -> dict[int, TaskResult]:
        done: dict[int, TaskResult] = {}
        pending = list(tasks)
        injector = self.context.fault_injector
        while pending:
            run_now: list[Task] = []
            retry_later: list[Task] = []
            for task in pending:
                try:
                    injector.check(task.kind, task.partition.index, task.attempt)
                    run_now.append(task)
                except Exception as exc:  # injected pre-dispatch failure
                    self._note_failure(task, exc)
                    task.attempt += 1
                    if task.attempt >= self.max_task_failures:
                        raise TaskFailedError(task.describe(), task.attempt, exc) from exc
                    retry_later.append(task)
            outcomes = self.context.executor.run_tasks(run_now)
            pending = retry_later
            for task, outcome in outcomes:
                if not isinstance(outcome, BaseException):
                    # post-completion injection: the work ran, the result
                    # is lost anyway (crash at result delivery)
                    try:
                        injector.check(
                            task.kind, task.partition.index, task.attempt, when="after"
                        )
                    except Exception as exc:  # noqa: BLE001
                        outcome = exc
                if isinstance(outcome, BaseException):
                    self._note_failure(task, outcome)
                    task.attempt += 1
                    if task.attempt >= self.max_task_failures:
                        raise TaskFailedError(task.describe(), task.attempt, outcome)
                    pending.append(task)
                else:
                    done[task.partition.index] = outcome
        return done

    def _note_failure(self, task: Task, exc: BaseException) -> None:
        metrics = TaskMetrics(
            stage_id=task.stage_id,
            partition=task.partition.index,
            attempt=task.attempt,
            kind=f"failed_{task.kind}",
        )
        self.context.event_log.record_task(metrics)
        self.context.tracer.instant(
            f"task-failed s{task.stage_id}p{task.partition.index}",
            "task",
            error=type(exc).__name__,
            attempt=task.attempt,
        )

    def _finish_task(self, res: TaskResult) -> None:
        m = res.metrics
        self.context.tracer.add_span(
            f"task s{m.stage_id}p{m.partition}",
            "task",
            m.start_s,
            m.duration_s,
            track=m.worker_id or "driver",
            stage=m.stage_id,
            partition=m.partition,
            attempt=m.attempt,
            kind=m.kind,
            shuffle_read_bytes=m.shuffle_read_bytes,
            shuffle_write_bytes=m.shuffle_write_bytes,
            cache_hits=m.cache_hits,
            cache_misses=m.cache_misses,
        )
        self.context.event_log.record_task(res.metrics)
        for (rdd_id, part), data in res.cache_back.items():
            level = self.context._storage_level_of(rdd_id)
            if level is not None:
                self.context.block_manager.put(BlockId(rdd_id, part), data, level)
        if res.cache_back:
            # The partition just cached supersedes the slices it was
            # computed from: drop them from the executor registry and the
            # worker stores (lineage recovery re-offers them on a loss).
            for ref in res.task.slice_refs:
                self.context.executor.invalidate_block(ref)
