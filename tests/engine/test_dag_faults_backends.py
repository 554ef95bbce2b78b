"""DAG scheduling, fault tolerance, lineage, executor backends."""

import pytest

from repro.common.errors import TaskFailedError
from repro.engine import Context, stage_count, to_networkx
from repro.engine.partitioner import HashPartitioner, RangePartitioner, compute_range_bounds
from repro.common.rng import stable_hash


class TestStageStructure:
    def test_narrow_pipeline_is_one_stage(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x).filter(bool)
        assert stage_count(rdd) == 1

    def test_shuffle_adds_stage(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a + b)
        assert stage_count(rdd) == 2

    def test_two_shuffles(self, ctx):
        rdd = (
            ctx.parallelize([(1, 1)], 2)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .group_by_key()
        )
        assert stage_count(rdd) == 3

    def test_networkx_export(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).map(lambda kv: kv).reduce_by_key(lambda a, b: a)
        g = to_networkx(rdd)
        assert g.number_of_nodes() == 3
        kinds = {d["kind"] for _u, _v, d in g.edges(data=True)}
        assert kinds == {"narrow", "shuffle"}

    def test_shuffle_reuse_across_jobs(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(
            lambda a, b: a + b
        )
        rdd.collect()
        maps_before = sum(1 for t in ctx.event_log.tasks if t.kind == "shuffle_map")
        rdd.collect()  # second job reuses registered map outputs
        maps_after = sum(1 for t in ctx.event_log.tasks if t.kind == "shuffle_map")
        assert maps_after == maps_before

    def test_clear_shuffle_outputs_forces_rerun(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a + b)
        rdd.collect()
        ctx.clear_shuffle_outputs()
        rdd.collect()
        maps = sum(1 for t in ctx.event_log.tasks if t.kind == "shuffle_map")
        assert maps == 4  # 2 map tasks x 2 runs

    def test_job_summary_recorded(self, ctx):
        ctx.parallelize(range(4), 2).count()
        assert len(ctx.event_log.jobs) == 1
        assert ctx.event_log.jobs[0].n_tasks == 2


class TestFaultTolerance:
    def test_task_retry_succeeds(self, ctx):
        ctx.fault_injector.fail_task(stage_kind="result", partition=1, times=2)
        assert ctx.parallelize(range(10), 4).count() == 10
        assert ctx.fault_injector.injected == 2

    def test_shuffle_map_retry(self, ctx):
        ctx.fault_injector.fail_task(stage_kind="shuffle_map", times=1)
        got = (
            ctx.parallelize([(i % 2, 1) for i in range(10)], 3)
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        assert got == {0: 5, 1: 5}

    def test_exhausted_retries_fail_job(self, ctx):
        ctx.fault_injector.fail_task(stage_kind="result", partition=0, times=99)
        with pytest.raises(TaskFailedError):
            ctx.parallelize(range(4), 2).count()

    def test_user_exception_propagates_after_retries(self, ctx):
        def boom(x):
            raise ValueError("user bug")

        with pytest.raises(TaskFailedError) as err:
            ctx.parallelize([1], 1).map(boom).collect()
        assert isinstance(err.value.cause, ValueError)

    def test_failed_attempts_recorded_in_event_log(self, ctx):
        ctx.fault_injector.fail_task(stage_kind="result", partition=0, times=1)
        ctx.parallelize(range(4), 2).count()
        failed = [t for t in ctx.event_log.tasks if t.kind.startswith("failed_")]
        assert len(failed) == 1

    def test_post_completion_failure_wastes_work_but_retries(self, ctx):
        """`when='after'` failures discard a finished task's result."""
        ran = ctx.accumulator(0)
        ctx.fault_injector.fail_task(stage_kind="result", partition=0, times=1, when="after")
        got = ctx.parallelize(range(10), 2).map(lambda x, a=ran: (a.add(1), x)[1]).sum()
        assert got == 45
        # partition 0's 5 elements were processed twice, but the failed
        # attempt's accumulator delta was NOT merged (no double count)
        assert ran.value == 10
        failed = [t for t in ctx.event_log.tasks if t.kind.startswith("failed_")]
        assert len(failed) == 1

    def test_after_mode_validation(self, ctx):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            ctx.fault_injector.fail_task(when="sometimes")


PIPELINES = {
    "wordcount": lambda ctx: sorted(
        ctx.parallelize(["a b a", "c b"] * 5, 4)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    ),
    "chained_shuffles": lambda ctx: sorted(
        ctx.parallelize([(i % 4, i) for i in range(40)], 4)
        .group_by_key()
        .map_values(len)
        .map(lambda kv: (kv[1], kv[0]))
        .group_by_key()
        .map_values(sorted)
        .collect()
    ),
    "distinct_union": lambda ctx: sorted(
        ctx.parallelize([1, 2, 2], 2).union(ctx.parallelize([2, 3], 1)).distinct().collect()
    ),
    "join": lambda ctx: sorted(
        ctx.parallelize([(1, "a"), (2, "b")], 2)
        .join(ctx.parallelize([(1, "x"), (2, "y")], 2))
        .collect()
    ),
    "cached_reuse": lambda ctx: (
        lambda rdd: (rdd.count(), rdd.sum())
    )(ctx.parallelize(range(100), 4).map(lambda x: x % 7).cache()),
}


@pytest.mark.parametrize("backend", ["serial", "processes"])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_backends_agree(backend, name):
    with Context(backend=backend, parallelism=2) as ctx:
        got = PIPELINES[name](ctx)
    with Context(backend="serial") as ctx:
        want = PIPELINES[name](ctx)
    assert got == want


class TestPartitioners:
    def test_hash_partitioner_stable(self):
        p = HashPartitioner(8)
        assert p.partition("abc") == stable_hash("abc") % 8
        assert all(0 <= p.partition((i, "x")) < 8 for i in range(100))

    def test_hash_partitioner_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_range_partitioner_orders_keys(self):
        p = RangePartitioner([10, 20])
        assert p.num_partitions == 3
        assert p.partition(5) == 0
        assert p.partition(15) == 1
        assert p.partition(25) == 2

    def test_range_partitioner_descending(self):
        p = RangePartitioner([10, 20], ascending=False)
        assert p.partition(5) == 2
        assert p.partition(25) == 0

    def test_compute_range_bounds(self):
        bounds = compute_range_bounds(list(range(100)), 4)
        assert len(bounds) == 3
        assert bounds == sorted(bounds)

    def test_compute_range_bounds_degenerate(self):
        assert compute_range_bounds([], 4) == []
        assert compute_range_bounds([1, 1, 1], 3) == [1]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestMakeExecutor:
    def test_backends_tuple_covers_factory(self):
        from repro.engine.executors import BACKENDS, make_executor

        assert BACKENDS == ("serial", "processes")
        for backend in BACKENDS:
            executor = make_executor(backend, 2)
            executor.shutdown()

    def test_unknown_backend_error_names_valid_ones(self):
        from repro.engine.executors import BACKENDS, make_executor

        with pytest.raises(ValueError) as err:
            make_executor("thraeds")
        message = str(err.value)
        assert "thraeds" in message
        for backend in BACKENDS:
            assert backend in message
