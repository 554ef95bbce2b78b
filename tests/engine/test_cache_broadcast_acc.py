"""Caching semantics, broadcast variables, accumulators."""

import pytest

from repro.engine import Context, StorageLevel
from repro.engine.storage import BlockId


class TestCaching:
    def test_cache_avoids_recompute(self, ctx):
        calls = ctx.accumulator(0)

        def spy(x, a=None):
            a.add(1)
            return x

        rdd = ctx.parallelize(range(10), 2).map(lambda x, a=calls: spy(x, a)).cache()
        rdd.count()
        assert calls.value == 10
        rdd.count()
        assert calls.value == 10  # second action served from cache

    def test_uncached_recomputes(self, ctx):
        calls = ctx.accumulator(0)
        rdd = ctx.parallelize(range(10), 2).map(lambda x, a=calls: (a.add(1), x)[1])
        rdd.count()
        rdd.count()
        assert calls.value == 20

    def test_unpersist_frees_blocks(self, ctx):
        rdd = ctx.parallelize(range(10), 4).cache()
        rdd.count()
        assert ctx.block_manager.cached_block_count == 4
        rdd.unpersist()
        assert ctx.block_manager.cached_block_count == 0

    def test_lost_block_recomputed_from_lineage(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x * 3).cache()
        assert rdd.sum() == 135
        dropped = ctx.block_manager.drop_block(BlockId(rdd.id, 0))
        assert dropped
        assert rdd.sum() == 135  # partition 0 recomputed transparently
        assert ctx.block_manager.cached_block_count == 2  # re-cached

    def test_memory_and_disk_level(self, ctx):
        rdd = ctx.parallelize(range(100), 2).persist(StorageLevel.MEMORY_AND_DISK)
        rdd.count()
        assert ctx.block_manager.cached_block_count == 2

    def test_cache_hit_metrics_recorded(self, ctx):
        rdd = ctx.parallelize(range(10), 2).cache()
        rdd.count()
        rdd.count()
        hits = sum(t.cache_hits for t in ctx.event_log.tasks)
        misses = sum(t.cache_misses for t in ctx.event_log.tasks)
        assert hits == 2
        assert misses == 2


class TestBroadcast:
    def test_value_visible_in_tasks(self, ctx):
        bc = ctx.broadcast({"factor": 7})
        got = ctx.parallelize([1, 2, 3], 3).map(lambda x, b=bc: x * b.value["factor"]).collect()
        assert got == [7, 14, 21]

    def test_one_transfer_per_worker(self):
        with Context(backend="processes", parallelism=2) as ctx:
            bc = ctx.broadcast(list(range(1000)))
            ctx.parallelize(range(64), 16).map(lambda x, b=bc: len(b.value)).collect()
            # 16 tasks but 2 workers -> at most 2 transfers
            assert 1 <= ctx.broadcast_manager.transfers <= 2
            assert ctx.broadcast_manager.transfer_bytes >= bc.size_bytes

    def test_repeated_access_not_recounted(self, ctx):
        bc = ctx.broadcast("payload")
        ctx.parallelize(range(10), 2).map(lambda x, b=bc: b.value).collect()
        first = ctx.broadcast_manager.transfers
        ctx.parallelize(range(10), 2).map(lambda x, b=bc: b.value).collect()
        assert ctx.broadcast_manager.transfers == first  # same worker set

    def test_destroy(self, ctx):
        bc = ctx.broadcast([1])
        assert ctx.broadcast_manager.live_count == 1
        bc.destroy()
        assert ctx.broadcast_manager.live_count == 0

    def test_size_estimated(self, ctx):
        bc = ctx.broadcast("x" * 10_000)
        assert bc.size_bytes > 9_000


class TestAccumulators:
    def test_driver_side_add(self, ctx):
        acc = ctx.accumulator(5)
        acc.add(3)
        assert acc.value == 8

    def test_task_side_add_merged_once(self, ctx):
        acc = ctx.accumulator(0)
        ctx.parallelize(range(100), 4).foreach(lambda x, a=acc: a.add(1))
        assert acc.value == 100

    def test_float_param_inferred(self, ctx):
        acc = ctx.accumulator(0.0)
        ctx.parallelize([0.5, 1.5], 2).foreach(lambda x, a=acc: a.add(x))
        assert acc.value == pytest.approx(2.0)

    def test_failed_attempts_do_not_double_count(self, ctx):
        acc = ctx.accumulator(0)
        ctx.fault_injector.fail_task(stage_kind="result", partition=0, times=1)
        ctx.parallelize(range(10), 2).foreach(lambda x, a=acc: a.add(1))
        assert acc.value == 10  # injected failure happened before dispatch

    def test_works_on_process_backend(self):
        with Context(backend="processes", parallelism=2) as ctx:
            acc = ctx.accumulator(0)
            ctx.parallelize(range(40), 4).foreach(lambda x, a=acc: a.add(1))
            assert acc.value == 40
