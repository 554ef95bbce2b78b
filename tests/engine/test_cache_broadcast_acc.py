"""Caching semantics and broadcast variables."""

from repro.engine import Context, StorageLevel
from repro.engine.storage import BlockId


def source_records_read(ctx) -> int:
    """Records the tasks logged so far read from their source partitions."""
    return sum(t.records_in for t in ctx.event_log.tasks)


class TestCaching:
    def test_cache_avoids_recompute(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x).cache()
        rdd.count()
        assert source_records_read(ctx) == 10
        rdd.count()
        assert source_records_read(ctx) == 10  # second action served from cache

    def test_uncached_recomputes(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map(lambda x: x)
        rdd.count()
        rdd.count()
        assert source_records_read(ctx) == 20

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
