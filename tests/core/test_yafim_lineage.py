"""Structural fidelity: YAFIM's dataflow matches the paper's Figs. 1-2.

Fig. 1 (Phase I):  file -> flatMap -> map -> reduceByKey  (one shuffle)
Fig. 2 (Phase II): cached Transactions -> flatMap(subset) -> map ->
                   reduceByKey  (one shuffle per pass)

So under ``paper_dataflow=True`` every pass — Phase I's counting job and
each Phase II iteration — must execute exactly one shuffle boundary: one
shuffle-map stage plus one result stage over the reduced pairs.  The
default dataflow keeps the same passes but merges the per-partition
counts on the driver: every pass is exactly one result stage.
"""

import pytest

from repro.core import Yafim, load_transactions_rdd
from repro.engine import Context, ShuffledRDD, stage_count
from repro.hdfs import MiniDfs

TXNS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c"],
    ["a", "c"],
] * 10


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


#: The seed's exact paper dataflow (fast path off).
PAPER_SHAPE = dict(paper_dataflow=True)


class TestPhaseStructure:
    def test_each_pass_is_one_shuffle(self, ctx):
        miner = Yafim(ctx, num_partitions=4, **PAPER_SHAPE)
        result = miner.run(TXNS, 0.3)
        # Every iteration recorded exactly 2 stages: shuffle-map + result
        for it in result.iterations:
            # pass 1 includes the count() job (1 extra result stage)
            labels = [r.label for r in it.stage_records]
            assert 2 <= len(labels) <= 3, labels

    def test_fastpath_phase1_is_shuffle_free(self, ctx):
        """The fast path merges every pass on the driver: no shuffle at all."""
        result = Yafim(ctx, num_partitions=4).run(TXNS, 0.3)
        assert len(result.iterations) >= 2
        for it in result.iterations:
            assert len(it.stage_records) == 1  # one run_job result stage
            assert it.shuffle_bytes == 0
            assert it.shuffle_records == 0
        assert not [t for t in ctx.event_log.tasks if t.kind == "shuffle_map"]
        # the paper dataflow keeps one shuffle per level: map stage + result stage
        with Context(backend="serial") as c2:
            paper = Yafim(c2, num_partitions=4, **PAPER_SHAPE).run(TXNS, 0.3)
        assert paper.itemsets == result.itemsets
        for it in paper.iterations[1:]:
            labels = [r.label for r in it.stage_records]
            assert len(labels) == 2, labels
            assert it.shuffle_records > 0

    def test_phase1_lineage_shape(self, ctx, tmp_path):
        """The Fig. 1 chain compiles to exactly 2 stages."""
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2) as dfs:
            dfs.write_lines("/t.txt", (" ".join(t) for t in TXNS))
            transactions = load_transactions_rdd(ctx, dfs, "/t.txt")
            level1 = (
                transactions.flat_map(lambda t: t)
                .map(lambda i: (i, 1))
                .reduce_by_key(lambda a, b: a + b, 4)
            )
            assert stage_count(level1) == 2
            assert isinstance(level1, ShuffledRDD)

    def test_transactions_cached_before_phase2(self, ctx):
        miner = Yafim(ctx, num_partitions=4)
        miner.run(TXNS, 0.3)
        # transaction partitions live in the block manager across passes
        assert ctx.block_manager.cached_block_count == 4

    def test_map_side_combine_active(self, ctx):
        """reduceByKey must pre-aggregate map-side: shuffled records per
        map task are bounded by distinct keys, not raw item occurrences."""
        miner = Yafim(ctx, num_partitions=2, **PAPER_SHAPE)
        miner.run(TXNS, 0.3)
        map_tasks = [t for t in ctx.event_log.tasks if t.kind == "shuffle_map"]
        assert map_tasks
        distinct_items = 3  # a, b, c
        # phase-I map tasks emit at most one pair per distinct item each
        phase1 = map_tasks[0]
        assert phase1.records_out <= distinct_items * 2  # x partitioner spread

    def test_broadcast_once_per_phase2_pass(self, ctx):
        miner = Yafim(ctx, num_partitions=4)
        result = miner.run(TXNS, 0.3)
        n_phase2 = sum(1 for it in result.iterations if it.k >= 2)
        # one broadcast per phase-II iteration, resolved by every map task
        assert ctx.broadcast_manager.transfers >= n_phase2
