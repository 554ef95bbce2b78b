"""YAFIM behaviour tests: correctness, configuration, instrumentation."""

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core import Yafim, load_transactions_rdd
from repro.engine import Context
from repro.hdfs import MiniDfs

TXNS = [
    ["bread", "milk"],
    ["bread", "diaper", "beer", "eggs"],
    ["milk", "diaper", "beer", "cola"],
    ["bread", "milk", "diaper", "beer"],
    ["bread", "milk", "diaper", "cola"],
] * 10


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


class TestCorrectness:
    def test_matches_oracle(self, ctx):
        want = apriori(TXNS, 0.4)
        got = Yafim(ctx).run(TXNS, 0.4)
        assert got.itemsets == want

    def test_support_one(self, ctx):
        got = Yafim(ctx).run([["a", "b"]] * 4, 1.0)
        assert got.itemsets == {("a",): 4, ("b",): 4, ("a", "b"): 4}

    def test_max_length(self, ctx):
        got = Yafim(ctx).run(TXNS, 0.4, max_length=2)
        assert got.max_level == 2
        want = {k: v for k, v in apriori(TXNS, 0.4).items() if len(k) <= 2}
        assert got.itemsets == want

    def test_empty_database_raises(self, ctx):
        with pytest.raises(MiningError):
            Yafim(ctx).run([], 0.5)

    def test_invalid_support_raises(self, ctx):
        with pytest.raises(MiningError):
            Yafim(ctx).run(TXNS, 0.0)
        with pytest.raises(MiningError):
            Yafim(ctx).run(TXNS, 1.1)

    def test_nothing_frequent(self, ctx):
        got = Yafim(ctx).run([["a"], ["b"], ["c"], ["d"]], 0.9)
        assert got.itemsets == {}
        assert len(got.iterations) == 1  # only phase I ran

    def test_text_file_input(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=128) as dfs:
            dfs.write_lines("/t.txt", (" ".join(sorted(set(t))) for t in TXNS))
            got = Yafim(ctx).run_text_file(dfs, "/t.txt", 0.4)
        want = apriori([[str(i) for i in t] for t in TXNS], 0.4)
        assert got.itemsets == want

    def test_blank_lines_ignored(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=1) as dfs:
            dfs.write_lines("/t.txt", ["a b", "", "a b", ""])
            got = Yafim(ctx).run_text_file(dfs, "/t.txt", 0.5)
        assert got.n_transactions == 2
        assert got.itemsets[("a", "b")] == 2


class TestConfigurations:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidate_store": "linear"},
            {"use_broadcast": False},
            {"cache_transactions": False},
            {"candidate_store": "linear", "use_broadcast": False, "cache_transactions": False},
            {"store_options": {"fanout": 4, "max_leaf_size": 2}},
            {"num_partitions": 1},
            {"num_partitions": 7},
            {"paper_dataflow": True},  # the one dataflow with shuffle output to clear
        ],
    )
    def test_all_configs_agree(self, ctx, kwargs):
        want = apriori(TXNS, 0.4)
        got = Yafim(ctx, **kwargs).run(TXNS, 0.4)
        assert got.itemsets == want

    @pytest.mark.parametrize("backend,par", [("processes", 2)])
    def test_parallel_backends_agree(self, backend, par):
        want = apriori(TXNS, 0.4)
        with Context(backend=backend, parallelism=par) as ctx:
            got = Yafim(ctx).run(TXNS, 0.4)
        assert got.itemsets == want

    def test_cache_used_across_iterations(self, ctx):
        Yafim(ctx).run(TXNS, 0.4)
        # transactions cached once, hit on every later pass
        assert ctx.block_manager.metrics.memory_hits > 0

    def test_no_cache_config_never_caches(self, ctx):
        Yafim(ctx, cache_transactions=False).run(TXNS, 0.4)
        assert ctx.block_manager.cached_block_count == 0

    def test_broadcast_accounting(self, ctx):
        Yafim(ctx).run(TXNS, 0.4)
        assert ctx.broadcast_manager.transfers > 0


class TestInstrumentation:
    def test_iteration_stats_shape(self, ctx):
        res = Yafim(ctx).run(TXNS, 0.4)
        assert res.iterations[0].k == 1
        ks = [it.k for it in res.iterations]
        assert ks == list(range(1, len(ks) + 1))
        for it in res.iterations:
            assert it.seconds > 0
            assert it.n_frequent == len(res.level(it.k))
        for it in res.iterations[1:]:
            assert it.n_candidates >= it.n_frequent

    def test_stage_records_present(self, ctx):
        res = Yafim(ctx).run(TXNS, 0.4)
        for it in res.iterations:
            assert it.stage_records, f"pass {it.k} has no stage records"
            assert all(r.task_durations for r in it.stage_records)

    def test_broadcast_bytes_recorded(self, ctx):
        res = Yafim(ctx).run(TXNS, 0.4)
        assert res.iterations[0].broadcast_bytes == 0
        # pass 2 counts pairs off the rows: no candidate structure ships
        assert res.iterations[1].broadcast_bytes == 0
        assert res.iterations[2:]
        assert all(it.broadcast_bytes > 0 for it in res.iterations[2:])

    def test_phase2_reads_no_input_bytes_when_cached(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=256) as dfs:
            dfs.write_lines("/t.txt", (" ".join(sorted(set(t))) for t in TXNS))
            res = Yafim(ctx).run_text_file(dfs, "/t.txt", 0.4)
        assert res.iterations[0].hdfs_read_bytes > 0  # phase I reads the file
        for it in res.iterations[1:]:
            assert it.hdfs_read_bytes == 0  # later passes served from cache

    def test_uncached_rereads_every_pass(self, ctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=256) as dfs:
            dfs.write_lines("/t.txt", (" ".join(sorted(set(t))) for t in TXNS))
            rdd = load_transactions_rdd(ctx, dfs, "/t.txt")
            res = Yafim(ctx, cache_transactions=False).run_rdd(rdd, 0.4)
        for it in res.iterations:
            assert it.hdfs_read_bytes > 0

    def test_result_helpers(self, ctx):
        res = Yafim(ctx).run(TXNS, 0.4)
        assert res.support(("beer", "diaper")) == pytest.approx(30 / 50)
        assert res.support(("no", "such")) == 0.0
        assert "yafim" in res.summary()
        assert res.total_seconds == pytest.approx(
            sum(s for _k, s in res.per_iteration_seconds())
        )
