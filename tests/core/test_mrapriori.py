"""MRApriori + SPC/FPC/DPC tests."""

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core import DPC, FPC, SPC, MRApriori
from repro.core.mrapriori import dpc_strategy, fpc_strategy, spc_strategy
from repro.hdfs import MiniDfs
from repro.mapreduce import JobRunner

TXNS = [
    ["bread", "milk"],
    ["bread", "diaper", "beer", "eggs"],
    ["milk", "diaper", "beer", "cola"],
    ["bread", "milk", "diaper", "beer"],
    ["bread", "milk", "diaper", "cola"],
] * 8


@pytest.fixture()
def dfs(tmp_path):
    with MiniDfs(root_dir=str(tmp_path), n_datanodes=3, block_size=512, replication=1) as d:
        d.write_lines("/t.txt", (" ".join(sorted(set(t))) for t in TXNS))
        yield d


@pytest.fixture()
def runner(dfs):
    return JobRunner(dfs)


ORACLE = apriori(TXNS, 0.4)


class TestMRApriori:
    def test_matches_oracle(self, runner):
        got = MRApriori(runner).run("/t.txt", 0.4)
        assert got.itemsets == ORACLE
        assert got.n_transactions == len(TXNS)

    def test_one_job_per_level(self, runner):
        got = MRApriori(runner).run("/t.txt", 0.4)
        # SPC behaviour: a real job (with stage records) for every level
        assert all(it.stage_records for it in got.iterations)
        assert runner.jobs_run == len(got.iterations)

    def test_per_level_hdfs_io(self, runner):
        got = MRApriori(runner).run("/t.txt", 0.4)
        for it in got.iterations:
            assert it.hdfs_read_bytes > 0, f"pass {it.k} read nothing from DFS"
            assert it.hdfs_write_bytes > 0, f"pass {it.k} wrote nothing to DFS"

    def test_flat_matcher_agrees(self, runner):
        got = MRApriori(runner, candidate_store="linear").run("/t.txt", 0.4)
        assert got.itemsets == ORACLE

    def test_max_length(self, runner):
        got = MRApriori(runner).run("/t.txt", 0.4, max_length=2)
        assert got.max_level == 2
        assert got.itemsets == {k: v for k, v in ORACLE.items() if len(k) <= 2}

    def test_invalid_support(self, runner):
        with pytest.raises(MiningError):
            MRApriori(runner).run("/t.txt", 0.0)

    def test_reruns_use_fresh_output_dirs(self, runner):
        mr = MRApriori(runner)
        first = mr.run("/t.txt", 0.4)
        second = mr.run("/t.txt", 0.4)
        assert first.itemsets == second.itemsets

    def test_custom_reducer_count(self, runner):
        got = MRApriori(runner, num_reducers=5).run("/t.txt", 0.4)
        assert got.itemsets == ORACLE

    def test_a_row_longer_than_the_split_overread_is_mined_whole(self, tmp_path):
        # 108 889 bytes in one row, 8 KiB blocks: the row's last items lie
        # beyond the 64 KiB a split first reads past its end
        long_row = [str(i) for i in range(20000)]
        txns = [long_row] + [["19997", "19998", "19999"]] * 3
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=3, block_size=8 * 1024,
                     replication=1) as dfs:
            dfs.write_lines("/t.txt", (" ".join(t) for t in txns))
            got = MRApriori(JobRunner(dfs)).run("/t.txt", 0.8)
        assert got.itemsets == apriori(txns, 0.8)
        assert got.itemsets[("19997", "19998", "19999")] == 4


class TestVariants:
    def test_spc_equals_mrapriori_jobs(self, runner):
        got = SPC(runner).run("/t.txt", 0.4)
        assert got.itemsets == ORACLE
        assert got.algorithm == "spc"

    @pytest.mark.parametrize("passes", [2, 3, 5])
    def test_fpc_agrees_with_fewer_jobs(self, dfs, passes):
        runner = JobRunner(dfs)
        spc_jobs_baseline = JobRunner(dfs)
        spc = SPC(spc_jobs_baseline).run("/t.txt", 0.4)
        fpc = FPC(runner, passes=passes).run("/t.txt", 0.4)
        assert fpc.itemsets == ORACLE
        assert runner.jobs_run < spc_jobs_baseline.jobs_run

    def test_fpc_counts_speculative_candidates(self, runner):
        fpc = FPC(runner, passes=3).run("/t.txt", 0.4)
        spc = SPC(JobRunner(runner.dfs)).run("/t.txt", 0.4)
        fpc_cands = sum(it.n_candidates for it in fpc.iterations if it.n_candidates > 0)
        spc_cands = sum(it.n_candidates for it in spc.iterations if it.n_candidates > 0)
        assert fpc_cands >= spc_cands  # speculation is never cheaper in candidates

    def test_dpc_agrees(self, runner):
        got = DPC(runner, candidate_budget=10).run("/t.txt", 0.4)
        assert got.itemsets == ORACLE

    def test_dpc_large_budget_combines(self, dfs):
        small = JobRunner(dfs)
        DPC(small, candidate_budget=1).run("/t.txt", 0.4)
        big = JobRunner(dfs)
        DPC(big, candidate_budget=10_000_000).run("/t.txt", 0.4)
        assert big.jobs_run <= small.jobs_run

    def test_invalid_params(self, runner):
        with pytest.raises(ValueError):
            FPC(runner, passes=0)
        with pytest.raises(ValueError):
            DPC(runner, candidate_budget=0)

    def test_strategies(self):
        assert spc_strategy(3, {("a",): 1}) == 1
        assert fpc_strategy(4)(3, {}) == 4
        assert dpc_strategy(10)(3, {("a", "b"): 5}) >= 1


class TestAgainstYafim:
    def test_identical_results(self, dfs):
        """The paper: 'all the experimental results of YAFIM are exactly
        same as MRApriori'."""
        from repro.core import Yafim
        from repro.engine import Context

        mr = MRApriori(JobRunner(dfs)).run("/t.txt", 0.4)
        with Context(backend="serial") as ctx:
            ya = Yafim(ctx).run_text_file(dfs, "/t.txt", 0.4)
        assert ya.itemsets == mr.itemsets
