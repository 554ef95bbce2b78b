"""Bench harness tests: paired runs, replays, reporting."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    replay_mr,
    replay_mr_per_pass,
    replay_yafim,
    replay_yafim_per_pass,
    run_comparison,
    sizeup_series,
    speedup_series,
)
from repro.bench.reporting import format_table, sparkline
from repro.cluster import ClusterSpec
from repro.datasets import medical_cases


@pytest.fixture(scope="module")
def comparison():
    ds = medical_cases(n_cases=250, seed=5)
    return run_comparison(ds, 0.08, num_partitions=2, max_length=4)


class TestRunComparison:
    def test_outputs_match(self, comparison):
        assert comparison.outputs_match
        assert comparison.yafim.itemsets  # non-trivial run

    def test_both_have_iterations(self, comparison):
        assert len(comparison.yafim.iterations) >= 3
        assert len(comparison.mrapriori.iterations) >= 3

    def test_per_pass_rows(self, comparison):
        rows = comparison.per_pass()
        assert rows[0][0] == 1
        for _k, mr_s, ya_s, speedup in rows:
            assert mr_s > 0 and ya_s > 0
            assert speedup == pytest.approx(mr_s / ya_s)

    def test_total_speedup_consistent(self, comparison):
        assert comparison.total_speedup == pytest.approx(
            comparison.mrapriori.total_seconds / comparison.yafim.total_seconds
        )

    def test_mismatch_raises(self):
        ds = medical_cases(n_cases=100, seed=5)
        run = run_comparison(ds, 0.2, num_partitions=2, max_length=2, check_equal=True)
        # sanity: equality check passed; now corrupt and verify detection
        run.yafim.itemsets[("bogus",)] = 1
        assert not run.outputs_match


class TestReplays:
    def test_yafim_replay_positive(self, comparison):
        spec = ClusterSpec(nodes=6)
        assert replay_yafim(comparison.yafim, spec) > 0

    def test_mr_replay_includes_job_startup(self, comparison):
        spec = ClusterSpec(nodes=6)
        total = replay_mr(comparison.mrapriori, spec)
        n_jobs = sum(1 for it in comparison.mrapriori.iterations if it.stage_records)
        assert total >= n_jobs * spec.mr_job_startup_s

    def test_mr_beats_yafim_in_replay(self, comparison):
        """The paper's headline: replayed on the same cluster, MRApriori
        takes far longer than YAFIM."""
        spec = ClusterSpec()
        assert replay_mr(comparison.mrapriori, spec) > 2 * replay_yafim(
            comparison.yafim, spec
        )

    def test_per_pass_replays_sum_to_total(self, comparison):
        spec = ClusterSpec(nodes=4)
        ya = replay_yafim_per_pass(comparison.yafim, spec)
        assert sum(t for _k, t in ya) == pytest.approx(replay_yafim(comparison.yafim, spec))
        mr = replay_mr_per_pass(comparison.mrapriori, spec)
        assert sum(t for _k, t in mr) == pytest.approx(replay_mr(comparison.mrapriori, spec))

    def test_yafim_speedup_with_more_nodes(self, comparison):
        t4 = replay_yafim(comparison.yafim, ClusterSpec(nodes=4))
        t12 = replay_yafim(comparison.yafim, ClusterSpec(nodes=12))
        assert t12 <= t4

    def test_speedup_series_shape(self, comparison):
        series = speedup_series(comparison, ClusterSpec(), [4, 8, 12])
        assert [c for c, _m, _y in series] == [32, 64, 96]
        ya_times = [y for _c, _m, y in series]
        assert ya_times[0] >= ya_times[-1]

    def test_sizeup_series(self, monkeypatch):
        spec = ClusterSpec(nodes=6)
        runs = []

        def recording_comparison(*args, **kwargs):
            runs.append(run_comparison(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "run_comparison", recording_comparison)
        # Block size chosen so the factor-4 run crosses the 48-core wave
        # boundary (96 512 bytes at factor 1 make 14 splits, at factor 4
        # 54): that is where MapReduce's per-task overhead starts growing
        # the makespan while YAFIM's stays flat.
        series = sizeup_series(
            lambda: medical_cases(n_cases=1500, seed=5),
            0.08,
            [1, 4],
            spec,
            num_partitions=4,
            max_length=3,
            dfs_block_size=7 * 1024,
        )
        assert [f for f, _m, _y in series] == [1, 4]
        # one map task per split in every MapReduce job: one wave at
        # factor 1, more than one at factor 4
        map_tasks = [
            {len(rec.task_durations) for it in run.mrapriori.iterations
             for rec in it.stage_records if rec.label.endswith("/map")}
            for run in runs
        ]
        assert map_tasks == [{14}, {54}]
        assert 14 <= spec.total_cores < 54
        # MR cost grows with data size; YAFIM grows far slower
        (_, mr1, ya1), (_, mr2, ya2) = series
        assert mr2 > mr1
        assert (ya2 - ya1) < (mr2 - mr1)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "n"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len({len(ln) for ln in lines[2:]}) >= 1

    def test_sparkline_monotone(self):
        line = sparkline([0, 1, 2, 4, 8])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "█"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
