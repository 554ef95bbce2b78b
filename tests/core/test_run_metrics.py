"""Per-iteration engine counters reported uniformly by the parallel miners."""

import pytest

from repro.core.dist_eclat import DistEclat
from repro.core.mrapriori import MRApriori
from repro.core.yafim import Yafim
from repro.engine.context import Context
from repro.hdfs.filesystem import MiniDfs
from repro.mapreduce.runner import JobRunner

TXNS = [
    [1, 2],
    [1, 3, 4, 5],
    [2, 3, 4, 6],
    [1, 2, 3, 4],
    [1, 2, 3, 6],
] * 6


def _run_engine_miner(cls, **kwargs):
    with Context(backend="serial") as ctx:
        return cls(ctx, num_partitions=2, **kwargs).run(TXNS, 0.4)


def _run_mrapriori():
    with MiniDfs(n_datanodes=2, replication=1) as dfs:
        dfs.write_lines(
            "/t.txt", (" ".join(str(i) for i in sorted(set(t))) for t in TXNS)
        )
        return MRApriori(JobRunner(dfs)).run("/t.txt", 0.4)


@pytest.fixture(scope="module")
def results():
    return {
        "yafim": _run_engine_miner(Yafim),
        "dist_eclat": _run_engine_miner(DistEclat),
        "mrapriori": _run_mrapriori(),
    }


class TestUniformCounters:
    @pytest.mark.parametrize("name", ["yafim", "dist_eclat", "mrapriori"])
    def test_every_iteration_carries_engine_counters(self, results, name):
        result = results[name]
        assert result.iterations
        for it in result.iterations:
            assert it.shuffle_bytes >= 0
            assert it.broadcast_bytes >= 0
            assert 0.0 <= it.cache_hit_rate <= 1.0
            assert it.straggler_ratio >= 0.0

    @pytest.mark.parametrize("name", ["yafim", "dist_eclat", "mrapriori"])
    def test_trace_rides_on_result(self, results, name):
        result = results[name]
        assert result.trace is not None
        assert len(result.trace) > 0

    @pytest.mark.parametrize("name", ["yafim", "dist_eclat"])
    def test_engine_metrics_ride_on_result(self, results, name):
        m = results[name].engine_metrics
        assert m is not None
        assert m.n_jobs >= 1
        assert m.n_tasks >= 1

    def test_straggler_ratio_sane_where_tasks_ran(self, results):
        # max/mean over task durations: >= 1 whenever the pass ran tasks
        for it in results["yafim"].iterations:
            if it.stage_records:
                assert it.straggler_ratio >= 1.0

    def test_yafim_broadcast_bytes_on_candidate_passes(self, results):
        # pass 2 builds no candidate set (pairs off the rows); every later
        # pass broadcasts its store
        iterations = results["yafim"].iterations
        later = [it for it in iterations if it.k >= 3]
        assert later
        assert all(it.broadcast_bytes > 0 for it in later)
        assert next(it for it in iterations if it.k == 2).broadcast_bytes == 0


class TestCacheHitRate:
    def test_cached_run_hits_on_every_rescan(self):
        result = _run_engine_miner(Yafim, cache_transactions=True)
        later = [it for it in result.iterations if it.k >= 2]
        assert later
        # every k >= 2 pass re-reads the cached transaction partitions
        for it in later:
            assert it.cache_hit_rate == pytest.approx(1.0)

    def test_uncached_run_never_hits(self):
        result = _run_engine_miner(Yafim, cache_transactions=False)
        for it in result.iterations:
            assert it.cache_hit_rate == pytest.approx(0.0)

    def test_mrapriori_reports_zero_hit_rate(self):
        # MapReduce re-reads the DFS every pass; no block cache exists
        result = _run_mrapriori()
        assert all(it.cache_hit_rate == 0.0 for it in result.iterations)
