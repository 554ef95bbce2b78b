"""MiningRunResult / IterationStats unit tests."""

import pytest

from repro.core.results import IterationStats, MiningRunResult


@pytest.fixture()
def result():
    r = MiningRunResult(algorithm="test", min_support=0.5, n_transactions=10)
    r.itemsets = {("a",): 8, ("b",): 6, ("a", "b"): 5}
    r.iterations = [
        IterationStats(k=1, seconds=0.5, n_candidates=-1, n_frequent=2),
        IterationStats(k=2, seconds=0.25, n_candidates=1, n_frequent=1),
    ]
    return r


class TestMiningRunResult:
    def test_num_itemsets(self, result):
        assert result.num_itemsets == 3

    def test_total_seconds(self, result):
        assert result.total_seconds == pytest.approx(0.75)

    def test_max_level(self, result):
        assert result.max_level == 2

    def test_max_level_empty(self):
        assert MiningRunResult("x", 0.5, 0).max_level == 0

    def test_level_selector(self, result):
        assert result.level(1) == {("a",): 8, ("b",): 6}
        assert result.level(2) == {("a", "b"): 5}
        assert result.level(3) == {}

    def test_per_iteration_seconds(self, result):
        assert result.per_iteration_seconds() == [(1, 0.5), (2, 0.25)]

    def test_support_normalizes_order(self, result):
        assert result.support(("b", "a")) == pytest.approx(0.5)

    def test_support_missing_is_zero(self, result):
        assert result.support(("z",)) == 0.0

    def test_support_zero_transactions(self):
        r = MiningRunResult("x", 0.5, 0)
        assert r.support(("a",)) == 0.0

    def test_summary_mentions_all_passes(self, result):
        text = result.summary()
        assert "pass 1" in text and "pass 2" in text
        assert "test" in text


@pytest.mark.parametrize("options", [{}, {"candidate_store": "bitmap"}])
def test_a_real_result_crosses_a_process_boundary(options):
    """What a job worker sends back: every part of the result pickles
    (the trace's lock is dropped and re-created)."""
    import pickle

    from repro.core.api import mine_frequent_itemsets
    from repro.core.registry import MiningConfig
    from repro.datasets import mushroom_like

    txns = mushroom_like(scale=0.02, seed=1).transactions
    config = MiningConfig(min_support=0.5, algorithm="yafim", backend="serial", **options)
    result = mine_frequent_itemsets(txns, config=config)
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is type(result) and clone.itemsets == result.itemsets
    assert len(clone.trace.spans) == len(result.trace.spans) > 0
    assert clone.engine_metrics.summary() == result.engine_metrics.summary()
    assert clone.iterations == result.iterations


class TestIterationStats:
    def test_defaults(self):
        it = IterationStats(k=3, seconds=1.0, n_candidates=10, n_frequent=4)
        assert it.stage_records == []
        assert it.broadcast_bytes == 0
        assert it.closure_bytes == 0
        assert it.hdfs_read_bytes == 0
