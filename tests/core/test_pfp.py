"""PFP (Parallel FP-Growth) tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import apriori, fpgrowth
from repro.common.errors import MiningError
from repro.core.pfp import PFP
from repro.datasets import medical_cases, mushroom_like, retail_like
from repro.engine import Context

TXNS = [
    ["bread", "milk"],
    ["bread", "diaper", "beer", "eggs"],
    ["milk", "diaper", "beer", "cola"],
    ["bread", "milk", "diaper", "beer"],
    ["bread", "milk", "diaper", "cola"],
] * 6


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


class TestCorrectness:
    def test_matches_oracle(self, ctx):
        assert PFP(ctx).run(TXNS, 0.4).itemsets == apriori(TXNS, 0.4)

    @pytest.mark.parametrize("n_groups", [1, 2, 3, 7, 50])
    def test_group_count_irrelevant(self, ctx, n_groups):
        got = PFP(ctx, n_groups=n_groups).run(TXNS, 0.4).itemsets
        assert got == apriori(TXNS, 0.4)

    def test_max_length(self, ctx):
        got = PFP(ctx).run(TXNS, 0.4, max_length=2).itemsets
        assert got == {k: v for k, v in apriori(TXNS, 0.4).items() if len(k) <= 2}

    def test_max_length_one(self, ctx):
        got = PFP(ctx).run(TXNS, 0.4, max_length=1).itemsets
        assert got and all(len(k) == 1 for k in got)

    def test_empty_raises(self, ctx):
        with pytest.raises(MiningError):
            PFP(ctx).run([], 0.5)

    def test_invalid_support(self, ctx):
        with pytest.raises(MiningError):
            PFP(ctx).run(TXNS, 1.5)

    def test_nothing_frequent(self, ctx):
        got = PFP(ctx).run([["a"], ["b"], ["c"]], 0.9)
        assert got.itemsets == {}

    def test_dense_dataset(self, ctx):
        ds = mushroom_like(scale=0.03, seed=5)
        assert PFP(ctx, n_groups=6).run(ds.transactions, 0.4).itemsets == fpgrowth(
            ds.transactions, 0.4
        )

    def test_skewed_dataset(self, ctx):
        ds = retail_like(n_transactions=400, n_items=120, seed=5)
        assert PFP(ctx).run(ds.transactions, 0.05).itemsets == fpgrowth(
            ds.transactions, 0.05
        )

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=20),
        st.floats(0.1, 1.0),
        st.integers(1, 6),
    )
    def test_property_matches_oracle(self, txns, sup, groups):
        want = fpgrowth(txns, sup)
        with Context(backend="serial") as ctx:
            got = PFP(ctx, n_groups=groups).run(txns, sup).itemsets
        assert got == want


class TestParallelStructure:
    def test_two_shuffles_total(self, ctx):
        """PFP's selling point: constant shuffle rounds regardless of
        lattice depth (vs YAFIM's one per level)."""
        PFP(ctx).run(TXNS, 0.4)
        shuffle_stages = {
            t.stage_id for t in ctx.event_log.tasks if t.kind == "shuffle_map"
        }
        assert len(shuffle_stages) == 2  # counting + sharding

    def test_matches_yafim(self, ctx):
        from repro.core import Yafim

        ds = medical_cases(n_cases=250, seed=3)
        ya = Yafim(ctx).run(ds.transactions, 0.08).itemsets
        pfp = PFP(ctx, n_groups=4).run(ds.transactions, 0.08).itemsets
        assert pfp == ya

    def test_processes_backend(self):
        with Context(backend="processes", parallelism=2) as ctx:
            got = PFP(ctx).run(TXNS, 0.4).itemsets
        assert got == apriori(TXNS, 0.4)

    def test_iteration_stats(self, ctx):
        res = PFP(ctx).run(TXNS, 0.4)
        assert [it.k for it in res.iterations] == [1, 2]
        assert res.iterations[1].n_candidates >= 1  # group count recorded
