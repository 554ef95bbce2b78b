"""R-Apriori (candidate-free pass 2) tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import apriori, fpgrowth
from repro.common.errors import MiningError
from repro.core.rapriori import RApriori
from repro.core.yafim import Yafim
from repro.datasets import quest_generator
from repro.engine import Context

TXNS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c", "d"],
    ["a", "c", "d"],
    ["a", "b", "c", "d"],
] * 6


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


class TestCorrectness:
    def test_matches_oracle(self, ctx):
        assert RApriori(ctx).run(TXNS, 0.3).itemsets == apriori(TXNS, 0.3)

    def test_matches_yafim(self, ctx):
        ya = Yafim(ctx).run(TXNS, 0.3).itemsets
        ra = RApriori(ctx).run(TXNS, 0.3).itemsets
        assert ra == ya

    def test_algorithm_name(self, ctx):
        assert RApriori(ctx).run(TXNS, 0.3).algorithm == "rapriori"

    def test_max_length_one(self, ctx):
        got = RApriori(ctx).run(TXNS, 0.3, max_length=1).itemsets
        assert got and all(len(k) == 1 for k in got)

    def test_max_length_two(self, ctx):
        got = RApriori(ctx).run(TXNS, 0.3, max_length=2).itemsets
        want = {k: v for k, v in apriori(TXNS, 0.3).items() if len(k) <= 2}
        assert got == want

    def test_no_broadcast_config(self, ctx):
        got = RApriori(ctx, use_broadcast=False).run(TXNS, 0.3).itemsets
        assert got == apriori(TXNS, 0.3)

    def test_empty_and_invalid(self, ctx):
        with pytest.raises(MiningError):
            RApriori(ctx).run([], 0.5)
        with pytest.raises(MiningError):
            RApriori(ctx).run(TXNS, 0.0)

    def test_sparse_dataset(self, ctx):
        ds = quest_generator(n_transactions=400, n_items=80, seed=3)
        assert RApriori(ctx).run(ds.transactions, 0.02).itemsets == fpgrowth(
            ds.transactions, 0.02
        )

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=20),
        st.floats(0.1, 1.0),
    )
    def test_property_matches_oracle(self, txns, sup):
        with Context(backend="serial") as ctx:
            got = RApriori(ctx).run(txns, sup).itemsets
        assert got == fpgrowth(txns, sup)


class TestPassTwoBehaviour:
    def test_no_pass2_broadcast_of_hash_tree(self, ctx):
        """Under the paper dataflow pass 2 ships only the frequent-item
        set — far smaller than the pair hash tree YAFIM broadcasts there;
        on the fast path it ships nothing at all."""
        ds = quest_generator(n_transactions=300, n_items=100, seed=3)
        ra = RApriori(ctx, paper_dataflow=True).run(ds.transactions, 0.02)
        with Context(backend="serial") as ctx2:
            ya = Yafim(ctx2, paper_dataflow=True).run(ds.transactions, 0.02)
        ra_pass2 = next(it for it in ra.iterations if it.k == 2)
        ya_pass2 = next(it for it in ya.iterations if it.k == 2)
        assert 0 < ra_pass2.broadcast_bytes < ya_pass2.broadcast_bytes / 5
        assert ra.itemsets == ya.itemsets
        with Context(backend="serial") as ctx3:
            fast = RApriori(ctx3).run(ds.transactions, 0.02)
        assert next(it for it in fast.iterations if it.k == 2).broadcast_bytes == 0
        assert fast.itemsets == ya.itemsets

    def test_pass2_records_equivalent_candidate_count(self, ctx):
        res = RApriori(ctx).run(TXNS, 0.3)
        pass2 = next(it for it in res.iterations if it.k == 2)
        m = sum(1 for k in res.itemsets if len(k) == 1)
        assert pass2.n_candidates == m * (m - 1) // 2
