"""Property-based cross-checks of the parallel miners against the oracles."""

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import fpgrowth
from repro.core import DistEclat, Yafim
from repro.core.hashtree import HashTree
from repro.engine import Context

_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

transactions_strategy = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=20,
)
support_strategy = st.floats(0.1, 1.0)


class TestParallelMinersMatchOracle:
    @_settings
    @given(transactions_strategy, support_strategy, st.integers(1, 4))
    def test_yafim_matches_fpgrowth(self, txns, sup, partitions):
        want = fpgrowth(txns, sup)
        with Context(backend="serial") as ctx:
            got = Yafim(ctx, num_partitions=partitions).run(txns, sup).itemsets
        assert got == want

    @_settings
    @given(transactions_strategy, support_strategy, st.integers(1, 4))
    def test_dist_eclat_matches_fpgrowth(self, txns, sup, partitions):
        want = fpgrowth(txns, sup)
        with Context(backend="serial") as ctx:
            got = DistEclat(ctx, num_partitions=partitions).run(txns, sup).itemsets
        assert got == want

    @_settings
    @given(transactions_strategy, support_strategy)
    def test_yafim_output_downward_closed(self, txns, sup):
        with Context(backend="serial") as ctx:
            got = Yafim(ctx).run(txns, sup).itemsets
        for itemset, count in got.items():
            for r in range(1, len(itemset)):
                for sub in combinations(itemset, r):
                    assert sub in got
                    assert got[sub] >= count

    @_settings
    @given(transactions_strategy, support_strategy, st.integers(1, 3))
    def test_yafim_max_length_is_prefix_of_full(self, txns, sup, cap):
        with Context(backend="serial") as ctx:
            capped = Yafim(ctx).run(txns, sup, max_length=cap).itemsets
        with Context(backend="serial") as ctx:
            full = Yafim(ctx).run(txns, sup).itemsets
        assert capped == {k: v for k, v in full.items() if len(k) <= cap}

    @_settings
    @given(
        transactions_strategy,
        support_strategy,
        st.sampled_from([2, 8, 64]),
        st.sampled_from([1, 4, 32]),
    )
    def test_yafim_hash_tree_shape_irrelevant(self, txns, sup, fanout, leaf):
        want = fpgrowth(txns, sup)
        with Context(backend="serial") as ctx:
            got = Yafim(
                ctx, store_options={"fanout": fanout, "max_leaf_size": leaf}
            ).run(txns, sup).itemsets
        assert got == want


class TestHashTreeVsOracleCounting:
    @_settings
    @given(
        st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=8), min_size=1, max_size=15),
        st.integers(2, 4),
    )
    def test_tree_counting_equals_direct_counting(self, raw_txns, k):
        """Counting candidate occurrences through the tree must equal the
        brute-force definition of support for every candidate."""
        txns = [tuple(sorted(set(t))) for t in raw_txns]
        items = sorted({i for t in txns for i in t})
        if len(items) < k:
            return
        candidates = list(combinations(items, k))[:80]
        tree = HashTree(candidates, fanout=8, max_leaf_size=2)
        counts: dict = {}
        for t in txns:
            for cand in tree.subset(t):
                counts[cand] = counts.get(cand, 0) + 1
        for cand in candidates:
            want = sum(1 for t in txns if set(cand) <= set(t))
            assert counts.get(cand, 0) == want
