"""Hash-tree unit and property tests."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.itemset import contains
from repro.core.hashtree import HashTree


def brute_subset(candidates, txn):
    return sorted(c for c in candidates if contains(tuple(txn), c))


class TestConstruction:
    def test_empty_tree(self):
        tree = HashTree()
        assert len(tree) == 0
        assert tree.subset((1, 2, 3)) == []

    def test_insert_and_len(self):
        tree = HashTree([(1, 2), (3, 4)])
        assert len(tree) == 2
        assert set(tree) == {(1, 2), (3, 4)}

    def test_mixed_length_rejected(self):
        tree = HashTree([(1, 2)])
        with pytest.raises(ValueError):
            tree.insert((1, 2, 3))

    def test_empty_itemset_rejected(self):
        with pytest.raises(ValueError):
            HashTree([()])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashTree(fanout=1)
        with pytest.raises(ValueError):
            HashTree(max_leaf_size=0)

    def test_split_on_overflow(self):
        cands = list(combinations(range(12), 3))
        tree = HashTree(cands, fanout=4, max_leaf_size=4)
        stats = tree.stats()
        assert stats["candidates"] == len(cands)
        assert stats["max_depth"] >= 1
        assert set(tree) == set(cands)

    def test_contains_candidate(self):
        cands = list(combinations(range(10), 2))
        tree = HashTree(cands, fanout=4, max_leaf_size=3)
        for c in cands:
            assert tree.contains_candidate(c)
        assert not tree.contains_candidate((99, 100))


class TestSubset:
    def test_simple_match(self):
        tree = HashTree([(1, 2), (2, 3), (4, 5)])
        assert tree.subset((1, 2, 3)) == brute_subset([(1, 2), (2, 3), (4, 5)], (1, 2, 3))

    def test_short_transaction(self):
        tree = HashTree([(1, 2, 3)])
        assert tree.subset((1, 2)) == []

    def test_no_duplicates_with_colliding_items(self):
        # items 2 and 10 collide mod 8 — the historical duplicate bug
        tree = HashTree([(2, 5)], fanout=8)
        got = tree.subset((2, 5, 10))
        assert got == [(2, 5)]

    def test_string_items(self):
        tree = HashTree([("a", "b"), ("b", "c")])
        assert sorted(tree.subset(("a", "b", "c"))) == [("a", "b"), ("b", "c")]

    @settings(max_examples=60, deadline=None)
    @given(
        cands=st.sets(
            st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
            max_size=40,
        ),
        txn=st.sets(st.integers(0, 20), max_size=12),
        fanout=st.sampled_from([2, 4, 8, 64]),
        leaf=st.sampled_from([1, 2, 8]),
    )
    def test_matches_brute_force_property(self, cands, txn, fanout, leaf):
        cands = {tuple(sorted(set(c))) for c in cands}
        cands = {c for c in cands if len(c) == 3}
        if not cands:
            return
        tree = HashTree(cands, fanout=fanout, max_leaf_size=leaf)
        txn_sorted = tuple(sorted(txn))
        assert sorted(tree.subset(txn_sorted)) == brute_subset(cands, txn_sorted)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_iteration_preserves_all_candidates(self, data):
        k = data.draw(st.integers(1, 4))
        cands = data.draw(
            st.sets(
                st.tuples(*[st.integers(0, 15)] * k).map(
                    lambda t: tuple(sorted(set(t)))
                ),
                max_size=30,
            )
        )
        cands = {c for c in cands if len(c) == k}
        if not cands:
            return
        tree = HashTree(cands, fanout=4, max_leaf_size=2)
        assert set(tree) == cands
        assert len(tree) == len(cands)

    def test_subset_of_full_transaction_returns_everything(self):
        cands = list(combinations(range(8), 3))
        tree = HashTree(cands, fanout=4, max_leaf_size=4)
        assert sorted(tree.subset(tuple(range(8)))) == cands


#: ints, then strs: a row holding both has no canonical (sorted) form, and
#: ``combinations(ITEMS, k)`` is canonical wherever its items compare
INTS, STRS = tuple(range(5)), ("a", "b", "c")
ITEMS = INTS + STRS


class TestCountPartition:
    """``count_partition`` counts short rows by their own k-subsets and
    the rest by the walk; either way it must equal ``count_into`` summed
    over the same rows."""

    @staticmethod
    def _walked(tree, rows, weighted) -> dict:
        counts: dict = {}
        for txn, weight in rows if weighted else ((txn, 1) for txn in rows):
            tree.count_into(counts, txn, weight)
        return {cand: n for cand, n in counts.items() if n}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_count_into_summed_over_the_rows(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        every = list(combinations(ITEMS, k))
        kept = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
        cands = [cand for cand, keep in zip(every, kept) if keep] or every[:1]
        tree = HashTree(
            cands,
            fanout=data.draw(st.sampled_from([2, 4, 64]), label="fanout"),
            max_leaf_size=data.draw(st.sampled_from([1, 3, 16]), label="leaf"),
        )
        # rows repeat and shuffle items, and run from below k to far past
        # the rule's C(|t|, k) <= len(tree), so both ways get rows
        pools = st.sampled_from([INTS, STRS, ITEMS])
        txns = pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=9))
        txns = txns.map(tuple)
        weighted = data.draw(st.booleans(), label="weighted")
        if weighted:
            weights = st.integers(-3, 4).filter(bool)
            rows = data.draw(st.lists(st.tuples(txns, weights), max_size=12))
        else:
            rows = data.draw(st.lists(txns, max_size=12))
        got = {c: n for c, n in tree.count_partition(rows, weighted).items() if n}
        assert got == self._walked(tree, rows, weighted)

    def test_a_row_with_repeated_unsorted_items_counts_once(self):
        tree = HashTree(combinations(range(5), 3))  # 10 < C(6, 3): 6 items walk
        rows = [((3, 2, 1, 3), 2), ((4, 2, 3), -1), ((1, 2, 3, 4, 5, 6), 5)]
        assert tree.count_partition(rows, weighted=True) == {
            (1, 2, 3): 7, (1, 2, 4): 5, (1, 3, 4): 5, (2, 3, 4): 4,
        }

    def test_a_row_whose_items_do_not_compare_is_walked(self):
        tree = HashTree([(1, "a")])
        assert tree.count_partition([("a", 1), (1, "a")]) == {(1, "a"): 2}


class TestStats:
    def test_stats_keys(self):
        tree = HashTree(list(combinations(range(10), 2)), fanout=4, max_leaf_size=3)
        stats = tree.stats()
        assert stats["candidates"] == 45
        assert stats["leaves"] >= 1
        assert stats["largest_leaf"] >= 1
        assert 0 <= stats["mean_leaf_depth"] <= stats["max_depth"]
