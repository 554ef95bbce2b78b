"""The pluggable candidate-store API.

Two properties carry the whole redesign:

* the **at-most-once contract** — ``count_into`` adds ``weight`` per
  contained candidate at most once per transaction, for duplicate
  transaction items and duplicate candidate inserts alike — which is
  what makes the stores behaviorally interchangeable;
* **counting parity** — every registered store produces the counts of a
  brute-force containment scan, weighted or not, streamed per
  transaction or batched per partition.
"""

import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidatestore
from repro.core.candidatestore import (
    BitmapStore,
    CandidateStore,
    LinearStore,
    TidBitmaps,
    build_tid_bitmaps,
    count_bitmaps,
    get_store,
    lay_out,
    make_store,
    register_store,
    store_names,
    unregister_store,
)
from repro.core.hashtree import HashTree

BUILTINS = ["bitmap", "hashtree", "linear"]
#: plus the suite's third-party row-wise stores (tests/plugin_stores.py)
ALL_STORES = ["hashtree", "trie", "flatdict", "bitmap", "linear"]

CANDIDATES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 4), (2, 4, 6), (3, 5, 7),
    (4, 5, 6), (5, 6, 7), (1, 4, 7), (2, 5, 7),
]

TXNS = [
    (1, 2, 3, 4), (1, 3, 5, 7), (2, 4, 6), (1, 2, 3, 4, 5, 6, 7),
    (5, 6, 7), (3,), (), (2, 3, 4, 7), (1, 4, 7),
]


def brute_counts(candidates, txns, weights=None):
    counts = {}
    weights = weights or [1] * len(txns)
    for txn, w in zip(txns, weights):
        tset = set(txn)
        for cand in candidates:
            if tset.issuperset(cand):
                counts[cand] = counts.get(cand, 0) + w
    return counts


def random_case(seed, n_txns=60, n_items=12, k=3, n_cands=25):
    rng = random.Random(seed)
    cands = set()
    while len(cands) < n_cands:
        cands.add(tuple(sorted(rng.sample(range(n_items), k))))
    txns = [
        tuple(sorted(rng.sample(range(n_items), rng.randint(1, n_items - 2))))
        for _ in range(n_txns)
    ]
    return sorted(cands), txns


# ---------------------------------------------------------------------------
# Registry + factory
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_STORES) <= set(store_names())
        # the package itself ships three; the rest came through register_store
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from repro.core.candidatestore import store_names; print(store_names())"],
            capture_output=True, text=True, check=True,
        )
        assert fresh.stdout.strip() == repr(BUILTINS)

    def test_store_names_sorted(self):
        assert store_names() == sorted(store_names())

    def test_unknown_store_error_lists_names(self):
        with pytest.raises(ValueError, match="registered stores"):
            get_store("btree")
        with pytest.raises(ValueError, match="bitmap.*hashtree|hashtree"):
            make_store("btree")

    def test_make_store_builds_each(self):
        for name in ALL_STORES:
            store = make_store(name, CANDIDATES)
            assert len(store) == len(CANDIDATES)
            assert sorted(store) == sorted(CANDIDATES)

    def test_register_and_unregister_custom_store(self):
        class MyStore(LinearStore):
            pass

        register_store("mystore", MyStore)
        try:
            assert "mystore" in store_names()
            assert isinstance(make_store("mystore", CANDIDATES), MyStore)
            with pytest.raises(ValueError, match="already registered"):
                register_store("mystore", MyStore)
            register_store("mystore", MyStore, overwrite=True)
        finally:
            unregister_store("mystore")
        assert "mystore" not in store_names()

    def test_hashtree_inherits_the_store_contract(self):
        tree = HashTree(CANDIDATES)
        assert CandidateStore in HashTree.__mro__  # real, not virtual, subclass
        assert isinstance(tree, CandidateStore)
        assert list(tree) == CANDIDATES  # insertion order, not tree order
        assert isinstance(make_store("linear", CANDIDATES), CandidateStore)

    def test_unknown_store_option_is_type_error(self):
        # make_store forwards opts verbatim: no aliased spellings
        with pytest.raises(TypeError):
            make_store("hashtree", CANDIDATES, leaf_size=4)

    def test_no_warning_for_current_keywords(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = make_store("hashtree", CANDIDATES, fanout=16, max_leaf_size=8)
        assert (store.fanout, store.max_leaf_size) == (16, 8)


# ---------------------------------------------------------------------------
# The interface contract, per store
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_STORES)
class TestStoreContract:
    def test_counts_match_brute_force(self, name):
        store = make_store(name, CANDIDATES)
        counts = {}
        for txn in TXNS:
            store.count_into(counts, txn)
        assert counts == brute_counts(CANDIDATES, TXNS)

    def test_randomized_counting_parity(self, name):
        for seed in range(5):
            cands, txns = random_case(seed)
            store = make_store(name, cands)
            counts = {}
            for txn in txns:
                store.count_into(counts, txn)
            assert counts == brute_counts(cands, txns), f"seed {seed}"

    def test_at_most_once_per_transaction_with_duplicate_items(self, name):
        store = make_store(name, [(1, 2, 3)])
        counts = {}
        store.count_into(counts, (1, 1, 2, 2, 3, 3, 3))
        assert counts == {(1, 2, 3): 1}

    def test_duplicate_insert_is_idempotent(self, name):
        store = make_store(name, [(1, 2, 3), (1, 2, 3), (2, 3, 4)])
        store.insert((2, 3, 4))
        assert len(store) == 2
        counts = {}
        store.count_into(counts, (1, 2, 3, 4))
        assert counts == {(1, 2, 3): 1, (2, 3, 4): 1}
        assert sorted(store.candidate_index().values()) == [0, 1]

    def test_weighted_counting(self, name):
        store = make_store(name, CANDIDATES)
        counts = {}
        weights = [(i % 3) + 1 for i in range(len(TXNS))]
        for txn, w in zip(TXNS, weights):
            store.count_into(counts, txn, w)
        assert counts == brute_counts(CANDIDATES, TXNS, weights)

    def test_count_partition_unweighted(self, name):
        store = make_store(name, CANDIDATES)
        assert store.count_partition(iter(TXNS)) == brute_counts(CANDIDATES, TXNS)

    def test_count_partition_weighted(self, name):
        store = make_store(name, CANDIDATES)
        weights = [(i % 4) + 1 for i in range(len(TXNS))]
        got = store.count_partition(iter(zip(TXNS, weights)), weighted=True)
        assert got == brute_counts(CANDIDATES, TXNS, weights)

    def test_signed_multiplicities_give_net_counts(self, name):
        # a retired row carries a negative multiplicity: the pass returns
        # what the plus rows support minus what the minus rows support,
        # a row on both sides counting on both
        def nonzero(counts):
            return {c: n for c, n in counts.items() if n}

        for seed in range(4):
            cands, txns = random_case(seed)
            rng = random.Random(seed)
            signs = [rng.choice((1, 2, -1, -3)) for _ in txns]
            both = txns[0]  # present with both signs, weights that differ
            signed = list(zip(txns, signs)) + [(both, 2), (both, -5)]
            rng.shuffle(signed)
            plus = [(t, w) for t, w in signed if w > 0]
            minus = [(t, -w) for t, w in signed if w < 0]
            store = make_store(name, cands)
            want = store.count_partition(iter(plus), weighted=True)
            for cand, n in store.count_partition(iter(minus), weighted=True).items():
                want[cand] = want.get(cand, 0) - n
            got = store.count_partition(iter(signed), weighted=True)
            assert nonzero(got) == nonzero(want), f"seed {seed}"
            assert any(n < 0 for n in got.values()) and any(n > 0 for n in got.values())
        # all-negative and exactly-cancelling partitions
        store = make_store(name, [(1, 2)])
        assert store.count_partition([((1, 2, 3), -2)], weighted=True) == {(1, 2): -2}
        got = store.count_partition([((1, 2), 3), ((1, 2, 4), -3)], weighted=True)
        assert nonzero(got) == {}

    def test_subset_matches_count_into(self, name):
        store = make_store(name, CANDIDATES)
        for txn in TXNS:
            counts = {}
            store.count_into(counts, txn)
            assert sorted(store.subset(txn)) == sorted(counts)

    def test_short_transaction_matches_nothing(self, name):
        store = make_store(name, CANDIDATES)
        counts = {}
        store.count_into(counts, (1, 2))
        store.count_into(counts, ())
        assert counts == {}
        assert store.subset((1,)) == []

    def test_candidate_index_is_insertion_order(self, name):
        store = make_store(name, CANDIDATES)
        index = store.candidate_index()
        assert index == {c: i for i, c in enumerate(CANDIDATES)}

    def test_mixed_length_insert_rejected(self, name):
        store = make_store(name, [(1, 2, 3)])
        with pytest.raises(ValueError):
            store.insert((1, 2))
        with pytest.raises(ValueError):
            make_store(name, [()])

    def test_stats_reports_candidates(self, name):
        stats = make_store(name, CANDIDATES).stats()
        assert stats["candidates"] == len(CANDIDATES)

    def test_non_integer_items(self, name):
        cands = [("a", "b"), ("a", "c"), ("b", "d")]
        txns = [("a", "b", "c"), ("b", "d"), ("a",), ("a", "b", "c", "d")]
        store = make_store(name, cands)
        counts = {}
        for txn in txns:
            store.count_into(counts, txn)
        assert counts == brute_counts(cands, txns)


# ---------------------------------------------------------------------------
# Store-specific behaviour
# ---------------------------------------------------------------------------
class TestBitmapStore:
    def test_build_tid_bitmaps_layout(self):
        # one bit per logical transaction, first row in the top bit; a
        # weighted row is a run; a row short of min_items gets no tid
        part = [((1, 2), 3), ((2, 9), 1), ((1,), 2), ((1, 2, 3), 1)]
        got = build_tid_bitmaps(part, weighted=True)
        assert got == {1: 0b1110111, 2: 0b1111001, 3: 0b0000001, 9: 0b0001000}
        assert build_tid_bitmaps(part, weighted=True, min_items=2) == {
            1: 0b11101, 2: 0b11111, 3: 0b00001, 9: 0b00010,
        }
        assert build_tid_bitmaps([(5,), (1, 5), (), (1,)]) == {5: 0b110, 1: 0b011}
        assert build_tid_bitmaps([(), ()]) == {}
        assert build_tid_bitmaps([(), (4,)], min_items=0) == {4: 0b01}
        assert got.negative == 0
        assert BitmapStore.layout(part, weighted=True) == got

    def test_negative_runs_are_masked(self):
        # a negative weight is a run of |weight| tids, marked in the mask
        part = [((1, 2), 2), ((1,), -3), ((2, 9), 1), ((1, 2), -1)]
        got = build_tid_bitmaps(part, weighted=True)
        assert got == {1: 0b1111101, 2: 0b1100011, 9: 0b0000010}
        assert got.negative == 0b0011101
        assert count_bitmaps(got, [(1, 2)]) == {(1, 2): 1}
        assert count_bitmaps(dict(got), [(1, 2)]) == {(1, 2): 3}  # a plain mapping has no mask

    def test_count_bitmaps_reads_a_shared_build(self, monkeypatch):
        # a block laid out once counts like the store's own row entry
        # point, for as many stores and passes as read it — and counting
        # a block builds nothing
        cands, txns = random_case(5, k=3, n_cands=30, n_items=12)
        store = BitmapStore(cands)
        want = store.count_partition(txns)
        shared = lay_out(store, txns)
        assert isinstance(shared, TidBitmaps)
        monkeypatch.setattr(candidatestore, "build_tid_bitmaps", None)  # a build would raise
        assert store.count_partition(shared) == want == brute_counts(cands, txns)
        assert count_bitmaps(shared, sorted(cands)) == want
        assert BitmapStore(cands[:7]).count_partition(shared) == brute_counts(cands[:7], txns)
        assert count_bitmaps({}, cands) == count_bitmaps(shared, []) == {}
        assert store.count_partition(TidBitmaps()) == {}

    def test_weighted_run_encoding_is_exact(self):
        # compaction multiplicities: (txn, w) occupies a run of w tids, so
        # one popcount of the AND is already the weighted support
        store = BitmapStore([(0, 1), (0, 2), (1, 2)])
        part = [((0, 1, 2), 1000), ((0, 1), 7), ((1, 2), 1), ((0, 2), 90)]
        got = store.count_partition(iter(part), weighted=True)
        assert got == {(0, 1): 1007, (0, 2): 1090, (1, 2): 1001}

    def test_partition_skips_irrelevant_items(self):
        store = BitmapStore([(1, 2)])
        got = store.count_partition(iter([(1, 2, 99), (3, 4), (1, 2)]))
        assert got == {(1, 2): 2}

    def test_empty_partition(self):
        assert BitmapStore([(1, 2)]).count_partition(iter([])) == {}
        assert BitmapStore().count_partition(iter([(1, 2)])) == {}

    def test_prefix_cached_intersection_matches_brute(self):
        for seed in (3, 4):
            cands, txns = random_case(seed, k=4, n_cands=40, n_items=14)
            store = BitmapStore(cands)
            got = store.count_partition(iter(txns))
            assert got == brute_counts(cands, txns)

    def test_insert_after_count_invalidates_order(self):
        store = BitmapStore([(1, 2)])
        assert store.count_partition(iter([(1, 2)])) == {(1, 2): 1}
        store.insert((2, 3))
        got = store.count_partition(iter([(1, 2, 3)]))
        assert got == {(1, 2): 1, (2, 3): 1}

    def test_stats_items(self):
        assert BitmapStore(CANDIDATES).stats()["items"] == 7


# ---------------------------------------------------------------------------
# The intersector: grouped by sibling prefix == one popcount per candidate
# ---------------------------------------------------------------------------
def naive_popcounts(block, candidates) -> dict:
    """One AND chain and popcount per candidate, the mask subtracted: what
    the grouped walk must reproduce."""
    negative = getattr(block, "negative", 0)
    counts = {}
    for cand in candidates:
        bm = -1
        for item in cand:
            bm &= block.get(item, 0)
        support = bm.bit_count() - 2 * (bm & negative).bit_count()
        if support:
            counts[cand] = support
    return counts


#: items 0-7 occur in rows; 8 and 9 never do (missing from every block)
signed_rows_st = st.lists(
    st.tuples(
        st.lists(st.integers(0, 7), max_size=6, unique=True).map(lambda xs: tuple(sorted(xs))),
        st.sampled_from([1, 2, 3, -1, -2]),
    ),
    max_size=12,
)


def candidates_st(k):
    return st.lists(
        st.lists(st.integers(0, 9), min_size=k, max_size=k, unique=True).map(
            lambda xs: tuple(sorted(xs))
        ),
        max_size=30,
        unique=True,
    )


class TestIntersectorGrid:
    @settings(max_examples=150, deadline=None)
    @given(rows=signed_rows_st, k=st.integers(1, 5), data=st.data())
    def test_grouped_count_is_a_naive_popcount(self, rows, k, data):
        """k = 1..5, negative runs, items missing from the block, empty
        blocks (no rows, or only empty ones): the grouped walk, fed the
        candidates in any order, counts what one popcount per candidate
        does — and so does a store's cached grouping."""
        block = build_tid_bitmaps(rows, weighted=True)
        cands = data.draw(candidates_st(k))
        want = naive_popcounts(block, cands)
        assert count_bitmaps(block, cands) == want
        assert count_bitmaps(block, cands[::-1]) == want
        assert BitmapStore(cands).count_partition(block) == want
        assert count_bitmaps(dict(block), cands) == naive_popcounts(dict(block), cands)

    @settings(max_examples=100, deadline=None)
    @given(rows=signed_rows_st, k=st.integers(1, 4), data=st.data())
    def test_a_store_counts_its_current_candidates(self, rows, k, data):
        """The grouping a store keeps follows every insert and removal
        between counts: never a stale walk."""
        block = build_tid_bitmaps(rows, weighted=True)
        first = data.draw(candidates_st(k))
        store = BitmapStore(first)
        assert store.count_partition(block) == naive_popcounts(block, first)
        held = list(first)
        for _ in range(data.draw(st.integers(1, 4))):
            gone = data.draw(st.lists(st.sampled_from(held), unique=True)) if held else []
            came = data.draw(candidates_st(k))
            assert store.without(gone) is store
            for cand in came:
                store.insert(cand)
            kept = [c for c in held if c not in gone]
            held = kept + [c for c in came if c not in kept]
            assert set(store) == set(held)
            assert store.count_partition(block) == naive_popcounts(block, held)


# ---------------------------------------------------------------------------
# The layout contract
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_STORES)
class TestLayoutContract:
    def test_row_wise_classes_declare_no_layout(self, name):
        rows = [((1, 2), 1)]
        if name == "bitmap":
            assert get_store(name).layout is not None
        else:  # the default serves a third party's store as it serves ours
            assert get_store(name).layout is None
            assert lay_out(get_store(name), rows, weighted=True) is rows

    def test_a_laid_out_block_counts_like_the_rows(self, name):
        cands, txns = random_case(2)
        store = make_store(name, cands)
        block = lay_out(get_store(name), txns)
        assert store.count_partition(block) == brute_counts(cands, txns)
        assert store.count_partition(block) == brute_counts(cands, txns)  # and again

    def test_signed_block_gives_the_same_net_counts(self, name):
        # a signed delta laid out ONCE serves several stores of the class
        # (one per level) and returns what the rows themselves would
        rng = random.Random(9)
        cands, txns = random_case(3)
        signed = [(t, rng.choice((1, 3, -1, -2))) for t in txns]
        want = {}
        for txn, w in signed:
            for cand in cands:
                if set(txn).issuperset(cand):
                    want[cand] = want.get(cand, 0) + w
        want = {c: n for c, n in want.items() if n}
        block = lay_out(get_store(name), signed, weighted=True)
        for level in (cands[:10], cands[10:]):
            got = make_store(name, level).count_partition(block, weighted=True)
            assert {c: n for c, n in got.items() if n} == {
                c: n for c, n in want.items() if c in level
            }


class TestHashTreeContract:
    def test_duplicate_insert_not_double_counted(self):
        tree = HashTree([(1, 2, 3)] * 5)
        assert len(tree) == 1
        counts = {}
        tree.count_into(counts, (1, 2, 3, 4))
        assert counts == {(1, 2, 3): 1}
        assert tree.subset((1, 2, 3)) == [(1, 2, 3)]
