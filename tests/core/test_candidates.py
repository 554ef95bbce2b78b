"""Tests for apriori_gen (join + prune)."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.candidates as candidates_module
from repro.core.candidates import apriori_gen, candidates_delta, join_step, prune_step


class TestJoinStep:
    def test_shared_prefix_joins(self):
        assert join_step([(1, 2), (1, 3)]) == [(1, 2, 3)]

    def test_different_prefix_does_not_join(self):
        assert join_step([(1, 2), (2, 3)]) == []

    def test_group_of_three(self):
        got = join_step([(1, 2), (1, 3), (1, 4)])
        assert got == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]

    def test_empty(self):
        assert join_step([]) == []


class TestPruneStep:
    def test_keeps_closed_candidate(self):
        prev = {(1, 2), (1, 3), (2, 3)}
        assert prune_step([(1, 2, 3)], prev) == [(1, 2, 3)]

    def test_drops_open_candidate(self):
        prev = {(1, 2), (1, 3)}
        assert prune_step([(1, 2, 3)], prev) == []


class TestAprioriGen:
    def test_level2_is_all_pairs(self):
        got = apriori_gen([(1,), (3,), (2,)])
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_triangle(self):
        assert apriori_gen([(1, 2), (1, 3), (2, 3)]) == [(1, 2, 3)]

    def test_pruned_triangle(self):
        assert apriori_gen([(1, 2), (1, 3), (2, 4)]) == []

    def test_empty_input(self):
        assert apriori_gen([]) == []

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            apriori_gen([(1,), (1, 2)])

    def test_string_items(self):
        got = apriori_gen([("a", "b"), ("a", "c"), ("b", "c")])
        assert got == [("a", "b", "c")]

    def test_output_sorted_and_unique(self):
        prev = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        got = apriori_gen(prev)
        assert got == sorted(set(got))

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20))
    def test_completeness_property(self, raw):
        """Every k-set whose (k-1)-subsets are all in the input must be
        generated — the guarantee Apriori's correctness rests on."""
        prev = sorted({tuple(sorted(set(p))) for p in raw if len(set(p)) == 2})
        if not prev:
            return
        got = set(apriori_gen(prev))
        prev_set = set(prev)
        items = sorted({i for p in prev for i in p})
        for cand in combinations(items, 3):
            closed = all(sub in prev_set for sub in combinations(cand, 2))
            assert (cand in got) == closed

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 12), min_size=1, max_size=8))
    def test_full_lattice_level(self, items):
        """If EVERY (k-1)-set over `items` is frequent, apriori_gen must
        produce exactly every k-set."""
        items = sorted(items)
        for k in range(2, min(len(items), 4) + 1):
            prev = list(combinations(items, k - 1))
            got = apriori_gen(prev)
            assert got == list(combinations(items, k))


def downward_closed_family(maximal):
    """Every non-empty subset of the given itemsets, by length."""
    by_len = {}
    for top in maximal:
        for k in range(1, len(top) + 1):
            by_len.setdefault(k, set()).update(combinations(sorted(top), k))
    return by_len


def brute_apriori_gen(prev, k):
    """Join + prune by definition: every k-set over the family's items
    whose every (k-1)-subset is in the family."""
    items = sorted({i for p in prev for i in p})
    return [
        cand for cand in combinations(items, k)
        if all(sub in prev for sub in combinations(cand, k - 1))
    ]


families_st = st.lists(
    st.sets(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=6
)


class TestAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(families_st)
    def test_apriori_gen_is_join_plus_prune(self, maximal):
        """On downward-closed families, k = 2..5 (and past the top, where
        nothing is generated): the parent-skipping, short-circuiting prune
        keeps exactly what the definition keeps."""
        family = downward_closed_family(maximal)
        for k in range(2, 7):
            prev = family.get(k - 1, set())
            assert apriori_gen(prev) == brute_apriori_gen(prev, k)

    @settings(max_examples=120, deadline=None)
    @given(families_st, families_st)
    def test_candidates_follow_the_crossings(self, old_max, new_max):
        """apriori_gen(new) == apriori_gen(old) - stale + fresh at every
        level, whichever way the delta was found."""
        old, new = downward_closed_family(old_max), downward_closed_family(new_max)
        items = sorted(i for (i,) in old[1] | new[1])
        for k in range(2, 7):
            was, now = old.get(k - 1, set()), new.get(k - 1, set())
            if not now:
                break
            tracked = set(apriori_gen(was))
            fresh, stale = candidates_delta(tracked, now, now - was, was - now, items)
            assert fresh == sorted(set(fresh)) and not tracked & set(fresh)
            assert set(stale) <= tracked
            assert sorted((tracked - set(stale)) | set(fresh)) == apriori_gen(now)

    def test_few_crossings_are_followed_many_regenerate(self, monkeypatch):
        calls = []
        real = candidates_module.apriori_gen
        monkeypatch.setattr(
            candidates_module, "apriori_gen", lambda prev: calls.append(1) or real(prev)
        )
        items = list(range(8))
        was = set(combinations(items, 2)) - {(0, 1)}
        tracked = set(real(was))
        now = was | {(0, 1)}
        fresh, stale = candidates_delta(tracked, now, {(0, 1)}, set(), items)
        assert (fresh, stale) == ([(0, 1, x) for x in range(2, 8)], []) and not calls
        fresh, stale = candidates_delta(tracked, now - {(6, 7)}, {(0, 1)}, {(6, 7)}, items)
        assert stale == [(x, 6, 7) for x in range(6)] and len(fresh) == 6 and not calls
        # nothing tracked yet, or most of the family crossed: generated whole
        assert candidates_delta((), now, now, set(), items) == (real(now), [])
        shrunk = {p for p in now if max(p) < 4}
        fresh, stale = candidates_delta(tracked, shrunk, {(0, 1)}, now - shrunk, items)
        assert fresh == [(0, 1, 2), (0, 1, 3)] and len(calls) == 2
        assert sorted((tracked - set(stale)) | set(fresh)) == real(shrunk)
