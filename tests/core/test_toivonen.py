"""Toivonen sampling-algorithm tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core.toivonen import ToivonenResult, count_exact, toivonen
from repro.datasets import medical_cases, retail_like

TXNS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c"],
    ["a", "c"],
    ["d"],
] * 20  # big enough that a 25% sample is representative


class TestCountExact:
    def test_counts_match_definition(self):
        candidates = [("a",), ("a", "b"), ("x", "y"), ("a", "b", "c")]
        counts = count_exact([tuple(sorted(set(t))) for t in TXNS], candidates)
        assert counts[("a",)] == 60
        assert counts[("a", "b")] == 40
        assert counts[("x", "y")] == 0
        assert counts[("a", "b", "c")] == 20

    def test_mixed_lengths(self):
        counts = count_exact([("a", "b")], [("a",), ("b",), ("a", "b")])
        assert counts == {("a",): 1, ("b",): 1, ("a", "b"): 1}

    def test_empty_candidates(self):
        assert count_exact([("a",)], []) == {}

    @pytest.mark.parametrize("store", ["bitmap", "trie", "flatdict", "linear"])
    def test_counts_identical_across_stores(self, store):
        txns = [tuple(sorted(set(t))) for t in TXNS]
        candidates = [("a",), ("a", "b"), ("x", "y"), ("a", "b", "c"), ("d",)]
        assert count_exact(txns, candidates, candidate_store=store) == count_exact(
            txns, candidates
        )

    def test_three_lengths_on_bitmap_build_once(self, tid_bitmap_builds):
        # one store per candidate length, ONE layout of the rows for all
        txns = [tuple(sorted(set(t))) for t in TXNS]
        candidates = [("a",), ("d",), ("a", "b"), ("x", "y"), ("a", "b", "c")]
        got = count_exact(txns, candidates, candidate_store="bitmap")
        assert tid_bitmap_builds == [len(txns)]
        assert got == count_exact(txns, candidates)

    def test_store_options_forwarded(self):
        counts = count_exact(
            [("a", "b")], [("a", "b")],
            candidate_store="hashtree", store_options={"fanout": 4},
        )
        assert counts == {("a", "b"): 1}


class TestToivonen:
    def test_matches_oracle(self):
        result = toivonen(TXNS, 0.3, sample_fraction=0.5, seed=1)
        assert result.itemsets == apriori(TXNS, 0.3)
        assert result.attempts >= 1
        assert isinstance(result, ToivonenResult)

    def test_full_sample_always_exact(self):
        # sample_fraction=1: the sample IS the database; must succeed first try
        result = toivonen(TXNS, 0.3, sample_fraction=1.0, seed=0)
        assert result.attempts == 1
        assert result.itemsets == apriori(TXNS, 0.3)

    def test_bitmap_store_matches_default(self):
        default = toivonen(TXNS, 0.3, sample_fraction=0.5, seed=1)
        bitmap = toivonen(
            TXNS, 0.3, sample_fraction=0.5, seed=1, candidate_store="bitmap"
        )
        assert bitmap.itemsets == default.itemsets

    def test_counts_are_exact_not_sampled(self):
        result = toivonen(TXNS, 0.3, sample_fraction=0.4, seed=2)
        oracle = apriori(TXNS, 0.3)
        for iset, count in result.itemsets.items():
            assert count == oracle[iset]

    def test_on_generated_datasets(self):
        for ds, sup in (
            (medical_cases(n_cases=600, seed=3), 0.1),
            (retail_like(n_transactions=800, n_items=150, seed=3), 0.05),
        ):
            result = toivonen(ds.transactions, sup, sample_fraction=0.5, seed=3)
            assert result.itemsets == apriori(ds.transactions, sup)

    def test_candidates_exceed_output(self):
        result = toivonen(TXNS, 0.3, sample_fraction=0.5, seed=1)
        assert result.candidates_counted >= result.num_itemsets

    def test_invalid_params(self):
        with pytest.raises(MiningError):
            toivonen(TXNS, 0.0)
        with pytest.raises(MiningError):
            toivonen(TXNS, 0.5, sample_fraction=0.0)
        with pytest.raises(MiningError):
            toivonen(TXNS, 0.5, lowering=0.0)
        with pytest.raises(MiningError):
            toivonen([], 0.5)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=10, max_size=40),
        st.floats(0.2, 0.8),
        st.integers(0, 5),
    )
    def test_property_exact_when_it_succeeds(self, txns, sup, seed):
        """Whenever toivonen returns, its answer equals the oracle's."""
        try:
            result = toivonen(
                txns, sup, sample_fraction=0.6, lowering=0.6, seed=seed, max_attempts=8
            )
        except MiningError:
            return  # unlucky samples exhausted the retry budget: allowed
        assert result.itemsets == apriori(txns, sup)
