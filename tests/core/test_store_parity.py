"""Oracle-parity grid: candidate store × algorithm × backend.

Every registered store must be a drop-in replacement: for each miner and
each backend, swapping the store changes wall-clock, never the output.
The reference is the sequential Apriori oracle (itself cross-checked
against fpgrowth/eclat elsewhere).

``max_length=3`` everywhere so the candidate-free one-phase miner (whose
subset enumeration *requires* a cap) mines exactly the same space as the
reference.  ``trie`` / ``flatdict`` are the suite's third-party plug-ins
(``tests/plugin_stores.py``): every grid here also proves that a store
class declaring no layout is served rows by every miner.
"""

from itertools import product

import pytest

from repro.algorithms import apriori
from repro.core import DistEclat, RApriori, Yafim
from repro.core.candidatestore import (
    CandidateStore,
    register_store,
    store_names,
    unregister_store,
)
from repro.core.registry import MiningConfig, run_algorithm
from repro.datasets import mushroom_like, quest_generator
from repro.engine import Context

STORES = ["hashtree", "trie", "flatdict", "bitmap"]
MAX_LEN = 3


@pytest.fixture(scope="module")
def mushroom():
    ds = mushroom_like(scale=0.02, seed=11)
    return [tuple(t) for t in ds.transactions]


@pytest.fixture(scope="module")
def synthetic():
    ds = quest_generator(
        n_transactions=120, n_items=30, avg_transaction_size=6.0,
        n_patterns=12, seed=7,
    )
    return [tuple(t) for t in ds.transactions]


def oracle(txns, min_support):
    cfg = MiningConfig(
        min_support=min_support, algorithm="apriori", max_length=MAX_LEN
    )
    return run_algorithm(txns, cfg).itemsets


def mine(txns, min_support, algorithm, store, backend):
    cfg = MiningConfig(
        min_support=min_support,
        algorithm=algorithm,
        max_length=MAX_LEN,
        backend=backend,
        parallelism=2,
        candidate_store=store,
    )
    return run_algorithm(txns, cfg).itemsets


class TestEngineMinersStoreGrid:
    """yafim / rapriori / dist_eclat: in-process engine (the process
    backend's legs are the spot checks below)."""

    @pytest.mark.parametrize("backend", ["serial"])  # one value; the IDs keep naming it
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("algorithm", ["yafim", "rapriori", "dist_eclat"])
    def test_mushroom_matches_oracle(self, mushroom, algorithm, store, backend):
        want = oracle(mushroom, 0.4)
        got = mine(mushroom, 0.4, algorithm, store, backend)
        assert got == want

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("algorithm", ["yafim", "rapriori", "dist_eclat"])
    def test_synthetic_matches_oracle(self, synthetic, algorithm, store):
        want = oracle(synthetic, 0.08)
        got = mine(synthetic, 0.08, algorithm, store, "serial")
        assert got == want

    @pytest.mark.parametrize("store", STORES)
    def test_linear_store_matches_too(self, synthetic, store):
        want = mine(synthetic, 0.08, "yafim", "linear", "serial")
        got = mine(synthetic, 0.08, "yafim", store, "serial")
        assert got == want


class TestMapReduceMinersStoreGrid:
    """mrapriori / one_phase: MapReduce substrate over an ephemeral DFS."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("algorithm", ["mrapriori", "one_phase"])
    def test_synthetic_matches_oracle(self, synthetic, algorithm, store):
        want = oracle(synthetic, 0.08)
        got = mine(synthetic, 0.08, algorithm, store, "serial")
        assert got == want

    @pytest.mark.parametrize("store", ["hashtree", "bitmap"])
    def test_mrapriori_mushroom(self, mushroom, store):
        want = oracle(mushroom, 0.4)
        got = mine(mushroom, 0.4, "mrapriori", store, "serial")
        assert got == want


class TestProcessBackendSpotChecks:
    """One multi-process check per headline store (slow to spawn; keep few)."""

    @pytest.mark.parametrize("store", ["bitmap", "flatdict"])
    def test_yafim_processes(self, mushroom, store):
        want = oracle(mushroom, 0.4)
        got = mine(mushroom, 0.4, "yafim", store, "processes")
        assert got == want


# ---------------------------------------------------------------------------
# The layout contract on the engine: every store x every ablation switch
# ---------------------------------------------------------------------------
def _layout_inputs():
    """``name -> (rows, min_support, max_length)``: the shapes that bit, or
    could bite, a working set that is laid out once."""
    dense = [tuple(t) for t in mushroom_like(scale=0.01, seed=5).transactions]
    sparse = [
        tuple(t) for t in quest_generator(
            n_transactions=90, n_items=25, avg_transaction_size=5.0,
            n_patterns=10, seed=3,
        ).transactions
    ]
    basket = [
        ("bread", "milk"), ("bread", "diaper", "beer", "eggs"),
        ("milk", "diaper", "beer", "cola"), ("bread", "milk", "diaper", "beer"),
        ("bread", "milk", "diaper", "cola"),
    ]
    # 3 partitions of 12 rows; the first holds one frequent item per row
    # at most, so its encoded rows all fall below two items and vanish
    hollow = (
        [("a",)] * 4 + [("b",)] * 4 + [(f"rare{i}", "a") for i in range(4)]
        + [("a", "b", "c"), ("a", "b", "c"), ("a", "b"), ("b", "c", "d")] * 6
    )
    return {
        "dense": (dense, 0.5, None),
        "sparse": (sparse, 0.08, None),
        "duplicates": (basket * 9, 0.3, None),
        "hollow_partition": (hollow, 0.3, None),
        "max_length_2": (dense, 0.5, 2),
        **DEGENERATE_INPUTS,
    }


#: the inputs a one-pass vertical build must survive, shared with the
#: incremental oracle tests: one partition of a single repeated row, a
#: partition with no rows at all (two rows over three partitions), one
#: item in the whole universe (nothing past level 1), and rows that hold
#: only infrequent items (the whole first partition)
DEGENERATE_INPUTS = {
    "duplicate_partition": (
        [("a", "b", "c")] * 12 + [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")] * 6,
        0.3, None,
    ),
    "empty_partition": ([("a", "b", "c"), ("a", "b")], 0.5, None),
    "single_item_universe": ([("a",)] * 9, 0.5, None),
    "infrequent_rows": (
        [(f"rare{i}", f"odd{i}") for i in range(12)] + [("a", "b"), ("a",), ("b",)] * 8,
        0.2, None,
    ),
}

LAYOUT_INPUTS = _layout_inputs()


class TestLayoutGrid:
    """{yafim, rapriori} x every registered store x {serial, processes} x
    use_broadcast / cache_transactions on and off, against the sequential
    Apriori oracle: whichever layout the store's class declares, whenever
    the miner lays the rows out, whether the block is cached or recomputed
    per pass, the itemsets are the oracle's.  DistEclat, candidate-free,
    runs the same inputs on both backends."""

    @pytest.fixture(scope="class")
    def oracles(self):
        out = {}
        for name, (rows, support, max_length) in LAYOUT_INPUTS.items():
            full = apriori(rows, support)
            out[name] = {
                i: c for i, c in full.items()
                if max_length is None or len(i) <= max_length
            }
            if name not in DEGENERATE_INPUTS:
                assert max(map(len, out[name])) >= 2, name  # Phase II has work
        return out

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("store", store_names())
    @pytest.mark.parametrize("miner_cls", [Yafim, RApriori], ids=["yafim", "rapriori"])
    def test_every_switch_on_every_input(self, miner_cls, store, backend, oracles):
        with Context(backend=backend, parallelism=2) as ctx:
            for use_broadcast, cache in product((True, False), repeat=2):
                miner = miner_cls(
                    ctx, num_partitions=3, use_broadcast=use_broadcast,
                    cache_transactions=cache, candidate_store=store,
                )
                for name, (rows, support, max_length) in LAYOUT_INPUTS.items():
                    got = miner.run(rows, support, max_length=max_length)
                    assert got.itemsets == oracles[name], (name, use_broadcast, cache)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_dist_eclat_on_every_input(self, backend, oracles):
        """DistEclat lays its rows out with the stores' one vertical
        builder, empty-row skip included: the same inputs, the oracle's
        itemsets."""
        with Context(backend=backend, parallelism=2) as ctx:
            miner = DistEclat(ctx, num_partitions=3)
            for name, (rows, support, max_length) in LAYOUT_INPUTS.items():
                got = miner.run(rows, support, max_length=max_length)
                assert got.itemsets == oracles[name], name

    def test_the_hollow_partition_really_is_hollow(self):
        rows, support, _ = LAYOUT_INPUTS["hollow_partition"]
        with Context(backend="serial") as ctx:
            result = Yafim(ctx, num_partitions=3, candidate_store="bitmap").run(rows, support)
        encode = result.iterations[0].compaction
        assert encode.weight_after == 24 < len(rows) == 36  # a third of the rows gone

    def test_a_third_party_row_wise_store_is_served_rows(self):
        """A plug-in that knows nothing of layouts: the default serves it."""
        counted = []

        class Toy(CandidateStore):
            def insert(self, candidate):
                self._register_candidate(candidate)

            def count_into(self, counts, transaction, weight=1):
                items = set(transaction)
                for cand in self._order:
                    if items.issuperset(cand):
                        counts[cand] = counts.get(cand, 0) + weight

            def count_partition(self, partition, weighted=False):
                partition = list(partition)
                counted.append(all(len(r) == 2 and isinstance(r[1], int) for r in partition))
                return super().count_partition(partition, weighted)

        rows, support, _ = LAYOUT_INPUTS["duplicates"]
        register_store("toy", Toy)
        try:
            with Context(backend="serial") as ctx:
                result = Yafim(ctx, num_partitions=2, candidate_store="toy").run(rows, support)
        finally:
            unregister_store("toy")
        assert result.itemsets == apriori(rows, support)
        assert counted and all(counted)  # weighted rows, as they are
        assert any(it.compaction.kind == "compact" for it in result.iterations[1:-1])
