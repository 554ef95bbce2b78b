"""DistEclat (parallel Eclat extension) tests."""

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.common.itemset import canonical_transaction, min_support_count
from repro.core.candidatestore import build_tid_bitmaps
from repro.core.dist_eclat import DistEclat
from repro.datasets import medical_cases, mushroom_like, quest_generator
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
        got = DistEclat(ctx).run(TXNS, 0.4)
        assert got.itemsets == apriori(TXNS, 0.4)

    def test_matches_yafim_on_generated_data(self, ctx):
        from repro.core import Yafim

        ds = mushroom_like(scale=0.03, seed=5)
        want = Yafim(ctx).run(ds.transactions, 0.4).itemsets
        got = DistEclat(ctx).run(ds.transactions, 0.4).itemsets
        assert got == want

    def test_quest_data(self, ctx):
        ds = quest_generator(n_transactions=300, n_items=50, seed=5)
        assert DistEclat(ctx).run(ds.transactions, 0.05).itemsets == apriori(
            ds.transactions, 0.05
        )

    def test_max_length(self, ctx):
        got = DistEclat(ctx).run(TXNS, 0.4, max_length=2)
        want = {k: v for k, v in apriori(TXNS, 0.4).items() if len(k) <= 2}
        assert got.itemsets == want

    def test_max_length_one(self, ctx):
        got = DistEclat(ctx).run(TXNS, 0.4, max_length=1)
        assert all(len(k) == 1 for k in got.itemsets)

    def test_empty_raises(self, ctx):
        with pytest.raises(MiningError):
            DistEclat(ctx).run([], 0.5)

    def test_invalid_support(self, ctx):
        with pytest.raises(MiningError):
            DistEclat(ctx).run(TXNS, 0.0)

    def test_nothing_frequent(self, ctx):
        got = DistEclat(ctx).run([["a"], ["b"], ["c"]], 0.9)
        assert got.itemsets == {}


class TestParallelStructure:
    def test_no_shuffle_stage(self, ctx):
        """Dist-Eclat's selling point: no per-level synchronisation.  The
        driver lays the rows out (the store's one vertical builder), so
        no stage shuffles at all, and a singleton's support is its
        bitmap's popcount."""
        got = DistEclat(ctx).run(TXNS, 0.4)
        assert not [t for t in ctx.event_log.tasks if t.kind == "shuffle_map"]
        layout = build_tid_bitmaps(canonical_transaction(t) for t in TXNS)
        threshold = min_support_count(0.4, len(TXNS))
        singletons = {k: v for k, v in got.itemsets.items() if len(k) == 1}
        assert singletons == {
            (item,): bm.bit_count() for item, bm in layout.items()
            if bm.bit_count() >= threshold
        }

    def test_processes_backend(self):
        with Context(backend="processes", parallelism=2) as ctx:
            got = DistEclat(ctx).run(TXNS, 0.4).itemsets
        assert got == apriori(TXNS, 0.4)

    def test_medical_cross_check(self, ctx):
        ds = medical_cases(n_cases=250, seed=9)
        got = DistEclat(ctx, num_partitions=6).run(ds.transactions, 0.08)
        assert got.itemsets == apriori(ds.transactions, 0.08)
        assert len(got.iterations) == 2  # singleton phase + one DFS phase

    def test_broadcast_used_for_tidsets(self, ctx):
        DistEclat(ctx).run(TXNS, 0.4)
        assert ctx.broadcast_manager.transfers > 0
