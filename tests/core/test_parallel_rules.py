"""Parallel rule generation must match the sequential implementation."""

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core.rules import generate_rules, generate_rules_parallel
from repro.datasets import medical_cases
from repro.engine import Context

TXNS = [
    ["bread", "milk"],
    ["bread", "diaper", "beer", "eggs"],
    ["milk", "diaper", "beer", "cola"],
    ["bread", "milk", "diaper", "beer"],
    ["bread", "milk", "diaper", "cola"],
] * 4


@pytest.fixture()
def ctx():
    with Context(backend="serial") as c:
        yield c


class TestParallelRules:
    @pytest.mark.parametrize("conf,lift", [(0.0, 0.0), (0.7, 0.0), (0.5, 1.1)])
    def test_matches_sequential(self, ctx, conf, lift):
        itemsets = apriori(TXNS, 0.4)
        seq = generate_rules(itemsets, len(TXNS), min_confidence=conf, min_lift=lift)
        par = generate_rules_parallel(
            ctx, itemsets, len(TXNS), min_confidence=conf, min_lift=lift
        )
        assert par == seq

    def test_larger_workload(self, ctx):
        ds = medical_cases(n_cases=400, seed=2)
        itemsets = apriori(ds.transactions, 0.05)
        seq = generate_rules(itemsets, ds.n_transactions, min_confidence=0.6)
        par = generate_rules_parallel(
            ctx, itemsets, ds.n_transactions, min_confidence=0.6, num_partitions=6
        )
        assert par == seq

    def test_no_multi_itemsets(self, ctx):
        assert generate_rules_parallel(ctx, {("a",): 5}, 10) == []

    def test_processes_backend(self):
        itemsets = apriori(TXNS, 0.4)
        with Context(backend="processes", parallelism=2) as ctx:
            par = generate_rules_parallel(ctx, itemsets, len(TXNS), min_confidence=0.5)
        assert par == generate_rules(itemsets, len(TXNS), min_confidence=0.5)

    def test_non_closed_map_raises(self, ctx):
        from repro.common.errors import TaskFailedError

        with pytest.raises((MiningError, TaskFailedError)):
            generate_rules_parallel(ctx, {("a", "b"): 3}, 10)

    def test_invalid_params(self, ctx):
        with pytest.raises(MiningError):
            generate_rules_parallel(ctx, {}, 0)
        with pytest.raises(MiningError):
            generate_rules_parallel(ctx, {}, 5, min_confidence=2.0)

    def test_broadcast_used(self, ctx):
        itemsets = apriori(TXNS, 0.4)
        generate_rules_parallel(ctx, itemsets, len(TXNS))
        assert ctx.broadcast_manager.transfers > 0
