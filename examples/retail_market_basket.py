#!/usr/bin/env python3
"""Retail market-basket analysis on IBM Quest synthetic data.

The workload the paper's introduction motivates: a large sparse
transactional database (the T10I4 family from IBM's Quest generator)
mined at a low support threshold.  Compares all the miners in the
library on the same data and shows the YAFIM configuration knobs.

Run:  python examples/retail_market_basket.py
"""

import time

from repro import mine_frequent_itemsets
from repro.bench.reporting import format_table
from repro.core import Yafim
from repro.datasets import quest_generator
from repro.engine import Context

print("Generating a T10.I4 basket database (5,000 transactions, 500 items)...")
dataset = quest_generator(
    n_transactions=5_000,
    avg_transaction_size=10,
    avg_pattern_size=4,
    n_patterns=300,
    n_items=500,
    seed=7,
)
print(f"  {dataset.stats()}")

MINSUP = 0.01

# --- compare every algorithm in the library ------------------------------
rows = []
reference = None
for algorithm in ("apriori", "eclat", "fpgrowth", "yafim"):
    t0 = time.perf_counter()
    result = mine_frequent_itemsets(
        dataset.transactions, MINSUP, algorithm=algorithm, backend="serial"
    )
    elapsed = time.perf_counter() - t0
    if reference is None:
        reference = result.itemsets
    assert result.itemsets == reference, f"{algorithm} disagrees!"
    rows.append((algorithm, result.num_itemsets, result.max_level, elapsed))

print(
    format_table(
        ["algorithm", "itemsets", "max level", "wall (s)"],
        rows,
        title=f"\nAll miners at minsup={MINSUP:g} (identical outputs, checked)",
    )
)

# --- YAFIM knobs -----------------------------------------------------------
# (capped at 3 levels: the flat-list variant is quadratic in candidates —
# that blowup is exactly what ablation A3 in benchmarks/ quantifies)
print("\nYAFIM configuration ablation on this workload (levels <= 3):")
configs = {
    "paper defaults": {},
    "no hash tree": {"candidate_store": "linear"},
    "no broadcast": {"use_broadcast": False},
    "no RDD cache": {"cache_transactions": False},
}
rows = []
want_capped = None
for label, kwargs in configs.items():
    with Context(backend="serial") as ctx:
        t0 = time.perf_counter()
        result = Yafim(ctx, num_partitions=8, **kwargs).run(
            dataset.transactions, MINSUP, max_length=3
        )
        rows.append((label, time.perf_counter() - t0, result.num_itemsets))
    want_capped = want_capped or result.itemsets
    assert result.itemsets == want_capped
print(format_table(["configuration", "wall (s)", "itemsets"], rows))

# --- parallel backends -------------------------------------------------------
print("\nExecutor backends (same answer, different executors):")
for backend, par in (("serial", 1), ("processes", 2)):
    with Context(backend=backend, parallelism=par) as ctx:
        t0 = time.perf_counter()
        result = Yafim(ctx, num_partitions=8).run(dataset.transactions, MINSUP)
        assert result.itemsets == reference
        print(f"  {backend:10s} x{par}: {time.perf_counter() - t0:.2f}s")
