#!/usr/bin/env python3
"""Condensed pattern families on a power-law retail workload.

Mines skewed retail baskets with two different parallel miners (YAFIM and
DistEclat — identical results, different traversals), then condenses the
frequent-itemset family into its maximal and closed forms and inspects
the negative border, i.e. what Apriori counted and threw away.

Run:  python examples/condensed_patterns.py
"""

from repro.bench.reporting import format_table
from repro.core import (
    DistEclat,
    Yafim,
    closed_itemsets,
    generate_rules_parallel,
    maximal_itemsets,
    negative_border,
    support_of,
)
from repro.datasets import retail_like
from repro.engine import Context

print("Generating power-law retail baskets with promotional bundles...")
dataset = retail_like(
    n_transactions=3_000, n_items=400, n_bundles=8, bundle_rate=0.35, seed=11
)
print(f"  {dataset.stats()}")

MINSUP = 0.03

with Context(backend="serial") as ctx:
    yafim = Yafim(ctx, num_partitions=8).run(dataset.transactions, MINSUP)
    dist_eclat = DistEclat(ctx, num_partitions=8).run(dataset.transactions, MINSUP)
    assert yafim.itemsets == dist_eclat.itemsets, "miners must agree"
    print(
        f"\nYAFIM ({yafim.total_seconds:.2f}s, {len(yafim.iterations)} passes) and "
        f"DistEclat ({dist_eclat.total_seconds:.2f}s, no shuffle) agree: "
        f"{yafim.num_itemsets} frequent itemsets ✔"
    )

    # --- condensed representations --------------------------------------
    frequent = yafim.itemsets
    maximal = maximal_itemsets(frequent)
    closed = closed_itemsets(frequent)
    border = negative_border(frequent)
    print(
        format_table(
            ["family", "size", "vs all frequent"],
            [
                ("all frequent", len(frequent), "1.00x"),
                ("closed", len(closed), f"{len(closed) / len(frequent):.2f}x"),
                ("maximal", len(maximal), f"{len(maximal) / len(frequent):.2f}x"),
                ("negative border", len(border), "(wasted Apriori counting)"),
            ],
            title="\nCondensed pattern families",
        )
    )

    print("\nLargest maximal itemsets (the promotional bundles resurface):")
    for iset, count in sorted(maximal.items(), key=lambda kv: (-len(kv[0]), -kv[1]))[:5]:
        print(f"  {iset}  support {count}/{dataset.n_transactions}")

    # support recovery from the closed family alone
    probe = next(iter(maximal))
    assert support_of(probe, closed) == frequent[probe]
    print(f"\nSupport of {probe} recovered exactly from the closed family ✔")

    # --- rules, mined in parallel on the same engine ----------------------
    rules = generate_rules_parallel(
        ctx, frequent, dataset.n_transactions, min_confidence=0.8, min_lift=2.0
    )
    print(f"\nTop parallel-mined rules ({len(rules)} at conf>=0.8, lift>=2):")
    for rule in rules[:6]:
        print(f"  {rule}")
