"""Ablation A3 — hash tree vs flat candidate-list scanning (§IV-A).

The hash tree bounds ``subset(C_k, t)`` to the slots covered by the
transaction; a flat list checks every candidate against every
transaction.  The gap shows on the candidate-heavy sparse dataset
(T10I4-style at 0.25% support, where |C2| is in the tens of thousands).
"""

from __future__ import annotations

from conftest import write_report
from repro.bench.harness import run_comparison
from repro.bench.reporting import format_table
from repro.datasets import t10i4d100k_like


def _run(store: str):
    return run_comparison(
        t10i4d100k_like(scale=0.006, seed=7),
        0.0025,
        num_partitions=8,
        max_length=3,
        yafim_kwargs={"candidate_store": store},
    ).yafim


def test_ablation_hashtree(benchmark):
    tree, flat = benchmark.pedantic(
        lambda: (_run("hashtree"), _run("linear")), rounds=1, iterations=1
    )
    assert tree.itemsets == flat.itemsets

    rows = [
        (it_t.k, it_t.n_candidates, it_t.seconds, it_f.seconds,
         it_f.seconds / max(it_t.seconds, 1e-9))
        for it_t, it_f in zip(tree.iterations, flat.iterations)
    ]
    table = format_table(
        ["pass", "candidates", "hash tree (s)", "flat list (s)", "tree speedup"],
        rows,
        title="Ablation A3 — candidate matching data structure",
    )
    write_report("ablation_hashtree", table)
    benchmark.extra_info["total_tree_speedup"] = round(
        flat.total_seconds / tree.total_seconds, 2
    )

    # the tree must win overall, and decisively on the candidate-heavy pass
    assert tree.total_seconds < flat.total_seconds
    heavy = max(tree.iterations, key=lambda it: it.n_candidates)
    flat_heavy = next(it for it in flat.iterations if it.k == heavy.k)
    assert flat_heavy.seconds > 2 * heavy.seconds, (
        f"expected >2x tree win on pass {heavy.k} "
        f"({heavy.n_candidates} candidates)"
    )
