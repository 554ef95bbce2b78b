"""Ablation A8 — R-Apriori's candidate-free second pass (YAFIM follow-up).

Rathee et al. (2015) showed YAFIM's pass 2 dominates on sparse datasets:
with m frequent items, apriori_gen materialises C(m, 2) pair candidates
and a structure over them, while counting pairs needs no candidates at
all.  YAFIM's fast path over rows (the default ``hashtree`` store) now
counts pass 2 that way itself, so the two miners differ only where
YAFIM still builds C2: on ``candidate_store="bitmap"``, whose pass 2
intersects every candidate pair on the laid-out block.  Both miners run
there on the sparse Quest-style dataset and we compare pass-2 time and
broadcast volume — later passes count the same candidates on the same
store.
"""

from __future__ import annotations

from conftest import write_report
from repro.bench.reporting import format_table
from repro.core.rapriori import RApriori
from repro.core.yafim import Yafim
from repro.datasets import t10i4d100k_like
from repro.engine import Context

STORE = "bitmap"


def _run(miner_cls):
    ds = t10i4d100k_like(scale=0.01, seed=7)
    with Context(backend="serial") as ctx:
        miner = miner_cls(ctx, num_partitions=8, candidate_store=STORE)
        return miner.run(ds.transactions, 0.0025, max_length=3)


def test_ablation_rapriori(benchmark):
    yafim, rapriori = benchmark.pedantic(
        lambda: (_run(Yafim), _run(RApriori)), rounds=1, iterations=1
    )
    assert yafim.itemsets == rapriori.itemsets

    rows = []
    for res in (yafim, rapriori):
        p2 = next(it for it in res.iterations if it.k == 2)
        rows.append(
            (res.algorithm, p2.n_candidates, p2.broadcast_bytes, p2.seconds, res.total_seconds)
        )
    table = format_table(
        ["miner", "pass-2 candidates", "pass-2 broadcast (B)", "pass-2 (s)", "total (s)"],
        rows,
        title=f"Ablation A8 — R-Apriori candidate-free pass 2 [T10I4, sup=0.25%, store={STORE}]",
    )
    write_report("ablation_rapriori", table)

    ya_p2 = next(it for it in yafim.iterations if it.k == 2)
    ra_p2 = next(it for it in rapriori.iterations if it.k == 2)
    benchmark.extra_info["pass2_speedup"] = round(ya_p2.seconds / ra_p2.seconds, 2)
    # YAFIM broadcasts a C2 bitmap store; R-Apriori's pass ships nothing
    assert ya_p2.broadcast_bytes > 0 == ra_p2.broadcast_bytes
    # and pass 2 gets faster (no store build, no intersection per pair)
    assert ra_p2.seconds < ya_p2.seconds
