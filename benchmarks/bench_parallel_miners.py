"""Extension bench — the parallel-miner design space on one engine.

The paper's related work spans level-wise Apriori (YAFIM) and
prefix-distributed Eclat (Dist-Eclat); both run on this library's
engine.  This bench runs them on the same workloads — YAFIM on its
default hash tree, on the vertical ``bitmap`` store in one partition,
and in the paper's dataflow — and reports shuffle rounds and wall time.
Outputs must be identical everywhere.  (Sharded pattern growth, PFP,
was deleted after it lost every measured row: DESIGN.md choice 25.)
"""

from __future__ import annotations

import time

import pytest

from conftest import write_report
from repro.bench.reporting import format_table
from repro.core import DistEclat, Yafim
from repro.datasets import medical_cases, mushroom_like, retail_like
from repro.engine import Context

WORKLOADS = {
    "mushroom(dense)": (lambda: mushroom_like(scale=0.08, seed=7), 0.35),
    "medical(bundled)": (lambda: medical_cases(n_cases=1500, seed=7), 0.05),
    "retail(powerlaw)": (lambda: retail_like(n_transactions=2000, n_items=400, seed=7), 0.03),
}


def _run_all(make, sup):
    ds = make()
    out = {}
    for label, factory in (
        ("yafim", lambda c: Yafim(c, num_partitions=8)),
        ("yafim_bitmap", lambda c: Yafim(c, num_partitions=1, candidate_store="bitmap")),
        ("yafim_paper", lambda c: Yafim(c, num_partitions=8, paper_dataflow=True)),
        ("dist_eclat", lambda c: DistEclat(c, num_partitions=8)),
    ):
        with Context(backend="serial") as ctx:
            t0 = time.perf_counter()
            result = factory(ctx).run(ds.transactions, sup)
            wall = time.perf_counter() - t0
            shuffles = len(
                {t.stage_id for t in ctx.event_log.tasks if t.kind == "shuffle_map"}
            )
        out[label] = (result, wall, shuffles)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parallel_miners(benchmark, name):
    make, sup = WORKLOADS[name]
    results = benchmark.pedantic(lambda: _run_all(make, sup), rounds=1, iterations=1)

    reference = results["yafim"][0].itemsets
    rows = []
    for label, (result, wall, shuffles) in results.items():
        assert result.itemsets == reference, f"{label} output differs"
        rows.append((label, result.num_itemsets, len(result.iterations), shuffles, wall))
    table = format_table(
        ["miner", "itemsets", "phases", "shuffle rounds", "wall (s)"],
        rows,
        title=f"Parallel miners [{name}] sup={sup:g} — identical outputs",
    )
    write_report(f"parallel_miners_{name.split('(')[0]}", table)

    # structural claims from the literature:
    assert results["dist_eclat"][2] == 0, "Dist-Eclat: no shuffle stage (driver-built layout)"
    assert results["yafim_paper"][2] >= 3, "YAFIM (Fig. 1-2): one shuffle per level"
    assert results["yafim"][2] == 0, "YAFIM default dataflow: counts merge on the driver"
    assert results["yafim_bitmap"][2] == 0, "YAFIM on bitmap: same dataflow, one layout"
