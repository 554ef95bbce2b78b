#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the benchmark result tables.

Run the benchmark suite first (it writes ``benchmarks/results/*.txt``),
then::

    python benchmarks/generate_experiments_md.py

The paper-side numbers below are transcribed from the evaluation section
(section V); the measured side is whatever the last benchmark run
produced on this machine.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
OUT = os.path.join(os.path.dirname(HERE), "EXPERIMENTS.md")

#: experiment id -> (result file, paper-reported claim)
SECTIONS = [
    (
        "Table I — dataset properties",
        ["table1_datasets"],
        "Paper: MushRoom 119 items / 8,124 txns; T10I4D100K 870 / 100,000; "
        "Chess 75 / 3,196; Pumsb_star 2,088 / 49,046.",
        "Generators match the full-scale row/column counts exactly for the "
        "attribute-style datasets (the Quest generator realises a subset of "
        "its 870-item universe, as the original tool does). Benchmarks mine "
        "scaled-down variants with the same structure; the bench-scale "
        "column records the size actually mined.",
    ),
    (
        "Fig. 3 — per-iteration time, YAFIM vs MRApriori",
        ["fig3_mushroom", "fig3_t10i4d100k", "fig3_chess", "fig3_pumsb_star"],
        "Paper: total speedups ~21x (MushRoom, 297s -> 14s), ~10x (T10I4D100K), "
        "~21x (Chess, 378s -> 18s), ~21x (Pumsb_star); last-pass speedups up to "
        "37x (MushRoom) and ~55x (Chess); ~18x average across benchmarks.",
        "Shape reproduced: identical outputs (asserted), YAFIM wins every "
        "dataset in measured wall time and by an order of magnitude in the "
        "paper-cluster replay, and the per-pass gap is largest on the late "
        "passes where candidate sets shrink but MapReduce still pays the "
        "full job round-trip. Absolute values differ (miniature datasets, "
        "one machine) — see DESIGN.md's substitution table. YAFIM runs its "
        "default fast path, whose pass 2 is R-Apriori's candidate-free pair "
        "count (DESIGN.md choice 26): the T10I4D100K pass 2 builds and ships "
        "no C2 (2.33 s before the fold -> 0.10 s, same box). Whether these "
        "figures should run `paper_dataflow=True` instead is open (ROADMAP "
        "item 15).",
    ),
    (
        "Fig. 4 — sizeup (1..6x data, fixed 48 cores)",
        ["fig4_mushroom", "fig4_t10i4d100k", "fig4_chess", "fig4_pumsb_star"],
        "Paper: MRApriori grows sharply/near-linearly with replication; "
        "YAFIM grows slowly and stays nearly flat on all four datasets.",
        "Shape reproduced: MRApriori's replayed time rises with every "
        "replication factor (growing scheduling waves, per-task overhead "
        "and I/O) while YAFIM's curve stays nearly flat (asserted: YAFIM's "
        "absolute growth < 50% of MRApriori's; in practice far smaller).",
    ),
    (
        "Fig. 5 — node speedup (4..12 nodes x 8 cores)",
        ["fig5_mushroom", "fig5_t10i4d100k", "fig5_chess", "fig5_pumsb_star"],
        "Paper: YAFIM's time falls near-linearly as nodes grow 4 -> 12.",
        "Shape reproduced: monotone decrease on every dataset with "
        "substantial (though sublinear at this miniature task granularity) "
        "scaling; the ideal-linear column quantifies the gap.",
    ),
    (
        "Fig. 6 — medical application (Sup = 3%)",
        ["fig6_medical"],
        "Paper: YAFIM ~25x faster than MRApriori on the hospital case "
        "dataset; YAFIM's per-iteration time shrinks as iterations proceed.",
        "Shape reproduced on the synthetic medical-case workload: replayed "
        "speedup comfortably exceeds the benchmark datasets' (asserted "
        ">10x), and YAFIM's per-pass time collapses after its peak while "
        "MRApriori never drops below the per-job floor.",
    ),
    (
        "Ablations (design choices)",
        [
            "ablation_broadcast",
            "ablation_cache",
            "ablation_hashtree",
            "ablation_mr_variants",
            "ablation_support_sweep",
            "ablation_partition_sweep",
            "ablation_one_phase",
            "ablation_rapriori",
        ],
        "Paper §IV motivates three design choices: broadcast variables "
        "(§IV-C), the in-memory cached transaction RDD (§IV-B) and the "
        "candidate hash tree (§IV-A); related work motivates SPC/FPC/DPC.",
        "A1: broadcasting moves fewer candidate bytes than per-task closure "
        "shipping once tasks outnumber nodes. A2: with caching only pass 1 "
        "touches the DFS; without it every pass re-reads. A3: the hash tree "
        "beats a flat candidate scan by an order of magnitude on the "
        "candidate-heavy sparse dataset. A4: FPC/DPC cut job count (fewer "
        "startups) at the cost of speculative candidates, outputs identical. "
        "A5: lowering the threshold grows the itemset family and pass count "
        "monotonically (the families nest). A6: partition count never "
        "changes the mined itemsets. A7: the one-phase MapReduce "
        "alternative needs a single job but counts and shuffles an order "
        "of magnitude more (the paper's memory-overflow criticism). "
        "A8: R-Apriori's candidate-free second pass (the published YAFIM "
        "follow-up) ships nothing and is ~3.5x faster than intersecting C2 on "
        "the bitmap store. YAFIM's fast path over rows now counts pass 2 the "
        "same way (DESIGN.md choice 26), so A8 runs both miners on "
        "`candidate_store=\"bitmap\"`, where they still differ, and A3's "
        "pass 2 reads the same for tree and list: neither builds C2 there.",
    ),
    (
        "Extensions beyond the paper",
        [
            "parallel_miners_mushroom",
            "parallel_miners_medical",
            "parallel_miners_retail",
            "fault_overhead",
            "straggler_study",
            "serve_throughput",
        ],
        "The paper's related work surveys the wider parallel-FIM design "
        "space (Dist-Eclat, pattern growth) and motivates Spark partly by "
        "lineage-based fault tolerance (section II-B).",
        "YAFIM and Dist-Eclat run on the same engine and produce identical "
        "outputs; the structural claims hold (YAFIM's Fig. 1–2 dataflow, "
        "`yafim_paper`: one shuffle per level — the default dataflow merges "
        "the per-partition counts on the driver and shuffles nothing; "
        "Dist-Eclat lays its rows out on the driver with the `bitmap` "
        "store's builder and shuffles nothing either). Measured ranking on "
        "these small inputs (650–2,000 rows): `dist_eclat` first, then "
        "`yafim` on `bitmap` in one partition, then the hash-tree default, "
        "then the paper dataflow. DESIGN.md choice 25 has the wider table "
        "(fastest of 5, interleaved): `dist_eclat` reads 0.29–0.84x "
        "`yafim` + `bitmap` on dense inputs up to ~8k rows and loses beyond "
        "that and on sparse or wide data (1.1–2.1x). Parallel FP-growth "
        "(PFP) was deleted: it was the slowest miner on every measured row, "
        "2.4–6.6x `yafim` + `bitmap` on both backends. "
        "Injected task failures and total cache loss change results not at "
        "all and cost far less than replication would. The discrete-event "
        "replay quantifies straggler headroom: the near-linear speedup "
        "story survives ~5% stragglers and degrades sharply past 10%. "
        "The serving layer (`repro.serve`) lifts the paper's "
        "cache-across-passes idea to cache-across-requests: served "
        "concurrent submission costs no more wall time than one-shot "
        "sequential runs, and an identical resubmission hits the result "
        "cache two orders of magnitude faster than a cold job.",
    ),
]


def main() -> int:
    missing = []
    parts = [
        "# EXPERIMENTS — paper vs measured\n",
        "Every table and figure of the paper's evaluation (section V), "
        "reproduced by `pytest benchmarks/ --benchmark-only`. Tables below "
        "are the exact output of the last benchmark run on this machine "
        "(also in `benchmarks/results/`). 'Replayed' columns project the "
        "measured task records onto the paper's 12-node x 8-core cluster "
        "model; see DESIGN.md for the substitution rationale.\n",
    ]
    for title, files, paper, verdict in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper reports.** {paper}\n")
        parts.append(f"**Reproduction.** {verdict}\n")
        for name in files:
            path = os.path.join(RESULTS, f"{name}.txt")
            if not os.path.exists(path):
                missing.append(name)
                continue
            with open(path) as f:
                parts.append("\n```\n" + f.read().rstrip() + "\n```\n")
    with open(OUT, "w") as f:
        f.write("\n".join(parts))
    print(f"wrote {OUT}")
    if missing:
        print(f"WARNING: missing result files: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
