"""Counting fast path vs the paper dataflow, on dense and sparse data.

The fast path (dictionary encoding + in-store weighted counting +
cross-pass compaction) attacks three costs the seed paid every pass:

* one ``(candidate, 1)`` tuple allocated per match per transaction
  before the map-side combine (``IterationStats.counting_records``;
  the fast path's kernel emits one int-keyed record per distinct
  candidate per partition instead — ``result_records``),
* the shuffle itself (``IterationStats.shuffle_bytes`` /
  ``shuffle_records``): every fast-path pass is one shuffle-free job
  whose per-partition counts merge on the driver,
* re-scanning dead weight: infrequent items and duplicate/short
  transactions that cannot affect any later pass
  (``CompactionStats``).

and, on the fast path over rows, a fourth: pass 2's C(|L1|, 2)
candidates, built into a store, broadcast and walked although a row
already names its own pairs (the sparse leg, ``t10i4d100k_like``, where
that pass is most of the paper dataflow's wall).

This benchmark mines the dense seed datasets and the sparse one twice on
the process backend — fast path vs. ``paper_dataflow=True`` — verifies
identical output, then writes ``BENCH_fastpath.json`` at the repo root (a
``--smoke`` run: under the git-ignored ``benchmarks/out/``) with per-pass
wall-clock, broadcast bytes, shuffle bytes/records and allocated-pair
counts.

On top of that sits the candidate-store ablation grid (dense datasets
only): the same fast-path run repeated per registered store (``store_names()``;
``--stores`` narrows it), the hash-tree run being the reference.  Every
store must produce the identical itemsets; the bitmap store's Phase-II
speedup over the hash tree is the headline number of the vertical
counting kernel, and its job count — passes + 1 — is what "laid out
once" means on the engine.

The report checks itself: :func:`check_report` is the gate over a report
(a fresh run, or the checked-in file) and ``--check`` runs it.

Run standalone (CI uses ``--smoke --check``)::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_fastpath.py --check

or under pytest-benchmark along with the other figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from _envelope import envelope, report_path

from repro.core.candidatestore import get_store, store_names
from repro.core.yafim import Yafim
from repro.datasets import chess_like, mushroom_like, t10i4d100k_like
from repro.engine.context import Context

REPORT = "BENCH_fastpath.json"

BACKEND = "processes"
N_WORKERS = 2
N_PARTITIONS = 6

BASELINE_KNOBS = dict(paper_dataflow=True)

#: the fast path's Phase II vs the paper dataflow's, best dataset
MIN_FASTPATH_SPEEDUP = 2.0
#: the vertical kernel's Phase II vs the hash tree's, every dataset (the
#: reference box reads 9-15x at full size and 4-6x on --smoke)
MIN_BITMAP_SPEEDUP = 2.0


def _mine(
    transactions, min_support: float, fastpath: bool, store: str | None = None
) -> tuple[dict, dict]:
    knobs = {} if fastpath else dict(BASELINE_KNOBS)
    if store is not None:
        knobs["candidate_store"] = store
    t0 = time.perf_counter()
    with Context(backend=BACKEND, parallelism=N_WORKERS) as ctx:
        result = Yafim(ctx, num_partitions=N_PARTITIONS, **knobs).run(
            transactions, min_support
        )
    wall = time.perf_counter() - t0

    def emitted(it) -> int:
        """Records the counting kernel emitted: into the shuffle-map
        combine (paper dataflow) or back to the driver (fast path)."""
        return it.result_records if fastpath and it.k >= 2 else it.counting_records

    compaction_seconds = sum(
        it.compaction.seconds for it in result.iterations if it.compaction
    )
    record = {
        "wall_seconds": round(wall, 4),
        "n_itemsets": result.num_itemsets,
        # the answer itself, so a report gates fast == paper after the fact
        "itemsets_sha256": hashlib.sha256(
            repr(sorted(result.itemsets.items())).encode()
        ).hexdigest(),
        "engine_jobs": result.engine_metrics.n_jobs,
        # phase-II cost includes encode/compact work the fast path spends
        # outside the per-pass windows — charged here so the comparison
        # against the baseline's pure pass time stays honest
        "phase2_seconds": round(
            sum(it.seconds for it in result.iterations if it.k >= 2)
            + compaction_seconds,
            4,
        ),
        "passes": [
            {
                "k": it.k,
                "seconds": round(it.seconds, 4),
                "broadcast_bytes": it.broadcast_bytes,
                "shuffle_bytes": it.shuffle_bytes,
                "shuffle_records": it.shuffle_records,
                "allocated_pairs": emitted(it),
            }
            for it in result.iterations
        ],
        "shuffle_bytes_total": sum(it.shuffle_bytes for it in result.iterations),
        "shuffle_records_total": sum(it.shuffle_records for it in result.iterations),
        "allocated_pairs_total": sum(emitted(it) for it in result.iterations),
        "compaction": [
            {
                "after_pass": it.k,
                "kind": it.compaction.kind,
                "seconds": round(it.compaction.seconds, 4),
                "txns": [it.compaction.txns_before, it.compaction.txns_after],
                "items": [it.compaction.items_before, it.compaction.items_after],
                "bytes": [it.compaction.bytes_before, it.compaction.bytes_after],
            }
            for it in result.iterations
            if it.compaction is not None
        ],
    }
    return record, result.itemsets


def _compare(
    name: str, transactions, min_support: float, fast: dict, fast_itemsets: dict
) -> dict:
    base, base_itemsets = _mine(transactions, min_support, fastpath=False)

    assert fast_itemsets == base_itemsets, f"{name}: fast path changed the output"

    # Wire-volume claims, pass by pass: no fast-path pass shuffles at all
    # (driver-side merge of int-keyed partials), every baseline pass does.
    assert len(fast["passes"]) == len(base["passes"])
    for fp, bp in zip(fast["passes"], base["passes"]):
        assert fp["shuffle_bytes"] == 0 < bp["shuffle_bytes"], (
            f"{name} pass {fp['k']}: fastpath shuffled {fp['shuffle_bytes']}B, "
            f"baseline {bp['shuffle_bytes']}B"
        )
    assert fast["shuffle_records_total"] == 0 < base["shuffle_records_total"], name
    assert 0 < fast["allocated_pairs_total"] < base["allocated_pairs_total"], name

    return {
        "min_support": min_support,
        "fastpath": fast,
        "baseline": base,
        "phase2_speedup": round(
            base["phase2_seconds"] / max(fast["phase2_seconds"], 1e-9), 2
        ),
        "allocated_pairs_reduction": round(
            base["allocated_pairs_total"] / max(fast["allocated_pairs_total"], 1), 1
        ),
    }


def _store_grid(
    name: str, transactions, min_support: float, stores: list[str]
) -> dict:
    """Store ablation: the fast-path run repeated per candidate store.

    Runs at its own (lower) support than the fastpath-vs-baseline
    comparison: the grid needs a counting-bound Phase II — at the
    baseline comparison's high support the compacted working set is so
    small that per-pass engine overhead drowns any store difference.
    The hash-tree leg (the PR-4 configuration) runs first and is the
    reference every other store is compared against.
    """
    ordered = ["hashtree"] + [s for s in stores if s != "hashtree"]
    runs = {}
    for store in ordered:
        runs[store] = _mine(transactions, min_support, fastpath=True, store=store)
    ht_record, ht_itemsets = runs["hashtree"]

    grid = {}
    for store in stores:
        record, itemsets = runs[store]
        assert len(itemsets) == ht_record["n_itemsets"], (
            f"{name}/{store}: {len(itemsets)} itemsets, "
            f"hashtree found {ht_record['n_itemsets']}"
        )
        assert itemsets == ht_itemsets, f"{name}/{store} changed the output"
        grid[store] = {
            "wall_seconds": record["wall_seconds"],
            "phase2_seconds": record["phase2_seconds"],
            "allocated_pairs_total": record["allocated_pairs_total"],
            "shuffle_records_total": record["shuffle_records_total"],
            "n_itemsets": record["n_itemsets"],
            "n_passes": len(record["passes"]),
            "engine_jobs": record["engine_jobs"],
            "phase2_speedup_vs_hashtree": round(
                ht_record["phase2_seconds"] / max(record["phase2_seconds"], 1e-9),
                2,
            ),
        }
    return grid


def run_fastpath_bench(smoke: bool = False, stores: list[str] | None = None) -> dict:
    # (dataset, baseline-comparison support, store-grid support).  The
    # grid support is lower where the compare support leaves Phase II
    # too small to differentiate counting structures (chess at 0.85
    # compacts to a few hundred weighted txns — pure engine overhead).
    # The sparse leg runs no store grid: its bitmap-vs-hashtree floor
    # would need a rule of its own for pass 2 (ROADMAP item 12).
    datasets = {
        "mushroom": (mushroom_like(scale=0.1 if smoke else 0.8, seed=7), 0.35, 0.35),
        "chess": (chess_like(scale=0.5 if smoke else 1.0, seed=7), 0.85, 0.6),
        "t10i4d100k": (t10i4d100k_like(scale=0.01 if smoke else 0.05, seed=7), 0.005, None),
    }

    stores = list(stores) if stores else store_names()

    report = {
        **envelope("fastpath", smoke),
        "backend": BACKEND,
        "n_workers": N_WORKERS,
        "n_partitions": N_PARTITIONS,
        "stores": stores,
        "datasets": {},
    }
    for name, (ds, min_support, grid_support) in datasets.items():
        fast, fast_itemsets = _mine(ds.transactions, min_support, fastpath=True)
        entry = _compare(ds.name, ds.transactions, min_support, fast, fast_itemsets)
        entry["dataset"] = ds.name
        if grid_support is not None:
            entry["stores_min_support"] = grid_support
            entry["stores"] = _store_grid(ds.name, ds.transactions, grid_support, stores)
        report["datasets"][name] = entry
    report["best_phase2_speedup"] = max(
        e["phase2_speedup"] for e in report["datasets"].values()
    )
    report["bitmap_phase2_speedup_vs_hashtree"] = {
        name: e["stores"]["bitmap"]["phase2_speedup_vs_hashtree"]
        for name, e in report["datasets"].items()
        if "bitmap" in e.get("stores", {})
    }
    with open(report_path(REPORT, smoke), "w") as f:
        json.dump(report, f, indent=2)
    return report


def check_report(report: dict) -> None:
    """The gate over a report (a fresh run, or the checked-in file).

    Equality of the itemsets — fast path vs paper dataflow, store vs
    store — is asserted while the legs run.  This checks what the report
    says about them: counts and host-independent ratios, declared next to
    the legs that produce them.
    """
    for name, entry in report["datasets"].items():
        fast = entry["fastpath"]["shuffle_records_total"]
        base = entry["baseline"]["shuffle_records_total"]
        assert fast == 0 < base, f"{name}: fastpath shuffled {fast} records, baseline {base}"
        digests = {entry[leg]["itemsets_sha256"] for leg in ("fastpath", "baseline")}
        assert len(digests) == 1, f"{name}: fast path and paper dataflow disagree"
        # pass 2 counts pairs off the rows: no C2 store is built or shipped
        pass2 = next(p for p in entry["fastpath"]["passes"] if p["k"] == 2)
        assert pass2["broadcast_bytes"] == 0, (
            f"{name}: the fast path's pass 2 broadcast {pass2['broadcast_bytes']}B"
        )
        if "stores" not in entry:
            continue
        counts = {s: rec["n_itemsets"] for s, rec in entry["stores"].items()}
        assert len(set(counts.values())) == 1, f"{name}: stores disagree: {counts}"
        bitmap = entry["stores"].get("bitmap")
        if bitmap is not None:
            # laid out once: Phase I, the encode round, then a job per pass
            assert bitmap["engine_jobs"] == bitmap["n_passes"] + 1, (
                f"{name}: bitmap ran {bitmap['engine_jobs']} engine jobs "
                f"for {bitmap['n_passes']} passes"
            )
            speedup = bitmap["phase2_speedup_vs_hashtree"]
            assert speedup >= MIN_BITMAP_SPEEDUP, (
                f"{name}: bitmap phase II {speedup}x the hash tree's, "
                f"floor {MIN_BITMAP_SPEEDUP}x"
            )
    best = report["best_phase2_speedup"]
    assert best >= MIN_FASTPATH_SPEEDUP, (
        f"fast path phase-II speedup {best}x < {MIN_FASTPATH_SPEEDUP}x"
    )


def test_fastpath(benchmark):
    report = benchmark.pedantic(run_fastpath_bench, rounds=1, iterations=1)
    check_report(report)
    benchmark.extra_info["best_phase2_speedup"] = report["best_phase2_speedup"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small dataset; assert fast-path invariants and exit",
    )
    parser.add_argument(
        "--stores",
        default=",".join(store_names()),
        help="comma-separated candidate stores for the ablation grid "
        "(default: every registered store)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the report just written with check_report()",
    )
    args = parser.parse_args(argv)
    stores = [s.strip() for s in args.stores.split(",") if s.strip()]
    for s in stores:
        get_store(s)  # unknown store names fail before any mining
    report = run_fastpath_bench(smoke=args.smoke, stores=stores)
    for name, entry in report["datasets"].items():
        print(
            f"{name}: phase2 {entry['baseline']['phase2_seconds']}s -> "
            f"{entry['fastpath']['phase2_seconds']}s "
            f"({entry['phase2_speedup']}x), allocated pairs "
            f"{entry['baseline']['allocated_pairs_total']} -> "
            f"{entry['fastpath']['allocated_pairs_total']} "
            f"({entry['allocated_pairs_reduction']}x fewer), "
            f"shuffle {entry['baseline']['shuffle_bytes_total']}B -> "
            f"{entry['fastpath']['shuffle_bytes_total']}B"
        )
        for store, rec in entry.get("stores", {}).items():
            print(
                f"  store {store:>9} @ sup={entry['stores_min_support']}: "
                f"phase2 {rec['phase2_seconds']}s "
                f"({rec['phase2_speedup_vs_hashtree']}x vs hashtree), "
                f"{rec['engine_jobs']} jobs / {rec['n_passes']} passes, "
                f"{rec['n_itemsets']} itemsets"
            )
    if args.check:
        check_report(report)
    print(f"fastpath ok: report -> {report_path(REPORT, args.smoke)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
