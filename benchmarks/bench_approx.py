"""Approximate fast tier vs exact YAFIM, plus the served closed loop.

The fast tier (``repro.core.approx``) trades the exact miner's k full
passes for ``n_samples`` independent samples mined at a relaxed
threshold plus ONE exact verification pass.  Two claims back it:

* **algorithmic**: on the dense seed datasets the fast tier is >= 3x
  faster than exact YAFIM at the paper's operating point (mushroom,
  sup 0.35) while reporting *recall 1.0* whenever its negative-border
  check verifies the run (``verified_exact``) — and *precision 1.0*
  unconditionally, because the verification pass counts every
  candidate against the full dataset;
* **served**: behind the serving tier, a closed loop of interactive
  submissions routed to the fast tier completes with p95 latency below
  the batch (exact) tier's p50 — the sub-second-interactive story.

The sweep mines each dataset exactly once (the oracle) and then at a
grid of sample sizes, recording wall-clock, recall/precision against
the oracle, and the provenance the miner reports (sample sizes, border
violations, verified flag).  ``BENCH_approx.json`` lands at the repo
root; :func:`check_report` is the gate over it and ``--check`` runs it.

Run standalone (CI uses ``--smoke --check``)::

    PYTHONPATH=src python benchmarks/bench_approx.py --smoke --check
    PYTHONPATH=src python benchmarks/bench_approx.py

or under pytest-benchmark along with the other figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from _envelope import REPO_ROOT, envelope

from repro.core.approx import ApproxMiner
from repro.core.registry import MiningConfig
from repro.core.yafim import Yafim
from repro.datasets import chess_like, mushroom_like
from repro.engine.context import Context
from repro.serve import MiningService

REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_approx.json")

BACKEND = "processes"
N_WORKERS = 2
N_PARTITIONS = 6
#: one sample per executor — phase 1 completes in a single round
N_SAMPLES = N_WORKERS
#: threshold relaxation r: mild, because the seed datasets' pattern
#: supports sit well away from the operating threshold — a deep
#: relaxation would only inflate the sample families (and with them the
#: verification pass) without buying extra safety
RATIO = 0.9
SEED = 7

#: sample sizes swept per dataset (fraction of the full transaction list)
SAMPLE_FRACS = (0.05, 0.1, 0.2)

#: serving closed loop: distinct supports -> distinct jobs (no memoization
#: inside a leg), submitted one at a time to an embedded service.
#: The band sits entirely inside the interactive-pain region around the
#: paper's mushroom operating point — the jobs the planner routes to the
#: fast tier; high-support jobs are cheap either way and would not be
#: routed, so including them would only dilute the batch tier's median
#: with jobs the fast tier never sees.
SERVE_SUPPORTS = (0.340, 0.342, 0.344, 0.346, 0.348, 0.350, 0.352, 0.354, 0.356, 0.358)


def _mine_exact(transactions, min_support: float):
    t0 = time.perf_counter()
    with Context(backend=BACKEND, parallelism=N_WORKERS) as ctx:
        result = Yafim(ctx, num_partitions=N_PARTITIONS).run(transactions, min_support)
    return time.perf_counter() - t0, result


def _mine_approx(transactions, min_support: float, sample_frac: float):
    t0 = time.perf_counter()
    with Context(backend=BACKEND, parallelism=N_WORKERS) as ctx:
        result = ApproxMiner(
            ctx,
            n_samples=N_SAMPLES,
            ratio=RATIO,
            sample_frac=sample_frac,
            seed=SEED,
            num_partitions=N_PARTITIONS,
            candidate_store="bitmap",
        ).run(transactions, min_support)
    return time.perf_counter() - t0, result


def _sweep_dataset(name: str, transactions, min_support: float) -> dict:
    """One dataset: the exact oracle run, then the sample-size grid."""
    exact_wall, exact = _mine_exact(transactions, min_support)
    oracle = exact.itemsets

    legs = []
    for frac in SAMPLE_FRACS:
        wall, result = _mine_approx(transactions, min_support, frac)
        found = set(result.itemsets) & set(oracle)
        recall = len(found) / len(oracle) if oracle else 1.0
        precision = len(found) / len(result.itemsets) if result.itemsets else 1.0

        # correctness invariants, independent of timing: the verification
        # pass counts on the full dataset, so everything reported is truly
        # frequent with its exact count (precision 1.0), and a verified
        # run missed nothing (recall 1.0)
        assert precision == 1.0, f"{name}@{frac}: precision {precision} < 1.0"
        for iset in found:
            assert result.itemsets[iset] == oracle[iset], (
                f"{name}@{frac}: approx count differs for {iset}"
            )
        if result.verified_exact:
            assert recall == 1.0, (
                f"{name}@{frac}: verified run with recall {recall} < 1.0"
            )

        legs.append(
            {
                "sample_frac": frac,
                "wall_seconds": round(wall, 4),
                "speedup_vs_exact": round(exact_wall / max(wall, 1e-9), 2),
                "recall": round(recall, 4),
                "precision": round(precision, 4),
                "n_itemsets": result.num_itemsets,
                "verified_exact": result.verified_exact,
                "border_violations": len(result.border_violations),
                "candidates_verified": result.candidates_verified,
                "sample_sizes": list(result.sample_sizes),
            }
        )
    return {
        "dataset": name,
        "min_support": min_support,
        "n_transactions": len(transactions),
        "n_samples": N_SAMPLES,
        "ratio": RATIO,
        "seed": SEED,
        "exact": {"wall_seconds": round(exact_wall, 4), "n_itemsets": exact.num_itemsets},
        "approx": legs,
    }


def _percentile(sorted_vals: list, q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def _served_config(support: float, approx: bool, sample_frac: float) -> MiningConfig:
    return MiningConfig(
        min_support=support,
        approx=approx,
        approx_samples=N_SAMPLES,
        approx_ratio=RATIO,
        sample_frac=sample_frac,
        backend=BACKEND,
        parallelism=N_WORKERS,
        num_partitions=N_PARTITIONS,
        candidate_store="bitmap",
        # options flow to the miner ctor; "seed" only exists on
        # the approx runner, exact YAFIM would reject it
        options={"seed": SEED} if approx else {},
    )


def _served_leg(transactions, supports, approx: bool, sample_frac: float) -> dict:
    """Closed-loop latency on an embedded service: one job at a
    time, a distinct support per job (so nothing memoizes inside the
    leg), a fresh service per leg (so the tiers share no cache).  One
    untimed warmup job (at a support outside the band) spawns the
    executor pool first, so the percentiles measure the steady state
    both tiers actually serve from rather than a one-off process-spawn
    that would land on whichever tier ran first."""
    latencies = []
    verified = 0
    with MiningService(n_workers=N_WORKERS) as svc:
        warm = svc.submit(transactions, _served_config(0.6, approx, sample_frac))
        warm.wait(600)
        assert warm.state.value == "done", warm.error
        for support in supports:
            config = _served_config(support, approx, sample_frac)
            t0 = time.perf_counter()
            job = svc.submit(transactions, config)
            job.wait(600)
            latencies.append(time.perf_counter() - t0)
            assert job.state.value == "done", (support, job.error)
            if getattr(job.result, "verified_exact", False):
                verified += 1
    ordered = sorted(latencies)
    return {
        "tier": "fast" if approx else "batch",
        "jobs": len(latencies),
        "verified_exact_jobs": verified,
        "mean_s": round(sum(latencies) / len(latencies), 5),
        "p50_s": round(_percentile(ordered, 0.50), 5),
        "p95_s": round(_percentile(ordered, 0.95), 5),
        "max_s": round(ordered[-1], 5),
    }


def run_approx_bench(smoke: bool = False) -> dict:
    datasets = {
        "mushroom": (mushroom_like(scale=0.1 if smoke else 0.8, seed=7), 0.35),
        "chess": (chess_like(scale=0.3 if smoke else 1.0, seed=7), 0.85),
    }
    report = {
        **envelope("approx", smoke),
        "backend": BACKEND,
        "n_workers": N_WORKERS,
        "n_partitions": N_PARTITIONS,
        "sample_fracs": list(SAMPLE_FRACS),
        "datasets": {},
    }
    for name, (ds, min_support) in datasets.items():
        report["datasets"][name] = _sweep_dataset(name, ds.transactions, min_support)

    # Headline claim: >= 3x over exact YAFIM on mushroom at sup 0.35 from
    # a leg that *also* proved itself exact (verified, recall 1.0).
    # Timing is only meaningful on the full-size run; --smoke records the
    # sweep (correctness asserted above) without gating on wall-clock.
    mushroom = report["datasets"]["mushroom"]
    verified_legs = [leg for leg in mushroom["approx"] if leg["verified_exact"]]
    report["mushroom_best_verified_speedup"] = max(
        (leg["speedup_vs_exact"] for leg in verified_legs), default=0.0
    )
    if not smoke:
        assert verified_legs, "mushroom: no sample size verified exact"
        for leg in verified_legs:
            assert leg["recall"] == 1.0, leg
        assert report["mushroom_best_verified_speedup"] >= 3.0, (
            f"fast tier {report['mushroom_best_verified_speedup']}x < 3x "
            "over exact YAFIM on mushroom"
        )

    # Served closed loop: the fast tier must beat the batch tier's
    # MEDIAN even at its own p95.  The service's warm executor pool
    # amortizes process startup for both tiers alike, which also shrinks
    # exact latency — so the leg runs on a 4x mushroom (the dense
    # generators draw rows i.i.d., so scale > 1 is a genuinely larger
    # same-distribution dataset).  At that size exact YAFIM's k full
    # passes dominate, while the fast tier still pays only its samples
    # plus ONE verification pass.
    serve_ds = mushroom_like(scale=0.1 if smoke else 4.0, seed=7)
    serve_frac = 0.1 if smoke else 0.05
    supports = SERVE_SUPPORTS[:3] if smoke else SERVE_SUPPORTS
    fast = _served_leg(serve_ds.transactions, supports, approx=True, sample_frac=serve_frac)
    batch = _served_leg(serve_ds.transactions, supports, approx=False, sample_frac=serve_frac)
    report["served"] = {
        "dataset": serve_ds.name,
        "n_transactions": len(serve_ds.transactions),
        "supports": list(supports),
        "fast": fast,
        "batch": batch,
        "fast_p95_below_batch_p50": fast["p95_s"] < batch["p50_s"],
    }
    if not smoke:
        assert fast["p95_s"] < batch["p50_s"], (
            f"fast tier p95 {fast['p95_s']}s >= batch p50 {batch['p50_s']}s"
        )

    with open(REPORT_PATH, "w") as f:
        json.dump(report, f, indent=2)
    return report


def check_report(report: dict) -> None:
    """The gate over a report (a fresh run, or the checked-in file).  The
    legs assert these while they run; this is what the report must say of
    them: everything reported is truly frequent, a verified run missed
    nothing, and both served tiers finished the same jobs."""
    for name, entry in report["datasets"].items():
        for leg in entry["approx"]:
            assert leg["precision"] == 1.0, (name, leg)
            if leg["verified_exact"]:
                assert leg["recall"] == 1.0, (name, leg)
    served = report["served"]
    assert served["fast"]["jobs"] == served["batch"]["jobs"] > 0, served


def test_approx(benchmark):
    report = benchmark.pedantic(run_approx_bench, rounds=1, iterations=1)
    check_report(report)
    benchmark.extra_info["mushroom_best_verified_speedup"] = report[
        "mushroom_best_verified_speedup"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small datasets; assert correctness invariants and exit",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate the report just written with check_report()",
    )
    args = parser.parse_args(argv)
    report = run_approx_bench(smoke=args.smoke)
    for name, entry in report["datasets"].items():
        print(
            f"{name} @ sup={entry['min_support']}: exact "
            f"{entry['exact']['wall_seconds']}s, "
            f"{entry['exact']['n_itemsets']} itemsets"
        )
        for leg in entry["approx"]:
            flag = "verified" if leg["verified_exact"] else (
                f"{leg['border_violations']} border violation(s)"
            )
            print(
                f"  frac={leg['sample_frac']}: {leg['wall_seconds']}s "
                f"({leg['speedup_vs_exact']}x), recall {leg['recall']}, "
                f"precision {leg['precision']}, {flag}"
            )
    served = report["served"]
    print(
        f"served ({served['dataset']}, {served['fast']['jobs']} jobs/tier): "
        f"fast p50={served['fast']['p50_s']}s p95={served['fast']['p95_s']}s | "
        f"batch p50={served['batch']['p50_s']}s p95={served['batch']['p95_s']}s"
    )
    if args.check:
        check_report(report)
    print(f"approx ok: report -> {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
