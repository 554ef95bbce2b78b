"""Executor task-shipping economics — persistent workers vs per-task pickling.

The process backend used to re-pickle the full task graph — broadcast
hash tree included — for every task.  With persistent workers and the
worker-resident block store (:mod:`repro.engine.workerstore`), a task
ships as a small closure blob plus block *references*; each named block
crosses the IPC channel at most once per worker.  This benchmark runs
the same YAFIM workload on every backend and records:

* wall time per backend,
* serialized bytes shipped per iteration (``IterationStats.shipped_bytes``),
* the processes backend's shipping ledger, including ``naive_block_bytes``
  — what the seed's embed-everything-per-task strategy would have moved,
* task-closure bytes per job (``task_bytes_per_job``): after the first
  job every closure must stay below one partition's pickled size — data
  ships as blocks, once per worker, never inside a task batch,

then writes ``BENCH_executor_shipping.json`` at the repo root (a
``--smoke`` run: under the git-ignored ``benchmarks/out/``).

Run standalone (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_executor_shipping.py --smoke

or under pytest-benchmark along with the other figures.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time

from _envelope import envelope, report_path

from repro.core.yafim import Yafim
from repro.datasets import mushroom_like
from repro.engine.context import Context
from repro.engine.executors import BACKENDS

REPORT = "BENCH_executor_shipping.json"

N_WORKERS = 2
N_PARTITIONS = 6  # > workers, so per-task shipping would multiply bytes


def _mine(backend: str, transactions, min_support: float) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    with Context(backend=backend, parallelism=N_WORKERS) as ctx:
        ship = getattr(ctx.executor, "shipping_metrics", None)
        task_bytes_per_job = []
        if ship is not None:
            run_job = ctx.run_job

            def metered_run_job(*args, **kwargs):
                before = ship.task_bytes
                try:
                    return run_job(*args, **kwargs)
                finally:
                    task_bytes_per_job.append(ship.task_bytes - before)

            ctx.run_job = metered_run_job
        result = Yafim(ctx, num_partitions=N_PARTITIONS).run(transactions, min_support)
        wall = time.perf_counter() - t0
        record = {
            "backend": backend,
            "wall_seconds": round(wall, 4),
            "n_itemsets": result.num_itemsets,
            "iterations": [
                {"k": it.k, "shipped_bytes": it.shipped_bytes}
                for it in result.iterations
            ],
            "total_shipped_bytes": sum(it.shipped_bytes for it in result.iterations),
        }
        if ship is not None:
            record["shipping"] = {
                "task_bytes": ship.task_bytes,
                "block_bytes_pushed": ship.block_bytes_pushed,
                "block_bytes_pulled": ship.block_bytes_pulled,
                "blocks_pushed": ship.blocks_pushed,
                "blocks_pulled": ship.blocks_pulled,
                "ref_requests": ship.ref_requests,
                "dedup_hits": ship.dedup_hits,
                "dedup_hit_rate": round(ship.dedup_hit_rate, 4),
                "broadcast_blocks_shipped": ship.broadcast_blocks_shipped,
                "broadcast_bytes_shipped": ship.broadcast_bytes_shipped,
                "broadcast_unique_blocks": ship.broadcast_unique_blocks,
                "broadcast_payload_bytes": ship.broadcast_payload_bytes,
                "naive_block_bytes": ship.naive_block_bytes,
                "worker_store_evictions": ship.worker_store_evictions,
                "task_bytes_per_job": task_bytes_per_job,
            }
        return record, result.itemsets


def run_shipping_bench(smoke: bool = False) -> dict:
    # smoke stays large enough that one partition (~5 KB pickled) clearly
    # outweighs a stage's ~3 KB of pickled task descriptors and functions
    scale = 0.08 if smoke else 0.12
    ds = mushroom_like(scale=scale, seed=7)
    min_support = 0.35

    records = {}
    itemsets = {}
    for backend in BACKENDS:
        records[backend], itemsets[backend] = _mine(
            backend, ds.transactions, min_support
        )

    # Correctness: every backend mines the same itemsets.
    for backend in BACKENDS[1:]:
        assert itemsets[backend] == itemsets[BACKENDS[0]], (
            f"{backend} itemsets differ from {BACKENDS[0]}"
        )

    ship = records["processes"]["shipping"]

    # Zero-redundancy claim: each broadcast payload crosses the IPC channel
    # at most once per worker — bytes scale with workers, not tasks.
    assert ship["broadcast_blocks_shipped"] <= (
        ship["broadcast_unique_blocks"] * N_WORKERS
    ), f"broadcast shipped more than once per worker: {ship}"
    assert ship["broadcast_bytes_shipped"] <= (
        ship["broadcast_payload_bytes"] * N_WORKERS
    ), f"broadcast bytes exceed payload x workers: {ship}"

    # Economy claim: actual block bytes moved beat the seed's per-task
    # embedding model (every referenced block re-serialized per task).
    actual_block_bytes = ship["block_bytes_pushed"] + ship["block_bytes_pulled"]
    assert actual_block_bytes < ship["naive_block_bytes"], (
        f"reference shipping ({actual_block_bytes}B) did not beat per-task "
        f"embedding ({ship['naive_block_bytes']}B)"
    )

    # Ship-once claim: no data rides in a task closure.  Every job after
    # the first (which may still carry the un-cached lineage) ships less
    # closure than ONE partition of the input would pickle to.
    one_partition = len(pickle.dumps(ds.transactions[: len(ds.transactions) // N_PARTITIONS]))
    later_jobs = ship["task_bytes_per_job"][1:]
    assert later_jobs and max(later_jobs) < one_partition, (
        f"a task closure outgrew one partition ({one_partition}B): {later_jobs}"
    )

    report = {
        **envelope("executor_shipping", smoke),
        "n_workers": N_WORKERS,
        "n_partitions": N_PARTITIONS,
        "dataset": f"mushroom_like(scale={scale})",
        "min_support": min_support,
        "backends": records,
        "one_partition_pickled_bytes": one_partition,
        "bytes_saved_vs_per_task": ship["naive_block_bytes"] - actual_block_bytes,
        "ship_reduction_factor": round(
            ship["naive_block_bytes"] / max(1, actual_block_bytes), 2
        ),
    }
    with open(report_path(REPORT, smoke), "w") as f:
        json.dump(report, f, indent=2)
    return report


def test_executor_shipping(benchmark):
    report = benchmark.pedantic(run_shipping_bench, rounds=1, iterations=1)
    benchmark.extra_info["ship_reduction_factor"] = report["ship_reduction_factor"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset; assert shipping invariants and exit",
    )
    args = parser.parse_args(argv)
    report = run_shipping_bench(smoke=args.smoke)
    procs = report["backends"]["processes"]
    print(
        f"executor shipping ok: saved {report['bytes_saved_vs_per_task']}B "
        f"({report['ship_reduction_factor']}x less than per-task embedding), "
        f"dedup_hit_rate={procs['shipping']['dedup_hit_rate']}, "
        f"report -> {report_path(REPORT, args.smoke)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
