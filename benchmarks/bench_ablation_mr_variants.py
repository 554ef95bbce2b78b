"""Ablation A4 — SPC vs FPC vs DPC job-combining strategies (related work).

Lin et al.'s variants trade MapReduce job count against speculative
candidate volume.  All three must produce identical itemsets; FPC/DPC run
fewer jobs (fewer startups in replay) but count more candidates per job.
"""

from __future__ import annotations

from conftest import write_report
from repro.bench.harness import replay_mr
from repro.bench.reporting import format_table
from repro.cluster import PAPER_CLUSTER
from repro.core import DPC, FPC, SPC
from repro.datasets import mushroom_like
from repro.hdfs import MiniDfs
from repro.mapreduce import JobRunner


def _run_variants():
    ds = mushroom_like(scale=0.06, seed=7)
    out = {}
    with MiniDfs(n_datanodes=3, block_size=16 * 1024, replication=2) as dfs:
        ds.write_to_dfs(dfs, "/t.txt")
        for label, factory in (
            ("SPC", lambda r: SPC(r)),
            ("FPC(3)", lambda r: FPC(r, passes=3)),
            ("DPC", lambda r: DPC(r, candidate_budget=20_000)),
        ):
            runner = JobRunner(dfs)
            result = factory(runner).run("/t.txt", 0.35)
            out[label] = (result, runner.jobs_run)
    return out


def test_ablation_mr_variants(benchmark):
    results = benchmark.pedantic(_run_variants, rounds=1, iterations=1)

    spc_itemsets = results["SPC"][0].itemsets
    rows = []
    for label, (res, jobs) in results.items():
        assert res.itemsets == spc_itemsets, f"{label} output differs"
        candidates = sum(it.n_candidates for it in res.iterations if it.n_candidates > 0)
        rows.append(
            (label, jobs, candidates, res.total_seconds, replay_mr(res, PAPER_CLUSTER))
        )
    table = format_table(
        ["variant", "MR jobs", "candidates counted", "measured (s)", "replayed (s)"],
        rows,
        title="Ablation A4 — MapReduce level-combining strategies",
    )
    write_report("ablation_mr_variants", table)

    jobs = {label: j for label, (_r, j) in results.items()}
    cands = {
        label: sum(it.n_candidates for it in r.iterations if it.n_candidates > 0)
        for label, (r, _j) in results.items()
    }
    # combining levels must reduce job count and increase candidate volume
    assert jobs["FPC(3)"] < jobs["SPC"]
    assert cands["FPC(3)"] >= cands["SPC"]
    # fewer jobs -> fewer startup penalties in the replay
    replayed = {label: replay_mr(r, PAPER_CLUSTER) for label, (r, _j) in results.items()}
    assert replayed["FPC(3)"] < replayed["SPC"]
    benchmark.extra_info["jobs"] = jobs
