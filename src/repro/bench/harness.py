"""Experiment harness: paired YAFIM/MRApriori runs and cluster replays.

This is the machinery behind every table and figure benchmark:

* :func:`run_comparison` executes YAFIM and MRApriori on the *same*
  mini-DFS transaction file (serial backends, so per-task timings are
  interference-free), asserts the outputs are identical — the paper's
  correctness claim — and returns both measurement trails.
* :func:`replay_yafim` / :func:`replay_mr` project a run's measured task
  records onto a :class:`~repro.cluster.model.ClusterSpec`, which is how
  the sizeup (Fig. 4) and node-speedup (Fig. 5) curves are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.model import ClusterSpec
from repro.cluster.simulation import (
    simulate_mr_stage,
    simulate_spark_run,
    SimulatedStage,
)
from repro.core.mrapriori import MRApriori
from repro.core.results import MiningRunResult
from repro.core.yafim import Yafim
from repro.datasets.transactions import TransactionDataset
from repro.engine.context import Context
from repro.hdfs.filesystem import MiniDfs
from repro.mapreduce.runner import JobRunner


@dataclass
class ComparisonRun:
    """Paired measurement of both systems on one dataset."""

    dataset_name: str
    min_support: float
    yafim: MiningRunResult
    mrapriori: MiningRunResult

    @property
    def outputs_match(self) -> bool:
        return self.yafim.itemsets == self.mrapriori.itemsets

    @property
    def traces(self) -> list:
        """Both runs' tracers (YAFIM first), ready for chrome-trace export."""
        return [t for t in (self.yafim.trace, self.mrapriori.trace) if t is not None]

    @property
    def total_speedup(self) -> float:
        return self.mrapriori.total_seconds / max(self.yafim.total_seconds, 1e-9)

    def per_pass(self) -> list[tuple[int, float, float, float]]:
        """(k, mr_seconds, yafim_seconds, speedup) per common pass."""
        mr = dict(self.mrapriori.per_iteration_seconds())
        ya = dict(self.yafim.per_iteration_seconds())
        out = []
        for k in sorted(set(mr) & set(ya)):
            out.append((k, mr[k], ya[k], mr[k] / max(ya[k], 1e-9)))
        return out


def run_comparison(
    dataset: TransactionDataset,
    min_support: float,
    num_partitions: int = 4,
    mr_reducers: int = 2,
    dfs_block_size: int = 256 * 1024,
    max_length: int | None = None,
    check_equal: bool = True,
    yafim_kwargs: dict | None = None,
    mr_kwargs: dict | None = None,
) -> ComparisonRun:
    """Run both systems on ``dataset`` at ``min_support`` and pair results."""
    with MiniDfs(n_datanodes=4, block_size=dfs_block_size, replication=2) as dfs:
        dataset.write_to_dfs(dfs, "/transactions.txt")

        with Context(backend="serial") as ctx:
            miner = Yafim(ctx, num_partitions=num_partitions, **(yafim_kwargs or {}))
            yafim_result = miner.run_text_file(
                dfs, "/transactions.txt", min_support, max_length=max_length
            )

        runner = JobRunner(dfs)
        mr = MRApriori(runner, num_reducers=mr_reducers, **(mr_kwargs or {}))
        mr_result = mr.run("/transactions.txt", min_support, max_length=max_length)

    run = ComparisonRun(
        dataset_name=dataset.name,
        min_support=min_support,
        yafim=yafim_result,
        mrapriori=mr_result,
    )
    if check_equal and not run.outputs_match:
        only_y = set(yafim_result.itemsets) - set(mr_result.itemsets)
        only_m = set(mr_result.itemsets) - set(yafim_result.itemsets)
        raise AssertionError(
            f"YAFIM and MRApriori disagree on {dataset.name}: "
            f"{len(only_y)} only-YAFIM, {len(only_m)} only-MR"
        )
    return run


# ---------------------------------------------------------------------------
# Cluster replays
# ---------------------------------------------------------------------------
def replay_yafim(result: MiningRunResult, spec: ClusterSpec) -> float:
    """Projected total seconds of a YAFIM run on ``spec``.

    Stage compute is the list-scheduled makespan of measured task
    durations; the per-iteration broadcast is charged as one value
    transfer per node.
    """
    return sum(t for _k, t in replay_yafim_per_pass(result, spec))


def replay_yafim_per_pass(result: MiningRunResult, spec: ClusterSpec) -> list[tuple[int, float]]:
    out = []
    for it in result.iterations:
        t = simulate_spark_run(it.stage_records, spec).total_s
        # broadcast: one transfer per node; closure shipping (the ablated
        # alternative): one transfer per task
        t += spec.network_seconds(it.broadcast_bytes * spec.nodes)
        t += spec.network_seconds(it.closure_bytes)
        out.append((it.k, t))
    return out


def replay_mr(result: MiningRunResult, spec: ClusterSpec) -> float:
    """Projected total seconds of a MapReduce run on ``spec``.

    Every iteration that carries stage records is one real job (startup +
    map + reduce); FPC/DPC iterations amortized into a combined job carry
    no records and charge nothing extra.
    """
    return sum(t for _k, t in replay_mr_per_pass(result, spec))


def replay_mr_per_pass(result: MiningRunResult, spec: ClusterSpec) -> list[tuple[int, float]]:
    out = []
    for it in result.iterations:
        if not it.stage_records:
            out.append((it.k, 0.0))
            continue
        stages: list[SimulatedStage] = [
            simulate_mr_stage(rec, spec) for rec in it.stage_records
        ]
        total = spec.mr_job_startup_s + sum(s.total_s for s in stages)
        out.append((it.k, total))
    return out


def sizeup_series(
    make_dataset,
    min_support: float,
    factors: list[int],
    spec: ClusterSpec,
    num_partitions: int = 4,
    max_length: int | None = None,
    dfs_block_size: int = 32 * 1024,
) -> list[tuple[int, float, float]]:
    """(factor, mr_seconds, yafim_seconds) for each replication factor.

    ``make_dataset()`` builds the base dataset; each factor runs both
    systems on the replicated data and replays onto the fixed ``spec``
    (the paper fixes 48 cores for Fig. 4).  A small DFS block size keeps
    the split count — and therefore the per-task MapReduce overhead —
    growing with the data, as it does at cluster scale.
    """
    base = make_dataset()
    out = []
    for factor in factors:
        ds = base.replicated(factor) if factor > 1 else base
        run = run_comparison(
            ds,
            min_support,
            num_partitions=num_partitions,
            max_length=max_length,
            dfs_block_size=dfs_block_size,
        )
        out.append((factor, replay_mr(run.mrapriori, spec), replay_yafim(run.yafim, spec)))
    return out


def speedup_series(
    run: ComparisonRun,
    base_spec: ClusterSpec,
    node_counts: list[int],
) -> list[tuple[int, float, float]]:
    """(total_cores, mr_seconds, yafim_seconds) for each node count."""
    out = []
    for n in node_counts:
        spec = base_spec.with_nodes(n)
        out.append(
            (spec.total_cores, replay_mr(run.mrapriori, spec), replay_yafim(run.yafim, spec))
        )
    return out
