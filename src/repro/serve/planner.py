"""Cost-based planner: pick engine knobs per job from dataset statistics.

Aouad et al.'s study of distributed Apriori variants (PAPERS.md) shows
job cost swinging by orders of magnitude with dataset shape and support
threshold — which is why ``backend`` / ``num_partitions`` /
``candidate_store`` should be chosen *per job*, not fixed at deploy
time.  :class:`CostPlanner` does exactly that:

1. summarize the dataset once per fingerprint (:class:`DatasetStats`:
   transaction count, average width, distinct items);
2. estimate the job's work from an Apriori-shaped model — passes grow
   with ``log2(1/min_support)``, candidate pressure with
   ``density / min_support`` — and convert work to seconds through a
   :class:`~repro.cluster.model.ClusterSpec` replay of the serving
   host (task overheads + byte costs), scaled by a **calibrated**
   per-unit cost;
3. choose knobs the caller did not pin: ``serial`` below the executor
   break-even point, ``threads`` above it, ``processes`` only for jobs
   long enough to amortize worker spin-up; partitions sized to a target
   per-partition runtime; the bitmap store on dense datasets (where the
   vertical kernel wins, per ``BENCH_fastpath.json``).

Calibration closes the loop: the router reports each completed job's
measured runtime via :meth:`CostPlanner.observe`, and the planner EWMA-
blends ``actual / estimated_units`` into its per-unit cost, so estimates
track the actual host instead of a guessed constant.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

from repro.cluster.model import ClusterSpec
from repro.core.registry import MiningConfig, runs_on_engine
from repro.serve.cache import dataset_fingerprint

#: The serving host modeled as a one-node cluster: all "shuffle" traffic
#: is in-process (charged at loopback-ish bandwidth), and task overhead
#: is the engine's per-task scheduling cost, not a JVM launch.
LOCAL_CLUSTER = ClusterSpec(
    nodes=1,
    cores_per_node=max(2, os.cpu_count() or 2),
    disk_read_mbps=500.0,
    disk_write_mbps=400.0,
    network_mbps=4000.0,
    spark_task_overhead_s=0.002,
)

#: MiningConfig fields the planner is allowed to choose.
PLANNABLE_FIELDS = ("backend", "num_partitions", "candidate_store", "approx")

#: Config defaults used to infer pinning: a caller who set a field away
#: from its default has expressed intent, and the planner must not
#: override it.
_DEFAULTS = {f.name: f.default for f in fields(MiningConfig) if f.name in PLANNABLE_FIELDS}


@dataclass(frozen=True)
class DatasetStats:
    """The planner's view of a dataset: size and shape, not content."""

    n_transactions: int
    avg_width: float
    distinct_items: int

    @property
    def total_items(self) -> int:
        return round(self.n_transactions * self.avg_width)

    @property
    def density(self) -> float:
        """Average fraction of the item vocabulary present per transaction
        — the knob that separates chess/mushroom (dense, bitmap-friendly)
        from retail-like sparse data."""
        if self.distinct_items <= 0:
            return 0.0
        return min(1.0, self.avg_width / self.distinct_items)

    @classmethod
    def from_transactions(cls, transactions, sample_cap: int = 4096) -> "DatasetStats":
        """Summarize ``transactions``; item vocabulary is estimated from a
        prefix sample of ``sample_cap`` transactions so stats stay O(items
        scanned) even for very large submissions."""
        n = len(transactions)
        if n == 0:
            return cls(0, 0.0, 0)
        total = sum(len(t) for t in transactions)
        sample = transactions if n <= sample_cap else transactions[:sample_cap]
        distinct = len({item for txn in sample for item in txn})
        return cls(n_transactions=n, avg_width=total / n, distinct_items=distinct)


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: the estimate and what was chosen because of it."""

    fingerprint: str
    stats: DatasetStats
    work_units: float
    estimated_seconds: float
    chosen: dict
    pinned: tuple
    reason: str
    #: True when the planner rerouted this job to the approximate fast
    #: tier (the caller did not ask for approximation)
    routed_fast: bool = False

    def snapshot(self) -> dict:
        return {
            "estimated_seconds": round(self.estimated_seconds, 4),
            "chosen": dict(self.chosen),
            "pinned": sorted(self.pinned),
            "reason": self.reason,
            "routed_fast": self.routed_fast,
        }


class CostPlanner:
    """Estimate job cost and fill unpinned engine knobs accordingly.

    Parameters
    ----------
    spec:
        Hardware model used to convert estimated work into seconds
        (defaults to :data:`LOCAL_CLUSTER`, a one-node view of the host).
    unit_cost_s:
        Seconds per abstract work unit before any calibration; refined by
        :meth:`observe` as jobs complete.
    serial_cutoff_s / processes_cutoff_s:
        Backend break-even points: below the first an executor pool costs
        more than it saves (-> ``serial``); above the second the job is
        long enough to amortize process workers (-> ``processes``).
    target_partition_s:
        Desired per-partition runtime; partition count is estimated
        seconds over this, clamped to ``[1, 4 * cores]``.
    dense_store_threshold:
        Density at or above which the bitmap candidate store is chosen.
    approx_cutoff_s / interactive_priority:
        Fast-tier routing: an *interactive* job (``priority <=
        interactive_priority``) whose exact estimate is at least
        ``approx_cutoff_s`` runs approximately (``approx=True``) unless
        the caller pinned the knob — sampling trades the k level-wise
        passes for one verification pass, which is exactly the trade an
        interactive caller wants.  ``approx_cutoff_s=None`` (the
        default) disables fast-tier routing: approximate answers can
        drop itemsets (``verified_exact=False``), so silently rerouting
        callers who never asked for approximation is an *operator*
        decision, opted into by setting a cutoff.  A reroute is stamped
        on the decision as ``routed_fast`` (and in the job snapshot's
        ``fast_tier`` field), not buried in provenance.
    """

    def __init__(
        self,
        spec: ClusterSpec = LOCAL_CLUSTER,
        *,
        unit_cost_s: float = 2e-7,
        serial_cutoff_s: float = 0.25,
        processes_cutoff_s: float = 30.0,
        target_partition_s: float = 0.2,
        dense_store_threshold: float = 0.25,
        approx_cutoff_s: float | None = None,
        interactive_priority: int = 0,
        calibration_alpha: float = 0.3,
        stats_cache_entries: int = 1024,
    ):
        self.spec = spec
        self.serial_cutoff_s = serial_cutoff_s
        self.processes_cutoff_s = processes_cutoff_s
        self.target_partition_s = target_partition_s
        self.dense_store_threshold = dense_store_threshold
        self.approx_cutoff_s = approx_cutoff_s
        self.interactive_priority = interactive_priority
        self.calibration_alpha = calibration_alpha
        self._lock = threading.Lock()
        self._unit_cost_s = unit_cost_s
        self._observations = 0
        self._stats: OrderedDict[str, DatasetStats] = OrderedDict()
        self._stats_cache_entries = stats_cache_entries
        self.plans = 0

    # -- statistics --------------------------------------------------------
    @property
    def unit_cost_s(self) -> float:
        with self._lock:
            return self._unit_cost_s

    @property
    def observations(self) -> int:
        with self._lock:
            return self._observations

    def stats_for(self, transactions, fingerprint: str | None = None) -> DatasetStats:
        """Per-fingerprint-memoized :meth:`DatasetStats.from_transactions`."""
        fp = fingerprint or dataset_fingerprint(transactions)
        with self._lock:
            stats = self._stats.get(fp)
            if stats is not None:
                self._stats.move_to_end(fp)
                return stats
        stats = DatasetStats.from_transactions(transactions)
        with self._lock:
            self._stats[fp] = stats
            while len(self._stats) > self._stats_cache_entries:
                self._stats.popitem(last=False)
        return stats

    # -- cost model --------------------------------------------------------
    def work_units(self, stats: DatasetStats, config: MiningConfig) -> float:
        """Abstract work for one run: items scanned x passes x candidate
        pressure.  Passes grow with ``log2(1/minsup)`` (deeper lattices at
        lower support); pressure with ``density / minsup`` (denser data
        and lower thresholds both blow up the candidate count)."""
        if stats.n_transactions == 0:
            return 0.0
        minsup = max(config.min_support, 1e-6)
        passes = min(8.0, 2.0 + math.log2(1.0 / minsup))
        if config.max_length is not None:
            passes = min(passes, float(config.max_length))
        pressure = min(100.0, stats.density / minsup)
        return stats.total_items * passes * (1.0 + pressure)

    def estimate_seconds(self, stats: DatasetStats, config: MiningConfig) -> float:
        """Calibrated runtime estimate: CPU work plus the cluster-model
        replay of per-pass data movement and task overheads."""
        units = self.work_units(stats, config)
        if units == 0.0:
            return 0.0
        minsup = max(config.min_support, 1e-6)
        passes = min(8.0, 2.0 + math.log2(1.0 / minsup))
        nbytes = stats.total_items * 8  # dict-encoded ints
        seconds = units * self.unit_cost_s
        seconds += passes * self.spec.network_seconds(nbytes)
        partitions = config.num_partitions or self.spec.total_cores
        seconds += passes * partitions * self.spec.spark_task_overhead_s
        if config.approx:
            # The fast tier mines n_samples databases of sample_frac the
            # size (full lattice depth, tiny data) and makes ONE full
            # pass instead of `passes` — scale the exact estimate by the
            # fraction of full-data scans that remain.
            scanned = config.approx_samples * config.sample_frac + 1.0
            seconds *= min(1.0, scanned / passes)
        return seconds

    # -- planning ----------------------------------------------------------
    def plan(
        self,
        transactions,
        config: MiningConfig,
        *,
        pinned=(),
        fingerprint: str | None = None,
        priority: int = 0,
    ) -> tuple[MiningConfig, PlanDecision]:
        """Return ``(config', decision)`` with unpinned knobs chosen.

        A knob is pinned — left exactly as the caller set it — when it is
        named in ``pinned`` or when its value differs from the
        :class:`MiningConfig` default (an explicit choice).  A config that
        does not run on the engine
        (:func:`~repro.core.registry.runs_on_engine`: the sequential
        oracles, the MapReduce baselines, the incremental tier) passes
        through unplanned — ``backend`` means something else there, or
        nothing.
        ``priority`` feeds fast-tier routing (interactive jobs only).
        """
        fp = fingerprint or dataset_fingerprint(transactions)
        stats = self.stats_for(transactions, fp)
        pinned_set = set(pinned) & set(PLANNABLE_FIELDS)
        for field_name, default in _DEFAULTS.items():
            if getattr(config, field_name) != default:
                pinned_set.add(field_name)

        if not runs_on_engine(config):
            tier = "the incremental tier" if config.incremental else config.algorithm
            decision = PlanDecision(
                fingerprint=fp, stats=stats, work_units=0.0, estimated_seconds=0.0,
                chosen={}, pinned=tuple(sorted(pinned_set)),
                reason=f"{tier} does not run on the engine",
            )
            return config, decision

        units = self.work_units(stats, config)
        est = self.estimate_seconds(stats, config)
        chosen: dict = {}

        routed_fast = False
        if (
            "approx" not in pinned_set
            and self.approx_cutoff_s is not None
            and priority <= self.interactive_priority
            and est >= self.approx_cutoff_s
        ):
            # interactive + expensive: route to the sampling fast tier
            # and re-estimate the now-cheaper job for the knobs below
            chosen["approx"] = True
            config = replace(config, approx=True)
            est = self.estimate_seconds(stats, config)
            routed_fast = True

        if "backend" not in pinned_set:
            if est < self.serial_cutoff_s:
                chosen["backend"] = "serial"
            elif est < self.processes_cutoff_s:
                chosen["backend"] = "threads"
            else:
                chosen["backend"] = "processes"
        if "num_partitions" not in pinned_set:
            backend = chosen.get("backend", config.backend)
            if backend == "serial":
                chosen["num_partitions"] = 1
            else:
                want = math.ceil(est / self.target_partition_s)
                chosen["num_partitions"] = max(1, min(want, 4 * self.spec.total_cores))
        if "candidate_store" not in pinned_set:
            if stats.density >= self.dense_store_threshold:
                chosen["candidate_store"] = "bitmap"

        planned = replace(config, **chosen) if chosen else config
        with self._lock:
            self.plans += 1
        decision = PlanDecision(
            fingerprint=fp,
            stats=stats,
            work_units=units,
            estimated_seconds=est,
            chosen=chosen,
            pinned=tuple(sorted(pinned_set)),
            reason=(
                f"est {est:.3g}s over {stats.n_transactions} txns "
                f"(width {stats.avg_width:.1f}, density {stats.density:.2f})"
                + (" -> approx fast tier" if routed_fast else "")
            ),
            routed_fast=routed_fast,
        )
        return planned, decision

    # -- calibration -------------------------------------------------------
    def observe(self, decision: PlanDecision, actual_seconds: float) -> None:
        """Fold one measured runtime into the per-unit cost (EWMA)."""
        if decision.work_units <= 0 or actual_seconds <= 0:
            return
        observed_unit = actual_seconds / decision.work_units
        with self._lock:
            alpha = self.calibration_alpha
            self._unit_cost_s = (1 - alpha) * self._unit_cost_s + alpha * observed_unit
            self._observations += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "plans": self.plans,
                "observations": self._observations,
                "unit_cost_s": self._unit_cost_s,
                "stats_cached": len(self._stats),
            }


__all__ = [
    "CostPlanner",
    "DatasetStats",
    "LOCAL_CLUSTER",
    "PLANNABLE_FIELDS",
    "PlanDecision",
]
