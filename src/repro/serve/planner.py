"""Serve-tier planner: two fixed rules for the knobs a caller left alone,
and the opt-in fast-tier reroute.

Measured on every generator in the tree, the ``bitmap`` store beats the
hash tree, one serial partition beats the default split, and no executor
backend beats ``serial`` (``docs/serving.md`` "Cost-based planning").
So :class:`CostPlanner` sets ``candidate_store="bitmap"``, and
``num_partitions=1`` when the backend is ``serial``, on every knob the
caller did not pin — and never chooses a ``backend``.

The cost estimate feeds only the fast-tier reroute: work units from the
dataset's :class:`DatasetStats` (memoized per fingerprint) times a
per-unit cost that :meth:`CostPlanner.observe` calibrates — an EWMA of
``actual / estimated_units`` over the jobs that ran.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace

from repro.core.registry import MiningConfig, runs_on_engine
from repro.serve.cache import dataset_fingerprint

#: MiningConfig fields the planner is allowed to choose.
PLANNABLE_FIELDS = ("num_partitions", "candidate_store", "approx")

#: Config defaults used to infer pinning: a caller who set a field away
#: from its default has expressed intent, and the planner must not
#: override it.
_DEFAULTS = {f.name: f.default for f in fields(MiningConfig) if f.name in PLANNABLE_FIELDS}

#: a submit at this priority or below is interactive: the only kind the
#: fast tier may take
INTERACTIVE_PRIORITY = 0

#: datasets whose statistics the planner keeps, least recently planned out first
STATS_CACHE_ENTRIES = 1024


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
        — the knob that separates chess/mushroom (dense) from retail-like
        sparse data."""
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
    """One planning outcome: the estimate and what was chosen."""

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


def _passes(config: MiningConfig) -> float:
    """Level-wise passes the model expects: deeper lattices at lower support."""
    passes = min(8.0, 2.0 + math.log2(1.0 / max(config.min_support, 1e-6)))
    if config.max_length is not None:
        passes = min(passes, float(config.max_length))
    return passes


class CostPlanner:
    """Fill unpinned engine knobs by two fixed rules; estimate job cost for
    the fast-tier reroute.

    Parameters
    ----------
    unit_cost_s:
        Seconds per abstract work unit before any calibration; refined by
        :meth:`observe` as jobs complete.
    approx_cutoff_s:
        Fast-tier routing: an *interactive* job (``priority <=``
        :data:`INTERACTIVE_PRIORITY`) whose exact estimate is at least
        this runs approximately (``approx=True``) unless the caller
        pinned the knob.  ``None`` (the default) disables it: an
        approximate answer can drop itemsets, so rerouting callers who
        never asked for one is an operator's opt-in.  A reroute is
        stamped on the decision as ``routed_fast`` (and on the job
        snapshot as ``fast_tier``).
    calibration_alpha:
        EWMA weight of one observed runtime in the per-unit cost.
    """

    def __init__(
        self,
        *,
        unit_cost_s: float = 2e-7,
        approx_cutoff_s: float | None = None,
        calibration_alpha: float = 0.3,
    ):
        self.approx_cutoff_s = approx_cutoff_s
        self.calibration_alpha = calibration_alpha
        self._lock = threading.Lock()
        self._unit_cost_s = unit_cost_s
        self._observations = 0
        self._stats: OrderedDict[str, DatasetStats] = OrderedDict()
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
            while len(self._stats) > STATS_CACHE_ENTRIES:
                self._stats.popitem(last=False)
        return stats

    # -- cost model --------------------------------------------------------
    def work_units(self, stats: DatasetStats, config: MiningConfig) -> float:
        """Abstract work for one run: items scanned x passes x candidate
        pressure (``density / minsup``: denser data and lower thresholds
        both blow up the candidate count)."""
        if stats.n_transactions == 0:
            return 0.0
        pressure = min(100.0, stats.density / max(config.min_support, 1e-6))
        return stats.total_items * _passes(config) * (1.0 + pressure)

    def estimate_seconds(self, stats: DatasetStats, config: MiningConfig) -> float:
        """Calibrated runtime estimate: work units x the per-unit cost."""
        seconds = self.work_units(stats, config) * self.unit_cost_s
        if config.approx:
            # The fast tier mines n_samples databases of sample_frac the
            # size (full lattice depth, tiny data) and makes ONE full
            # pass instead of `passes` — scale the exact estimate by the
            # fraction of full-data scans that remain.
            scanned = config.approx_samples * config.sample_frac + 1.0
            seconds *= min(1.0, scanned / _passes(config))
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
        :class:`MiningConfig` default (an explicit choice); a name the
        planner never chooses (``backend`` among them) is ignored.  A
        config that does not run on the engine
        (:func:`~repro.core.registry.runs_on_engine`: the sequential
        oracles, the MapReduce baselines, the incremental tier) passes
        through unplanned — the knobs mean something else there, or
        nothing.  ``priority`` feeds fast-tier routing (interactive jobs
        only).
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
        routed_fast = (
            "approx" not in pinned_set
            and self.approx_cutoff_s is not None
            and priority <= INTERACTIVE_PRIORITY
            and est >= self.approx_cutoff_s
        )
        if routed_fast:
            # interactive + expensive: the sampling fast tier, re-estimated
            chosen["approx"] = True
            config = replace(config, approx=True)
            est = self.estimate_seconds(stats, config)
        if "candidate_store" not in pinned_set:
            chosen["candidate_store"] = "bitmap"
        if "num_partitions" not in pinned_set and config.backend == "serial":
            chosen["num_partitions"] = 1

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
                f"est {est:.3g}s over {stats.n_transactions} txns"
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
    "INTERACTIVE_PRIORITY",
    "PLANNABLE_FIELDS",
    "PlanDecision",
]
