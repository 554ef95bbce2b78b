"""Serve-tier planner: two fixed rules for the knobs a caller left alone.

Measured on every generator in the tree, the ``bitmap`` store beats the
hash tree, one serial partition beats the default split, and no executor
backend beats ``serial`` (``docs/serving.md`` "Cost-based planning").  So
:class:`CostPlanner` sets ``candidate_store="bitmap"``, and
``num_partitions=1`` when the backend is ``serial``, on every knob the
caller did not pin — and never chooses a ``backend``.  It reads neither
the rows nor their statistics: a plan is a function of the config and
the pins alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

from repro.core.registry import MiningConfig, runs_on_engine

#: MiningConfig fields the planner is allowed to choose.
PLANNABLE_FIELDS = ("num_partitions", "candidate_store")

#: Config defaults used to infer pinning: a caller who set a field away
#: from its default has expressed intent, and the planner must not
#: override it.
_DEFAULTS = {f.name: f.default for f in fields(MiningConfig) if f.name in PLANNABLE_FIELDS}


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: what was chosen, and what was not to be."""

    chosen: dict
    pinned: tuple
    reason: str


class CostPlanner:
    """Fill unpinned engine knobs by two fixed rules."""

    def __init__(self):
        self._lock = threading.Lock()
        self.plans = 0

    def plan(
        self, transactions, config: MiningConfig, *, pinned=(), fingerprint: str | None = None
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
        nothing.  ``transactions`` and ``fingerprint`` are not read; the
        signature is the one callers have always used.
        """
        pinned_set = set(pinned) & set(PLANNABLE_FIELDS)
        for field_name, default in _DEFAULTS.items():
            if getattr(config, field_name) != default:
                pinned_set.add(field_name)
        pinned_names = tuple(sorted(pinned_set))

        if not runs_on_engine(config):
            tier = "the incremental tier" if config.incremental else config.algorithm
            reason = f"{tier} does not run on the engine"
            return config, PlanDecision(chosen={}, pinned=pinned_names, reason=reason)

        chosen: dict = {}
        if "candidate_store" not in pinned_set:
            chosen["candidate_store"] = "bitmap"
        if "num_partitions" not in pinned_set and config.backend == "serial":
            chosen["num_partitions"] = 1
        with self._lock:
            self.plans += 1
        decision = PlanDecision(chosen=chosen, pinned=pinned_names, reason="fixed rules")
        return (replace(config, **chosen) if chosen else config), decision

    def stats(self) -> dict:
        with self._lock:
            return {"plans": self.plans}


__all__ = ["CostPlanner", "PLANNABLE_FIELDS", "PlanDecision"]
