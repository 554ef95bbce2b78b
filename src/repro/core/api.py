"""Unified mining API — one call, any registered algorithm.

``mine_frequent_itemsets(transactions, min_support)`` runs YAFIM on an
ephemeral engine context by default; ``algorithm=`` selects any name in
the :mod:`repro.core.registry` (all built-ins return identical itemsets
by construction — asserted by the integration tests):

========== ==========================================================
algorithm  implementation
========== ==========================================================
yafim      paper's algorithm on the RDD engine (default)
rapriori   YAFIM with R-Apriori's candidate-free second pass
dist_eclat prefix-distributed parallel Eclat on the same engine
apriori    sequential oracle
eclat      vertical tid-set oracle
fpgrowth   pattern-growth oracle
mrapriori  MapReduce baseline (spins up an ephemeral mini-DFS)
one_phase  one-phase MapReduce FIM (subset enumeration, length-capped)
========== ==========================================================

Dispatch is entirely registry-driven — there is no per-algorithm branch
here, and :func:`repro.core.registry.register_algorithm` plugs new
miners into this function and the CLI alike.  Prefer passing a
:class:`MiningConfig` for anything beyond the basics::

    result = mine_frequent_itemsets(
        txns, config=MiningConfig(min_support=0.3, algorithm="dist_eclat")
    )

Every result carries the run's observability trail: ``result.trace`` (a
:class:`~repro.engine.tracing.Tracer`, exportable to chrome://tracing)
and ``result.engine_metrics`` for engine-backed algorithms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.common.errors import MiningError
from repro.core.registry import MiningConfig, run_algorithm
from repro.core.results import MiningRunResult
from repro.engine.executors import DEFAULT_BACKEND

#: Result alias kept for the public API surface.
MiningResult = MiningRunResult


def mine_frequent_itemsets(
    transactions: Iterable[Sequence],
    min_support: float | None = None,
    *,
    config: MiningConfig | None = None,
    algorithm: str = "yafim",
    max_length: int | None = None,
    backend: str = DEFAULT_BACKEND,
    parallelism: int | None = None,
    num_partitions: int | None = None,
    **options,
) -> MiningRunResult:
    """Mine all frequent itemsets of ``transactions``.

    Parameters
    ----------
    transactions:
        Iterable of item sequences (items must be hashable + orderable).
    min_support:
        Relative minimum support in (0, 1].  Omit when passing ``config``.
    config:
        A :class:`MiningConfig` carrying every knob at once (keyword-only).
        Mutually exclusive with ``min_support`` and the individual knobs.
    algorithm:
        Any name registered with
        :func:`repro.core.registry.register_algorithm` (the built-ins are
        the table above; :func:`repro.core.registry.algorithm_names`).
    max_length:
        Optional cap on mined itemset length.
    backend / parallelism / num_partitions:
        Engine knobs for the parallel algorithms.
    **options:
        Extra keyword arguments for the selected miner's constructor
        (e.g. YAFIM's ``paper_dataflow=True``).

    Returns
    -------
    MiningRunResult
        ``result.itemsets`` maps canonical itemsets to absolute support
        counts; per-iteration stats (shuffle/broadcast bytes, cache hit
        rate, straggler ratio), ``result.trace`` and
        ``result.engine_metrics`` ride along.
    """
    if config is not None:
        if min_support is not None or options:
            raise MiningError(
                "pass either config=MiningConfig(...) or individual "
                "arguments, not both"
            )
    else:
        if min_support is None:
            raise MiningError("min_support is required (directly or via config=)")
        config = MiningConfig(
            min_support=min_support,
            algorithm=algorithm,
            max_length=max_length,
            backend=backend,
            parallelism=parallelism,
            num_partitions=num_partitions,
            options=options,
        )
    return run_algorithm(transactions, config)
