"""Pluggable algorithm registry and the :class:`MiningConfig` it consumes.

``repro.core.api`` used to dispatch on a hard-coded if/elif chain; every
new miner meant editing the API *and* the CLI.  The registry inverts
that: algorithms register a runner under a name, the API and the CLI
both derive their dispatch/choices from the registry, and third-party
code can plug in its own miner without touching ``repro``::

    from repro.core.registry import register_algorithm

    def my_runner(ctx, transactions, config):
        ...  # return a MiningRunResult
    register_algorithm("mine_faster", my_runner, needs_engine=True)

    mine_frequent_itemsets(txns, 0.3, algorithm="mine_faster")

Runner contracts
----------------
``needs_engine=True``
    ``runner(ctx, transactions, config) -> MiningRunResult``.  The
    dispatcher builds an engine :class:`Context` from the config
    (backend/parallelism) for this one run, runs the runner inside it,
    attaches ``result.trace`` / ``result.engine_metrics`` if the runner
    did not do so itself, and stops the context.  No caller can hand a
    context in: a run inherits nothing from the run before it, in the
    one-shot API and in the serving tier alike.
``needs_engine=False``
    ``runner(transactions, config) -> MiningRunResult``.  The runner
    owns its whole substrate (sequential oracles, MapReduce).

Whether a *config* runs on the engine is more than its algorithm's flag
(``incremental`` never does): :func:`runs_on_engine` is the one place
that is decided, and the dispatcher, the serve tier's shipping rule and
its planner all ask it.

The built-in algorithms (yafim, rapriori, dist_eclat, mrapriori,
one_phase, apriori, eclat, fpgrowth) are registered at import time;
their heavy imports stay inside the runner bodies so importing this
module is cheap.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.common.errors import MiningError
from repro.core.results import IterationStats, MiningRunResult
from repro.engine.executors import BACKENDS, DEFAULT_BACKEND


@dataclass(frozen=True)
class MiningConfig:
    """Everything one mining run needs, as a single value.

    Parameters mirror :func:`repro.core.api.mine_frequent_itemsets`;
    ``options`` carries algorithm-specific keyword arguments handed to
    the miner's constructor (e.g. YAFIM's ``paper_dataflow=True``).
    ``backend`` / ``parallelism`` configure the engine context, so they
    are inert on the algorithms that build none: the MapReduce ones
    (``mrapriori``, ``one_phase``, whose map and reduce tasks run in
    order) and the sequential oracles.
    """

    min_support: float
    algorithm: str = "yafim"
    max_length: int | None = None
    backend: str = DEFAULT_BACKEND
    parallelism: int | None = None
    num_partitions: int | None = None
    candidate_store: str = "hashtree"
    #: incremental tier (repro.core.incremental): the run builds (or, in
    #: the serving tier, reuses) delta-maintainable sliding-window state
    #: instead of dispatching ``algorithm``; results are exact.  The tier
    #: is in-process: ``backend`` / ``parallelism`` / ``num_partitions``
    #: are inert on an incremental config
    incremental: bool = False
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.min_support <= 1.0:
            raise MiningError(
                f"min_support must be in (0, 1], got {self.min_support}"
            )
        # None means "unset"; a number below 1 is never a smaller setting
        # (max_length=0 would still return the 1-itemsets, a partition or
        # worker count of 0 would silently run as unset)
        for name in ("max_length", "parallelism", "num_partitions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise MiningError(f"{name} must be >= 1, got {value}")
        # An unknown backend or store name fails at config construction
        # with the valid choices — on every algorithm, also those it is
        # inert on — not deep inside a worker task or never.
        from repro.core.candidatestore import store_names

        if self.backend not in BACKENDS:
            raise MiningError(
                f"unknown backend {self.backend!r}; valid backends: {', '.join(BACKENDS)}"
            )
        if self.candidate_store not in store_names():
            raise MiningError(
                f"unknown candidate store {self.candidate_store!r}; "
                f"registered stores: {', '.join(store_names())}"
            )

    def canonical(self) -> dict:
        """JSON-safe dict with deterministic ordering — the serialized form
        used by :meth:`cache_key`, the serving API, and bench reports."""
        return {
            "min_support": self.min_support,
            "algorithm": self.algorithm,
            "max_length": self.max_length,
            "backend": self.backend,
            "parallelism": self.parallelism,
            "num_partitions": self.num_partitions,
            "candidate_store": self.candidate_store,
            "incremental": self.incremental,
            "options": {str(k): self.options[k] for k in sorted(self.options, key=str)},
        }

    def cache_key(self) -> str:
        """Stable content hash of this config (hex sha256).

        Two configs with equal fields — regardless of ``options`` insertion
        order — produce the same key, so ``(dataset_fingerprint, cache_key)``
        identifies a mining run for memoization.  ``options`` values that are
        not JSON-serializable fall back to ``repr`` (stable for the value
        types miners accept: bools, numbers, strings).
        """
        payload = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: its name, runner, and engine needs."""

    name: str
    runner: Callable
    needs_engine: bool = False
    description: str = ""


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    runner: Callable,
    *,
    needs_engine: bool = False,
    description: str = "",
    overwrite: bool = False,
) -> AlgorithmSpec:
    """Register ``runner`` under ``name``; returns the stored spec.

    Raises :class:`MiningError` when the name is taken, unless
    ``overwrite=True``.
    """
    if not name or not isinstance(name, str):
        raise MiningError(f"algorithm name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        raise MiningError(
            f"algorithm {name!r} is already registered; pass overwrite=True to replace it"
        )
    spec = AlgorithmSpec(
        name=name, runner=runner, needs_engine=needs_engine, description=description
    )
    _REGISTRY[name] = spec
    return spec


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_algorithm(name: str) -> AlgorithmSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MiningError(
            f"unknown algorithm {name!r}; registered: {algorithm_names()}"
        ) from None


def algorithm_names() -> list[str]:
    """Sorted names of every registered algorithm (drives CLI choices)."""
    return sorted(_REGISTRY)


def runs_on_engine(config: MiningConfig) -> bool:
    """Whether a run of ``config`` executes on an engine :class:`Context`.

    The incremental tier never does (it walks its own resident bitmaps in
    the calling thread — ``backend`` is inert there); otherwise it is the
    registered algorithm's ``needs_engine``.
    """
    if config.incremental:
        return False
    return get_algorithm(config.algorithm).needs_engine


def run_algorithm(
    transactions: Iterable[Sequence], config: MiningConfig
) -> MiningRunResult:
    """Dispatch one mining run through the registry.

    An engine-backed run (:func:`runs_on_engine`) gets a
    :class:`~repro.engine.context.Context` built from ``config`` and
    stopped when the run ends (0.3 ms on ``serial``; a
    ``processes`` pool starts per run).
    """
    spec = get_algorithm(config.algorithm)
    txns = transactions if isinstance(transactions, list) else list(transactions)
    if not runs_on_engine(config):
        if config.incremental:
            # The incremental tier replaces the configured algorithm: a
            # one-shot run is a cold build of the delta-maintainable window
            # state (identical itemsets); the serving tier keeps that state
            # warm so dataset appends become delta updates.
            from repro.core.incremental import run_incremental

            return run_incremental(txns, config)
        return spec.runner(txns, config)

    from repro.engine.context import Context
    from repro.engine.tracing import collect_engine_metrics

    with Context(backend=config.backend, parallelism=config.parallelism) as ctx:
        result = spec.runner(ctx, txns, config)
        if result.trace is None:
            result.trace = ctx.tracer
        if result.engine_metrics is None:
            result.engine_metrics = collect_engine_metrics(ctx)
    return result


# ---------------------------------------------------------------------------
# Built-in algorithms
# ---------------------------------------------------------------------------
def _with_store(config: MiningConfig) -> dict:
    """Miner options with the config's ``candidate_store`` folded in; an
    explicit ``options["candidate_store"]`` wins over the field.  The
    oracles and DistEclat are candidate-free and never receive the
    knob."""
    return {"candidate_store": config.candidate_store, **config.options}


def _run_yafim(ctx, txns, config: MiningConfig) -> MiningRunResult:
    from repro.core.yafim import Yafim

    miner = Yafim(ctx, num_partitions=config.num_partitions, **_with_store(config))
    return miner.run(txns, config.min_support, max_length=config.max_length)


def _run_rapriori(ctx, txns, config: MiningConfig) -> MiningRunResult:
    from repro.core.rapriori import RApriori

    miner = RApriori(ctx, num_partitions=config.num_partitions, **_with_store(config))
    return miner.run(txns, config.min_support, max_length=config.max_length)


def _run_dist_eclat(ctx, txns, config: MiningConfig) -> MiningRunResult:
    from repro.core.dist_eclat import DistEclat

    miner = DistEclat(ctx, num_partitions=config.num_partitions, **config.options)
    return miner.run(txns, config.min_support, max_length=config.max_length)


def _run_on_minidfs(txns, mine) -> MiningRunResult:
    """Stage ``txns`` as a text file on an ephemeral mini-DFS, run
    ``mine(job_runner, path)`` against it, and undo the text round-trip
    (items come back as strings; plain-int datasets get their ints back)."""
    from repro.hdfs.filesystem import MiniDfs
    from repro.mapreduce.runner import JobRunner

    with MiniDfs(n_datanodes=2, replication=1) as dfs:
        dfs.write_lines(
            "/transactions.txt",
            (" ".join(str(i) for i in sorted(set(t))) for t in txns),
        )
        result = mine(JobRunner(dfs), "/transactions.txt")
    if txns and all(isinstance(i, int) for t in txns for i in t):
        result.itemsets = {
            tuple(sorted(int(i) for i in k)): v for k, v in result.itemsets.items()
        }
    return result


def _run_mrapriori(txns, config: MiningConfig) -> MiningRunResult:
    from repro.core.mrapriori import MRApriori

    return _run_on_minidfs(
        txns,
        lambda runner, path: MRApriori(runner, **_with_store(config)).run(
            path, config.min_support, max_length=config.max_length
        ),
    )


def _run_one_phase(txns, config: MiningConfig) -> MiningRunResult:
    from repro.core.one_phase import OnePhaseMR

    options = _with_store(config)
    # subset enumeration is exponential without a cap; the class
    # default (3) applies when neither max_length nor options set one
    if config.max_length is not None:
        options.setdefault("max_length", config.max_length)
    return _run_on_minidfs(
        txns,
        lambda runner, path: OnePhaseMR(runner, **options).run(
            path, config.min_support
        ),
    )


def _run_oracle(name: str, txns, config: MiningConfig) -> MiningRunResult:
    """Runner of the sequential oracle ``repro.algorithms.<name>`` —
    registered as ``partial(_run_oracle, name)``, which pickles by
    reference (a served oracle job runs in a job-worker process)."""
    import repro.algorithms as alg
    from repro.engine.tracing import Tracer

    fn = getattr(alg, name)
    tracer = Tracer(label=name)
    t0 = time.perf_counter()
    with tracer.span(f"mine {name}", "driver", min_support=config.min_support):
        itemsets = fn(
            txns, config.min_support, max_length=config.max_length, **config.options
        )
    seconds = time.perf_counter() - t0
    result = MiningRunResult(
        algorithm=name,
        min_support=config.min_support,
        n_transactions=len(txns),
    )
    result.itemsets = itemsets
    result.iterations = [
        IterationStats(
            k=0, seconds=seconds, n_candidates=-1, n_frequent=len(itemsets)
        )
    ]
    result.trace = tracer
    return result


def _register_builtins() -> None:
    register_algorithm(
        "yafim", _run_yafim, needs_engine=True,
        description="paper's algorithm on the RDD engine (default)",
    )
    register_algorithm(
        "rapriori", _run_rapriori, needs_engine=True,
        description="YAFIM with R-Apriori's candidate-free second pass",
    )
    register_algorithm(
        "dist_eclat", _run_dist_eclat, needs_engine=True,
        description="prefix-distributed parallel Eclat on the same engine",
    )
    register_algorithm(
        "mrapriori", _run_mrapriori,
        description="MapReduce baseline (spins up an ephemeral mini-DFS)",
    )
    register_algorithm(
        "one_phase", _run_one_phase,
        description="one-phase MapReduce FIM (subset enumeration, "
        "max_length-capped; ephemeral mini-DFS)",
    )
    for oracle in ("apriori", "eclat", "fpgrowth"):
        register_algorithm(
            oracle, partial(_run_oracle, oracle),
            description=f"sequential {oracle} oracle",
        )


_register_builtins()

#: re-exported for `from repro.core.registry import *` ergonomics
__all__ = [
    "AlgorithmSpec",
    "MiningConfig",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "run_algorithm",
    "runs_on_engine",
    "unregister_algorithm",
]
