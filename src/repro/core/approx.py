"""Multi-sample approximate mining — the serving tier's fast path.

Toivonen (:mod:`repro.core.toivonen`) mines ONE sample and loops until a
sample happens to miss nothing.  The multi-sample variant mines ``n_p``
independent samples *in parallel* (one engine partition per sample) at a
relaxed threshold ``s * r``, unions every sample's frequent family with
its negative border into a single candidate set, then makes ONE exact
counting pass over the full database through the pluggable
:mod:`repro.core.candidatestore` kernel:

1. draw ``n_p`` samples of ``sample_frac * |D|`` transactions each,
   seeded per-sample from the job seed (bit-for-bit reproducible);
2. ``run_job`` mines every sample locally with FP-growth at
   ``max(1/|sample|, r * min_support)`` and computes its negative border
   over the full item universe;
3. candidates = union of all frequent families and all borders;
4. one full-data verification pass counts every candidate exactly and
   thresholds at the *original* support — false positives die here;
5. if **any** sample's border contains no globally frequent itemset,
   that sample provably covered the whole frequent lattice, so the
   verified output is exact (``verified_exact=True``).

Error model: precision is always 1.0 (step 4 counts exactly); recall is
1.0 whenever ``verified_exact`` holds and degrades only when every
sample missed part of the lattice — unlike Toivonen there is no
resample loop, the answer ships after exactly one full pass, with the
violation evidence attached as provenance.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.algorithms.fpgrowth import fpgrowth
from repro.common.errors import MiningError
from repro.common.itemset import Itemset, canonical_transaction, min_support_count
from repro.common.rng import make_rng, spawn
from repro.core.candidatestore import get_store
from repro.core.counting import count_exact
from repro.core.results import MiningRunResult, engine_iteration_stats
from repro.core.summaries import negative_border


@dataclass
class ApproxResult(MiningRunResult):
    """A :class:`MiningRunResult` plus the sampling run's provenance.

    ``verified_exact`` is the Toivonen guarantee: at least one sample's
    negative border contained no globally frequent itemset, so the
    (exactly counted) output provably equals the exact miner's.
    ``border_violations`` is the union of globally frequent border
    members across samples — empty iff every sample was clean.
    """

    n_samples: int = 0
    sample_frac: float = 0.0
    ratio: float = 0.0
    seed: int = 0
    sample_sizes: list[int] = field(default_factory=list)
    candidates_verified: int = 0
    border_violations: list[Itemset] = field(default_factory=list)
    verified_exact: bool = False

    def summary(self) -> str:
        tag = "exact" if self.verified_exact else (
            f"{len(self.border_violations)} border violation(s)"
        )
        return (
            super().summary()
            + f"\n  approx: {self.n_samples} samples x {self.sample_frac:g} "
            f"at r={self.ratio:g}, {self.candidates_verified} candidates "
            f"verified -> {tag}"
        )


class SampleMiner:
    """``run_job`` kernel: mine each sample in the partition locally.

    Each element of the samples RDD is one full sample (a list of
    transactions); with one sample per partition the ``n_p`` FP-growth
    runs execute concurrently across the executor pool.  Yields
    ``(sample_size, frequent_itemsets, negative_border)`` per sample.
    """

    def __init__(self, bc, *, min_support: float, ratio: float = 0.8,
                 max_length: int | None = None):
        self._bc = bc  # broadcast of the full database's item universe
        self._min_support = min_support
        self._ratio = ratio
        self._max_length = max_length

    def __call__(self, _task_ctx, partition):
        all_items = self._bc.value
        out = []
        for sample in partition:
            lowered = max(1.0 / len(sample), self._ratio * self._min_support)
            frequent = fpgrowth(sample, lowered, max_length=self._max_length)
            border = negative_border(frequent, items=all_items)
            if self._max_length is not None:
                border = [b for b in border if len(b) <= self._max_length]
            out.append((len(sample), tuple(frequent), tuple(border)))
        return out


class ApproxMiner:
    """Multi-sample approximate miner bound to an engine :class:`Context`.

    Parameters
    ----------
    ctx:
        Engine context (any backend).
    n_samples:
        Independent samples mined in parallel (``n_p``).
    ratio:
        Threshold relaxation ``r``: samples are mined at
        ``max(1/|sample|, r * min_support)``.  Lower values make missed
        patterns rarer but the candidate set larger.
    sample_frac:
        Fraction of the database drawn (without replacement) per sample.
    num_partitions:
        Partitions for the full-data verification pass (default: the
        context's parallelism).
    candidate_store / store_options:
        Registered :mod:`repro.core.candidatestore` store (and its
        constructor kwargs) for the verification pass.
    seed:
        Job seed; per-sample generators derive from it via
        :func:`repro.common.rng.spawn`, so a fixed config reproduces the
        same samples — and therefore the same result — bit for bit.
    """

    algorithm_name = "approx"

    def __init__(
        self,
        ctx,
        n_samples: int = 4,
        ratio: float = 0.8,
        sample_frac: float = 0.1,
        num_partitions: int | None = None,
        candidate_store: str = "hashtree",
        store_options: dict | None = None,
        seed: int = 0,
    ):
        if n_samples < 1:
            raise MiningError(f"n_samples must be >= 1, got {n_samples}")
        if not 0.0 < ratio <= 1.0:
            raise MiningError(f"ratio must be in (0, 1], got {ratio}")
        if not 0.0 < sample_frac <= 1.0:
            raise MiningError(f"sample_frac must be in (0, 1], got {sample_frac}")
        get_store(candidate_store)  # fail on the driver, not in a worker
        self.ctx = ctx
        self.n_samples = n_samples
        self.ratio = ratio
        self.sample_frac = sample_frac
        self.num_partitions = num_partitions or ctx.default_parallelism
        self.candidate_store = candidate_store
        self.store_options = dict(store_options or {})
        self.seed = seed

    # -- the algorithm -----------------------------------------------------
    def run(
        self,
        transactions: Iterable[Sequence],
        min_support: float,
        max_length: int | None = None,
    ) -> ApproxResult:
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        # empty rows stay: they count toward |D| (and the threshold)
        # exactly as in the exact miners, and sampling may draw them
        txns = [canonical_transaction(t) for t in transactions]
        n = len(txns)
        if n == 0:
            raise MiningError("cannot mine an empty transaction database")
        threshold = min_support_count(min_support, n)
        all_items = sorted({i for t in txns for i in t})
        result = ApproxResult(
            algorithm=self.algorithm_name,
            min_support=min_support,
            n_transactions=n,
            n_samples=self.n_samples,
            sample_frac=self.sample_frac,
            ratio=self.ratio,
            seed=self.seed,
        )
        run_bcs: list = []

        # ---- phase 1: parallel relaxed-threshold sample mining ----------
        t0 = time.perf_counter()
        mark = self.ctx.event_log.mark()
        ship_mark = self.ctx.executor.shipped_bytes_total()
        samples = self._draw_samples(txns)
        with self.ctx.tracer.span(
            "sample_mine", "driver",
            n_samples=self.n_samples, sample_frac=self.sample_frac, ratio=self.ratio,
        ):
            per_sample = self._mine_samples(
                samples, all_items, min_support, max_length, run_bcs
            )
        families = [set(freq) for _, freq, _ in per_sample]
        borders = [set(border) for _, _, border in per_sample]
        candidates = set().union(*families) | set().union(*borders)
        result.sample_sizes = [size for size, _, _ in per_sample]
        result.candidates_verified = len(candidates)
        result.iterations.append(
            engine_iteration_stats(
                self.ctx.event_log.tasks_since(mark),
                k=1,
                seconds=time.perf_counter() - t0,
                n_candidates=-1,  # sampling mines whole families, not one level
                n_frequent=len(candidates),
                shipped_bytes=self.ctx.executor.shipped_bytes_total() - ship_mark,
                label="sample_mine",
            )
        )

        # ---- phase 2: one full-data verification pass -------------------
        t0 = time.perf_counter()
        mark = self.ctx.event_log.mark()
        ship_mark = self.ctx.executor.shipped_bytes_total()
        with self.ctx.tracer.span(
            "verify_pass", "driver",
            n_candidates=len(candidates), store=self.candidate_store,
        ):
            counts = count_exact(
                txns, candidates, self.candidate_store, self.store_options,
                ctx=self.ctx, num_partitions=self.num_partitions, broadcasts=run_bcs,
            )
        frequent = {c: v for c, v in counts.items() if v >= threshold}
        result.itemsets = dict(sorted(frequent.items()))
        violations = {c for border in borders for c in border if c in frequent}
        result.border_violations = sorted(violations)
        # ONE clean sample suffices: its family + border provably covered
        # the whole frequent lattice, and every candidate was counted
        # exactly, so the thresholded output is the exact answer.
        result.verified_exact = any(
            not any(c in frequent for c in border) for border in borders
        )
        result.iterations.append(
            engine_iteration_stats(
                self.ctx.event_log.tasks_since(mark),
                k=2,
                seconds=time.perf_counter() - t0,
                n_candidates=len(candidates),
                n_frequent=len(frequent),
                broadcast_bytes=sum(bc.size_bytes for bc in run_bcs),
                shipped_bytes=self.ctx.executor.shipped_bytes_total() - ship_mark,
                label="verify_pass",
            )
        )
        for bc in run_bcs:
            bc.destroy()
        return result

    # -- internals ---------------------------------------------------------
    def _draw_samples(self, txns: list) -> list[list]:
        """``n_samples`` independent without-replacement samples, each from
        its own :func:`spawn`-derived child generator."""
        n = len(txns)
        size = max(1, min(n, round(self.sample_frac * n)))
        samples = []
        for rng in spawn(make_rng(self.seed), self.n_samples):
            idx = rng.choice(n, size=size, replace=False)
            samples.append([txns[i] for i in idx])
        return samples

    def _mine_samples(self, samples, all_items, min_support, max_length,
                      run_bcs) -> list:
        # Borders MUST be computed over the FULL database universe
        # (``all_items``), not the items the samples happen to contain: a
        # globally frequent item absent from every sample would otherwise
        # never enter any border, so the verification pass could not see
        # the miss and ``verified_exact`` would be falsely claimed.
        rdd = self.ctx.parallelize(samples, len(samples))
        bc = self.ctx.broadcast(all_items)
        run_bcs.append(bc)
        kernel = SampleMiner(
            bc, min_support=min_support, ratio=self.ratio, max_length=max_length
        )
        return [entry for part in self.ctx.run_job(rdd, kernel) for entry in part]


def run_approx(ctx, transactions, config) -> ApproxResult:
    """Registry-shaped runner: dispatch a ``config.approx`` mining run.

    The fast tier replaces the configured algorithm wholesale — only the
    sampling knobs, the candidate store, and ``options``' ``seed`` /
    ``store_options`` are consulted; algorithm-specific options belong
    to the exact twin and are ignored here.
    """
    miner = ApproxMiner(
        ctx,
        n_samples=config.approx_samples,
        ratio=config.approx_ratio,
        sample_frac=config.sample_frac,
        num_partitions=config.num_partitions,
        candidate_store=config.candidate_store,
        store_options=config.options.get("store_options"),
        seed=config.options.get("seed", 0),
    )
    return miner.run(transactions, config.min_support, max_length=config.max_length)


__all__ = ["ApproxMiner", "ApproxResult", "SampleMiner", "run_approx"]
