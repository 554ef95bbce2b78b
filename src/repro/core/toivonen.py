"""Toivonen's sampling algorithm (VLDB 1996).

The classic one-full-pass alternative to Apriori's k passes, and a
natural citizen of this library because its correctness check *is* the
negative border from :mod:`repro.core.summaries`:

1. mine a random sample at a *lowered* threshold (so the sample is
   unlikely to miss anything globally frequent),
2. candidates = the sample's frequent family plus its negative border,
3. count all candidates exactly in ONE pass over the full database,
4. if nothing from the negative border turned out frequent, the frequent
   family is provably complete; otherwise the sample missed patterns —
   resample and repeat.

The exact counting pass is :func:`repro.core.counting.count_exact` over
the pluggable :mod:`repro.core.candidatestore` registry (one store per
candidate length) — ``candidate_store="bitmap"`` swaps the hash-tree walk
for the vertical tid-bitmap kernel.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.algorithms.common import normalize_transactions
from repro.algorithms.fpgrowth import fpgrowth
from repro.common.errors import MiningError
from repro.common.itemset import Itemset, min_support_count
from repro.common.rng import make_rng
from repro.core.counting import count_exact
from repro.core.summaries import negative_border


@dataclass
class ToivonenResult:
    itemsets: dict = field(default_factory=dict)
    attempts: int = 0
    sample_size: int = 0
    candidates_counted: int = 0
    border_violations: list[Itemset] = field(default_factory=list)  # last attempt's

    @property
    def num_itemsets(self) -> int:
        return len(self.itemsets)


def toivonen(
    transactions: Iterable[Sequence],
    min_support: float,
    sample_fraction: float = 0.25,
    lowering: float = 0.8,
    max_attempts: int = 5,
    seed: int | None = 0,
    candidate_store: str = "hashtree",
    store_options: dict | None = None,
) -> ToivonenResult:
    """All frequent itemsets via sampling + one exact counting pass.

    Parameters
    ----------
    transactions, min_support:
        As everywhere else in the library.
    sample_fraction:
        Fraction of transactions drawn (without replacement) per attempt.
    lowering:
        The sample is mined at ``lowering * min_support`` — lower values
        make missed patterns rarer but the candidate set larger.
    max_attempts:
        Resampling budget before giving up.
    candidate_store / store_options:
        Store (and its constructor kwargs) for the exact counting pass;
        any :mod:`repro.core.candidatestore` registration works.

    Raises
    ------
    MiningError
        When every attempt had a frequent negative-border member (the
        sample kept missing patterns).
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    if not 0.0 < sample_fraction <= 1.0:
        raise MiningError("sample_fraction must be in (0, 1]")
    if not 0.0 < lowering <= 1.0:
        raise MiningError("lowering must be in (0, 1]")
    txns = normalize_transactions(transactions)
    if not txns:
        raise MiningError("cannot mine an empty transaction database")
    n = len(txns)
    threshold = min_support_count(min_support, n)
    rng = make_rng(seed)
    all_items = sorted({i for t in txns for i in t})

    result = ToivonenResult()
    for attempt in range(1, max_attempts + 1):
        result.attempts = attempt
        sample_size = max(1, int(round(sample_fraction * n)))
        idx = rng.choice(n, size=sample_size, replace=False)
        sample = [txns[i] for i in idx]
        result.sample_size = sample_size

        lowered = max(1.0 / sample_size, lowering * min_support)
        sample_frequent = fpgrowth(sample, lowered)
        border = negative_border(sample_frequent, items=all_items)
        candidates = set(sample_frequent) | set(border)
        result.candidates_counted = len(candidates)

        exact = count_exact(
            txns, candidates,
            candidate_store=candidate_store, store_options=store_options,
        )
        frequent = {c: v for c, v in exact.items() if v >= threshold}
        violations = [c for c in border if c in frequent]
        result.border_violations = violations
        if not violations:
            result.itemsets = frequent
            return result
        # a border member is globally frequent: the sample missed part of
        # the lattice — resample (fresh randomness from the same stream)
    raise MiningError(
        f"toivonen: sample kept missing patterns after {max_attempts} attempts "
        f"(last violations: {result.border_violations[:5]})"
    )
