"""Candidate generation — ``apriori_gen`` (paper Algorithm 1, line 5).

Join step: every pair of frequent (k-1)-itemsets sharing their first k-2
items (``a[-1] < b[-1]``) joins into a k-candidate.  Prune step: drop any
candidate with an infrequent (k-1)-subset (downward closure).  Sorted
canonical tuples make the join a linear scan over a sorted list grouped
by prefix.

:func:`candidates_delta` is the same rule read from the side of the
itemsets that changed: when the frequent (k-1)-family gains and loses a
few itemsets, ``apriori_gen`` of the new family is the old candidate set
less the supersets of what left, plus the closed supersets of what
arrived — which is how :mod:`repro.core.incremental` keeps its
candidates current without regenerating them.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Iterator

from repro.common.itemset import Itemset


def join_step(frequent_prev: Iterable[Itemset]) -> list[Itemset]:
    """All k-itemsets joinable from sorted (k-1)-itemsets (no pruning)."""
    prev = sorted(frequent_prev)
    joined: list[Itemset] = []
    i = 0
    n = len(prev)
    while i < n:
        # group [i, j) shares the (k-2)-prefix
        prefix = prev[i][:-1]
        j = i
        while j < n and prev[j][:-1] == prefix:
            j += 1
        group = prev[i:j]
        for x in range(len(group)):
            ax = group[x]
            for y in range(x + 1, len(group)):
                joined.append(ax + (group[y][-1],))
        i = j
    return joined


def prune_step(
    candidates: Iterable[Itemset], frequent_prev: set[Itemset]
) -> list[Itemset]:
    """Keep only candidates whose every (k-1)-subset is frequent.

    ``candidates`` are :func:`join_step` output over ``frequent_prev``:
    the two subsets that drop one of the last two items are the join's
    parents, in ``frequent_prev`` by construction, so only the k-2 others
    are looked up — and only until one is missing.
    """
    out = []
    for cand in candidates:
        for i in range(len(cand) - 2):
            if cand[:i] + cand[i + 1 :] not in frequent_prev:
                break
        else:
            out.append(cand)
    return out


def _supersets_of(itemset: Itemset, items: Iterable) -> Iterator[Itemset]:
    """The canonical one-item extensions of ``itemset`` by each of
    ``items`` (those it already holds skipped)."""
    for item in items:
        at = bisect(itemset, item)
        if not at or itemset[at - 1] != item:
            yield itemset[:at] + (item,) + itemset[at:]


def _closed_over(candidate: Itemset, frequent_prev: set[Itemset]) -> bool:
    """Whether every (k-1)-subset of ``candidate`` is in ``frequent_prev``
    (the prune rule, for a candidate no join vouches for)."""
    for i in range(len(candidate)):
        if candidate[:i] + candidate[i + 1 :] not in frequent_prev:
            return False
    return True


def candidates_delta(
    tracked, frequent_prev: set[Itemset], arrived: set, left: set, items: list
) -> tuple[list[Itemset], list[Itemset]]:
    """``(fresh, stale)``: what turns ``tracked`` into
    ``apriori_gen(frequent_prev)``.

    ``tracked`` (any container of k-itemsets; may be empty) is
    ``apriori_gen`` of the family ``frequent_prev`` was before it gained
    ``arrived`` and lost ``left``; ``items`` covers every item of either
    family.  A tracked candidate is stale exactly when one of its
    subsets left, and a missing one is due exactly when an arrival
    completes its subsets, so both are found by looking around the
    itemsets that crossed: ``|crossed| * |items|`` probes, nothing
    proportional to the families themselves.  When that is no cheaper
    than the ``|tracked| * k`` probes of the prune step — so much crossed,
    or nothing is tracked yet — the candidates are generated whole and
    compared instead.
    """
    k = len(next(iter(frequent_prev))) + 1
    if (len(arrived) + len(left)) * len(items) < len(tracked) * k:
        stale = {
            cand for gone in left for cand in _supersets_of(gone, items)
            if cand in tracked
        }
        fresh = {
            cand for new in arrived for cand in _supersets_of(new, items)
            if cand not in tracked and _closed_over(cand, frequent_prev)
        }
        return sorted(fresh), sorted(stale)
    wanted = apriori_gen(frequent_prev)
    keep = set(wanted)
    return (
        [cand for cand in wanted if cand not in tracked],
        [cand for cand in tracked if cand not in keep],
    )


def apriori_gen(frequent_prev: Iterable[Itemset]) -> list[Itemset]:
    """Join + prune: candidate k-itemsets from frequent (k-1)-itemsets.

    Accepts any iterable of canonical (sorted-tuple) itemsets of a single
    length k-1; returns sorted candidate k-itemsets.

    >>> apriori_gen([(1, 2), (1, 3), (2, 3)])
    [(1, 2, 3)]
    >>> apriori_gen([(1, 2), (1, 3), (2, 4)])
    []
    """
    prev_list = list(frequent_prev)
    if not prev_list:
        return []
    lengths = {len(p) for p in prev_list}
    if len(lengths) != 1:
        raise ValueError(f"mixed itemset lengths in apriori_gen input: {lengths}")
    if lengths == {1}:
        # k=2: every pair of frequent items (prune is vacuous).
        items = sorted(p[0] for p in prev_list)
        return [(items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items))]
    prev_set = set(prev_list)
    return sorted(prune_step(join_step(prev_list), prev_set))
