"""Third-party candidate stores, as a plug-in would ship them.

``trie`` and ``flatdict`` were built-ins until the numbers retired them
(4-6x behind ``bitmap`` everywhere, the default of nothing).  They live
on here as what they now are to the package — somebody else's row-wise
stores, registered through the public ``register_store`` by
``tests/conftest.py`` — so every grid that names them keeps proving the
plug-in path: a class that declares no layout is served the weighted
rows as they are by every miner, the serve tier included.
"""

from itertools import combinations
from math import comb

from repro.common.itemset import Itemset
from repro.core.candidatestore import CandidateStore, register_store


class TrieStore(CandidateStore):
    """Prefix trie over sorted candidate tuples.

    Interior nodes are plain dicts ``item -> child``; at depth k-1 the
    child *is* the stored candidate tuple, so a terminal hit needs no
    extra leaf object.  Counting walks the transaction's sorted,
    de-duplicated items; each candidate is reachable through exactly one
    item combination, so the at-most-once contract holds by construction.
    """

    def __init__(self, candidates=()):
        self._root: dict = {}
        super().__init__(candidates)

    def insert(self, candidate) -> None:
        cand = self._register_candidate(candidate)
        if cand is None:
            return
        node = self._root
        for item in cand[:-1]:
            node = node.setdefault(item, {})
        node[cand[-1]] = cand

    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        k = self.k
        if k is None or len(transaction) < k:
            return
        items = sorted(set(transaction))
        n = len(items)
        if n < k:
            return
        get = counts.get

        def walk(node: dict, start: int, depth: int) -> None:
            last = n - (k - depth)  # deeper levels still need k-depth-1 items
            if depth == k - 1:
                for i in range(start, last + 1):
                    cand = node.get(items[i])
                    if cand is not None:
                        counts[cand] = get(cand, 0) + weight
                return
            for i in range(start, last + 1):
                child = node.get(items[i])
                if child is not None:
                    walk(child, i + 1, depth + 1)

        walk(self._root, 0, 0)

    def stats(self) -> dict:
        nodes = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            for child in node.values():
                if isinstance(child, dict):
                    stack.append(child)
        return {**super().stats(), "nodes": nodes}


class FlatDictStore(CandidateStore):
    """Hash table of itemsets with k-subset enumeration per transaction.

    The counting strategy from the data-structure-perspective paper:
    enumerate the transaction's k-subsets and probe a hash set.  When
    ``C(|t|, k)`` outgrows the candidate count the probe direction flips
    to a candidate scan, so dense transactions never pay an exponential
    enumeration.  The built-in ``hashtree`` applies this rule (at
    factor 1) per row in its batch ``count_partition`` (DESIGN.md choice
    29), with the tree walk instead of a scan for the long rows and one
    C-level ``Counter`` per weight instead of a Python loop per subset;
    this store stays as a per-transaction plug-in of that strategy.
    """

    #: enumeration runs while C(|t|, k) <= this multiple of |candidates|
    ENUMERATION_FACTOR = 2

    def insert(self, candidate) -> None:
        self._register_candidate(candidate)

    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        k = self.k
        if k is None or len(transaction) < k:
            return
        items = tuple(sorted(set(transaction)))
        n = len(items)
        if n < k:
            return
        get = counts.get
        if comb(n, k) <= self.ENUMERATION_FACTOR * len(self._order):
            seen = self._seen
            # items are sorted + unique, so each enumerated subset is a
            # canonical tuple and appears exactly once
            for sub in combinations(items, k):
                if sub in seen:
                    counts[sub] = get(sub, 0) + weight
        else:
            issuperset = frozenset(items).issuperset
            for cand in self._order:
                if issuperset(cand):
                    counts[cand] = get(cand, 0) + weight


register_store("trie", TrieStore)
register_store("flatdict", FlatDictStore)
