"""Hash tree for candidate itemsets (paper §IV-A, Fig. 2).

The classic Apriori data structure (Agrawal & Srikant 1994): candidates of
length k are stored in a tree whose interior nodes hash the item at the
current depth into a fixed fan-out, splitting leaves that overflow.
``subset(transaction)`` walks the tree enumerating exactly the candidates
contained in the transaction — the ``C_t = subset(C_k, t)`` step of
Algorithm 1/3 — in time far below a linear scan of all candidates.

The tree is built once per iteration on the driver and shipped to workers
through a broadcast variable (§IV-C).

``HashTree`` is a :class:`~repro.core.candidatestore.CandidateStore`
(registered as ``"hashtree"``, the default): the base class supplies
candidate validation, insertion-order bookkeeping and the ``subset``
default, the tree supplies the walk and the batch ``count_partition``.  It
honors the **at-most-once contract** because containment checks run
against the transaction's item *set* (duplicate transaction items
collapse), every node is visited at most once by the slot-set walk, and
a duplicate ``insert`` is a no-op — a re-inserted candidate would
otherwise occupy two bucket slots and silently double-count.

``count_partition`` (the fast path's pass k >= 3) walks only the rows
the tree prunes well: a row with at most ``len(tree)`` k-subsets looks
its canonical (duplicate-free) form's k-subsets up in the candidate set,
as R-Apriori's pass 2 does.  ``count_into`` and ``subset`` — what
``paper_dataflow=True`` runs — always walk.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain, combinations, repeat
from math import comb

from repro.common.itemset import Itemset
from repro.common.rng import stable_hash
from repro.core.candidatestore import CandidateStore, register_store


class _Node:
    __slots__ = ("children", "bucket", "is_leaf")

    def __init__(self) -> None:
        self.children: dict[int, _Node] | None = None
        self.bucket: list[Itemset] = []
        self.is_leaf = True


class HashTree(CandidateStore):
    """Hash tree over canonical k-itemsets.

    Parameters
    ----------
    candidates:
        Iterable of same-length sorted tuples.
    fanout:
        Interior-node hash width.  Wider trees prune better under the
        slot-set walk (default 64; profiling on the dense datasets showed
        8 degenerates to a near-full scan).
    max_leaf_size:
        Leaf bucket capacity before splitting (leaves at depth >= k never
        split — all their candidates share the full hashed prefix).
    """

    def __init__(self, candidates: Iterable[Itemset] = (), fanout: int = 64, max_leaf_size: int = 16):
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        if max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        self.fanout = fanout
        self.max_leaf_size = max_leaf_size
        self._root = _Node()
        super().__init__(candidates)

    # -- construction -------------------------------------------------------
    def _hash(self, item) -> int:
        if isinstance(item, int):
            return item % self.fanout  # cheap + well-spread for int items
        return stable_hash(item) % self.fanout

    def insert(self, candidate: Itemset) -> None:
        candidate = self._register_candidate(candidate)
        if candidate is None:
            return  # duplicate insert must not double-count (store contract)
        node = self._root
        depth = 0
        while not node.is_leaf:
            node = node.children.setdefault(self._hash(candidate[depth]), _Node())
            depth += 1
        node.bucket.append(candidate)
        if len(node.bucket) > self.max_leaf_size and depth < self.k:
            self._split(node, depth)

    def _split(self, node: _Node, depth: int) -> None:
        node.is_leaf = False
        node.children = {}
        for cand in node.bucket:
            child = node.children.setdefault(self._hash(cand[depth]), _Node())
            child.bucket.append(cand)
        node.bucket = []
        # recursively split oversized children (identical hashed prefixes)
        for child in node.children.values():
            if len(child.bucket) > self.max_leaf_size and depth + 1 < self.k:
                self._split(child, depth + 1)

    # -- queries ----------------------------------------------------------
    def count_partition(self, partition, weighted: bool = False) -> dict:
        """Count a partition, each row by the cheaper of two ways.

        A row with ``C(len(row), k) <= len(self)`` (the factor measured
        in DESIGN.md choice 29) is made canonical, and the rows of one
        weight count their own k-subsets in one C-level ``Counter``
        filtered by the candidate set.  Longer rows, and rows whose items
        do not compare, take the walk (:meth:`count_into`).
        """
        counts: dict = {}
        if self.k is None:
            return counts
        k, limit = self.k, len(self)
        short: dict = defaultdict(list)  # weight -> canonical short rows
        for txn, weight in partition if weighted else zip(partition, repeat(1)):
            if comb(len(txn), k) <= limit:
                try:
                    short[weight].append(tuple(sorted(set(txn))))
                    continue
                except TypeError:  # no order among the items: walk it
                    pass
            self.count_into(counts, txn, weight)
        get, seen = counts.get, self._seen.__contains__
        for weight, rows in short.items():
            subsets = chain.from_iterable(map(combinations, rows, repeat(k)))
            for cand, n in Counter(filter(seen, subsets)).items():
                counts[cand] = get(cand, 0) + n * weight
        return counts

    def count_into(self, counts: dict, transaction: Sequence, weight: int = 1) -> None:
        """Add ``weight`` to ``counts[cand]`` for every contained candidate
        — the ``C_t = subset(C_k, t)`` step, counted in place.

        Hash-tree walk with slot-set pruning: a subtree under slot ``s`` at
        any depth can only hold matching candidates when some transaction
        item hashes to ``s``, so the walk descends exactly into the slots
        covered by the transaction's items.  Every candidate lives in one
        leaf and every node is visited at most once, so matches are unique
        by construction; leaves do the authoritative containment check
        against the transaction's item set.

        (The classic formulation also threads item *positions* through the
        walk; profiling showed the per-call recursion cost in Python far
        outweighs that extra pruning, while the slot-set walk visits at
        most one node per tree node — see DESIGN.md.)
        """
        if self.k is None or len(transaction) < self.k:
            return
        txn_set = frozenset(transaction)
        slots = {self._hash(i) for i in txn_set}
        issuperset = txn_set.issuperset
        get = counts.get
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for cand in node.bucket:
                    if issuperset(cand):
                        counts[cand] = get(cand, 0) + weight
            else:
                for slot, child in node.children.items():
                    if slot in slots:
                        stack.append(child)

    def contains_candidate(self, candidate: Itemset) -> bool:
        node = self._root
        depth = 0
        while not node.is_leaf:
            child = node.children.get(self._hash(candidate[depth]))
            if child is None:
                return False
            node = child
            depth += 1
        return tuple(candidate) in node.bucket

    # -- diagnostics ---------------------------------------------------------
    def stats(self) -> dict:
        """Structure statistics (used by the hash-tree ablation)."""
        leaves = depth_total = max_depth = 0
        biggest_leaf = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                leaves += 1
                depth_total += depth
                max_depth = max(max_depth, depth)
                biggest_leaf = max(biggest_leaf, len(node.bucket))
            else:
                stack.extend((c, depth + 1) for c in node.children.values())
        return {
            **super().stats(),
            "leaves": leaves,
            "max_depth": max_depth,
            "mean_leaf_depth": depth_total / leaves if leaves else 0.0,
            "largest_leaf": biggest_leaf,
        }


register_store("hashtree", HashTree)
