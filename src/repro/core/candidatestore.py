"""Pluggable candidate stores — the counting data structure as an API.

YAFIM's Phase II cost is dominated by candidate support counting, and the
right data structure depends on the data: "A Data Structure Perspective
to the RDD-based Apriori" (PAPERS.md) shows tries and hash tables of
itemsets beating the classic hash tree on Spark, and "RDD-Eclat" shows
tid-bitmap intersection as the core Eclat-style speedup.  This module
turns the counting structure into an interface so every such experiment
is a ~100-line store instead of a miner rewrite.

The interface (:class:`CandidateStore`)::

    insert(candidate)                  # add one k-itemset (idempotent)
    count_into(counts, txn, weight=1)  # += weight per contained candidate
    count_partition(partition, weighted=False) -> dict   # batch kernel
    subset(txn) -> list                # contained candidates
    candidate_index() -> dict          # candidate -> insertion position
    stats() -> dict                    # structure diagnostics
    len(store), iter(store)

**Signed multiplicities.**  A weighted partition holds ``(transaction,
multiplicity)`` pairs and a multiplicity may be negative — a row leaving
a sliding window.  ``count_partition(rows, weighted=True)`` then returns
*net* counts: what the positive rows support minus what the negative
rows support, a row present with both signs counting on both sides.
``count_into`` stores get this for free (``+= weight``); the bitmap
kernel carries a mask of the negative tid runs.  A candidate whose net
count is zero may be absent from the result.

**The at-most-once contract.**  ``count_into`` adds ``weight`` to each
contained candidate **at most once per transaction**, even when the
transaction carries duplicate items and even when the same candidate was
inserted more than once (duplicate inserts are no-ops).  This is what
makes the stores behaviorally interchangeable: a store that reported a
candidate once per *matching path* instead of once per transaction would
silently inflate supports.  The contract is enforced for every
registered store by ``tests/core/test_candidatestore.py``.

Stores register under a name so :class:`~repro.core.registry.MiningConfig`
can validate its ``candidate_store`` knob and the CLI can derive
``--candidate-store`` choices::

    from repro.core.candidatestore import make_store, register_store

    store = make_store("bitmap", candidates)
    register_store("mystore", MyStore)   # third-party plug-in

Built-ins:

``hashtree``
    The paper's structure (:class:`~repro.core.hashtree.HashTree`) —
    the default.
``trie``
    Prefix trie over sorted candidate tuples; counting walks the
    transaction's (deduplicated, sorted) items once per reachable node.
``flatdict``
    Hash table of itemsets with per-transaction k-subset enumeration,
    falling back to a candidate scan when C(|t|, k) outgrows |C_k|.
``bitmap``
    The vertical kernel: per partition, per-item tid-bitmaps (Python
    big-ints) over dict-encoded transactions; every candidate support is
    one bitmap AND chain + ``int.bit_count()``.  Weighted (compacted)
    transactions occupy one tid *run* of length ``weight``, so a single
    popcount still yields the exact weighted support.  A negative
    multiplicity marks its run in a mask and counts down.
``linear``
    Flat list scan (ablation A3: ``candidate_store="linear"``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from math import comb

from repro.common.itemset import Itemset


class CandidateStore(ABC):
    """Base class for candidate stores over same-length k-itemsets.

    Subclasses call :meth:`_register_candidate` from :meth:`insert` to get
    length validation, duplicate-insert idempotence, insertion-order
    tracking (``candidate_index``/``__iter__``/``__len__``) and the
    default ``subset``/``count_partition``/``stats`` implementations.
    """

    def __init__(self, candidates=()):
        self.k: int | None = None
        self._order: list[Itemset] = []  # insertion order = driver's order
        self._seen: set[Itemset] = set()
        self._index: dict[Itemset, int] | None = None
        for cand in candidates:
            self.insert(cand)

    # -- construction -------------------------------------------------------
    def _register_candidate(self, candidate) -> Itemset | None:
        """Validate + record a candidate; ``None`` when already present."""
        candidate = tuple(candidate)
        if self.k is None:
            if not candidate:
                raise ValueError("cannot insert the empty itemset")
            self.k = len(candidate)
        elif len(candidate) != self.k:
            raise ValueError(
                f"store holds {self.k}-itemsets, got length {len(candidate)}"
            )
        if candidate in self._seen:
            return None
        self._seen.add(candidate)
        self._order.append(candidate)
        self._index = None
        return candidate

    @abstractmethod
    def insert(self, candidate: Itemset) -> None:
        """Add one candidate (idempotent on duplicates)."""

    # -- counting -----------------------------------------------------------
    @abstractmethod
    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        """Add ``weight`` to ``counts[cand]`` for every candidate contained
        in ``transaction`` — at most once per candidate per transaction."""

    def count_partition(self, partition, weighted: bool = False) -> dict:
        """Count a whole partition into one dict.

        ``weighted`` partitions hold ``(transaction, multiplicity)`` pairs
        (the compaction representation); a negative multiplicity counts
        down, so the result is the net count.  The default streams
        :meth:`count_into`; batch kernels (:class:`BitmapStore`) override
        this with a vertical pass over the materialized partition.
        """
        counts: dict = {}
        count_into = self.count_into
        if weighted:
            for txn, weight in partition:
                count_into(counts, txn, weight)
        else:
            for txn in partition:
                count_into(counts, txn)
        return counts

    def subset(self, transaction) -> list[Itemset]:
        """Candidates contained in ``transaction`` (each at most once)."""
        counts: dict = {}
        self.count_into(counts, transaction)
        return list(counts)

    # -- bookkeeping ---------------------------------------------------------
    def candidate_index(self) -> dict[Itemset, int]:
        """Candidate -> insertion position (= the driver's ``apriori_gen``
        order); built lazily and cached."""
        if self._index is None:
            self._index = {cand: i for i, cand in enumerate(self._order)}
        return self._index

    def stats(self) -> dict:
        """Structure diagnostics (store-specific keys allowed on top)."""
        return {"store": type(self).__name__, "candidates": len(self._order)}

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)


class LinearStore(CandidateStore):
    """Flat candidate list with precomputed frozensets (ablation A3).

    Quantifies what the structured stores buy: every transaction is
    checked against every candidate.
    """

    def __init__(self, candidates=()):
        self._sets: list[frozenset] = []
        super().__init__(candidates)

    def insert(self, candidate) -> None:
        cand = self._register_candidate(candidate)
        if cand is not None:
            self._sets.append(frozenset(cand))

    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        if self.k is None or len(transaction) < self.k:
            return
        issuperset = frozenset(transaction).issuperset
        get = counts.get
        for cand, cset in zip(self._order, self._sets):
            if issuperset(cset):
                counts[cand] = get(cand, 0) + weight

    def subset(self, transaction) -> list[Itemset]:
        if self.k is None or len(transaction) < self.k:
            return []
        issuperset = frozenset(transaction).issuperset
        return [c for c, s in zip(self._order, self._sets) if issuperset(s)]


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
    enumeration.
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


class TidBitmaps(dict):
    """``item -> tid-bitmap`` plus :attr:`negative`, the mask of the tid
    runs whose record carried a negative multiplicity (0 when none did):
    an intersection ``bm`` supports ``popcount(bm) - 2 * popcount(bm &
    negative)`` net transactions."""

    negative = 0


def build_tid_bitmaps(
    partition, relevant: set, *, min_items: int = 1, weighted: bool = False
) -> TidBitmaps:
    """Vertical build: item -> tid-bitmap int over ``partition``.

    One bit per logical transaction, the first transaction in the most
    significant bit: a bit of ``bitmaps[item]`` is set when that
    transaction contains ``item``; a weighted ``(txn, weight)`` record
    occupies a run of ``|weight|`` consecutive tid positions, also set in
    the result's ``negative`` mask when ``weight < 0``.  Rows with
    fewer than ``min_items`` relevant items get no tid run — they cannot
    support any candidate of that many items, so skipping them keeps the
    bitmaps short without changing any intersection count.

    Each item's bits are appended as ``b"0"`` / ``b"1"`` bytes (zeros up
    to the row's position, then the run) and parsed once with
    ``int(buf, 2)``: every per-row step is a C-level ``bytearray``
    append, at one transient byte per tid per relevant item.

    A function of its own so stores counting the same rows — several
    per-length stores (:func:`repro.core.counting.count_stores`), or one
    level after another — can share ONE build and read it through
    :meth:`BitmapStore.count_bitmaps`.
    """
    buffers: dict = {}
    negative = bytearray()
    pos = 0
    for record in partition:
        if weighted:
            txn, weight = record
        else:
            txn, weight = record, 1
        items = relevant.intersection(txn)
        if len(items) < min_items:
            continue  # supports no candidate: assign it no tid run
        if weight < 0:
            weight = -weight
            negative += b"0" * (pos - len(negative)) + b"1" * weight
        run = b"1" * weight
        for item in items:
            buf = buffers.get(item)
            if buf is None:
                buffers[item] = buf = bytearray()
            gap = pos - len(buf)
            if gap:
                buf += b"0" * gap
            buf += run
        pos += weight
    bitmaps = TidBitmaps(
        (item, int(buf.ljust(pos, b"0"), 2)) for item, buf in buffers.items()
    )
    if negative:
        bitmaps.negative = int(negative.ljust(pos, b"0"), 2)
    return bitmaps


class BitmapStore(CandidateStore):
    """Vertical tid-bitmap counting kernel (the RDD-Eclat speedup).

    :meth:`count_partition` builds one bitmap per candidate item over the
    partition's transactions — bit ``t`` set when transaction ``t``
    contains the item — then computes every candidate's support as
    ``(bm[i1] & bm[i2] & ... & bm[ik]).bit_count()``.  Python big-int
    ``&`` runs over machine words in C, so the per-candidate cost is
    ``(k-1) * n_tids / 64`` word ops instead of a per-transaction walk.

    **Weighted layout.**  A compacted pair ``(txn, weight)`` occupies a
    *run* of ``weight`` consecutive tid positions, all set in each of the
    transaction's item bitmaps, so one ``bit_count()`` of the
    intersection is already the exact weighted support — no per-weight
    bucketing.  Total bitmap length is the partition's logical
    transaction count in *bits*, so the run encoding costs 1/8 byte per
    logical transaction per distinct item.  A negative weight's run is
    also set in the build's ``negative`` mask, and a candidate's net
    support is ``popcount(bm) - 2 * popcount(bm & negative)`` — still one
    build and one prefix walk for a signed delta.

    **Prefix caching.**  Candidates are intersected in lexicographic
    order with a stack of shared-prefix intersections, so sibling
    candidates (same k-1 prefix — the bulk of ``apriori_gen`` output)
    re-intersect nothing but their last item.

    The per-transaction :meth:`count_into` path (interface contract) is a
    plain candidate scan; miners hit the vertical kernel through
    :meth:`count_partition`.
    """

    def __init__(self, candidates=()):
        #: distinct items across the candidates — what a tid-bitmap build
        #: over this store must cover
        self.items: set = set()
        self._sorted: list[Itemset] | None = None
        super().__init__(candidates)

    def insert(self, candidate) -> None:
        cand = self._register_candidate(candidate)
        if cand is None:
            return
        self.items.update(cand)
        self._sorted = None

    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        if self.k is None or len(transaction) < self.k:
            return
        issuperset = frozenset(transaction).issuperset
        get = counts.get
        for cand in self._order:
            if issuperset(cand):
                counts[cand] = get(cand, 0) + weight

    def count_partition(self, partition, weighted: bool = False) -> dict:
        if self.k is None or not self._order:
            return {}
        return self.count_bitmaps(
            build_tid_bitmaps(partition, self.items, min_items=self.k, weighted=weighted)
        )

    def count_bitmaps(self, bitmaps: dict) -> dict:
        """Counts from a prebuilt :func:`build_tid_bitmaps` result (or any
        ``item -> tid-bitmap`` mapping kept current some other way), which
        must cover this store's items: the build is the per-row part of a
        counting pass, and callers counting several stores over the same
        rows pay it once."""
        k = self.k
        if k is None or not bitmaps:
            return {}
        negative = getattr(bitmaps, "negative", 0)
        # ---- intersect candidates, sharing prefixes via a stack ----------
        if self._sorted is None:
            self._sorted = sorted(self._order)
        counts: dict = {}
        prefix_items: list = []
        prefix_bms: list = []
        for cand in self._sorted:
            depth = 0
            while depth < len(prefix_items) and prefix_items[depth] == cand[depth]:
                depth += 1
            del prefix_items[depth:]
            del prefix_bms[depth:]
            bm = prefix_bms[-1] if prefix_bms else None
            for j in range(depth, k):
                item_bm = bitmaps.get(cand[j], 0)
                bm = item_bm if bm is None else bm & item_bm
                if j < k - 1:
                    prefix_items.append(cand[j])
                    prefix_bms.append(bm)
            support = bm.bit_count()
            if negative:
                support -= 2 * (bm & negative).bit_count()
            if support:
                counts[cand] = support
        return counts

    def stats(self) -> dict:
        return {**super().stats(), "items": len(self.items)}


# ---------------------------------------------------------------------------
# Store registry + factory
# ---------------------------------------------------------------------------
_STORES: dict[str, type] = {}

def register_store(name: str, cls: type, *, overwrite: bool = False) -> type:
    """Register a store class under ``name``; returns ``cls``.

    The class must be constructible as ``cls(candidates, **opts)`` and
    honor the :class:`CandidateStore` contract.  Registered names become
    valid ``MiningConfig.candidate_store`` values and CLI
    ``--candidate-store`` choices.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"store name must be a non-empty string, got {name!r}")
    if name in _STORES and not overwrite:
        raise ValueError(
            f"candidate store {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _STORES[name] = cls
    return cls


def unregister_store(name: str) -> None:
    """Remove a registered store (no-op when absent)."""
    _STORES.pop(name, None)


def store_names() -> list[str]:
    """Sorted names of every registered store (drives CLI choices and
    :class:`~repro.core.registry.MiningConfig` validation)."""
    return sorted(_STORES)


def get_store(name: str) -> type:
    try:
        return _STORES[name]
    except KeyError:
        raise ValueError(
            f"unknown candidate store {name!r}; "
            f"registered stores: {', '.join(store_names())}"
        ) from None


def make_store(name: str, candidates=(), **opts) -> CandidateStore:
    """Build the store registered under ``name`` over ``candidates``.

    ``opts`` go to the store constructor (e.g. ``fanout=``/
    ``max_leaf_size=`` for ``hashtree``).
    """
    return get_store(name)(candidates, **opts)


register_store("trie", TrieStore)
register_store("flatdict", FlatDictStore)
register_store("bitmap", BitmapStore)
register_store("linear", LinearStore)

__all__ = [
    "BitmapStore",
    "CandidateStore",
    "FlatDictStore",
    "LinearStore",
    "TidBitmaps",
    "TrieStore",
    "build_tid_bitmaps",
    "get_store",
    "make_store",
    "register_store",
    "store_names",
    "unregister_store",
]

# HashTree subclasses CandidateStore, so its module can only load once the
# base class above exists; importing it here registers ``"hashtree"``.
import repro.core.hashtree  # noqa: E402,F401
