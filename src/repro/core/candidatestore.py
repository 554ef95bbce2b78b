"""Pluggable candidate stores — the counting data structure as an API.

YAFIM's Phase II cost is dominated by candidate support counting, and the
right data structure depends on the data: "A Data Structure Perspective
to the RDD-based Apriori" (PAPERS.md) shows the structure, not the
framework, setting RDD-Apriori's runtime, and "RDD-Eclat" shows tid-bitmap
intersection as the core Eclat-style speedup.  This module turns the
counting structure into an interface so every such experiment is a
~100-line store instead of a miner rewrite.

The interface (:class:`CandidateStore`)::

    insert(candidate)                  # add one k-itemset (idempotent)
    count_into(counts, txn, weight=1)  # += weight per contained candidate
    count_partition(partition, weighted=False) -> dict   # batch kernel
    layout                             # class-level: the partition layout
    subset(txn) -> list                # contained candidates
    candidate_index() -> dict          # candidate -> insertion position
    stats() -> dict                    # structure diagnostics
    len(store), iter(store)

**The layout contract.**  A store counts the partition layout its
*class* declares, and whoever owns the rows lays them out ONCE
(:func:`lay_out`) and hands every pass the same block:
``CandidateStore.layout`` is ``None`` for a store that counts the
(weighted) rows as they are, or a function ``(rows, weighted) -> block``
— :class:`BitmapStore` declares :func:`build_tid_bitmaps`.
``count_partition`` given a block of its class's layout counts it without
rebuilding anything; given plain rows it lays them out first (the
contract's row entry point, for callers with one store and one pass).

**Signed multiplicities.**  A weighted partition holds ``(transaction,
multiplicity)`` pairs and a multiplicity may be negative — a row leaving
a sliding window.  ``count_partition(rows, weighted=True)`` then returns
*net* counts: what the positive rows support minus what the negative
rows support, a row present with both signs counting on both sides.
``count_into`` stores get this for free (``+= weight``); the vertical
layout carries a mask of the negative tid runs.  A candidate whose net
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

Built-ins — three, each with a reason to exist:

``hashtree``
    The paper's structure (:class:`~repro.core.hashtree.HashTree`) —
    the default, and what ``paper_dataflow=True`` reproduces.
``bitmap``
    The fast kernel: the partition laid out vertically — one tid-bitmap
    (a Python big-int) per item — and every candidate support one bitmap
    AND chain + ``int.bit_count()``.  Weighted (compacted) transactions
    occupy one tid *run* of length ``weight``, so a single popcount still
    yields the exact weighted support.  A negative multiplicity marks its
    run in a mask and counts down.
``linear``
    Flat list scan (ablation A3: ``candidate_store="linear"``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import compress, repeat
from operator import itemgetter

from repro.common.itemset import Itemset


class CandidateStore(ABC):
    """Base class for candidate stores over same-length k-itemsets.

    Subclasses call :meth:`_register_candidate` from :meth:`insert` to get
    length validation, duplicate-insert idempotence, insertion-order
    tracking (``candidate_index``/``__iter__``/``__len__``) and the
    default ``subset``/``count_partition``/``stats`` implementations.
    """

    #: The partition layout this class counts.  ``None``: the (weighted)
    #: rows as they are — a miner may rewrite them between passes.
    #: Otherwise a function ``(rows, weighted=False) -> block`` whose
    #: result ``count_partition`` reads as it stands: the owner of the
    #: rows applies it once (:func:`lay_out`) however many passes follow.
    layout = None

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
        :meth:`count_into` over the rows; a class that declares a
        :attr:`layout` overrides this to count a block of that layout.
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


class TidBitmaps(dict):
    """The vertical layout of one partition: ``item -> tid-bitmap`` plus
    :attr:`negative`, the mask of the tid runs whose record carried a
    negative multiplicity (0 when none did).  Written by
    :func:`build_tid_bitmaps`, read by :func:`count_bitmaps`; the bit
    order and the run encoding are theirs alone."""

    negative = 0


def build_tid_bitmaps(partition, weighted: bool = False, *, min_items: int = 1) -> TidBitmaps:
    """Vertical build: item -> tid-bitmap int over ``partition``, for
    every item its rows hold.

    One bit per logical transaction, the first transaction in the most
    significant bit: a bit of ``bitmaps[item]`` is set when that
    transaction contains ``item``; a weighted ``(txn, weight)`` record
    occupies a run of ``|weight|`` consecutive tid positions, also set in
    the result's ``negative`` mask when ``weight < 0``, so one popcount
    of an intersection is already the exact weighted support — at 1/8
    byte per logical transaction per distinct item.  Rows with fewer
    than ``min_items`` items get no tid run (an empty row supports
    nothing, and skipping it keeps the bitmaps short).

    Each item's bits are appended as ``b"0"`` / ``b"1"`` bytes (zeros up
    to the row's position, then the run) and parsed once with
    ``int(buf, 2)``: every per-row step is a C-level ``bytearray``
    append, at one transient byte per tid per item.

    This is the one O(rows) step of vertical counting, which is why the
    owner of the rows runs it once (:func:`lay_out`) and every pass —
    one level after another, or several per-length stores at once —
    reads the same block through :func:`count_bitmaps`.
    """
    buffers: dict = {}
    negative = bytearray()
    pos = 0
    for record in partition:
        if weighted:
            txn, weight = record
        else:
            txn, weight = record, 1
        items = set(txn)
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


class SiblingGroups:
    """Same-length candidates as :func:`count_bitmaps` walks them: grouped
    by their (k-1)-prefix (k = 1: one group, the empty prefix), each
    group its last items and its candidates.

    Iterating yields one ``(shared, tail, last items, candidates)`` per
    group, prefixes in lexicographic order: a group's prefix is the
    first ``shared`` items of the one before it, then ``tail`` — so its
    intersection extends one already made by the items of ``tail``
    alone.  Grouping costs a pass over the candidates, which is why a
    store keeps its own, edited in place as candidates come and go, and
    never regroups per count: :meth:`add` and :meth:`discard` touch one
    group, and only a prefix that appears or empties re-sorts the
    prefixes (not the candidates) at the next walk."""

    def __init__(self, candidates=()):
        #: prefix -> (last items, candidates): the lists the walk holds
        self._groups: dict = {}
        self._walk: list | None = None
        for cand in candidates:
            self.add(cand)

    def add(self, cand) -> None:
        group = self._groups.get(cand[:-1])
        if group is None:
            self._groups[cand[:-1]] = ([cand[-1]], [cand])
            self._walk = None
        else:
            group[0].append(cand[-1])
            group[1].append(cand)

    def discard(self, cand) -> None:
        lasts, cands = self._groups[cand[:-1]]
        at = cands.index(cand)
        del lasts[at], cands[at]
        if not cands:
            del self._groups[cand[:-1]]
            self._walk = None

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        walk = self._walk
        if walk is None:  # built whole, then published: no reader sees half a walk
            walk = []
            before: tuple = ()
            for prefix, (lasts, cands) in sorted(self._groups.items(), key=itemgetter(0)):
                shared = 0
                for a, b in zip(before, prefix):
                    if a != b:
                        break
                    shared += 1
                walk.append((shared, prefix[shared:], lasts, cands))
                before = prefix
            self._walk = walk
        return iter(walk)


def count_bitmaps(bitmaps, candidates) -> dict:
    """Net support of ``candidates`` — same-length itemsets in any order,
    or the :class:`SiblingGroups` a store keeps of them — in a vertical
    block: a :class:`TidBitmaps`, or any ``item -> tid-bitmap`` mapping
    kept current some other way (no mask: nothing negative).  The one
    intersector.

    A candidate's support is ``(bm[i1] & ... & bm[ik]).bit_count()``,
    less twice its overlap with the negative mask; Python big-int ``&``
    runs over machine words in C, so the cost per candidate is a few
    word ops per 64 tids instead of a per-transaction walk.  Siblings —
    candidates sharing their first k-1 items, the bulk of ``apriori_gen``
    output — share one prefix intersection, itself extended from the
    previous group's by the items that differ; each sibling then costs
    one ``&`` and one popcount, all of a group's in one comprehension.  A
    group whose prefix intersects to nothing (an item missing from the
    block) is skipped whole.  Zero counts are left out.
    """
    if not candidates or not bitmaps:
        return {}
    if not isinstance(candidates, SiblingGroups):
        candidates = SiblingGroups(candidates)
    negative = getattr(bitmaps, "negative", 0)
    positive = ~negative
    get = bitmaps.get
    absent = repeat(0)
    counts: dict = {}
    path: list = []  # running intersections of the previous group's prefix
    for shared, tail, lasts, cands in candidates:
        del path[shared:]
        bm = path[-1] if path else -1  # -1: every tid
        for item in tail:
            bm &= get(item, 0)
            path.append(bm)
        if not bm:
            continue
        if negative:
            up, down = bm & positive, bm & negative
            supports = [
                (up & b).bit_count() - (down & b).bit_count()
                for b in map(get, lasts, absent)
            ]
        else:
            supports = [(bm & b).bit_count() for b in map(get, lasts, absent)]
        counts.update(zip(compress(cands, supports), filter(None, supports)))
    return counts


class BitmapStore(CandidateStore):
    """The vertical counting kernel (the RDD-Eclat speedup): declares the
    :func:`build_tid_bitmaps` layout and counts a block of it with
    :func:`count_bitmaps` — no per-row work in a pass at all.

    The per-transaction :meth:`count_into` path (interface contract) is a
    plain candidate scan; miners hit the vertical kernel through
    :meth:`count_partition`.
    """

    def __init__(self, candidates=()):
        #: the intersector's grouping of the candidates: made by the first
        #: count (a store shipped uncounted carries none), then kept
        #: current by every insert and removal
        self._groups: SiblingGroups | None = None
        super().__init__(candidates)

    @staticmethod
    def layout(rows, weighted: bool = False) -> TidBitmaps:
        return build_tid_bitmaps(rows, weighted)

    def insert(self, candidate) -> None:
        cand = self._register_candidate(candidate)
        if cand is not None and self._groups is not None:
            self._groups.add(cand)

    def without(self, candidates) -> "BitmapStore":
        """Forgets ``candidates`` in place: the thousands that stay are
        neither registered nor grouped again."""
        gone = self._seen.intersection(candidates)
        if gone:
            self._seen -= gone
            self._order = [cand for cand in self._order if cand not in gone]
            self._index = None
            if self._groups is not None:
                for cand in gone:
                    self._groups.discard(cand)
        return self

    def count_into(self, counts: dict, transaction, weight: int = 1) -> None:
        if self.k is None or len(transaction) < self.k:
            return
        issuperset = frozenset(transaction).issuperset
        get = counts.get
        for cand in self._order:
            if issuperset(cand):
                counts[cand] = get(cand, 0) + weight

    def count_partition(self, partition, weighted: bool = False) -> dict:
        if not isinstance(partition, TidBitmaps):  # the row entry point
            partition = self.layout(partition, weighted)
        if self._groups is None:
            self._groups = SiblingGroups(self._order)
        return count_bitmaps(partition, self._groups)

    def stats(self) -> dict:
        items = {item for cand in self._order for item in cand}
        return {**super().stats(), "items": len(items)}


def lay_out(store, rows, weighted: bool = False):
    """``rows`` in the layout ``store`` (a store or a store class)
    counts: the one call an owner of rows makes, once, before handing
    the block to every ``count_partition`` that reads those rows."""
    layout = store.layout
    return rows if layout is None else layout(rows, weighted)


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


register_store("bitmap", BitmapStore)
register_store("linear", LinearStore)

__all__ = [
    "BitmapStore",
    "CandidateStore",
    "LinearStore",
    "SiblingGroups",
    "TidBitmaps",
    "build_tid_bitmaps",
    "count_bitmaps",
    "get_store",
    "lay_out",
    "make_store",
    "register_store",
    "store_names",
    "unregister_store",
]

# HashTree subclasses CandidateStore, so its module can only load once the
# base class above exists; importing it here registers ``"hashtree"``.
import repro.core.hashtree  # noqa: E402,F401
