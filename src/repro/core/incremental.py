"""Incremental sliding-window mining: delta-maintained counts with
border-bounded re-mining.

Every miner in :mod:`repro.core` is batch-only — one appended transaction
forces a full re-mine.  YAFIM's level-wise structure says that is almost
always wasted work: under a small delta a level's frequent family can only
change if some itemset's exact count crosses the support threshold, and
the only itemsets that can cross *upward* are the level's **negative
border** (the candidates ``apriori_gen`` produced and the counting pass
rejected).  :class:`IncrementalMiner` therefore keeps, per window:

* the window **vertically**: one tid-bitmap per dictionary code, bit
  ``i`` = row ``i`` of the window (oldest row in bit 0) — bulk-built when
  the window is (re-)encoded, then *maintained*: an appended row sets one
  bit per item, a retire shifts every bitmap right (RDD-Eclat's lesson:
  keep the tidsets and intersect, do not rebuild them per pass);
* per level ``k``: exact counts for **every** generated candidate, i.e.
  the frequent k-itemsets *and* the level's negative border, plus a warm
  :class:`~repro.core.candidatestore.BitmapStore` over them (the
  vertical counting kernel);
* the exact per-item counts of the raw window (level 1 and the
  dictionary-shift guard).

``append(transactions)`` / ``retire(n_oldest)`` / ``slide(transactions,
n_oldest)`` are one update path whose work follows the delta in three
places:

* **Counting.**  The appended rows and the retired rows form a *signed*
  delta — ``(row, +n)`` / ``(row, -n)``, a row on both sides cancels —
  laid out once per advance as tid-bitmaps, and each level takes ONE
  ``count_partition(delta, weighted=True)`` bitmap pass over it
  returning net counts; each frequent
  family is re-derived against the **final** threshold.  A window
  advance must be a ``slide``, not an ``append`` then a ``retire``: the
  window in between is the largest of the three, its threshold the
  highest, and itemsets at the threshold fall out only to come back —
  every level they touch re-mined twice for a state nobody can observe.
* **Candidates.**  The tracked set of level ``k`` always equals
  ``apriori_gen`` of level ``k-1``'s frequent family, and is *kept* so,
  not re-derived: when that family gains and loses a few itemsets (a
  border itemset crossed the threshold, in either direction — retiring
  lowers the threshold, so borders cross upward there too), level ``k``
  drops the supersets of what left and gains the one-item extensions of
  what arrived whose every (k-1)-subset is frequent
  (:func:`~repro.core.candidates.candidates_delta`).  Counts are edited
  in place; ``apriori_gen`` runs only for a level that did not exist, or
  when so much crossed that generating the level whole is the cheaper
  way to the same set.
* **The window.**  Only those genuinely new candidates need the whole
  window, and they read the maintained bitmaps through
  :func:`~repro.core.candidatestore.count_bitmaps`: one prefix walk, no
  build (the level's store counts the delta passes only).

Everything runs in the calling thread: a popcount walk over resident
bitmaps beats re-encoding the window for an engine job per level by
2-5x at every size measured, so the miner takes no engine context.  It
counts on bitmaps only: a config's ``backend`` and candidate store are
inert for this tier.

The update also says what it changed: its :class:`FamilyDiff` is built
from the ``(old, new)`` counts the pass holds while it applies them, not
from two snapshots of the family.
One event falls back to a full rebuild: a frequent singleton outside the
item dictionary (its occurrences were dropped at encode time, so no delta
pass can recover them — the window must be re-encoded) — and nothing
else; a dictionary item going *infrequent* needs no re-encode, its codes
simply drop out of level 1.

Correctness contract (pinned by the oracle tests): after any sequence of
appends and retires the mined itemsets equal a cold re-mine of the
current window.  Every update is traced as an ``incremental_update`` span
carrying its per-phase seconds (:data:`PHASES`) — the miner's trace holds
the last update's span alone, so it stays one span long — and reported as
:class:`IncrementalUpdate` delta-pass stats, which also ride on the
result's :class:`~repro.core.results.IterationStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.encoding import ItemDictionary
from repro.common.errors import MiningError
from repro.common.itemset import canonical_transaction, min_support_count
from repro.core.candidates import apriori_gen, candidates_delta
from repro.core.candidatestore import BitmapStore, build_tid_bitmaps, count_bitmaps
from repro.core.results import IterationStats, MiningRunResult
from repro.engine.tracing import Tracer

#: where an update's seconds went: keeping candidate sets and their stores
#: current / the signed delta passes and folding them in / the vertical
#: window and the full-window counts of new candidates / re-thresholding
#: and the family diff
PHASES = ("generate", "delta", "window", "diff")

#: updates whose diffs a decoded family may fall behind by before it is
#: dropped (decoding afresh costs about as much as applying this many)
FAMILY_BEHIND = 4


@dataclass
class FamilyDiff:
    """What changed between two frequent-itemset families.

    The streaming subscription surface ships *these* instead of full
    results: ``added`` holds itemsets newly frequent (with their new
    counts), ``removed`` the ones that fell out (with their last counts),
    and ``changed`` the survivors whose exact count moved
    (``itemset -> (old_count, new_count)``).  Diffs over consecutive
    version transitions compose associatively, so a change log can answer
    "what happened since version V" by folding the per-transition diffs.
    """

    added: dict = field(default_factory=dict)
    removed: dict = field(default_factory=dict)
    changed: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @classmethod
    def between(cls, old: dict, new: dict) -> "FamilyDiff":
        """The diff taking family ``old`` to family ``new``."""
        return cls(
            added={i: c for i, c in new.items() if i not in old},
            removed={i: c for i, c in old.items() if i not in new},
            changed={
                i: (old[i], c) for i, c in new.items()
                if i in old and old[i] != c
            },
        )

    @classmethod
    def compose(cls, diffs) -> "FamilyDiff":
        """Fold consecutive transition diffs into one (A→B→C ⇒ A→C)."""
        out = cls()
        for d in diffs:
            for itemset, count in d.added.items():
                if itemset in out.removed:
                    old = out.removed.pop(itemset)
                    if old != count:
                        out.changed[itemset] = (old, count)
                else:
                    out.added[itemset] = count
            for itemset, (old, new) in d.changed.items():
                if itemset in out.added:
                    out.added[itemset] = new
                elif itemset in out.changed:
                    first = out.changed[itemset][0]
                    if first == new:
                        del out.changed[itemset]
                    else:
                        out.changed[itemset] = (first, new)
                else:
                    out.changed[itemset] = (old, new)
            for itemset, old in d.removed.items():
                if itemset in out.added:
                    del out.added[itemset]
                elif itemset in out.changed:
                    out.removed[itemset] = out.changed.pop(itemset)[0]
                else:
                    out.removed[itemset] = old
        return out

    def apply(self, family: dict) -> dict:
        """The family this diff produces when applied to ``family``."""
        out = dict(family)
        for itemset in self.removed:
            out.pop(itemset, None)
        out.update(self.added)
        for itemset, (_, new) in self.changed.items():
            out[itemset] = new
        return out


@dataclass
class IncrementalUpdate:
    """What one ``append``/``retire``/``slide`` (or the initial build)
    actually did."""

    kind: str  # "build" | "append" | "retire" | "slide"
    n_delta: int  # logical transactions added plus removed
    n_transactions: int = 0  # window size after the update
    version: int = 0
    seconds: float = 0.0
    threshold: int = 0
    #: True when the update fell back to a full re-encode + re-mine
    full_rebuild: bool = False
    rebuild_reason: str | None = None
    delta_rows: int = 0  # physical (deduplicated) delta rows counted
    delta_candidates: int = 0  # candidates maintained by delta passes
    full_candidates: int = 0  # candidates re-counted over the full window
    levels_delta: int = 0  # levels kept current by a delta pass alone
    levels_remined: int = 0  # levels whose candidate set was regenerated
    #: per-level trail: {"k", "mode" ("delta"|"remine"), "delta_candidates",
    #: "full_candidates", "candidates_added", "candidates_dropped",
    #: "seconds"} — folded into IterationStats by ``result()``
    per_level: list = field(default_factory=list)
    #: seconds per phase of :data:`PHASES`, summed over the levels
    phase_seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    #: how the frequent family changed across this update (``None`` on
    #: the initial build, on a no-op, or when diff tracking is disabled)
    #: — the payload the streaming change feed ships
    family_diff: FamilyDiff | None = None


class _DecodeMemo(dict):
    """Encoded itemset -> itemset in original items, filled on first
    lookup.  Lives as long as its dictionary: an update decodes what it
    changed, and anything it has decoded before is one dict hit."""

    def __init__(self, dictionary: ItemDictionary):
        super().__init__()
        self._decode_itemset = dictionary.decode_itemset

    def __missing__(self, cand):
        out = self[cand] = self._decode_itemset(cand)
        return out


@dataclass
class _Level:
    """Per-level state: exact counts for frequent ∪ negative border."""

    k: int
    counts: dict  # candidate -> exact window count
    frequent: set  # candidates at/above the current threshold
    store: BitmapStore  # warm over counts' keys (the delta passes)

    @property
    def border(self) -> set:
        """The level's negative border: generated but infrequent."""
        return set(self.counts) - self.frequent


class IncrementalMiner:
    """Sliding-window frequent-itemset state with delta maintenance.

    Parameters
    ----------
    transactions:
        The initial window (must be non-empty).
    min_support:
        Relative support threshold in (0, 1]; the absolute threshold is
        re-derived from the window size after every update.
    max_length:
        Optional cap on mined itemset length.
    track_family_diff:
        Emit a :class:`FamilyDiff` with every update (a plain attribute:
        the serving tier turns it on when a watch starts reading them).
    """

    def __init__(
        self,
        transactions,
        min_support: float,
        *,
        max_length: int | None = None,
        track_family_diff: bool = True,
    ):
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        self.min_support = min_support
        self.max_length = max_length
        self.track_family_diff = track_family_diff
        self._window: list = [canonical_transaction(t) for t in transactions]
        if not self._window:
            raise MiningError("cannot build incremental state over an empty window")
        self._item_counts: dict = {}
        for txn in self._window:
            for item in txn:
                self._item_counts[item] = self._item_counts.get(item, 0) + 1
        self.version = 1
        self.full_rebuilds = 0
        #: the family itemsets() last decoded, and the exact diffs of the
        #: updates since: applied when asked for, off the writer's path
        self._family: dict | None = None
        self._family_behind: list = []
        t0 = time.perf_counter()
        update = IncrementalUpdate(kind="build", n_delta=len(self._window))
        self._rebuild(update)
        self.last_update = self._finish(update, t0)

    # -- public surface ----------------------------------------------------
    @property
    def n_transactions(self) -> int:
        return len(self._window)

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def n_frequent(self) -> int:
        """``len(itemsets())``, without decoding the family."""
        return len(self._frequent1) + sum(len(lvl.frequent) for lvl in self._levels)

    def negative_border(self, k: int) -> set:
        """The tracked negative border at level ``k`` (encoded itemsets
        for ``k >= 2``; raw infrequent-singleton items for ``k == 1``)."""
        if k == 1:
            return {
                (item,)
                for item, c in self._item_counts.items()
                if c < self._threshold
            }
        for lvl in self._levels:
            if lvl.k == k:
                return lvl.border
        return set()

    def append(self, transactions) -> IncrementalUpdate:
        """Extend the window; maintain counts from the delta alone."""
        return self._update("append", transactions, 0)

    def retire(self, n_oldest: int) -> IncrementalUpdate:
        """Drop the ``n_oldest`` transactions from the front of the window.

        Retiring lowers the absolute threshold, so negative-border
        itemsets can cross *upward* here exactly as appends push them up.
        Raises :class:`MiningError` rather than emptying the window.
        """
        return self._update("retire", (), n_oldest)

    def slide(self, transactions, n_oldest: int) -> IncrementalUpdate:
        """Append ``transactions`` and retire the ``n_oldest`` rows of the
        result as ONE update against the final threshold.

        Same window as ``append`` then ``retire``, without visiting the
        state in between: there the threshold sits at its highest (window
        + delta rows), so itemsets fall out only to come back when the
        retire lowers it again, and every level they touch is re-mined
        twice for a window no caller can observe.  Rows that appear on
        both sides cancel before anything is counted.
        """
        return self._update("slide", transactions, n_oldest)

    def itemsets(self) -> dict:
        """Current frequent itemsets (decoded) with exact counts."""
        family = self._family
        if family is None:
            threshold = self._threshold
            family = {}
            for item, count in self._item_counts.items():
                if count >= threshold:
                    family[(item,)] = count
            decode = self._decode
            for lvl in self._levels:
                for cand in lvl.frequent:
                    family[decode(cand)] = lvl.counts[cand]
        for diff in self._family_behind:
            family = diff.apply(family)
        self._family, self._family_behind = family, []
        return dict(family)

    def result(self) -> MiningRunResult:
        """A :class:`MiningRunResult` for the current window, carrying the
        last update's delta-pass stats on its :class:`IterationStats`."""
        result = MiningRunResult(
            algorithm="incremental",
            min_support=self.min_support,
            n_transactions=len(self._window),
        )
        result.itemsets = self.itemsets()
        upd = self.last_update
        by_k = {entry["k"]: entry for entry in upd.per_level}
        first = IterationStats(
            k=1,
            seconds=upd.seconds - sum(entry["seconds"] for entry in upd.per_level),
            n_candidates=len(self._item_counts),
            n_frequent=len(self._frequent1),
            delta_rows=upd.delta_rows,
        )
        result.iterations = [first]
        for lvl in self._levels:
            entry = by_k.get(lvl.k, {})
            result.iterations.append(
                IterationStats(
                    k=lvl.k,
                    seconds=entry.get("seconds", 0.0),
                    n_candidates=len(lvl.counts),
                    n_frequent=len(lvl.frequent),
                    delta_rows=upd.delta_rows,
                    delta_candidates=entry.get("delta_candidates", 0),
                    full_candidates=entry.get("full_candidates", 0),
                    candidates_added=entry.get("candidates_added", 0),
                    candidates_dropped=entry.get("candidates_dropped", 0),
                )
            )
        result.trace = self._trace
        return result

    # -- internals ---------------------------------------------------------
    def _stamp(self, update: IncrementalUpdate) -> IncrementalUpdate:
        update.n_transactions = len(self._window)
        update.version = self.version
        update.threshold = self._threshold
        return update

    def _finish(self, update: IncrementalUpdate, t0: float) -> IncrementalUpdate:
        """Stamp ``update``, close its clock and trace it, phases included.
        The trace is this update's alone: a warm miner lives for thousands
        of updates, and a result carries the trace of the one that brought
        its window current."""
        update.seconds = time.perf_counter() - t0
        self._trace = Tracer(label="incremental")
        self._trace.origin_s = t0  # its one span starts the timeline
        self._trace.add_span(
            "incremental_update", "driver", t0, update.seconds,
            kind=update.kind, n_delta=update.n_delta,
            **{f"{phase}_s": s for phase, s in update.phase_seconds.items()},
        )
        return self._stamp(update)

    def _update(self, kind: str, transactions, n_oldest: int) -> IncrementalUpdate:
        """The one update path: append ``transactions``, then drop the
        ``n_oldest`` rows of the result (either side may be empty)."""
        appended = [canonical_transaction(t) for t in transactions]
        n_oldest = max(0, n_oldest)
        update = IncrementalUpdate(kind=kind, n_delta=len(appended) + n_oldest)
        if not appended and not n_oldest:
            return self._stamp(update)
        total = len(self._window) + len(appended)
        if n_oldest >= total:
            raise MiningError(
                f"retire({n_oldest}) would empty the {total}-transaction window"
            )
        t0 = time.perf_counter()
        retired = self._window[:n_oldest]
        retired += appended[: n_oldest - len(retired)]
        item_delta: dict = {}
        for sign, txns in ((1, appended), (-1, retired)):
            for txn in txns:
                for item in txn:
                    item_delta[item] = item_delta.get(item, 0) + sign
        threshold = min_support_count(self.min_support, total - n_oldest)
        # Dictionary-shift guard: a frequent item outside the alphabet
        # was dropped from every encoded row — no delta pass can recover
        # its co-occurrences, so re-encode the window.  (An alphabet
        # item going infrequent needs nothing: its codes just leave
        # level 1.)  Looked up before anything mutates, so the rebuild
        # can diff against a snapshot of the old family.
        newcomers = [
            item
            for item in self._item_counts.keys() | item_delta.keys()
            if item not in self._dictionary
            and self._item_counts.get(item, 0) + item_delta.get(item, 0)
            >= threshold
        ]
        before = self.itemsets() if newcomers and self.track_family_diff else None
        self._window.extend(appended)
        del self._window[:n_oldest]
        for item, moved in item_delta.items():
            left = self._item_counts.get(item, 0) + moved
            if left:
                self._item_counts[item] = left
            else:
                self._item_counts.pop(item, None)
        if newcomers:
            update.full_rebuild = True
            update.rebuild_reason = f"new frequent singleton {newcomers[0]!r}"
            self.full_rebuilds += 1
            self._rebuild(update)
            self._family, self._family_behind = None, []
            if before is not None:
                t_diff = time.perf_counter()
                update.family_diff = FamilyDiff.between(before, self.itemsets())
                update.phase_seconds["diff"] += time.perf_counter() - t_diff
        else:
            self._apply_delta(appended, retired, item_delta, threshold, update)
            if update.family_diff is None or len(self._family_behind) >= FAMILY_BEHIND:
                self._family, self._family_behind = None, []
            elif self._family is not None:
                self._family_behind.append(update.family_diff)
        self.version += 1
        self.last_update = update
        return self._finish(update, t0)

    def _count_window(self, candidates) -> dict:
        """Exact full-window counts for ``candidates`` (zero-filled): one
        prefix walk over the maintained tid-bitmaps — no build."""
        counts = count_bitmaps(self._tids, candidates)
        return {c: counts.get(c, 0) for c in candidates}

    def _rebuild(self, update: IncrementalUpdate) -> None:
        """Full re-encode + re-mine of the current window (initial build
        and the new-frequent-singleton fallback)."""
        clock = time.perf_counter
        phases = update.phase_seconds
        t0 = clock()
        self._threshold = min_support_count(self.min_support, len(self._window))
        frequent_items = {
            i: c for i, c in self._item_counts.items() if c >= self._threshold
        }
        self._dictionary = ItemDictionary.from_counts(frequent_items)
        self._decode = _DecodeMemo(self._dictionary).__getitem__
        # The vertical window, bulk-built.  Bit i of a code's bitmap is
        # row i of the window, so the newest row goes in first (a build's
        # first record lands in the top bit) and every row gets a bit.
        encode = self._dictionary.encode_transaction
        self._tids = build_tid_bitmaps(
            [encode(txn) for txn in reversed(self._window)], min_items=0
        )
        phases["window"] += clock() - t0
        self._frequent1 = {(self._dictionary.code(i),) for i in frequent_items}
        self._levels: list[_Level] = []
        prev = self._frequent1
        k = 2
        while prev and (self.max_length is None or k <= self.max_length):
            t0 = clock()
            candidates = apriori_gen(prev)
            if not candidates:
                break
            store = BitmapStore(candidates)
            t1 = clock()
            counts = self._count_window(candidates)
            frequent = {c for c in candidates if counts[c] >= self._threshold}
            t2 = clock()
            phases["generate"] += t1 - t0
            phases["window"] += t2 - t1
            self._levels.append(
                _Level(k=k, counts=counts, frequent=frequent, store=store)
            )
            update.full_candidates += len(candidates)
            update.levels_remined += 1
            update.per_level.append(
                {"k": k, "mode": "remine", "delta_candidates": 0,
                 "full_candidates": len(candidates),
                 "candidates_added": len(candidates), "candidates_dropped": 0,
                 "seconds": t2 - t0}
            )
            prev = frequent
            k += 1

    def _advance_window(self, encoded: list, n_oldest: int) -> None:
        """Bring the vertical window up to date: one bit per appended row
        (``encoded``, in order) above the rows it held, then the
        ``n_oldest`` oldest rows shifted out of every bitmap.  Called with
        ``_window`` already advanced.

        The one place outside :mod:`repro.core.candidatestore` that
        touches a tid-bitmap's bits: the window is *maintained*, and an
        8-row advance must not pay a 3 000-row build — so this method
        knows the bit order ``_rebuild`` asked the builder for (row ``i``
        in bit ``i``) and nothing else of the format."""
        n_before = len(self._window) - len(encoded) + n_oldest
        tids = self._tids
        for i, enc in enumerate(encoded, n_before):
            bit = 1 << i
            for code in enc:
                tids[code] = tids.get(code, 0) | bit
        if n_oldest:
            for code, bitmap in tids.items():
                tids[code] = bitmap >> n_oldest

    def _apply_delta(
        self, appended, retired, item_delta: dict, threshold: int,
        update: IncrementalUpdate,
    ) -> None:
        """Window and item counts already hold the new state; bring the
        vertical window and every level's candidates, counts and family
        up to it, and record what changed in ``update.family_diff`` from
        the ``(old, new)`` counts this pass holds anyway."""
        clock = time.perf_counter
        phases = update.phase_seconds
        was, self._threshold = self._threshold, threshold
        dictionary = self._dictionary
        decode = self._decode
        diff = FamilyDiff() if self.track_family_diff else None
        changed_counts = diff.changed if diff is not None else None

        # Encode the delta over the unchanged dictionary.  The appended
        # rows enter the vertical window and the retired ones leave it;
        # appended minus retired is the signed delta every level counts
        # (a row on both sides cancels, and one too short for a k >= 2
        # candidate is no row at all).
        t0 = clock()
        encode = dictionary.encode_transaction
        encoded = [encode(txn) for txn in appended]
        self._advance_window(encoded, len(retired))
        net: dict = {}
        for sign, rows in ((1, encoded), (-1, map(encode, retired))):
            for enc in rows:
                if len(enc) >= 2:
                    net[enc] = net.get(enc, 0) + sign
        signed = [(enc, mult) for enc, mult in net.items() if mult]
        update.delta_rows = len(signed)
        t1 = clock()
        phases["window"] += t1 - t0

        item_counts = self._item_counts
        old_f1 = self._frequent1
        new_f1 = {
            (dictionary.code(i),)
            for i, c in item_counts.items()
            if c >= threshold and i in dictionary
        }
        # what the family below gained and lost: level k's candidates
        # follow level k-1's crossings
        arrived, left = new_f1 - old_f1, old_f1 - new_f1
        if diff is not None:  # level 1 lives in item space: no decode
            for (code,) in arrived:
                item = dictionary.item(code)
                diff.added[(item,)] = item_counts[item]
            for (code,) in left:
                item = dictionary.item(code)
                diff.removed[(item,)] = (
                    item_counts.get(item, 0) - item_delta.get(item, 0)
                )
            for item, d in item_delta.items():
                new = item_counts.get(item, 0)
                if d and item in dictionary and new - d >= was and new >= threshold:
                    changed_counts[(item,)] = (new - d, new)
        self._frequent1 = new_f1
        phases["diff"] += clock() - t1

        # the signed delta, laid out once for every level's pass
        t0 = clock()
        delta = build_tid_bitmaps(signed, weighted=True)
        phases["delta"] += clock() - t0

        items = sorted(code for (code,) in old_f1 | new_f1)
        prev = new_f1
        li = 0
        k = 2
        while prev and (self.max_length is None or k <= self.max_length):
            t0 = clock()
            lvl = self._levels[li] if li < len(self._levels) else None
            counts = lvl.counts if lvl is not None else {}
            remine = bool(arrived or left)
            fresh: list = []
            dropped: dict = {}  # candidate -> its last count
            if remine:
                # tracked == apriori_gen(prev) is kept, not re-derived: a
                # candidate goes when a subset of it left the family
                # below, and comes when an arrival completes its subsets
                fresh, stale = candidates_delta(counts, prev, arrived, left, items)
                dropped = {cand: counts.pop(cand) for cand in stale}
                if dropped:  # the store stays warm: only these leave it
                    lvl.store.without(dropped)
            if lvl is None:  # no such level before
                if not fresh:
                    break
                lvl = _Level(k=k, counts=counts, frequent=set(), store=BitmapStore())
                self._levels.append(lvl)
            t1 = clock()
            # ONE signed pass over the delta for the candidates that stay,
            # folded in by the sweep that also moves the family
            moved = (
                lvl.store.count_partition(delta, weighted=True)
                if signed and counts else {}
            )
            arrived, left = _sweep(lvl, moved, was, threshold, changed_counts, decode)
            t2 = clock()
            n_kept = len(counts)
            if fresh:  # counted over the whole window, delta included
                counts.update(self._count_window(fresh))
                for cand in fresh:
                    lvl.store.insert(cand)
                    if counts[cand] >= threshold:
                        arrived.append(cand)
                        lvl.frequent.add(cand)
            t3 = clock()
            for cand, last in dropped.items():
                if cand in lvl.frequent:
                    lvl.frequent.discard(cand)
                    left[cand] = last
            if diff is not None:
                for cand in arrived:
                    diff.added[decode(cand)] = counts[cand]
                for cand, last in left.items():
                    diff.removed[decode(cand)] = last
            t4 = clock()
            phases["generate"] += t1 - t0
            phases["delta"] += t2 - t1
            phases["window"] += t3 - t2
            phases["diff"] += t4 - t3
            if not counts:  # every candidate lost a subset: the level is gone
                del self._levels[li]
                break
            update.delta_candidates += n_kept
            update.full_candidates += len(fresh)
            if remine:
                update.levels_remined += 1
            else:
                update.levels_delta += 1
            update.per_level.append(
                {"k": k, "mode": "remine" if remine else "delta",
                 "delta_candidates": n_kept, "full_candidates": len(fresh),
                 "candidates_added": len(fresh), "candidates_dropped": len(dropped),
                 "seconds": t4 - t0}
            )
            prev = lvl.frequent
            li += 1
            k += 1
        if diff is not None:
            for gone in self._levels[li:]:
                for cand in gone.frequent:
                    diff.removed[decode(cand)] = gone.counts[cand]
        del self._levels[li:]
        update.family_diff = diff


def _sweep(lvl: _Level, moved: dict, was: int, bar: int, changed, decode):
    """Fold the net delta counts ``moved`` into ``lvl.counts`` and move
    ``lvl.frequent`` with them, from frequent at ``was`` to frequent at
    ``bar``: one pass over what the delta touched, where each ``(old,
    new)`` pair is in hand.  Returns ``(arrived, left)`` — the candidates
    that entered the family and ``{candidate: last count}`` of those that
    fell out — and notes in ``changed`` (a :class:`FamilyDiff`'s, or
    ``None``) every itemset whose count moved while it stayed frequent.

    Only when the threshold itself moved (an append or a retire alone;
    a slide keeps the window's size) can an untouched candidate cross,
    and only then are the others looked at.
    """
    counts, frequent = lvl.counts, lvl.frequent
    arrived: list = []
    left: dict = {}
    for cand, d in moved.items():
        old = counts[cand]
        counts[cand] = new = old + d
        if new >= bar:
            if old < was:
                arrived.append(cand)
            elif d and changed is not None:
                changed[decode(cand)] = (old, new)
        elif old >= was:
            left[cand] = old
    if was != bar:
        for cand, n in counts.items():
            if (n >= bar) != (n >= was) and cand not in moved:
                if n >= bar:
                    arrived.append(cand)
                else:
                    left[cand] = n
    frequent.difference_update(left)
    frequent.update(arrived)
    return arrived, left


def run_incremental(transactions, config) -> MiningRunResult:
    """Registry-shaped runner for ``MiningConfig(incremental=True)``.

    A one-shot incremental run is a cold build — byte-identical itemsets
    to the exact miners — and exists so the same config flows through
    ``mine_frequent_itemsets``, the CLI, and the serving tier (where the
    built state is kept warm and appends become delta updates).  It runs
    in the calling thread on bitmaps: the config's ``backend`` /
    ``parallelism`` / partition counts and candidate store are inert here.
    """
    return IncrementalMiner(
        transactions, config.min_support, max_length=config.max_length
    ).result()


__all__ = [
    "FamilyDiff",
    "IncrementalMiner",
    "IncrementalUpdate",
    "run_incremental",
]
