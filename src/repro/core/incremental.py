"""Incremental sliding-window mining: delta-maintained counts with
border-bounded re-mining.

Every miner in :mod:`repro.core` is batch-only — one appended transaction
forces a full re-mine.  YAFIM's level-wise structure says that is almost
always wasted work: under a small delta a level's frequent family can only
change if some itemset's exact count crosses the support threshold, and
the only itemsets that can cross *upward* are the level's **negative
border** (the candidates ``apriori_gen`` produced and the counting pass
rejected).  :class:`IncrementalMiner` therefore keeps, per window:

* the dict-encoded transactions with multiplicities (the PR-4 compacted
  representation — identical rows collapse to one weighted row);
* per level ``k``: exact counts for **every** generated candidate, i.e.
  the frequent k-itemsets *and* the level's negative border, plus a warm
  :class:`~repro.core.candidatestore.CandidateStore` over them (bitmap by
  default — the PR-5 vertical counting kernel);
* the exact per-item counts of the raw window (level 1 and the
  dictionary-shift guard).

``append(transactions)`` / ``retire(n_oldest)`` / ``slide(transactions,
n_oldest)`` are one update path: the appended rows and the retired rows
form a **signed delta** (a row on both sides cancels), each level takes
one ``count_partition`` pass over the ``+`` rows and one over the ``-``
rows, and each frequent family is re-derived against the **final**
threshold.  A window advance must be a ``slide``, not an ``append`` then
a ``retire``: the window in between is the largest of the three, its
threshold the highest, and itemsets at the threshold fall out only to
come back — every level they touch re-mined twice for a state nobody can
observe.  A level is re-mined only when the previous level's frequent
family actually changed (a border itemset crossed the threshold, in
either direction — retiring lowers the threshold, so borders cross
upward there too).  Even then the pass is *border-bounded*: candidates
already tracked keep their maintained counts and only the genuinely new
candidates take a full-window counting pass, all levels of one update
reading one tid-bitmap build of the window.  The update also says what it
changed: its :class:`FamilyDiff` is built from the ``(old, new)`` counts
the pass holds while it applies them, not from two snapshots of the
family.
Two events fall back to a full rebuild: a frequent singleton outside the
item dictionary (its occurrences were dropped at encode time, so no delta
pass can recover them — the window must be re-encoded) — and nothing
else; a dictionary item going *infrequent* needs no re-encode, its codes
simply drop out of level 1.

Correctness contract (pinned by the oracle tests): after any sequence of
appends and retires the mined itemsets equal a cold re-mine of the
current window.  Every update is traced as an ``incremental_update`` span
and reported as :class:`IncrementalUpdate` delta-pass stats, which also
ride on the result's :class:`~repro.core.results.IterationStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.encoding import ItemDictionary
from repro.common.errors import MiningError
from repro.common.itemset import canonical_transaction, min_support_count
from repro.core.candidates import apriori_gen
from repro.core.candidatestore import make_store
from repro.core.counting import SharedRows, count_rows
from repro.core.results import IterationStats, MiningRunResult


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
    #: "full_candidates"} — folded into IterationStats by ``result()``
    per_level: list = field(default_factory=list)
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
    store: object  # warm CandidateStore over counts' keys (delta passes)

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
    candidate_store:
        Store used for every counting pass (default ``"bitmap"`` — the
        vertical tid-bitmap kernel is the cheapest per delta row).
    num_partitions / ctx:
        When ``ctx`` (an engine :class:`~repro.engine.context.Context`)
        is set, full-window counting passes run as engine jobs over
        ``num_partitions`` partitions; delta passes always run on the
        driver — a ≤1% delta is far below job-launch overhead.  ``ctx``
        is a plain attribute: the serving tier lends a pooled context
        per update and detaches it afterwards.
    """

    def __init__(
        self,
        transactions,
        min_support: float,
        *,
        max_length: int | None = None,
        candidate_store: str = "bitmap",
        store_options: dict | None = None,
        num_partitions: int | None = None,
        ctx=None,
        tracer=None,
        track_family_diff: bool = True,
    ):
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        self.min_support = min_support
        self.max_length = max_length
        self.candidate_store = candidate_store
        self.store_options = dict(store_options or {})
        self.num_partitions = num_partitions
        self.ctx = ctx
        self.track_family_diff = track_family_diff
        self._tracer = tracer
        self._window: list = [canonical_transaction(t) for t in transactions]
        if not self._window:
            raise MiningError("cannot build incremental state over an empty window")
        self._item_counts: dict = {}
        for txn in self._window:
            for item in txn:
                self._item_counts[item] = self._item_counts.get(item, 0) + 1
        self.version = 1
        self.full_rebuilds = 0
        t0 = time.perf_counter()
        update = IncrementalUpdate(kind="build", n_delta=len(self._window))
        with self._trace().span(
            "incremental_update", "driver", kind="build", n_delta=len(self._window)
        ):
            self._rebuild(update)
        update.seconds = time.perf_counter() - t0
        self.last_update = self._stamp(update)

    # -- public surface ----------------------------------------------------
    @property
    def n_transactions(self) -> int:
        return len(self._window)

    @property
    def threshold(self) -> int:
        return self._threshold

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
        threshold = self._threshold
        out = {}
        for item, count in self._item_counts.items():
            if count >= threshold:
                out[(item,)] = count
        decode = self._decode
        for lvl in self._levels:
            for cand in lvl.frequent:
                out[decode(cand)] = lvl.counts[cand]
        return out

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
            seconds=upd.seconds,
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
                    seconds=0.0,
                    n_candidates=len(lvl.counts),
                    n_frequent=len(lvl.frequent),
                    delta_rows=upd.delta_rows,
                    delta_candidates=entry.get("delta_candidates", 0),
                    full_candidates=entry.get("full_candidates", 0),
                )
            )
        result.trace = self._trace()
        return result

    # -- internals ---------------------------------------------------------
    def _trace(self):
        if self._tracer is not None:
            return self._tracer
        if self.ctx is not None:
            return self.ctx.tracer
        from repro.engine.tracing import Tracer

        self._tracer = Tracer(label="incremental")
        return self._tracer

    def _stamp(self, update: IncrementalUpdate) -> IncrementalUpdate:
        update.n_transactions = len(self._window)
        update.version = self.version
        update.threshold = self._threshold
        return update

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
        with self._trace().span(
            "incremental_update", "driver", kind=kind, n_delta=update.n_delta
        ):
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
                if before is not None:
                    update.family_diff = FamilyDiff.between(before, self.itemsets())
            else:
                self._apply_delta(appended, retired, item_delta, threshold, update)
        self.version += 1
        update.seconds = time.perf_counter() - t0
        self.last_update = update
        return self._stamp(update)

    def _make_store(self, candidates):
        return make_store(self.candidate_store, candidates, **self.store_options)

    def _shared_window(self) -> SharedRows:
        """The window's weighted rows, for the full-window passes of ONE
        update (the rows change with the next): however many levels it
        counts, bitmap stores share one build over the level-1 codes."""
        return SharedRows(
            list(self._encoded.items()),
            {code for (code,) in self._frequent1},
            min_items=2,
            weighted=True,
        )

    def _count_window(self, window: SharedRows, store, candidates) -> dict:
        """Exact full-window counts for ``candidates`` (zero-filled)."""
        counts: dict = {}
        if window.rows and self.ctx is None:
            counts = window.count(store)
        elif window.rows:  # a lent context: one engine job per pass
            counts = count_rows(
                [store], window.rows, weighted=True,
                ctx=self.ctx, num_partitions=self.num_partitions,
            )
        return {c: counts.get(c, 0) for c in candidates}

    def _rebuild(self, update: IncrementalUpdate) -> None:
        """Full re-encode + re-mine of the current window (initial build
        and the new-frequent-singleton fallback)."""
        self._threshold = min_support_count(self.min_support, len(self._window))
        frequent_items = {
            i: c for i, c in self._item_counts.items() if c >= self._threshold
        }
        self._dictionary = ItemDictionary.from_counts(frequent_items)
        self._decode = _DecodeMemo(self._dictionary).__getitem__
        encoded: dict = {}
        for txn in self._window:
            enc = self._dictionary.encode_transaction(txn)
            if len(enc) >= 2:  # shorter rows cannot support any k>=2 candidate
                encoded[enc] = encoded.get(enc, 0) + 1
        self._encoded = encoded
        self._frequent1 = {(self._dictionary.code(i),) for i in frequent_items}
        self._levels: list[_Level] = []
        window = self._shared_window()
        prev = sorted(self._frequent1)
        k = 2
        while prev and (self.max_length is None or k <= self.max_length):
            candidates = apriori_gen(prev)
            if not candidates:
                break
            store = self._make_store(candidates)
            counts = self._count_window(window, store, candidates)
            frequent = {c for c in candidates if counts[c] >= self._threshold}
            self._levels.append(
                _Level(k=k, counts=counts, frequent=frequent, store=store)
            )
            update.full_candidates += len(candidates)
            update.levels_remined += 1
            update.per_level.append(
                {"k": k, "mode": "remine", "delta_candidates": 0,
                 "full_candidates": len(candidates)}
            )
            prev = sorted(frequent)
            k += 1

    def _apply_delta(
        self, appended, retired, item_delta: dict, threshold: int,
        update: IncrementalUpdate,
    ) -> None:
        """Window and item counts already hold the new state; bring the
        encoded rows and every level's counts and families up to it, and
        record what changed in ``update.family_diff`` from the ``(old,
        new)`` counts this pass holds anyway."""
        was, self._threshold = self._threshold, threshold
        dictionary = self._dictionary
        diff = FamilyDiff() if self.track_family_diff else None
        changed_counts = diff.changed if diff is not None else None

        # Encode + compact the signed delta over the unchanged dictionary
        # (a row on both sides cancels) and fold it into the window's
        # weighted rows.
        net: dict = {}
        for sign, txns in ((1, appended), (-1, retired)):
            for txn in txns:
                enc = dictionary.encode_transaction(txn)
                if len(enc) >= 2:
                    net[enc] = net.get(enc, 0) + sign
        plus, minus = [], []
        for enc, mult in net.items():
            if not mult:
                continue
            (plus if mult > 0 else minus).append((enc, abs(mult)))
            left = self._encoded.get(enc, 0) + mult
            if left > 0:
                self._encoded[enc] = left
            else:
                self._encoded.pop(enc, None)
        update.delta_rows = len(plus) + len(minus)

        item_counts = self._item_counts
        old_f1 = self._frequent1
        new_f1 = {
            (dictionary.code(i),)
            for i, c in item_counts.items()
            if c >= threshold and i in dictionary
        }
        if diff is not None:  # level 1 lives in item space: no decode
            for (code,) in new_f1 - old_f1:
                item = dictionary.item(code)
                diff.added[(item,)] = item_counts[item]
            for (code,) in old_f1 - new_f1:
                item = dictionary.item(code)
                diff.removed[(item,)] = (
                    item_counts.get(item, 0) - item_delta.get(item, 0)
                )
            for item, d in item_delta.items():
                new = item_counts.get(item, 0)
                if d and item in dictionary and new - d >= was and new >= threshold:
                    changed_counts[(item,)] = (new - d, new)
        changed = new_f1 != old_f1
        self._frequent1 = new_f1

        window = None  # full-window rows, shared by this update's fresh counts
        prev = sorted(new_f1)
        li = 0
        k = 2
        while prev and (self.max_length is None or k <= self.max_length):
            old = self._levels[li] if li < len(self._levels) else None
            if old is not None and not changed:
                # Candidate set unchanged (tracked == apriori_gen(prev)):
                # one signed delta pass, then re-threshold from exact counts.
                lvl, counts, old_frequent = old, old.counts, old.frequent
                moved = _count_delta(lvl.store, plus, minus)
                _fold(counts, moved, changed_counts, was, threshold, self._decode)
                lvl.frequent = {c for c, v in counts.items() if v >= threshold}

                def old_count(cand):
                    return counts[cand] - moved.get(cand, 0)

                n_fresh = 0
                update.levels_delta += 1
            else:
                # A border itemset crossed below (or the level is new):
                # regenerate the candidate set.  Border-bounded: retained
                # candidates keep their maintained counts (delta applied);
                # only genuinely new candidates pay a full-window pass.
                candidates = apriori_gen(prev)
                if not candidates:
                    break
                old_counts = old.counts if old is not None else {}
                old_frequent = old.frequent if old is not None else set()
                old_count = old_counts.__getitem__
                counts = {c: old_counts[c] for c in candidates if c in old_counts}
                fresh = [c for c in candidates if c not in counts]
                store = self._make_store(candidates)
                if counts:
                    moved = _count_delta(store, plus, minus)
                    for cand in fresh:  # counted over the window, delta included
                        moved.pop(cand, None)
                    _fold(counts, moved, changed_counts, was, threshold, self._decode)
                if fresh:
                    if window is None:
                        window = self._shared_window()
                    counts.update(
                        self._count_window(window, self._make_store(fresh), fresh)
                    )
                lvl = _Level(
                    k=k, counts=counts, store=store,
                    frequent={c for c in candidates if counts[c] >= threshold},
                )
                self._levels[li : li + 1] = [lvl]
                n_fresh = len(fresh)
                update.levels_remined += 1
            if diff is not None:
                _record_crossings(
                    diff, self._decode, old_frequent, lvl.frequent, old_count,
                    counts.__getitem__,
                )
            changed = lvl.frequent != old_frequent
            update.delta_candidates += len(counts) - n_fresh
            update.full_candidates += n_fresh
            update.per_level.append(
                {"k": k, "mode": "delta" if lvl is old else "remine",
                 "delta_candidates": len(counts) - n_fresh,
                 "full_candidates": n_fresh}
            )
            prev = sorted(lvl.frequent)
            li += 1
            k += 1
        if diff is not None:
            for gone in self._levels[li:]:
                for cand in gone.frequent:
                    diff.removed[self._decode(cand)] = gone.counts[cand]
        del self._levels[li:]
        update.family_diff = diff


def _count_delta(store, plus: list, minus: list) -> dict:
    """Net signed delta counts of ``store``'s candidates: the appended
    rows count up, the retired rows count down."""
    moved = store.count_partition(plus, weighted=True) if plus else {}
    if minus:
        for cand, n in store.count_partition(minus, weighted=True).items():
            moved[cand] = moved.get(cand, 0) - n
    return moved


def _fold(counts: dict, moved: dict, changed, was: int, bar: int, decode) -> None:
    """Add the net delta counts ``moved`` into ``counts``.

    Given a ``changed`` map (a :class:`FamilyDiff`'s), note on the way
    every itemset whose count moved while it stayed frequent — at least
    ``was`` before, at least ``bar`` now: this loop is where the ``(old,
    new)`` pair is in hand, so the diff costs it no second lookup.
    """
    if changed is None:
        for cand, d in moved.items():
            counts[cand] += d
        return
    for cand, d in moved.items():
        if d:
            old = counts[cand]
            counts[cand] = new = old + d
            if old >= was and new >= bar:
                changed[decode(cand)] = (old, new)


def _record_crossings(
    diff: FamilyDiff, decode, old_frequent: set, frequent: set, old_count, count
) -> None:
    """The itemsets one level gained and lost, with their new / last counts."""
    for cand in frequent - old_frequent:
        diff.added[decode(cand)] = count(cand)
    for cand in old_frequent - frequent:
        diff.removed[decode(cand)] = old_count(cand)


def incremental_store(config) -> str:
    """The store an incremental run of ``config`` counts with.

    ``MiningConfig.candidate_store`` defaults to the batch miners'
    ``hashtree``; this tier's default is ``bitmap`` (the cheapest kernel
    per delta row), so the batch default maps to it and any other choice
    — the field, or ``options["candidate_store"]`` over it — is honoured.
    """
    store = config.options.get("candidate_store", config.candidate_store)
    return "bitmap" if store == "hashtree" else store


def run_incremental(ctx, transactions, config) -> MiningRunResult:
    """Registry-shaped runner for ``MiningConfig(incremental=True)``.

    A one-shot incremental run is a cold build — byte-identical itemsets
    to the exact miners — and exists so the same config flows through
    ``mine_frequent_itemsets``, the CLI, and the serving tier (where the
    built state is kept warm and appends become delta updates).
    """
    miner = IncrementalMiner(
        transactions,
        config.min_support,
        max_length=config.max_length,
        candidate_store=incremental_store(config),
        num_partitions=config.num_partitions,
        ctx=ctx,
    )
    return miner.result()


__all__ = [
    "FamilyDiff",
    "IncrementalMiner",
    "IncrementalUpdate",
    "incremental_store",
    "run_incremental",
]
