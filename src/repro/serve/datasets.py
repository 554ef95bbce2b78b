"""The dataset tier: named, versioned datasets, and the change feed.

A raw ``submit(transactions, ...)`` identifies its dataset by content
fingerprint — immutable by construction.  Sliding-window workloads need
the opposite: one *name* whose contents evolve over time, with every
window change producing a new **version** (and a new fingerprint, via
the incrementally-extendable
:class:`~repro.serve.cache.FingerprintChain`) so results cached for a
stale version are invalidated rather than served.

:class:`ManagedDataset` is one such name as the server holds it: the
current window, its version counter and fingerprint chain, and what
moves with the window here —

* an **ingest buffer** (``flush_rows`` / ``flush_age_s``) that coalesces
  many small appends into one delta update;
* **window policies** (``max_window`` / ``max_age_s``) that retire the
  oldest transactions automatically on every advance;
* per-mining-key **watches**, each a bounded change log of version
  transitions held as the JSON text they are sent as, feeding the
  ``GET /datasets/<id>/changes`` long-poll.

The mining lives elsewhere: the shard's dataset-owner process
(:mod:`repro.serve.owner`) holds a mirror of every window, the warm
:class:`~repro.core.incremental.IncrementalMiner` s by mining key and
their diffs.  Every advance is forwarded to it and answered, a little
later, with each watched key's one-version diff rendered there, once;
an incremental job asks it for the warm answer.  The server builds no
miner; the only rows it renders are those of a composed multi-version
span; the owner's renderer lives in :mod:`repro.serve.owner`.  Its one
path needs a named dataset's items all ``str`` or all ``int``: any other
is refused (400) here, before anything moves.

Warm state lives as long as someone uses it: a watch no reader has
polled, and a miner no job or watch has used, for ``changelog_limit``
versions is dropped (a returning reader is answered with a reset, a
returning job rebuilds the miner cold).

:class:`DatasetRegistry` is the tier's front: the name map, the four
``BY_DATASET`` operations of :data:`repro.serve.api.OPERATIONS`, the
background ingest flusher, and the step that keeps the owning service's
caches coherent with every advance.  The job tier reaches it twice per
job: :meth:`DatasetRegistry.snapshot` at submit,
:meth:`DatasetRegistry.warm_result` at run.

In router mode every dataset has a single home shard (consistent-hashed
on the *name*, which — unlike the fingerprint — is stable across
appends), so the warm state and the change log are never split.

Locks: an entry's window is guarded by that entry's
:attr:`~ManagedDataset.lock`, its watches by its
:attr:`~ManagedDataset.changed` condition — a leaf: nothing else is
taken, and nothing is sent to the owner, under it.  A message to the
owner about an entry is sent holding the entry's lock.  The registry
lock guards the name map, the counters and the flusher handle, and is
taken alone or inside an entry lock, never around one.  Nothing here
touches a service's job lock, and the job tier takes no entry lock while
holding its own: the two kinds never nest (``docs/serving.md``,
"Architecture").
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from repro.common.errors import MiningError
from repro.core.incremental import FamilyDiff
from repro.serve.cache import DatasetCache, FingerprintChain, ResultCache
from repro.serve.jobs import _DECODING, MAX_POLL_S, ApiError, ServeError, _tupled
from repro.serve.owner import GONE, _in_payload_order


@dataclass
class AppendResult:
    """What one :meth:`ManagedDataset.append` actually did."""

    old_version: int
    new_version: int
    old_fingerprint: str
    new_fingerprint: str
    n_appended: int
    n_retired: int


class _Transition:
    """One logged version transition, ``from_version`` to the next, as
    the owner rendered it: ``text``, the JSON of its rows — what a reader
    is sent — with ``n_rows``, how many rows that is, and ``n_family``,
    how many itemsets the family held after it."""

    __slots__ = ("from_version", "text", "n_rows", "n_family")

    def __init__(self, from_version: int, text: str, n_rows: int, n_family: int):
        self.from_version = from_version
        self.text = text
        self.n_rows = n_rows
        self.n_family = n_family

    def diff(self) -> FamilyDiff:
        """The transition as a diff, decoded from its text."""
        rows = _decoded_rows(self.text)
        return FamilyDiff(
            added=dict(rows["added"]),
            removed=dict(rows["removed"]),
            changed={row[0]: row[1:] for row in rows["changed"]},
        )


@dataclass
class _Watch:
    """Change-feed state for one mining key.

    ``log`` holds contiguous :class:`_Transition` s from ``start_version``
    (the version the owner began emitting the key's diffs at; ``None``
    until it does, and again once it cannot); the deque bound drops the
    oldest, and a ``since`` older than coverage answers with a
    full-family reset instead.  ``polled`` is the version a reader last
    asked at: a watch nobody polls for ``changelog_limit`` versions goes.
    """

    start_version: int | None = None
    log: deque = field(default_factory=lambda: deque(maxlen=64))
    polled: int = 0

    def reset(self) -> None:
        self.start_version = None
        self.log.clear()


def _positive(kind: type, value, name: str):
    """``value`` as a positive ``kind`` (``int`` or ``float``), ``None`` kept."""
    if value is None:
        return None
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ApiError(f"{name} must be a positive {kind.__name__}, got {value!r}") from None
    if not out > 0:
        raise ApiError(f"{name} must be > 0, got {value!r}")
    return out


#: the window / ingest-buffer policies ``create_dataset`` takes, each
#: validated by :class:`ManagedDataset` itself
POLICY_FIELDS = ("max_window", "max_age_s", "flush_rows", "flush_age_s")


def _mining_key(min_support, max_length) -> tuple:
    """What names a dataset's warm miner in the owner: the tier counts
    on bitmaps whatever store a job's config names, so a job and a watch
    at one support and length share one miner."""
    return (min_support, max_length)


def _item_type(kind: str | None, rows: list) -> str | None:
    """``"str"`` or ``"int"``, what every item of a named dataset is once
    ``rows`` join it (``kind``, what it was; ``None`` while it has no
    item).  An item of another type is a 400 naming it: ``1``, ``True``
    and ``1.0`` are one key with three JSON texts."""
    expected = {"str": str, "int": int}.get(kind)
    for item in chain.from_iterable(rows):
        if type(item) is not expected:
            if expected is not None or type(item) not in (str, int):
                among = f" among {kind} items" if kind else ""
                raise ApiError(f"a named dataset's items are all str or all int: "
                               f"{item!r:.60} is {type(item).__name__}{among}")
            expected, kind = type(item), type(item).__name__
    return kind


def _admitted(delta: list, kind: str | None) -> tuple[FingerprintChain, str | None]:
    """``delta`` hashed on a chain of its own, and :func:`_item_type` after
    it — or a 400 for a delta that cannot be fingerprinted (un-renderable
    item, row not iterable), then for an item of another type."""
    try:
        hashed = FingerprintChain(delta)
    except Exception as exc:
        raise ApiError(f"delta could not be fingerprinted: {exc}") from exc
    return hashed, _item_type(kind, delta)


def _family_rows(family: dict) -> list:
    """``family`` as the encoder takes it: ``(itemset, count)`` tuples in
    payload order.  ``json.dumps`` writes a tuple as an array, so the
    bytes are those of ``[[items], count]`` rows — without a list per
    row and per itemset, thousands of them alive at once, each one
    counted towards the next cyclic-garbage pass."""
    keys = _in_payload_order(family)
    return list(zip(keys, map(family.__getitem__, keys)))


def _diff_rows(diff) -> dict:
    """A :class:`~repro.core.incremental.FamilyDiff` as the encoder takes
    it: ``added`` / ``removed`` as :func:`_family_rows`, ``changed`` as
    ``(itemset, old, new)`` tuples."""
    changed = diff.changed
    return {
        "added": _family_rows(diff.added),
        "removed": _family_rows(diff.removed),
        "changed": [(itemset, *changed[itemset]) for itemset in _in_payload_order(changed)],
    }


def _family_payload(family: dict) -> list:
    """The reference for :func:`_family_rows`: ``[[items], count]``
    lists, what a client decodes the rows to."""
    return [[list(itemset), count] for itemset, count in _family_rows(family)]


def _diff_payload(diff) -> dict:
    """The reference for :func:`_diff_rows`, lists all through."""
    return {
        name: [[list(row[0]), *row[1:]] for row in rows]
        for name, rows in _diff_rows(diff).items()
    }


def _rows_text(rows: dict) -> str:
    """``rows`` (field name -> rows, as :func:`_diff_rows` makes them, or
    ``{"family": _family_rows(...)}``) as the JSON text of those fields,
    braces stripped — ``"added": [...], ...`` — ready to follow an
    answer's head."""
    return json.dumps(rows)[1:-1]


def _diff_text(diff) -> str:
    """A diff as the feed sends it, each field sorted into payload order
    here: what the server renders for a composed span."""
    return _rows_text(_diff_rows(diff))


def _decoded_rows(text: str) -> dict:
    """:func:`_rows_text` read back: field name -> rows, every array a
    tuple, as :func:`_diff_rows` made them."""
    return {name: list(map(_tupled, rows)) for name, rows in json.loads(f"{{{text}}}").items()}


#: the rows of an answer at the current version: nothing moved
_NO_CHANGE = _diff_text(FamilyDiff())


class FeedAnswer(Mapping):
    """One change-feed answer as it is sent: ``head`` — ``dataset_id``,
    ``since``, ``version``, ``n_transactions``, ``reset`` — and ``rows``,
    the JSON text of its row arrays (``added`` / ``removed`` /
    ``changed``, or a reset's ``family``).

    The HTTP handler sends :attr:`text` as it is.  For an embedded caller
    it is the read-only mapping of today's keys: the first read of a row
    field decodes the text, once, with every array a tuple — the
    ``(itemset, count)`` and ``(itemset, old, new)`` rows the feed
    rendered; the head needs no decode.
    """

    __slots__ = ("head", "rows", "_decoded")

    def __init__(self, head: dict, rows: str):
        self.head = head
        self.rows = rows
        self._decoded: dict | None = None

    @property
    def text(self) -> str:
        """The answer's JSON, byte for byte ``json.dumps`` of the payload."""
        return f"{json.dumps(self.head)[:-1]}, {self.rows}}}"

    @property
    def decoded(self) -> bool:
        """Whether a read in this process has decoded the rows."""
        return self._decoded is not None

    def _fields(self) -> tuple:
        return ("family",) if self.head["reset"] else ("added", "removed", "changed")

    def __getitem__(self, key):
        if key in self.head:
            return self.head[key]
        if key not in self._fields():
            raise KeyError(key)
        if self._decoded is None:
            with _DECODING:
                if self._decoded is None:
                    self._decoded = _decoded_rows(self.rows)
        return self._decoded[key]

    def __iter__(self):
        yield from self.head
        yield from self._fields()

    def __len__(self) -> int:
        return len(self.head) + len(self._fields())


#: one id per entry for the life of the process: what the owner files it under
_UIDS = itertools.count(1)


class ManagedDataset:
    """One named dataset as the server holds it: window, version,
    fingerprint chain, policies, ingest buffer, and the change-feed
    watches.  ``owner`` is the shard's
    :class:`~repro.serve.owner.DatasetOwner`, where it is mined."""

    def __init__(
        self,
        dataset_id: str,
        transactions: Iterable[Sequence],
        *,
        owner,
        max_window: int | None = None,
        max_age_s: float | None = None,
        flush_rows: int | None = None,
        flush_age_s: float | None = None,
        changelog_limit: int = 64,
        clock=time.monotonic,
    ):
        self.dataset_id = dataset_id
        self.max_window = _positive(int, max_window, "max_window")
        self.max_age_s = _positive(float, max_age_s, "max_age_s")
        self.flush_rows = _positive(int, flush_rows, "flush_rows")
        self.flush_age_s = _positive(float, flush_age_s, "flush_age_s")
        self.changelog_limit = max(1, int(changelog_limit))
        self.clock = clock
        self.transactions: list = list(transactions)
        if not self.transactions:
            raise ApiError(
                f"dataset {dataset_id!r} must contain at least one transaction"
            )
        #: ``"str"`` or ``"int"``, what every item is (see _item_type)
        self.item_type = _item_type(None, self.transactions)
        if self.max_window is not None and len(self.transactions) > self.max_window:
            self.transactions = self.transactions[-self.max_window :]
        now = self.clock()
        #: per-transaction ingest stamps (parallel to ``transactions``,
        #: monotonic non-decreasing) — drives the ``max_age_s`` policy
        self.arrivals: list[float] = [now] * len(self.transactions)
        self.version = 1
        self.chain = FingerprintChain(self.transactions)
        self.fingerprint = self.chain.hexdigest()
        #: the oldest version whose window is still a prefix of the
        #: current one: every retiring advance moves it to the version
        #: it produced.  A job that snapshotted version ``v`` may use a
        #: warm miner iff ``v >= prefix_since`` (and this entry is still
        #: live) — its rows are then the first ``n`` of ours
        self.prefix_since = 1
        self.created_s = now
        self.updated_s = now
        #: serializes appends, submit snapshots, and what is sent to the owner
        self.lock = threading.RLock()
        #: guards the watches and the feed position; notified when the
        #: owner's diffs for a version land (and on retirement) — the
        #: ``/changes`` long-poll waits here
        self.changed = threading.Condition()
        #: mining key -> _Watch (change-feed subscribers)
        self.watches: dict[tuple, _Watch] = {}
        #: the version the owner's diffs have reached, and the window's
        #: size there: what a feed answer is given at
        self.feed_version = self.version
        self.feed_n = len(self.transactions)
        self.uid = next(_UIDS)
        self.owner = owner
        #: True once replaced via ``create(replace=True)`` — appends to
        #: a stale reference get a 409 instead of mutating a zombie
        self.retired = False
        self._buffer: list = []
        self._buffer_opened_s: float | None = None
        self.retires = 0

    def check_live(self) -> None:
        """Refuse (409 ``dataset_retired``) to touch an entry a same-name
        replace has retired."""
        if self.retired:
            raise ApiError(
                f"dataset {self.dataset_id!r} was replaced; re-resolve it",
                status=409,
                code="dataset_retired",
            )

    # -- ingest buffer -----------------------------------------------------
    @property
    def buffering(self) -> bool:
        """True when appends should be coalesced rather than applied."""
        return self.flush_rows is not None or self.flush_age_s is not None

    @property
    def pending_buffered(self) -> int:
        return len(self._buffer)

    def buffer_add(self, delta: list) -> int:
        """Stage a delta in the ingest buffer (caller holds :attr:`lock`).

        The delta is fingerprinted (on a throwaway chain) and its items'
        type checked here, so a bad one is refused at its own call — not
        at the flush that would have carried other callers' rows with it."""
        _, self.item_type = _admitted(delta, self.item_type)
        if self._buffer_opened_s is None and delta:
            self._buffer_opened_s = self.clock()
        self._buffer.extend(delta)
        return len(self._buffer)

    def buffer_ready(self, now: float | None = None) -> bool:
        """Has a size or age trigger fired for the staged rows?"""
        if not self._buffer:
            return False
        if self.flush_rows is not None and len(self._buffer) >= self.flush_rows:
            return True
        if self.flush_age_s is not None and self._buffer_opened_s is not None:
            if (now if now is not None else self.clock()) - self._buffer_opened_s >= self.flush_age_s:
                return True
        return False

    def flush(self):
        """:meth:`append` everything staged as one advance; the rows leave
        the buffer only once it has landed."""
        res = self.append(self._buffer)
        self._buffer = []
        self._buffer_opened_s = None
        return res

    # -- window policies ---------------------------------------------------
    def _excess(self, now: float) -> int:
        """How many oldest transactions the policies say to retire.

        Clamped so the window never empties: the last transaction stays
        even when fully expired (an empty window has no fingerprint and
        no miner state).
        """
        n = 0
        if self.max_window is not None and len(self.transactions) > self.max_window:
            n = len(self.transactions) - self.max_window
        if self.max_age_s is not None:
            n = max(n, bisect_right(self.arrivals, now - self.max_age_s))
        return min(n, len(self.transactions) - 1)

    def age_retire_due(self, now: float | None = None) -> bool:
        """True when ``max_age_s`` alone calls for a retire right now."""
        if self.max_age_s is None:
            return False
        return self._excess(now if now is not None else self.clock()) > 0

    # -- the one mutation path ---------------------------------------------
    def append(self, transactions: Iterable[Sequence], now: float | None = None):
        """Advance the window: apply ``transactions`` (may be empty) and
        any due policy retire as ONE version bump, and forward it to the
        owner (caller holds :attr:`lock`) — which slides the warm miners
        and pushes the watched keys' diffs back when it has.

        Returns an :class:`AppendResult`, or ``None`` when there was
        nothing to do (empty delta, no retire due).  The delta is hashed
        and its items' type checked before anything mutates — a poisoned
        delta (un-renderable item, a row that is not iterable) or an item
        of another type leaves the entry exactly as it was.
        """
        self.check_live()
        delta = list(transactions)
        now = self.clock() if now is None else now
        if not delta and self._excess(now) == 0:
            return None
        hashed, self.item_type = _admitted(delta, self.item_type)
        fingerprint = self.chain.join(hashed)
        old_fp, old_version = self.fingerprint, self.version
        self.transactions.extend(delta)
        self.arrivals.extend([now] * len(delta))
        n_retire = self._excess(now)
        if n_retire:
            del self.transactions[: n_retire]
            del self.arrivals[: n_retire]
            # The chain drops the retired rows' digests: O(retired), no
            # row is re-read.
            fingerprint = self.chain.retire(n_retire)
            self.retires += n_retire
            # No older version's window is a prefix of the one this
            # advance produces: a job holding such a snapshot re-mines
            # its own rows cold.
            self.prefix_since = self.version + 1
        self.fingerprint = fingerprint
        self.version += 1
        self.updated_s = now
        # What nobody reads goes: a watch no reader has polled for
        # ``changelog_limit`` versions — its log no longer covers the last
        # poll, so a returning reader is owed a reset anyway.
        with self.changed:
            stale = self.version - self.changelog_limit
            unwatched = [key for key, watch in self.watches.items() if watch.polled < stale]
            for key in unwatched:
                del self.watches[key]
        self.owner.post(self, ("advance", self.uid, delta, n_retire, self.version, unwatched))
        return AppendResult(
            old_version=old_version,
            new_version=self.version,
            old_fingerprint=old_fp,
            new_fingerprint=self.fingerprint,
            n_appended=len(delta),
            n_retired=n_retire,
        )

    # -- what the owner says -------------------------------------------------
    def reloaded(self) -> None:
        """The owner is being sent this window afresh (at create, or after
        it lost everything): it holds no watch, so every watch restarts."""
        with self.changed:
            for watch in self.watches.values():
                watch.reset()
            self.feed_version, self.feed_n = self.version, len(self.transactions)
            self.changed.notify_all()

    def logged(self, version: int, n_transactions: int, steps: list) -> None:
        """The owner's diffs for the advance that produced ``version``:
        ``[(key, text, n_rows, n_family)]``, one per key it watches.  Each
        lands in its watch's log; a watch owed a step that did not come
        (its miner could not follow) restarts."""
        with self.changed:
            by_key = {step[0]: step[1:] for step in steps}
            for key, watch in self.watches.items():
                if watch.start_version is None or watch.start_version >= version:
                    continue  # not watched when the owner made this version
                step = by_key.get(key)
                expected = watch.log[-1].from_version + 1 if watch.log else watch.start_version
                if step is None or expected != version - 1:
                    watch.reset()
                else:
                    watch.log.append(_Transition(version - 1, *step))
            self.feed_version, self.feed_n = version, n_transactions
            self.changed.notify_all()

    # -- change feed -------------------------------------------------------
    def watch(self, key: tuple) -> _Watch:
        """The change-feed watch on mining ``key``, established on first
        use: the owner brings the key's miner to the current window and
        from the next advance on emits its diffs.  Every call is a poll
        that keeps the watch (caller holds :attr:`lock`).  A key no miner
        could be built for is refused here, before anything moves."""
        if not 0.0 < key[0] <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {key[0]}")
        if key[1] is not None and key[1] < 1:
            raise MiningError(f"max_length must be >= 1, got {key[1]}")
        self.owner.post(self)  # held first: a reload restarts every watch
        with self.changed:
            watch = self.watches.get(key)
            if watch is None:
                watch = self.watches[key] = _Watch(log=deque(maxlen=self.changelog_limit))
            watch.polled = self.version
            fresh = watch.start_version is None
            if fresh:
                watch.start_version = self.version
        if fresh:
            self.owner.post(self, ("watch", self.uid, key))
        return watch

    def feeding(self, key: tuple) -> bool:
        """Whether the owner is logging ``key``'s diffs (caller holds
        :attr:`changed`)."""
        watch = self.watches.get(key)
        return watch is not None and watch.start_version is not None and self.owner.holds(self)

    def changes_since(self, mining_key: tuple, since: int) -> list | None:
        """The logged :class:`_Transition` s taking version ``since`` to
        :attr:`feed_version` (none when ``since`` is that version), or
        ``None`` when the log does not cover ``since`` (watch created
        later, log overflowed, or a reset) — the caller then ships the
        full family instead (caller holds :attr:`changed`).
        """
        if not self.feeding(mining_key):
            return None
        if since == self.feed_version:
            return []
        log = list(self.watches[mining_key].log)
        start = next((i for i, step in enumerate(log) if step.from_version == since), None)
        return None if start is None else log[start:]

    def info(self) -> dict:
        """JSON-safe summary (the ``GET /datasets/<id>`` payload) with the
        owner's ``warm_miners`` / ``watches`` at its version: asked of the
        owner under :attr:`lock`, so behind every advance and watch sent
        before, and waited for outside it.  An owner gone before it
        answers holds none (its successor is sent the window afresh)."""
        with self.lock:
            info = self.head()
            reply = self.owner.request(self, "report")
        counts = reply.wait()
        info["warm_miners"], info["watches"] = (0, 0) if counts is GONE else counts
        return info

    def head(self) -> dict:
        """:meth:`info` as the window stands, without the owner's counts
        (caller holds :attr:`lock`)."""
        return {
            "dataset_id": self.dataset_id,
            "version": self.version,
            "n_transactions": len(self.transactions),
            "fingerprint": self.fingerprint,
            "buffered": len(self._buffer),
            "retired": self.retired,
            "retired_transactions": self.retires,
            "policy": {name: getattr(self, name) for name in POLICY_FIELDS},
        }


class DatasetRegistry:
    """The dataset tier of one :class:`~repro.serve.service.MiningService`:
    the name → :class:`ManagedDataset` map, the four ``BY_DATASET``
    operations of the protocol table, the background ingest flusher, and
    the cache-coherence step every window advance owes ``datasets`` /
    ``results`` — the owning service's parsed-dataset and result caches.
    ``owner`` is the shard's :class:`~repro.serve.owner.DatasetOwner`,
    which :meth:`close` stops.
    """

    def __init__(self, datasets: DatasetCache, results: ResultCache, owner):
        self._cache = datasets
        self._results = results
        #: the :class:`~repro.serve.owner.DatasetOwner` every entry is mined in
        self.owner = owner
        self._lock = threading.Lock()
        self._datasets: dict[str, ManagedDataset] = {}
        self.creates = 0
        self.appends = 0
        self.flushes = 0
        # Background ingest flusher: started lazily by the first dataset
        # registered with an age-based policy (flush_age_s / max_age_s);
        # applies age-triggered buffer flushes and age-based retires even
        # when no new append arrives.
        self._flusher: threading.Thread | None = None
        self._flusher_stop = threading.Event()
        self._flusher_tick = 0.5

    # -- the name map ------------------------------------------------------
    def create(
        self,
        dataset_id: str,
        transactions: Iterable[Sequence],
        *,
        replace: bool = False,
        **policy,
    ) -> tuple[ManagedDataset, ManagedDataset | None]:
        """Register a new dataset; returns ``(entry, replaced_entry)``.

        ``replaced_entry`` is the old :class:`ManagedDataset` when
        ``replace=True`` overwrote an existing name (for
        :meth:`create_dataset` to retire).  Without ``replace``, a
        duplicate name raises :class:`ApiError` 409 ``dataset_exists``.
        """
        if not dataset_id or not isinstance(dataset_id, str):
            raise ApiError(
                f"dataset_id must be a non-empty string, got {dataset_id!r}"
            )
        entry = ManagedDataset(dataset_id, transactions, owner=self.owner, **policy)
        with self._lock:
            old = self._datasets.get(dataset_id)
            if old is not None and not replace:
                raise ApiError(
                    f"dataset {dataset_id!r} already exists",
                    status=409,
                    code="dataset_exists",
                )
            self._datasets[dataset_id] = entry
            self.creates += 1
        with entry.lock:
            self.owner.post(entry)  # the owner's copy of the window
        return entry, old

    def record_append(self) -> None:
        """Count one accepted append call (under the registry lock — the
        same lock :meth:`stats` reads under, so metrics cannot tear)."""
        with self._lock:
            self.appends += 1

    def record_flush(self) -> None:
        """Count one applied window advance (buffered rows folded in)."""
        with self._lock:
            self.flushes += 1

    def get(self, dataset_id: str) -> ManagedDataset:
        with self._lock:
            entry = self._datasets.get(dataset_id)
        if entry is None:
            raise ApiError(
                f"unknown dataset {dataset_id!r}", status=404, code="unknown_dataset"
            )
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def stats(self) -> dict:
        with self._lock:
            entries = list(self._datasets.values())
            creates, appends, flushes = self.creates, self.appends, self.flushes
        return {
            "datasets": len(entries),
            "creates": creates,
            "appends": appends,
            "flushes": flushes,
            "buffered": sum(e.pending_buffered for e in entries),
            "retired_transactions": sum(e.retires for e in entries),
        }

    # -- the BY_DATASET operations -----------------------------------------
    def create_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        replace: bool = False,
        max_window: int | None = None,
        max_age_s: float | None = None,
        flush_rows: int | None = None,
        flush_age_s: float | None = None,
    ) -> dict:
        """Register a named, versioned dataset; returns its info dict.

        ``max_window`` / ``max_age_s`` are window policies: every advance
        retires the oldest transactions beyond the count/age bound.
        ``flush_rows`` / ``flush_age_s`` turn on the ingest buffer: small
        appends are staged and folded into one delta update when either
        trigger fires (or on ``flush=True`` / a submit for the dataset).

        Raises :class:`ApiError` 409 ``dataset_exists`` when the name is
        taken and ``replace`` is false.  Replacing retires the old entry
        *under its own lock* before invalidating its cache entries — a
        concurrent append through a stale reference either lands before
        that barrier (and is invalidated with the rest) or gets a 409
        ``dataset_retired``.
        """
        entry, old = self.create(
            dataset_id,
            transactions,
            replace=replace,
            max_window=max_window,
            max_age_s=max_age_s,
            flush_rows=flush_rows,
            flush_age_s=flush_age_s,
        )
        if old is not None:
            with old.lock:
                old.retired = True
                replaced_fp = old.fingerprint
                self.owner.drop(old)
            with old.changed:
                old.changed.notify_all()  # wake its long-pollers -> 409
            if replaced_fp != entry.fingerprint:
                self._cache.remove(replaced_fp)
                self._results.invalidate_dataset(replaced_fp)
        ages = [a for a in (entry.flush_age_s, entry.max_age_s) if a is not None]
        if ages:
            self._ensure_flusher(min(ages))
        with entry.lock:
            self._cache.add(list(entry.transactions), entry.fingerprint)
        return entry.info()

    def append_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        expected_version: int | None = None,
        flush: bool = False,
    ) -> dict:
        """Append transactions to a named dataset and invalidate everything
        cached for the old version.

        On a buffering dataset the delta is *staged*: the window (and
        version) only advance when a flush trigger fires — ``flush_rows``
        staged, the buffer older than ``flush_age_s``, ``flush=True``, or
        a submit for this dataset.  The returned info dict's ``flushed``
        says which happened; ``buffered`` counts rows still staged.

        ``expected_version`` is optimistic concurrency control: when set
        and the dataset has moved on, raises :class:`ApiError` 409
        ``version_conflict`` instead of appending.  ``invalidated_results``
        reports how many stale cached results a flush evicted.  A delta
        that cannot be fingerprinted is a 400 at this call, staged or
        not, and changes nothing.
        """
        entry = self.get(dataset_id)
        with entry.lock:
            entry.check_live()
            if expected_version is not None and entry.version != expected_version:
                raise ApiError(
                    f"dataset {dataset_id!r} is at version {entry.version}, "
                    f"expected {expected_version}",
                    status=409,
                    code="version_conflict",
                )
            delta = list(transactions) if transactions is not None else []
            if not delta and not flush:
                raise ApiError("append requires at least one transaction")
            if entry.buffering:
                entry.buffer_add(delta)
                flushed = flush or entry.buffer_ready()
                res = entry.flush() if flushed else None
            else:
                flushed, res = True, entry.append(delta)
            if delta:
                self.record_append()
            invalidated = self._settle(entry, res)
            info = entry.head()
        info["invalidated_results"] = invalidated
        info["flushed"] = flushed
        return info

    def dataset_info(self, dataset_id: str) -> dict:
        """Info dict for a named dataset (404 ``unknown_dataset`` if absent)."""
        return self.get(dataset_id).info()

    def dataset_changes(
        self,
        dataset_id: str,
        *,
        since: int,
        min_support: float,
        max_length: int | None = None,
        timeout_s: float = 0.0,
    ) -> dict:
        """The change feed: what happened to the frequent-itemset family
        of ``dataset_id`` (under the given mining key) since version
        ``since``.

        Establishes a watch on first use — the owner builds the dataset's
        warm miner for the key (a full mine) and from then on slides it on
        every window advance, pushing one rendered diff per version
        transition into the watch's log.  The answer waits for the log to
        reach the version the call came in at (the owner renders at most a
        version behind); when ``since`` is that version the call then
        long-polls up to ``timeout_s`` (capped server-side) for the next
        advance.  A
        ``since`` older than the log covers answers ``reset=true`` with
        the full current family instead of a diff, and
        so does a span of versions whose logged rows outnumber the
        family's itemsets: the family is the smaller answer, and it needs
        no decode.  A reset's family is rendered by the owner.

        Returns a :class:`FeedAnswer`: the head and the rows' JSON text —
        for one version, the text the owner rendered, sent to every reader.
        """
        entry = self.get(dataset_id)
        key = _mining_key(min_support, max_length)
        deadline = time.monotonic() + max(0.0, min(float(timeout_s), MAX_POLL_S))
        with entry.lock:
            entry.check_live()
            if since > entry.version:
                raise ApiError(
                    f"since={since} is ahead of {dataset_id!r} version {entry.version}"
                )
            if entry.pending_buffered:
                self._settle(entry, entry.flush())
            entry.watch(key)
            current = entry.version
        with entry.changed:
            # the owner's log reaches the version this call came in at ...
            entry.changed.wait_for(
                lambda: entry.feed_version >= current or not entry.feeding(key) or entry.retired,
                MAX_POLL_S,
            )
            # ... and, when that is the version asked from, the next one
            entry.changed.wait_for(
                lambda: entry.feed_version != since or not entry.feeding(key) or entry.retired,
                deadline - time.monotonic(),
            )
            entry.check_live()
            steps = entry.changes_since(key, since)
            if steps and len(steps) > 1 and sum(step.n_rows for step in steps) > steps[-1].n_family:
                steps = None
            if steps is not None:
                entry.watches[key].polled = entry.feed_version
                head = {
                    "dataset_id": entry.dataset_id,
                    "since": since,
                    "version": entry.feed_version,
                    "n_transactions": entry.feed_n,
                    "reset": False,
                }
        if steps is None:
            return self._reset(entry, key, since)
        # Composing a span decodes every entry in it: the slow part of an
        # answer, and nothing in it needs the dataset any more.
        if not steps:
            rows = _NO_CHANGE
        elif len(steps) == 1:
            rows = steps[0].text
        else:
            rows = _diff_text(FamilyDiff.compose(step.diff() for step in steps))
        return FeedAnswer(head, rows)

    def _reset(self, entry: ManagedDataset, key: tuple, since: int) -> FeedAnswer:
        """A reset answer: the family at the current version, rendered by
        the owner, the watch (re-)established at it.  An owner that dies
        before it answers is asked again once its successor holds the
        window."""
        for _ in range(3):
            with entry.lock:
                entry.check_live()
                entry.watch(key)
                head = {
                    "dataset_id": entry.dataset_id,
                    "since": since,
                    "version": entry.version,
                    "n_transactions": len(entry.transactions),
                    "reset": True,
                }
                reply = self.owner.request(entry, "family", key)
            rows = reply.wait()
            if rows is not GONE:
                return FeedAnswer(head, rows)
        raise ServeError(f"the owner of dataset {entry.dataset_id!r} did not answer")

    # -- what the job tier asks --------------------------------------------
    def snapshot(self, dataset_id: str) -> tuple:
        """``(entry, version, fingerprint, rows)`` of the named dataset as
        it stands, staged appends folded in first (read-your-writes): what
        a job submitted now answers for, whatever lands after."""
        entry = self.get(dataset_id)
        with entry.lock:
            if entry.pending_buffered:
                self._settle(entry, entry.flush())
            return entry, entry.version, entry.fingerprint, list(entry.transactions)

    def warm_result(self, entry: ManagedDataset, version: int, n_rows: int, config,
                    abandoned=None):
        """An incremental job's answer from ``entry``'s warm miner, for
        the ``n_rows``-row window it snapshotted at ``version`` — asked of
        the owner, and waited for with the GIL released (until the polled
        ``abandoned()`` returns something, if given).

        The first job for a mining key builds the miner (a full mine);
        every later one pays one delta pass over the rows appended since
        — the update win the incremental tier exists for.  ``None``
        (→ the caller's cold run of its own rows) when warm state cannot
        answer for that snapshot: the entry was replaced, rows it held
        have retired (``version < prefix_since``), the miner has already
        moved past it, or the owner died first.
        """
        key = _mining_key(config.min_support, config.max_length)
        with entry.lock:
            if entry.retired or version < entry.prefix_since:
                return None
            reply = self.owner.request(entry, "job", n_rows, key)
        result = reply.wait(abandoned)
        return None if result is GONE else result

    def _settle(self, entry: ManagedDataset, res: AppendResult | None) -> int:
        """Cache coherence for one window advance ``res`` (``None``:
        nothing moved): the old window must never be served again — its
        parsed copy and every result memoized for it go, the new window's
        copy comes.  Returns how many results went (caller holds
        ``entry.lock``)."""
        if res is None:
            return 0
        self.record_flush()
        self._cache.remove(res.old_fingerprint)
        invalidated = self._results.invalidate_dataset(res.old_fingerprint)
        self._cache.add(list(entry.transactions), res.new_fingerprint)
        return invalidated

    # -- ingest flusher ----------------------------------------------------
    def _ensure_flusher(self, age_s: float) -> None:
        """Start the background flusher, ticking often enough for an
        ``age_s`` trigger (no-op once :meth:`close` has run)."""
        with self._lock:
            self._flusher_tick = min(self._flusher_tick, max(0.02, age_s / 4.0))
            if self._flusher is not None or self._flusher_stop.is_set():
                return
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="repro-serve-flusher", daemon=True
            )
            self._flusher.start()

    def _flusher_loop(self) -> None:
        while not self._flusher_stop.wait(self._flusher_tick):
            with self._lock:
                entries = list(self._datasets.values())
            for entry in entries:
                try:
                    with entry.lock:
                        if entry.retired:
                            continue
                        if entry.buffer_ready():
                            self._settle(entry, entry.flush())
                        elif entry.age_retire_due():
                            self._settle(entry, entry.append([]))
                except ServeError:
                    # hygiene loop: one entry's failure must not stop the rest
                    continue

    def close(self, wait: bool = True) -> None:
        """Stop the flusher and the owner (the owning service is shutting
        down)."""
        self._flusher_stop.set()
        with self._lock:
            flusher = self._flusher
        if wait and flusher is not None:
            flusher.join(timeout=5.0)
        self.owner.stop()


__all__ = ["AppendResult", "DatasetRegistry", "FeedAnswer", "ManagedDataset", "POLICY_FIELDS"]
