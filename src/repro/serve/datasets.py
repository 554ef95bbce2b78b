"""The dataset tier: named, versioned datasets that keep their own
miners in step.

A raw ``submit(transactions, ...)`` identifies its dataset by content
fingerprint — immutable by construction.  Sliding-window workloads need
the opposite: one *name* whose contents evolve over time, with every
window change producing a new **version** (and a new fingerprint, via
the incrementally-extendable
:class:`~repro.serve.cache.FingerprintChain`) so results cached for a
stale version are invalidated rather than served.

:class:`ManagedDataset` is one such name: the current window, its
version counter and fingerprint chain, and everything that has to move
when the window does —

* an **ingest buffer** (``flush_rows`` / ``flush_age_s``) that coalesces
  many small appends into one delta update;
* **window policies** (``max_window`` / ``max_age_s``) that retire the
  oldest transactions automatically on every advance;
* the **warm incremental miners**, one
  :class:`~repro.core.incremental.IncrementalMiner` per mining key, built
  and caught up in one place (:meth:`ManagedDataset.miner_for`) for jobs
  and watches alike and advanced by :meth:`ManagedDataset.append` itself;
* per-mining-key **watches** holding a bounded change log of version
  transitions — a :class:`~repro.core.incremental.FamilyDiff` until the
  first reader renders it, the JSON text it is sent as after — feeding
  the ``GET /datasets/<id>/changes`` long-poll.

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

Locks: an entry's state is guarded by that entry's
:attr:`~ManagedDataset.lock`; the registry lock guards the name map, the
counters and the flusher handle, and is taken alone or inside an entry
lock, never around one.  Nothing here touches a service's job lock, and
the job tier takes no entry lock while holding its own: the two kinds
never nest (``docs/serving.md``, "Architecture").
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.common.errors import MiningError
from repro.core.incremental import FamilyDiff, IncrementalMiner, incremental_store
from repro.serve.cache import DatasetCache, FingerprintChain, ResultCache
from repro.serve.jobs import (
    _DECODING,
    MAX_POLL_S,
    ApiError,
    ServeError,
    _tupled,
    _unsendable,
)


@dataclass
class AppendResult:
    """What one :meth:`ManagedDataset.append` actually did.

    ``pre_trim_window`` is the window *after* the delta landed but
    *before* any policy retire — warm miners that are lazily behind fold
    ``pre_trim_window[miner.n_transactions:]`` first, then retire, so
    their window stays in lock-step with the entry's.
    """

    old_version: int
    new_version: int
    old_fingerprint: str
    new_fingerprint: str
    n_appended: int
    n_retired: int
    pre_trim_window: list


class _Transition:
    """One logged version transition, ``from_version`` to the next.
    ``body`` is its :class:`~repro.core.incremental.FamilyDiff` until the
    first reader renders it (:func:`_rendered`), then the JSON text of its
    rows — the only form kept after.  ``n_rows`` counts its rows either
    way."""

    __slots__ = ("from_version", "n_rows", "body")

    def __init__(self, from_version: int, diff: FamilyDiff):
        self.from_version = from_version
        self.n_rows = len(diff.added) + len(diff.removed) + len(diff.changed)
        self.body: FamilyDiff | str = diff

    def diff(self) -> FamilyDiff:
        """The transition as a diff, decoded from its text once rendered."""
        body = self.body
        if isinstance(body, FamilyDiff):
            return body
        rows = _decoded_rows(body)
        return FamilyDiff(
            added=dict(rows["added"]),
            removed=dict(rows["removed"]),
            changed={row[0]: row[1:] for row in rows["changed"]},
        )


@dataclass
class _Watch:
    """Change-feed state for one mining key.

    ``log`` holds contiguous :class:`_Transition` s; the deque bound drops
    the oldest, and a ``since`` older than coverage answers with a
    full-family reset instead.  ``polled`` is the version a reader last
    asked at: a watch nobody polls for ``changelog_limit`` versions goes.
    """

    start_version: int | None = None
    log: deque = field(default_factory=lambda: deque(maxlen=64))
    polled: int = 0

    def record(self, from_version: int, diff: FamilyDiff) -> None:
        self.log.append(_Transition(from_version, diff))

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


def _mining_key(min_support, max_length, store) -> tuple:
    """What names a dataset's warm miner in ``entry.miners``.  ``store``
    is however the caller spelt it — a job's config, a watcher's query
    argument or nothing — so one logical key is one miner."""
    return (min_support, max_length, incremental_store(store))


def _fingerprinted(chain: FingerprintChain, delta: list) -> str:
    """``chain`` extended by ``delta`` — whole or, for a delta with an
    un-renderable item or a row that is not iterable, not at all (400)."""
    try:
        return chain.extend(delta)
    except Exception as exc:
        raise ApiError(f"delta could not be fingerprinted: {exc}") from exc


def _in_payload_order(by_itemset: dict) -> list:
    """The itemsets of ``by_itemset`` in the order payloads list them:
    shorter itemsets first, equal lengths in the items' own order.  The
    keys alone are sorted — a native tuple sort, then a stable one by
    ``len`` — at half the cost of sorting ``(itemset, value)`` pairs,
    which at a few thousand changed itemsets per version is GIL time
    taken from the writer.  Itemsets whose items do not compare with
    each other (mixed types) fall back to the order of their ``str``
    forms."""
    try:
        keys = sorted(by_itemset)
    except TypeError:
        keys = sorted(by_itemset, key=lambda itemset: [str(x) for x in itemset])
    keys.sort(key=len)
    return keys


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
    """``rows`` (field name -> rows, as :func:`_diff_rows` makes them) as
    the JSON text of those fields, braces stripped — ``"added": [...],
    ...`` — ready to follow an answer's head.  Raises :class:`ServeError`
    naming an item JSON cannot carry."""
    return json.dumps(rows, default=_unsendable)[1:-1]


def _decoded_rows(text: str) -> dict:
    """:func:`_rows_text` read back: field name -> rows, every array a
    tuple, as :func:`_diff_rows` made them."""
    return {name: list(map(_tupled, rows)) for name, rows in json.loads(f"{{{text}}}").items()}


#: the rows of an answer at the current version: nothing moved
_NO_CHANGE = _rows_text(_diff_rows(FamilyDiff()))

#: one render at a time: a transition many readers ask for at once is
#: rendered by the first, and the rest are sent what it kept
_RENDERING = threading.Lock()


def _rendered(step: _Transition) -> str:
    """``step``'s rows as the JSON text they are sent as: rendered by its
    first reader, outside the dataset lock, and kept in place of the
    diff, so every later reader is sent the same text."""
    body = step.body
    if isinstance(body, str):
        return body
    with _RENDERING:
        if isinstance(step.body, FamilyDiff):
            step.body = _rows_text(_diff_rows(step.body))
        return step.body


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


class ManagedDataset:
    """One named dataset: window, version, fingerprint chain, policies,
    ingest buffer, warm miners, and the change-feed watches."""

    def __init__(
        self,
        dataset_id: str,
        transactions: Iterable[Sequence],
        *,
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
        #: serializes appends, submit snapshots, and warm-miner updates
        self.lock = threading.RLock()
        #: notified on every version advance (and on retirement) — the
        #: ``/changes`` long-poll waits here
        self.changed = threading.Condition(self.lock)
        #: (min_support, max_length, candidate_store) -> IncrementalMiner
        self.miners: dict[tuple, object] = {}
        #: mining key -> the version a job or a watch last used its miner
        self.last_used: dict[tuple, int] = {}
        #: mining key -> _Watch (change-feed subscribers)
        self.watches: dict[tuple, _Watch] = {}
        #: True once replaced via ``create(replace=True)`` — appends to
        #: a stale reference get a 409 instead of mutating a zombie
        self.retired = False
        self._buffer: list = []
        self._buffer_opened_s: float | None = None
        self.retires = 0

    def check_live(self) -> None:
        """Refuse (409 ``dataset_retired``) to touch an entry a same-name
        replace has retired (caller holds :attr:`lock`)."""
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

        The delta is fingerprinted here, on a throwaway chain, so one
        that cannot be is refused at its own call — not at the flush that
        would have carried other callers' staged rows down with it."""
        _fingerprinted(FingerprintChain(), delta)
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
        any due policy retire as ONE version bump, bring the warm miners
        along and wake the long-pollers (caller holds :attr:`lock`).

        Returns an :class:`AppendResult`, or ``None`` when there was
        nothing to do (empty delta, no retire due).  Hashing the delta
        into the fingerprint chain is the first thing that mutates, and
        the chain takes a delta whole or not at all — a poisoned delta
        (un-renderable item, a row that is not iterable) leaves the entry
        exactly as it was.
        """
        self.check_live()
        delta = list(transactions)
        now = self.clock() if now is None else now
        if not delta and self._excess(now) == 0:
            return None
        fingerprint = _fingerprinted(self.chain, delta)
        old_fp, old_version = self.fingerprint, self.version
        self.transactions.extend(delta)
        self.arrivals.extend([now] * len(delta))
        pre_trim = self.transactions
        n_retire = self._excess(now)
        if n_retire:
            pre_trim = list(self.transactions)
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
        res = AppendResult(
            old_version=old_version,
            new_version=self.version,
            old_fingerprint=old_fp,
            new_fingerprint=self.fingerprint,
            n_appended=len(delta),
            n_retired=n_retire,
            pre_trim_window=pre_trim,
        )
        self._sync_miners(res)
        self.changed.notify_all()
        return res

    # -- warm miners -------------------------------------------------------
    def miner_for(self, key: tuple, n_rows: int):
        """The warm miner for mining ``key`` with its window at our first
        ``n_rows`` rows — built on first use, caught up by one delta pass
        when lazily behind — or ``None`` when it has already moved past
        them.  The one place a miner is built or caught up, for jobs
        (``n_rows`` of their snapshot, a version ``>= prefix_since``) and
        watches (the whole window) alike; caller holds :attr:`lock`."""
        self.last_used[key] = self.version
        miner = self.miners.get(key)
        if miner is None:
            min_support, max_length, store = key
            miner = self.miners[key] = IncrementalMiner(
                self.transactions[:n_rows],
                min_support,
                max_length=max_length,
                candidate_store=store,
                # nobody reads diffs until a watch on the key asks
                track_family_diff=False,
            )
        elif miner.n_transactions > n_rows:
            return None
        elif miner.n_transactions < n_rows:
            miner.append(self.transactions[miner.n_transactions : n_rows])
        return miner

    def _sync_miners(self, res: AppendResult) -> None:
        """Bring warm miners in step with one window advance.

        Watched mining keys update eagerly on every advance — their
        :class:`~repro.core.incremental.FamilyDiff` transitions are what
        the change feed ships.  Unwatched miners stay lazy (the next job
        folds the delta) *except* across a retire: the retired rows leave
        the window now, so every miner must retire now or its window
        stops being a prefix of ours.  A miner that cannot follow (e.g.
        the retire would empty it) is dropped and rebuilt on demand.

        First, what nobody uses goes: a watch no reader has polled for
        :attr:`changelog_limit` versions — its log no longer covers the
        last poll, so a returning reader is owed a reset anyway — and a
        miner no job or watch has used for as long.
        """
        stale = self.version - self.changelog_limit
        for key, watch in list(self.watches.items()):
            if watch.polled < stale:
                del self.watches[key]
                if key in self.miners:
                    self.miners[key].track_family_diff = False
        for key, miner in list(self.miners.items()):
            watch = self.watches.get(key)
            if watch is None and self.last_used[key] < stale:
                del self.miners[key], self.last_used[key]
                continue
            if watch is None and res.n_retired == 0:
                continue
            try:
                # ONE update per version bump: the window between the
                # append and the retire is never mined
                update = miner.slide(
                    res.pre_trim_window[miner.n_transactions :], res.n_retired
                )
            except MiningError:
                del self.miners[key], self.last_used[key]
                if watch is not None:
                    watch.reset()
                continue
            if watch is not None and watch.start_version is not None:
                watch.record(res.old_version, update.family_diff or FamilyDiff())

    # -- change feed -------------------------------------------------------
    def watch(self, key: tuple) -> _Watch:
        """The change-feed watch on mining ``key``, established on first
        use: its warm miner is brought to the current window and from
        here on emits the diffs :meth:`append` logs.  Every call is a
        poll that keeps the watch (caller holds :attr:`lock`)."""
        watch = self.watches.get(key)
        if watch is None:
            watch = self.watches[key] = _Watch(log=deque(maxlen=self.changelog_limit))
        watch.polled = self.version
        self.miner_for(key, len(self.transactions)).track_family_diff = True
        if watch.start_version is None:
            # transitions the miner folded lazily just now predate this
            # baseline, so no log entry is lost to subscribers
            watch.start_version = self.version
            watch.log.clear()
        return watch

    def changes_since(self, mining_key: tuple, since: int) -> list | None:
        """The logged :class:`_Transition` s taking version ``since`` to
        the current version (none when ``since`` is current), or ``None``
        when the log no longer covers ``since`` (watch created later, log
        overflowed, or a reset) — the caller then ships the full family
        instead.
        """
        watch = self.watches.get(mining_key)
        if watch is None or watch.start_version is None:
            return None
        if since == self.version:
            return []
        log = list(watch.log)
        start = next((i for i, step in enumerate(log) if step.from_version == since), None)
        return None if start is None else log[start:]

    def info(self) -> dict:
        """JSON-safe summary (the ``GET /datasets/<id>`` payload)."""
        with self.lock:
            return {
                "dataset_id": self.dataset_id,
                "version": self.version,
                "n_transactions": len(self.transactions),
                "fingerprint": self.fingerprint,
                "warm_miners": len(self.miners),
                "buffered": len(self._buffer),
                "watches": len(self.watches),
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
    """

    def __init__(self, datasets: DatasetCache, results: ResultCache):
        self._cache = datasets
        self._results = results
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
        entry = ManagedDataset(dataset_id, transactions, **policy)
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
            "warm_miners": sum(len(e.miners) for e in entries),
            "buffered": sum(e.pending_buffered for e in entries),
            "retired_transactions": sum(e.retires for e in entries),
            "watches": sum(len(e.watches) for e in entries),
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
            info = entry.info()
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
        candidate_store: str | None = None,
        timeout_s: float = 0.0,
    ) -> dict:
        """The change feed: what happened to the frequent-itemset family
        of ``dataset_id`` (under the given mining key) since version
        ``since``.

        Establishes a watch on first use — the dataset's warm miner for
        the key is built (a full mine) and from then on updated eagerly
        on every window advance, logging one
        :class:`~repro.core.incremental.FamilyDiff` per version
        transition.  When ``since`` is the current version the call
        long-polls up to ``timeout_s`` (capped server-side) for the next
        advance.  A ``since`` older than the log covers answers
        ``reset=true`` with the full current family instead of a diff, and
        so does a span of versions whose logged rows outnumber the
        family's itemsets: the family is the smaller answer, and it needs
        no decode.

        Returns a :class:`FeedAnswer`: the head and the rows' JSON text.
        A one-version diff is rendered by its first reader and kept in the
        log as that text, which every later reader is sent.
        """
        entry = self.get(dataset_id)
        key = _mining_key(min_support, max_length, candidate_store)
        deadline = time.monotonic() + max(0.0, min(float(timeout_s), MAX_POLL_S))
        with entry.changed:
            entry.check_live()
            if since > entry.version:
                raise ApiError(
                    f"since={since} is ahead of {dataset_id!r} version {entry.version}"
                )
            if entry.pending_buffered:
                self._settle(entry, entry.flush())
            entry.watch(key)
            while entry.version == since and not entry.retired:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                entry.changed.wait(remaining)
            entry.check_live()
            entry.watch(key)  # the version answered is the one polled at
            head = {
                "dataset_id": entry.dataset_id,
                "since": since,
                "version": entry.version,
                "n_transactions": len(entry.transactions),
            }
            steps = entry.changes_since(key, since)
            family = None
            if steps is None or len(steps) > 1:
                family = entry.miners[key].itemsets()
                if steps is not None and sum(step.n_rows for step in steps) <= len(family):
                    family = None
        # Sorting, rendering and composing are the slow part of an answer,
        # and nothing in them needs the dataset any more: the writer's
        # next append or submit must not queue behind them.
        if family is not None:
            return FeedAnswer({**head, "reset": True}, _rows_text({"family": _family_rows(family)}))
        if not steps:
            rows = _NO_CHANGE
        elif len(steps) == 1:
            rows = _rendered(steps[0])
        else:
            rows = _rows_text(_diff_rows(FamilyDiff.compose(step.diff() for step in steps)))
        return FeedAnswer({**head, "reset": False}, rows)

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

    def warm_result(self, entry: ManagedDataset, version: int, n_rows: int, config):
        """An incremental job's answer from ``entry``'s warm miner, for
        the ``n_rows``-row window it snapshotted at ``version``.

        The first job for a mining key builds the miner (a full mine);
        every later one pays one delta pass over the rows appended since
        — the update win the incremental tier exists for.  ``None``
        (→ the caller's cold run of its own rows) when warm state cannot
        answer for that snapshot: the entry was replaced, rows it held
        have retired (``version < prefix_since``), or the miner has
        already moved past it.
        """
        key = _mining_key(config.min_support, config.max_length, config)
        with entry.lock:
            if entry.retired or version < entry.prefix_since:
                return None
            miner = entry.miner_for(key, n_rows)
            return None if miner is None else miner.result()

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
        """Stop the flusher (the owning service is shutting down)."""
        self._flusher_stop.set()
        with self._lock:
            flusher = self._flusher
        if wait and flusher is not None:
            flusher.join(timeout=5.0)


__all__ = ["AppendResult", "DatasetRegistry", "FeedAnswer", "ManagedDataset", "POLICY_FIELDS"]
