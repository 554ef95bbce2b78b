"""Named, versioned datasets for the serving tier.

A raw ``submit(transactions, ...)`` identifies its dataset by content
fingerprint — immutable by construction.  Sliding-window workloads need
the opposite: one *name* whose contents evolve over time, with every
window change producing a new **version** (and a new fingerprint, via
the incrementally-extendable
:class:`~repro.serve.cache.FingerprintChain`) so results cached for a
stale version are invalidated rather than served.

:class:`DatasetRegistry` is the name → :class:`ManagedDataset` map a
:class:`~repro.serve.service.MiningService` owns.  Each entry carries
the current window, its version counter and fingerprint chain, the
dataset's **warm incremental miners** — one
:class:`~repro.core.incremental.IncrementalMiner` per mining key, kept
resident so a re-submit after an append pays one delta pass instead of
a full re-mine — and the streaming machinery:

* an **ingest buffer** (``flush_rows`` / ``flush_age_s``) that coalesces
  many small appends into one delta update;
* **window policies** (``max_window`` / ``max_age_s``) that retire the
  oldest transactions automatically on every advance;
* per-mining-key **watches** holding a bounded change log of
  :class:`~repro.core.incremental.FamilyDiff` transitions, feeding the
  ``GET /datasets/<id>/changes`` long-poll.

In router mode every dataset has a single home shard (consistent-hashed
on the *name*, which — unlike the fingerprint — is stable across
appends), so the warm state and the change log are never split.

All mutation happens under the entry's :attr:`ManagedDataset.lock`;
the registry lock only guards the name map and its counters.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.incremental import FamilyDiff
from repro.serve.cache import FingerprintChain
from repro.serve.jobs import ApiError


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


@dataclass
class _Watch:
    """Change-feed state for one mining key.

    ``log`` holds contiguous ``(from_version, to_version, FamilyDiff)``
    transitions; the deque bound drops the oldest, and a ``since`` older
    than coverage answers with a full-family reset instead.
    """

    start_version: int | None = None
    log: deque = field(default_factory=lambda: deque(maxlen=64))

    def record(self, from_version: int, to_version: int, diff: FamilyDiff) -> None:
        self.log.append((from_version, to_version, diff))

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
        #: version -> that version's fingerprint, for the *retained*
        #: versions only: the current one plus any pinned by in-flight
        #: job snapshots.  A hit proves the snapshot is a prefix of the
        #: current window — the O(1) guard the warm-miner path uses —
        #: because retires clear the map (old versions stop being
        #: prefixes) and unpinned stale versions are pruned on advance
        #: (they would otherwise leak one entry per append, forever).
        self.versions: dict[int, str] = {1: self.fingerprint}
        #: version -> refcount of in-flight jobs snapshotting it
        self._pins: dict[int, int] = {}
        self.created_s = now
        self.updated_s = now
        #: serializes appends, submit snapshots, and warm-miner updates
        self.lock = threading.RLock()
        #: notified on every version advance (and on retirement) — the
        #: ``/changes`` long-poll waits here
        self.changed = threading.Condition(self.lock)
        #: (min_support, max_length, candidate_store) -> IncrementalMiner
        self.miners: dict[tuple, object] = {}
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
        """Stage a delta in the ingest buffer (caller holds :attr:`lock`)."""
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

    def take_buffer(self) -> list:
        out = self._buffer
        self._buffer = []
        self._buffer_opened_s = None
        return out

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

    # -- version pins ------------------------------------------------------
    def pin_version(self, version: int) -> None:
        """Keep ``version`` in :attr:`versions` while a job snapshot of it
        is in flight (caller holds :attr:`lock`)."""
        self._pins[version] = self._pins.get(version, 0) + 1

    def release_version(self, version: int) -> None:
        with self.lock:
            left = self._pins.get(version, 0) - 1
            if left > 0:
                self._pins[version] = left
            else:
                self._pins.pop(version, None)
            self._prune_versions()

    def _prune_versions(self) -> None:
        keep = set(self._pins)
        keep.add(self.version)
        for version in [v for v in self.versions if v not in keep]:
            del self.versions[version]

    # -- the one mutation path ---------------------------------------------
    def append(self, transactions: Iterable[Sequence], now: float | None = None):
        """Advance the window: apply ``transactions`` (may be empty) and
        any due policy retire as ONE version bump (caller holds
        :attr:`lock`).

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
        try:
            fingerprint = self.chain.extend(delta)
        except Exception as exc:
            raise ApiError(f"delta could not be fingerprinted: {exc}") from exc
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
            # row is re-read.  Every retained version stops being a
            # prefix of the new window, so the prefix-guard map must
            # empty — pinned snapshots then fail the guard and their jobs
            # fall back to a cold run, which is exactly the
            # never-serve-stale behavior.
            fingerprint = self.chain.retire(n_retire)
            self.versions.clear()
            self.retires += n_retire
        self.fingerprint = fingerprint
        self.version += 1
        self.versions[self.version] = self.fingerprint
        self._prune_versions()
        self.updated_s = now
        return AppendResult(
            old_version=old_version,
            new_version=self.version,
            old_fingerprint=old_fp,
            new_fingerprint=self.fingerprint,
            n_appended=len(delta),
            n_retired=n_retire,
            pre_trim_window=pre_trim,
        )

    # -- change feed -------------------------------------------------------
    def watch(self, mining_key: tuple) -> _Watch:
        """The watch for ``mining_key``, created on first use (caller
        holds :attr:`lock`)."""
        watch = self.watches.get(mining_key)
        if watch is None:
            watch = _Watch(log=deque(maxlen=self.changelog_limit))
            self.watches[mining_key] = watch
        return watch

    def changes_since(self, mining_key: tuple, since: int) -> FamilyDiff | None:
        """The composed diff taking version ``since`` to the current
        version, or ``None`` when the log no longer covers ``since``
        (watch created later, log overflowed, or a reset) — the caller
        then ships the full family instead.
        """
        watch = self.watches.get(mining_key)
        if watch is None or watch.start_version is None:
            return None
        if since == self.version:
            return FamilyDiff()
        log = list(watch.log)
        start = next(
            (i for i, (from_v, _, _) in enumerate(log) if from_v == since), None
        )
        if start is None:
            return None
        if start == len(log) - 1:
            return log[start][2]  # one transition: logged diffs are never mutated
        return FamilyDiff.compose(diff for _, _, diff in log[start:])

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
    """Thread-safe name → :class:`ManagedDataset` map."""

    def __init__(self):
        self._lock = threading.Lock()
        self._datasets: dict[str, ManagedDataset] = {}
        self.creates = 0
        self.appends = 0
        self.flushes = 0

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
        ``replace=True`` overwrote an existing name — the owning service
        retires it under *its own* lock before invalidating its cache
        entries, so a concurrent append through a stale reference either
        lands before the barrier (and is invalidated with the rest) or
        gets a 409.  Without ``replace``, a duplicate name raises
        :class:`ApiError` 409 ``dataset_exists``.
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

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

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


__all__ = ["AppendResult", "DatasetRegistry", "ManagedDataset", "POLICY_FIELDS"]
