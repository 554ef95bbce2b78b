"""Cross-job caches: parsed datasets, memoized results.

The YAFIM paper's core win is keeping the transaction data resident in
memory across Apriori passes instead of re-reading it from HDFS each
pass.  The serving layer lifts the same idea one level up — across
*jobs*:

* :class:`DatasetCache` keeps parsed transaction lists resident, keyed by
  content fingerprint, LRU-evicted against a byte budget (sizes come from
  :func:`repro.common.sizeof.estimate_size`, the block manager's own
  estimator).
* :class:`ResultCache` memoizes ``(dataset_fingerprint, config.cache_key())``
  → :class:`~repro.core.results.MiningRunResult` with TTL + LRU, so an
  identical resubmission returns without touching the engine at all.

Both are thread-safe; workers and the HTTP front-end hit them
concurrently.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence

from repro.common.sizeof import estimate_size


_DIGEST_BYTES = hashlib.sha256().digest_size


class FingerprintChain:
    """A dataset fingerprint that follows a sliding window at delta cost.

    The fingerprint is sha256 over the concatenated **per-row sha256
    digests** of the window, in order.  The chain keeps those digests, so
    ``extend`` hashes only the appended rows, ``retire`` drops the oldest
    rows' digests without reading a single row, and either way the new
    fingerprint is one sha256 over 32 bytes per row.  It is
    **byte-identical** to :func:`dataset_fingerprint` over the current
    window after any sequence of extends and retires — which is what lets
    the serving tier mix raw-transaction submissions and versioned named
    datasets in one cache keyspace.

    Items are rendered with ``str`` (UTF-8), and an item whose type is
    not ``str`` has bit 31 of its length prefix set: ``[[1, 2]]`` and
    ``[["1", "2"]]`` render alike, but they mine to different itemsets
    (``(1,)`` is not ``("1",)``), so they must not share a fingerprint.
    The encoding is injective: every row is its own fixed-width digest,
    and inside a row the item count and every rendered item are
    length-prefixed, so ``[["a b"]]`` / ``[["a", "b"]]`` and ``[[1], [2]]``
    / ``[[1, 2]]`` hash differently.  (A join on a separator would conflate them, letting one
    tenant's submission silently hit another dataset's cache entry.)
    """

    __slots__ = ("_digests",)

    def __init__(self, transactions: Iterable[Sequence] = ()):
        self._digests = bytearray()
        self.extend(transactions)

    @property
    def n_transactions(self) -> int:
        return len(self._digests) // _DIGEST_BYTES

    def extend(self, transactions: Iterable[Sequence]) -> str:
        """Fold a chunk of transactions in; returns the new fingerprint.

        All or nothing: a row that cannot be rendered raises before the
        chain changes."""
        sha256 = hashlib.sha256
        digests = []
        for txn in transactions:
            parts = [len(txn).to_bytes(4, "big")]
            for item in txn:
                if item.__class__ is str:
                    data = item.encode()
                    parts.append(len(data).to_bytes(4, "big"))
                else:
                    data = str(item).encode()
                    parts.append((len(data) | 1 << 31).to_bytes(4, "big"))
                parts.append(data)
            digests.append(sha256(b"".join(parts)).digest())
        self._digests += b"".join(digests)
        return self.hexdigest()

    def join(self, other: "FingerprintChain") -> str:
        """Fold in ``other``'s rows, hashed already; returns the new fingerprint."""
        self._digests += other._digests
        return self.hexdigest()

    def retire(self, n_oldest: int) -> str:
        """Drop the ``n_oldest`` rows from the front; returns the new
        fingerprint."""
        del self._digests[: max(0, n_oldest) * _DIGEST_BYTES]
        return self.hexdigest()

    def hexdigest(self) -> str:
        """The current window's fingerprint."""
        return hashlib.sha256(self._digests).hexdigest()

    def copy(self) -> "FingerprintChain":
        """An independent chain at the same position (what-if appends)."""
        clone = object.__new__(FingerprintChain)
        clone._digests = bytearray(self._digests)
        return clone


def dataset_fingerprint(transactions: Iterable[Sequence]) -> str:
    """Content hash of a transaction list (hex sha256, order-sensitive).

    The one-shot form of :class:`FingerprintChain` — see there for the
    encoding contract.
    """
    return FingerprintChain(transactions).hexdigest()


class LruByteCache:
    """LRU mapping with a byte budget and hit/miss/eviction counters.

    Entry sizes are estimated once at insert.  A single entry larger than
    the whole budget is still admitted (evicting everything else) — the
    service must be able to run any dataset it accepted, cached or not.
    """

    def __init__(self, max_bytes: int):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, default=None):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, value: object) -> None:
        size = estimate_size(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, size)
            self.current_bytes += size
            while self.current_bytes > self.max_bytes and len(self._entries) > 1:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_size
                self.evictions += 1

    def remove(self, key: str) -> bool:
        """Drop an entry outright (dataset mutated, not evicted for space);
        True when it was present.  Counted separately from evictions."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self.current_bytes -= entry[1]
            return True

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }


class DatasetCache(LruByteCache):
    """Parsed transaction lists keyed by :func:`dataset_fingerprint`."""

    def add(self, transactions: list, fingerprint: str | None = None) -> str:
        """Fingerprint ``transactions``, cache them, return the fingerprint.

        Re-adding an already cached dataset refreshes its LRU position but
        does not count as a miss.  ``fingerprint`` lets a caller that has
        already hashed the data (the shard router, which routes on it)
        skip the second sha256 pass.
        """
        fp = fingerprint or dataset_fingerprint(transactions)
        with self._lock:
            if fp in self._entries:
                self._entries.move_to_end(fp)
                return fp
        self.put(fp, transactions)
        return fp


class ResultCache:
    """``(dataset_fingerprint, config_key)`` → result, with TTL + LRU."""

    def __init__(self, max_entries: int = 256, ttl_s: float = 300.0):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[object, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def get(self, key: tuple, now: float | None = None):
        now = time.monotonic() if now is None else now
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, expires_s = entry
            if now >= expires_s:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value: object, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (value, now + self.ttl_s)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_dataset(self, fingerprint: str) -> int:
        """Drop every entry cached for ``fingerprint`` (the dataset was
        mutated — a stale version must be invalidated, never served).
        Returns the number of entries removed (``invalidations`` stat).
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == fingerprint]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
            }
