"""Consistent-hash ring: which shard a key belongs to.

:class:`HashRing` maps dataset fingerprints (and ``dataset:<name>`` keys)
to shard names with virtual nodes, so cache affinity survives shard
add/remove: each physical shard owns ``replicas`` points on a 2^64 ring,
a key belongs to the first point at or after its own hash, and removing
a shard only reassigns the keys that shard owned — every other dataset
keeps its warm ``DatasetCache``/``ResultCache``.  The
shards themselves are plain :class:`~repro.serve.service.MiningService`
instances held by the :class:`~repro.serve.router.ShardRouter`, which
also keeps the per-shard placement counters.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.serve.jobs import ServeError


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (sha256-derived; not Python ``hash``,
    which is salted per process and would re-route every restart)."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    ``node_for(key)`` is deterministic across processes and stable under
    membership change; ``preference(key)`` returns every node in ring
    order starting at the key's home — the router's spill order when the
    home shard is saturated.
    """

    def __init__(self, nodes=(), replicas: int = 64):
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []  # sorted (position, node)
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            bisect.insort(self._points, (_ring_hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(pos, n) for pos, n in self._points if n != node]

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def node_for(self, key: str) -> str:
        """The key's home node (first virtual node at/after its hash)."""
        if not self._points:
            raise ServeError("hash ring is empty")
        idx = bisect.bisect_left(self._points, (_ring_hash(key), ""))
        if idx == len(self._points):
            idx = 0  # wrap around
        return self._points[idx][1]

    def preference(self, key: str, n: int | None = None) -> list[str]:
        """Distinct nodes in ring order from the key's home — index 0 is
        ``node_for(key)``, the rest are the spill-over sequence."""
        if not self._points:
            raise ServeError("hash ring is empty")
        want = len(self._nodes) if n is None else min(n, len(self._nodes))
        idx = bisect.bisect_left(self._points, (_ring_hash(key), ""))
        out: list[str] = []
        for step in range(len(self._points)):
            node = self._points[(idx + step) % len(self._points)][1]
            if node not in out:
                out.append(node)
                if len(out) == want:
                    break
        return out


__all__ = ["HashRing"]
