"""Consistent-hash ring and the shard unit the router spreads load over.

A :class:`Shard` is one named :class:`~repro.serve.service.MiningService`
plus the router-side counters for it (accepted as home / spilled in).
:class:`HashRing` maps dataset fingerprints to shards with virtual nodes,
so cache affinity survives shard add/remove: each physical shard owns
``replicas`` points on a 2^64 ring, a key belongs to the first point at
or after its own hash, and removing a shard only reassigns the keys that
shard owned — every other dataset keeps its warm
``DatasetCache``/``ContextPool``/``ResultCache``.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.serve.jobs import Job, ServeError
from repro.serve.service import MiningService


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


class Shard:
    """One service behind the router, with per-shard routing counters."""

    def __init__(self, name: str, service: MiningService):
        self.name = name
        self.service = service
        self.jobs_home = 0  # accepted as the fingerprint's home shard
        self.jobs_spilled_in = 0  # accepted for a saturated neighbour

    def submit(self, transactions, config, *, home: bool, **submit_kwargs) -> Job:
        """Submit to this shard's service; tracks home/spill acceptance."""
        job = self.service.submit(transactions, config, **submit_kwargs)
        if home:
            self.jobs_home += 1
        else:
            self.jobs_spilled_in += 1
        return job

    def queue_depth(self) -> int:
        return self.service.queue_depth()

    def stats(self) -> dict:
        return {
            "name": self.name,
            "jobs_home": self.jobs_home,
            "jobs_spilled_in": self.jobs_spilled_in,
            "jobs_rejected": self.service.jobs_rejected,  # its own admission refusals
            "queue_depth": self.queue_depth(),
            "queue_limit": self.service.queue_limit,
        }


__all__ = ["HashRing", "Shard"]
