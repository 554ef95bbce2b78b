"""The job tier's queue: deficit round-robin over per-tenant heaps.

:class:`TenantQueue` owns "is this job queued, and who runs next" and
nothing else.  It is a plain data structure — no lock, no thread, no
clock; :class:`~repro.serve.service.MiningService` calls it under its
own lock — and all it reads of a job is ``job.request.tenant`` and
``job.request.priority``.

Scheduling is deficit round-robin (Shreedhar & Varghese): the tenants
with something queued form a rotation; each visit grants the tenant at
its head ``weight`` credit and one job costs one credit.  Within a
tenant, lower ``priority`` first, then FIFO.  A tenant whose last job
leaves — popped or discarded — leaves the rotation and takes its credit
along (no banking while idle), so a pop costs the same however many
tenant names the queue has ever seen.

Removal is lazy: :meth:`TenantQueue.discard` forgets the job's ticket
and its heap entry dies in place.  The queue owns those dead entries — a
tenant's heap is rebuilt once more than half of it is dead, so heap
entries never exceed twice the live jobs and ``len()`` stays exact.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict


class _Lane:
    """One tenant's sub-queue while it has jobs waiting."""

    __slots__ = ("heap", "live", "credit")

    def __init__(self):
        self.heap: list[tuple[int, int, object]] = []  # (priority, seq, job)
        self.live = 0  # entries of ``heap`` that still hold a ticket
        self.credit = 0.0


class TenantQueue:
    """Tenant-fair priority queue of jobs.

    ``weights`` maps tenant name -> credit per round (missing tenants
    get 1.0); it is read at every visit, not copied.
    """

    def __init__(self, weights: dict[str, float] | None = None):
        self._weights = weights if weights is not None else {}
        #: the rotation, head first; holds exactly the tenants with live jobs
        self._lanes: OrderedDict[str, _Lane] = OrderedDict()
        #: id(job) -> seq of its live heap entry (the entry pins the job,
        #: so the id cannot be reused while the ticket exists)
        self._tickets: dict[int, int] = {}
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._tickets)

    def pending(self) -> dict[str, int]:
        """Jobs waiting, per tenant that has any."""
        return {tenant: lane.live for tenant, lane in self._lanes.items()}

    def push(self, job) -> None:
        tenant = job.request.tenant
        lane = self._lanes.get(tenant)
        if lane is None:  # joins the round at its tail
            lane = self._lanes[tenant] = _Lane()
        seq = next(self._seq)
        heapq.heappush(lane.heap, (job.request.priority, seq, job))
        lane.live += 1
        self._tickets[id(job)] = seq

    def pop(self):
        """The next job under deficit round-robin, or ``None`` when empty."""
        while self._lanes:
            tenant, lane = next(iter(self._lanes.items()))
            if lane.credit < 1.0:
                lane.credit += self._weights.get(tenant, 1.0)
                if lane.credit < 1.0:
                    self._lanes.move_to_end(tenant)
                continue
            while True:  # a lane in the rotation has a live entry
                _, seq, job = heapq.heappop(lane.heap)
                if self._tickets.get(id(job)) == seq:
                    break
            lane.credit -= 1.0
            del self._tickets[id(job)]
            if self._left(tenant, lane) and lane.credit < 1.0:
                self._lanes.move_to_end(tenant)
            return job
        return None

    def discard(self, job) -> bool:
        """Take ``job`` out of the queue; False when it is not in it
        (already popped, discarded, or never pushed)."""
        if self._tickets.pop(id(job), None) is None:
            return False
        tenant = job.request.tenant
        self._left(tenant, self._lanes[tenant])
        return True

    def drain(self) -> list:
        """Empty the queue; returns the jobs that were waiting, in
        submission order."""
        waiting = sorted(
            (seq, job)
            for lane in self._lanes.values()
            for _, seq, job in lane.heap
            if self._tickets.get(id(job)) == seq
        )
        self._lanes.clear()
        self._tickets.clear()
        return [job for _, job in waiting]

    def _left(self, tenant: str, lane: _Lane) -> bool:
        """One live job left ``lane``; True while the tenant stays in the
        rotation."""
        lane.live -= 1
        if lane.live == 0:
            del self._lanes[tenant]
            return False
        if len(lane.heap) > 2 * lane.live:
            lane.heap = [e for e in lane.heap if self._tickets.get(id(e[2])) == e[1]]
            heapq.heapify(lane.heap)
        return True


__all__ = ["TenantQueue"]
