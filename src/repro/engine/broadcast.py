"""Broadcast variables.

The paper (§IV-C) leans on Spark's broadcast abstraction to ship the
candidate hash tree to each worker *once per node per iteration* instead of
once per task.  Here a :class:`Broadcast` wraps a value registered with the
driver-side :class:`BroadcastManager`; executors resolve it through a
per-worker cache, and the manager counts one logical transfer per worker —
the quantity the cluster cost model charges to the network.

For the process-pool backend a Broadcast is pickled **by reference**:
inside :func:`ship_broadcasts_by_ref` (entered by the executor while
serializing a task batch) ``__getstate__`` emits only the broadcast id
and registers the instance with the active collector; the worker-side
copy resolves the payload through its
:class:`~repro.engine.workerstore.WorkerBlockStore`, so the serialized
value crosses the process boundary at most once per worker — the
in-process analogue of Torrent broadcast.  Outside that context (plain
``pickle.dumps`` by user code) the value is embedded as before.

The value is serialized exactly once, when the broadcast is created:
that blob's length is ``size_bytes`` (what the cost model charges per
node) and that blob is what every worker receives.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.engine.workerstore import broadcast_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.tracing import Tracer

T = TypeVar("T")

_ship_local = threading.local()


@contextmanager
def ship_broadcasts_by_ref(collector: dict):
    """While active (per thread), pickling a :class:`Broadcast` ships only
    its id and records ``collector[bc_id] = broadcast`` so the executor
    can push/pull the payload separately."""
    previous = getattr(_ship_local, "collector", None)
    _ship_local.collector = collector
    try:
        yield collector
    finally:
        _ship_local.collector = previous


class Broadcast(Generic[T]):
    """Read-only shared variable; access the payload through ``.value``."""

    def __init__(self, bc_id: int, value: T, manager: "BroadcastManager | None"):
        self.id = bc_id
        self._value = value
        self._manager = manager
        self._by_ref = False
        import cloudpickle

        self._blob: bytes | None = cloudpickle.dumps(value)
        self.size_bytes = len(self._blob)

    @property
    def value(self) -> T:
        if self._by_ref and self._value is None:
            from repro.engine.workerstore import resolve_block

            self._value = resolve_block(broadcast_key(self.id))
        if self._manager is not None:
            self._manager.record_access(self)
        return self._value

    def shipping_blob(self) -> bytes | None:
        """The serialized payload (``None`` once destroyed)."""
        return self._blob

    def shipping_size_bytes(self) -> int:
        return self.size_bytes

    def destroy(self) -> None:
        """Release the value (driver side)."""
        self._value = None  # type: ignore[assignment]
        self._blob = None
        if self._manager is not None:
            self._manager.unregister(self)

    # -- pickling: the manager stays on the driver -------------------------
    def __getstate__(self):
        collector = getattr(_ship_local, "collector", None)
        if collector is not None:
            collector[self.id] = self
            return {"id": self.id, "size_bytes": self.size_bytes, "by_ref": True}
        return {"id": self.id, "_value": self._value, "size_bytes": self.size_bytes}

    def __setstate__(self, state):
        self.id = state["id"]
        self._value = state.get("_value")
        self.size_bytes = state["size_bytes"]
        self._by_ref = state.get("by_ref", False)
        self._blob = None
        self._manager = None

    def __repr__(self) -> str:
        return f"Broadcast(id={self.id}, ~{self.size_bytes}B)"


class BroadcastManager:
    """Driver-side registry + transfer accounting.

    ``record_access`` is called on every ``.value`` read with the current
    worker id (from the executing task's context, when any); the first
    access per (broadcast, worker) counts as one network transfer of
    ``size_bytes`` — all later accesses are cache hits.  The process
    backend reports real transfers instead: the executor calls
    :meth:`record_shipment` when a payload physically reaches a worker.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self._counter = itertools.count()
        self._live: dict[int, Broadcast] = {}
        self._seen: set[tuple[int, str]] = set()
        self._lock = threading.Lock()
        self.transfers = 0
        self.transfer_bytes = 0
        self.tracer = tracer
        #: Called with the Broadcast being destroyed; the Context wires
        #: this to the executor so worker-resident copies are dropped.
        self.on_unregister = None

    def new_broadcast(self, value: Any) -> Broadcast:
        t0 = time.perf_counter()
        bc = Broadcast(next(self._counter), value, self)
        self._live[bc.id] = bc
        if self.tracer is not None:
            self.tracer.add_span(
                f"broadcast_publish b{bc.id}",
                "broadcast",
                t0,
                time.perf_counter() - t0,
                size_bytes=bc.size_bytes,
            )
        return bc

    def record_access(self, bc: Broadcast) -> None:
        from repro.engine.task import current_worker_id

        worker = current_worker_id()
        with self._lock:
            key = (bc.id, worker)
            if key not in self._seen:
                self._seen.add(key)
                self.transfers += 1
                self.transfer_bytes += bc.size_bytes

    def record_shipment(self, bc_id: int, worker_id: str, nbytes: int) -> None:
        """A broadcast payload physically crossed to ``worker_id`` (process
        backend); counts once per (broadcast, worker) like an access."""
        with self._lock:
            key = (bc_id, worker_id)
            if key not in self._seen:
                self._seen.add(key)
                self.transfers += 1
                self.transfer_bytes += nbytes

    def unregister(self, bc: Broadcast) -> None:
        self._live.pop(bc.id, None)
        if self.on_unregister is not None:
            self.on_unregister(bc)

    @property
    def live_count(self) -> int:
        return len(self._live)
