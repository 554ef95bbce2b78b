"""Block manager: partition caching with memory budget and disk spill.

Implements the piece of Spark that YAFIM's §IV-B depends on: ``cache()``-d
RDD partitions are kept in memory across iterations.  The manager enforces
a (configurable) memory budget with LRU eviction; under MEMORY_AND_DISK the
evicted partition is pickled to a spill directory and transparently
reloaded, under MEMORY_ONLY it is dropped and the engine recomputes it from
lineage — both behaviours are exercised by tests.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.common.sizeof import estimate_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.tracing import Tracer


class StorageLevel(Enum):
    MEMORY_ONLY = "MEMORY_ONLY"
    MEMORY_AND_DISK = "MEMORY_AND_DISK"
    DISK_ONLY = "DISK_ONLY"


@dataclass(frozen=True)
class BlockId:
    """Identifies one cached partition of one RDD."""

    rdd_id: int
    partition: int

    def filename(self) -> str:
        return f"rdd_{self.rdd_id}_part_{self.partition}.pkl"

    def ref(self) -> tuple:
        """The worker-store reference key for this cached partition (the
        process backend ships this id instead of the partition's data;
        see :mod:`repro.engine.workerstore`)."""
        return ("rdd", self.rdd_id, self.partition)


@dataclass
class StorageMetrics:
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    memory_bytes: int = 0
    disk_bytes: int = 0


class BlockManager:
    """Thread-safe cached-partition store with LRU memory accounting."""

    def __init__(
        self,
        memory_limit_bytes: int | None = None,
        spill_dir: str | None = None,
        tracer: "Tracer | None" = None,
    ):
        self.memory_limit = memory_limit_bytes  # None = unbounded
        self._owns_spill = spill_dir is None
        if spill_dir is None:
            # mkdtemp made it; making it again could bring back a name the
            # job worker has just renamed away (serve.jobworker._remove_dir)
            spill_dir = tempfile.mkdtemp(prefix="blockmgr_")
        else:
            os.makedirs(spill_dir, exist_ok=True)
        self.spill_dir = spill_dir
        self._mem: OrderedDict[BlockId, tuple[list, int]] = OrderedDict()
        self._disk: dict[BlockId, int] = {}  # block -> spilled size
        self._levels: dict[BlockId, StorageLevel] = {}
        self._lock = threading.RLock()
        self.metrics = StorageMetrics()
        self.tracer = tracer
        #: Called with an executor block-key prefix — ``("rdd", rdd_id)``,
        #: ``("rdd", rdd_id, part)`` or ``("rdd",)`` — when cached
        #: partitions are removed; the Context wires this to the executor
        #: so its driver registry and the worker stores drop them too.
        self.on_remove = None

    # -- store -------------------------------------------------------------
    def put(self, block: BlockId, data: list, level: StorageLevel) -> None:
        t0 = time.perf_counter()
        size = estimate_size(data)
        with self._lock:
            self._levels[block] = level
            if level is StorageLevel.DISK_ONLY:
                self._spill(block, data, size)
            else:
                self._mem[block] = (data, size)
                self._mem.move_to_end(block)
                self.metrics.memory_bytes += size
                self._enforce_budget()
        if self.tracer is not None:
            from repro.engine.task import current_worker_id

            self.tracer.add_span(
                f"cache_store rdd{block.rdd_id}p{block.partition}",
                "cache",
                t0,
                time.perf_counter() - t0,
                track=current_worker_id(),
                bytes=size,
                level=level.value,
            )

    def _spill(self, block: BlockId, data: list, size: int) -> None:
        path = os.path.join(self.spill_dir, block.filename())
        with open(path, "wb") as f:
            pickle.dump(data, f, protocol=pickle.HIGHEST_PROTOCOL)
        self._disk[block] = size
        self.metrics.spills += 1
        self.metrics.disk_bytes += size

    def _enforce_budget(self) -> None:
        if self.memory_limit is None:
            return
        while self.metrics.memory_bytes > self.memory_limit and len(self._mem) > 1:
            victim, (data, size) = self._mem.popitem(last=False)  # LRU
            self.metrics.memory_bytes -= size
            self.metrics.evictions += 1
            if self._levels.get(victim) is StorageLevel.MEMORY_AND_DISK:
                self._spill(victim, data, size)

    # -- fetch ---------------------------------------------------------------
    def get(self, block: BlockId) -> list | None:
        with self._lock:
            hit = self._mem.get(block)
            if hit is not None:
                self._mem.move_to_end(block)
                self.metrics.memory_hits += 1
                return hit[0]
            if block in self._disk:
                path = os.path.join(self.spill_dir, block.filename())
                with open(path, "rb") as f:
                    data = pickle.load(f)
                self.metrics.disk_hits += 1
                return data
            self.metrics.misses += 1
            return None

    def contains(self, block: BlockId) -> bool:
        with self._lock:
            return block in self._mem or block in self._disk

    # -- removal --------------------------------------------------------------
    def remove_rdd(self, rdd_id: int) -> int:
        """Drop every cached partition of an RDD; returns count removed."""
        removed = 0
        with self._lock:
            for block in [b for b in list(self._mem) if b.rdd_id == rdd_id]:
                _, size = self._mem.pop(block)
                self.metrics.memory_bytes -= size
                removed += 1
            for block in [b for b in list(self._disk) if b.rdd_id == rdd_id]:
                self._remove_disk(block)
                removed += 1
        if self.on_remove is not None:
            self.on_remove(("rdd", rdd_id))
        return removed

    def drop_block(self, block: BlockId) -> bool:
        """Fault-injection hook: lose one cached partition."""
        dropped = False
        with self._lock:
            if block in self._mem:
                _, size = self._mem.pop(block)
                self.metrics.memory_bytes -= size
                dropped = True
            elif block in self._disk:
                self._remove_disk(block)
                dropped = True
        if dropped and self.on_remove is not None:
            self.on_remove(block.ref())
        return dropped

    def _remove_disk(self, block: BlockId) -> None:
        size = self._disk.pop(block)
        self.metrics.disk_bytes -= size
        path = os.path.join(self.spill_dir, block.filename())
        if os.path.exists(path):
            os.remove(path)

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            for block in list(self._disk):
                self._remove_disk(block)
            self.metrics.memory_bytes = 0
        if self.on_remove is not None:
            self.on_remove(("rdd",))

    def close(self) -> None:
        self.clear()
        if self._owns_spill and os.path.isdir(self.spill_dir):
            import shutil

            shutil.rmtree(self.spill_dir, ignore_errors=True)

    @property
    def cached_block_count(self) -> int:
        with self._lock:
            return len(self._mem) + len(self._disk)
