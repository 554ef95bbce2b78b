"""Context — the engine's entry point (Spark's ``SparkContext``).

Owns every driver-side service: block manager, shuffle manager, broadcast
manager, accumulator registry, event log, fault injector, executor and DAG
scheduler.  Create one per application::

    with Context(backend="processes", parallelism=2) as ctx:
        rdd = ctx.parallelize(range(100), 4).map(lambda x: x * x)
        print(rdd.sum())
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.engine.accumulator import (
    FLOAT_PARAM,
    INT_PARAM,
    Accumulator,
    AccumulatorParam,
    AccumulatorRegistry,
)
from repro.engine.broadcast import Broadcast, BroadcastManager
from repro.engine.dag import DAGScheduler
from repro.engine.executors import DEFAULT_BACKEND, make_executor
from repro.engine.faults import FaultInjector
from repro.engine.metrics import EventLog
from repro.engine.rdd import RDD, ParallelCollectionRDD, TextFileRDD
from repro.engine.shuffle import ShuffleManager
from repro.engine.storage import BlockManager, StorageLevel
from repro.engine.tracing import Tracer


class Context:
    """Driver context.

    Parameters
    ----------
    backend:
        ``"serial"`` (default; deterministic, every task on the driver
        thread) or ``"processes"`` (true CPU parallelism via cloudpickled
        tasks).
    parallelism:
        Worker processes on ``"processes"``; ignored by ``"serial"``.
    memory_limit_bytes:
        Block-manager budget; ``None`` = unbounded.
    max_task_failures:
        Retry budget per task before the job is failed.
    worker_store_bytes:
        Byte budget for each process-pool worker's resident block cache
        (broadcast payloads, cached partitions, shuffle segments);
        ignored by ``"serial"``.  ``None`` = the default
        budget in :mod:`repro.engine.workerstore`.
    """

    def __init__(
        self,
        backend: str = DEFAULT_BACKEND,
        parallelism: int | None = None,
        memory_limit_bytes: int | None = None,
        max_task_failures: int = 4,
        tracing: bool = True,
        worker_store_bytes: int | None = None,
    ):
        self.executor = make_executor(backend, parallelism, worker_store_bytes)
        self.backend = backend
        self.tracer = Tracer(enabled=tracing, label="engine")
        self.block_manager = BlockManager(memory_limit_bytes, tracer=self.tracer)
        self.shuffle_manager = ShuffleManager(tracer=self.tracer)
        self.broadcast_manager = BroadcastManager(tracer=self.tracer)
        # Process-backend wiring: destroyed broadcasts, released shuffle
        # outputs and removed cached partitions are all dropped from the
        # executor's driver registry and the worker caches (iterative
        # miners call clear_shuffle_outputs between passes precisely to
        # bound driver memory — without these hooks the executor would
        # accumulate every iteration's payloads twice, object + blob);
        # physical payload shipments feed the broadcast manager's
        # per-worker transfer accounting.
        self.broadcast_manager.on_unregister = (
            lambda bc: self.executor.invalidate_block(("bc", bc.id))
        )
        self.shuffle_manager.on_remove = lambda shuffle_id: self.executor.invalidate_prefix(
            ("shuf",) if shuffle_id is None else ("shuf", shuffle_id)
        )
        self.block_manager.on_remove = self.executor.invalidate_prefix
        self.executor.broadcast_ship_hook = self.broadcast_manager.record_shipment
        self.accumulators = AccumulatorRegistry()
        self.event_log = EventLog()
        self.fault_injector = FaultInjector()
        self.scheduler = DAGScheduler(self, max_task_failures=max_task_failures)
        self.default_parallelism = max(2, self.executor.parallelism)
        self._rdd_ids = itertools.count()
        self._rdd_levels: dict[int, Any] = {}
        self._stopped = False

    # -- RDD creation -------------------------------------------------------
    def parallelize(self, data: Iterable, num_slices: int | None = None) -> RDD:
        """Distribute a driver-side collection into an RDD."""
        self._check_alive()
        slices = self.default_parallelism if num_slices is None else num_slices
        return ParallelCollectionRDD(self, data, slices)

    def text_file(self, dfs, path: str) -> RDD:
        """Lines of a mini-DFS file; one partition per block-aligned split."""
        self._check_alive()
        return TextFileRDD(self, dfs, path)

    def empty_rdd(self) -> RDD:
        return ParallelCollectionRDD(self, [], 1)

    # -- shared variables -----------------------------------------------------
    def broadcast(self, value: Any) -> Broadcast:
        """Ship ``value`` to every worker once (§IV-C of the paper)."""
        self._check_alive()
        return self.broadcast_manager.new_broadcast(value)

    def accumulator(self, initial: Any = 0, param: AccumulatorParam | None = None) -> Accumulator:
        self._check_alive()
        if param is None:
            param = FLOAT_PARAM if isinstance(initial, float) else INT_PARAM
        return self.accumulators.register(Accumulator(initial, param))

    # -- execution ---------------------------------------------------------
    def run_job(self, rdd: RDD, func, partitions: list[int] | None = None) -> list:
        """Run ``func(task_ctx, iterator)`` over the given partitions."""
        self._check_alive()
        # Remember storage levels so worker-computed cache-backs can be
        # stored at the right level even though the worker-side RDD object
        # is a pickled copy.
        self._snapshot_levels(rdd)
        return self.scheduler.run_job(rdd, func, partitions)

    def _snapshot_levels(self, rdd: RDD, seen: set[int] | None = None) -> None:
        seen = seen if seen is not None else set()
        if rdd.id in seen:
            return
        seen.add(rdd.id)
        if rdd.storage_level is not None:
            self._rdd_levels[rdd.id] = rdd.storage_level
        for dep in rdd.dependencies:
            self._snapshot_levels(dep.rdd, seen)

    def _storage_level_of(self, rdd_id: int) -> StorageLevel | None:
        return self._rdd_levels.get(rdd_id)

    # -- housekeeping ------------------------------------------------------
    def clear_shuffle_outputs(self) -> None:
        """Drop all retained map outputs (iterative jobs call this between
        iterations to bound driver memory)."""
        self.shuffle_manager.clear()
        self.scheduler.reset_shuffle_state()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.executor.shutdown()
        self.block_manager.close()
        self.shuffle_manager.clear()

    def _check_alive(self) -> None:
        if self._stopped:
            raise RuntimeError("Context is stopped")

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
