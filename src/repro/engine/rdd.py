"""The RDD abstraction: lazy, partitioned, lineage-tracked collections.

This is the engine's public surface and deliberately mirrors Spark's RDD
API (the paper's pseudocode is written directly against ``flatMap`` /
``map`` / ``reduceByKey``).  Transformations build new RDD nodes linked by
:mod:`repro.engine.dependencies`; nothing executes until an action calls
``context.run_job`` which hands the lineage to the DAG scheduler.

Worker-side execution note: for the process-pool backend the RDD graph is
cloudpickled into the worker with ``context`` stripped (see
``RDD.__getstate__``).  Driver-resident services (block manager, shuffle
manager) are then reached through *preloaded* task inputs resolved by the
scheduler before shipping — ``iterator`` and ``ShuffledRDD.compute`` check
the task context's preloads first.  An RDD whose partitions every task of
the stage receives as preloaded blocks ships as a :class:`ResidentRDD`
stub — id and partition count, nothing below it (see
:func:`~repro.engine.dependencies.ship_without_lineage`) — and a
parallelized collection never ships its data inside the graph: its
slices are blocks too.
"""

from __future__ import annotations

import builtins
import itertools
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Any, Callable, Generic, TypeVar

from repro.common.errors import EngineError
from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    OneToOneDependency,
    ShuffleDependency,
    shipping_resident,
)
from repro.engine.partition import Partition, ReducePartition, SplitPartition
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    compute_range_bounds,
)
from repro.engine.storage import BlockId, StorageLevel
from repro.engine.task import TaskContext


def _append_value(acc: list, v) -> list:
    """In-place ``group_by_key`` value merge (module-level: must pickle)."""
    acc.append(v)
    return acc


def _extend_list(a: list, b: list) -> list:
    """In-place ``group_by_key`` combiner merge (module-level: must pickle)."""
    a.extend(b)
    return a


if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD(Generic[T]):
    """A resilient distributed dataset.

    Subclasses define :meth:`compute`; everything else (caching, the whole
    transformation/action API) lives here.
    """

    def __init__(self, context: "Context", dependencies: list[Dependency]):
        self.context = context
        self.id = context._next_rdd_id()
        self.dependencies = dependencies
        self.storage_level: StorageLevel | None = None
        self._partitions: list[Partition] | None = None

    # -- to be provided by subclasses ------------------------------------
    def _make_partitions(self) -> list[Partition]:
        raise NotImplementedError

    def compute(self, partition: Partition, task_ctx: TaskContext | None) -> Iterator[T]:
        raise NotImplementedError

    @property
    def partitioner(self) -> Partitioner | None:
        """Set when records are already key-partitioned (post-shuffle)."""
        return None

    # -- partitions --------------------------------------------------------
    def partitions(self) -> list[Partition]:
        if self._partitions is None:
            self._partitions = self._make_partitions()
        return self._partitions

    @property
    def num_partitions(self) -> int:
        return len(self.partitions())

    # -- caching -----------------------------------------------------------
    def persist(self, level: StorageLevel = StorageLevel.MEMORY_ONLY) -> "RDD[T]":
        self.storage_level = level
        return self

    def cache(self) -> "RDD[T]":
        return self.persist(StorageLevel.MEMORY_ONLY)

    def unpersist(self) -> "RDD[T]":
        self.storage_level = None
        if self.context is not None:
            self.context.block_manager.remove_rdd(self.id)
        return self

    def iterator(self, partition: Partition, task_ctx: TaskContext | None) -> Iterator[T]:
        """Cache-aware access to a partition's records."""
        # Worker-side preloaded cache hit (process backend).
        if task_ctx is not None:
            pre = task_ctx.preloaded_blocks.get((self.id, partition.index))
            if pre is not None:
                return iter(pre)
        if self.storage_level is None:
            return self.compute(partition, task_ctx)
        if self.context is not None:
            # Driver-resident block manager path (serial/thread backends).
            block = BlockId(self.id, partition.index)
            cached = self.context.block_manager.get(block)
            if cached is not None:
                if task_ctx is not None:
                    task_ctx.metrics.cache_hits += 1
                return iter(cached)
            if task_ctx is not None:
                task_ctx.metrics.cache_misses += 1
            data = list(self.compute(partition, task_ctx))
            self.context.block_manager.put(block, data, self.storage_level)
            return iter(data)
        # Worker side without preload: compute and offer the data back to
        # the driver for caching.
        data = list(self.compute(partition, task_ctx))
        if task_ctx is not None:
            task_ctx.cache_back[(self.id, partition.index)] = data
        return iter(data)

    # -- pickling (process backend) -----------------------------------------
    def __reduce_ex__(self, protocol):
        resident = shipping_resident()
        if resident and self.id in resident:
            return ResidentRDD, (self.id, self.num_partitions)
        return super().__reduce_ex__(protocol)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["context"] = None  # driver-only service locator
        return state

    # =====================================================================
    # Transformations
    # =====================================================================
    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[T]], Iterable[U]], preserves_partitioning: bool = False
    ) -> "RDD[U]":
        return MapPartitionsRDD(self, f, preserves_partitioning)

    def map_partitions(self, f: Callable[[Iterator[T]], Iterable[U]]) -> "RDD[U]":
        return self.map_partitions_with_index(lambda _i, it: f(it))

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        return self.map_partitions_with_index(lambda _i, it: builtins.map(f, it))

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD[U]":
        return self.map_partitions_with_index(
            lambda _i, it: itertools.chain.from_iterable(builtins.map(f, it))
        )

    def filter(self, pred: Callable[[T], bool]) -> "RDD[T]":
        return self.map_partitions_with_index(
            lambda _i, it: builtins.filter(pred, it), preserves_partitioning=True
        )

    def glom(self) -> "RDD[list[T]]":
        return self.map_partitions_with_index(lambda _i, it: [list(it)])

    def key_by(self, f: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        return self.map(lambda x: (f(x), x))

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def map_values(self, f: Callable[[V], U]) -> "RDD[tuple[K, U]]":
        return self.map_partitions_with_index(
            lambda _i, it: ((k, f(v)) for k, v in it), preserves_partitioning=True
        )

    def flat_map_values(self, f: Callable[[V], Iterable[U]]) -> "RDD[tuple[K, U]]":
        return self.map_partitions_with_index(
            lambda _i, it: ((k, u) for k, v in it for u in f(v)),
            preserves_partitioning=True,
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD[T]":
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .map(lambda kv: kv[0])
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD[T]":
        """Bernoulli sampling, deterministic per (seed, partition)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

        def sample_part(index: int, it: Iterator[T]) -> Iterator[T]:
            import numpy as np

            rng = np.random.default_rng((seed, index))
            return (x for x in it if rng.random() < fraction)

        return self.map_partitions_with_index(sample_part)

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pairs each element with its global index (runs a size job first)."""
        sizes = self.context.run_job(
            self, lambda _ctx, it: sum(1 for _ in it)
        )
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def with_index(index: int, it: Iterator[T]) -> Iterator[tuple[T, int]]:
            return ((x, offsets[index] + j) for j, x in enumerate(it))

        return self.map_partitions_with_index(with_index)

    def repartition(self, num_partitions: int) -> "RDD[T]":
        """Full shuffle into ``num_partitions`` balanced partitions."""
        keyed = self.map_partitions_with_index(
            lambda i, it: ((i + j, x) for j, x in enumerate(it))
        )
        return ShuffledRDD(keyed, HashPartitioner(num_partitions)).map(lambda kv: kv[1])

    def intersection(self, other: "RDD[T]") -> "RDD[T]":
        """Distinct elements present in both RDDs (set semantics)."""
        return (
            self.map(lambda x: (x, 1))
            .cogroup(other.map(lambda x: (x, 2)))
            .filter(lambda kv: bool(kv[1][0]) and bool(kv[1][1]))
            .map(lambda kv: kv[0])
        )

    def subtract(self, other: "RDD[T]") -> "RDD[T]":
        """Elements of this RDD absent from ``other`` (keeps duplicates)."""
        return (
            self.map(lambda x: (x, True))
            .subtract_by_key(other.map(lambda x: (x, True)))
            .map(lambda kv: kv[0])
        )

    def take_sample(self, n: int, seed: int = 0) -> list[T]:
        """``n`` elements sampled without replacement (driver-side finish).

        Follows Spark's approach: over-sample distributed, then trim on
        the driver with a seeded shuffle for exactness on small ``n``.
        """
        if n <= 0:
            return []
        total = self.count()
        if n >= total:
            return self.collect()
        import numpy as np

        fraction = min(1.0, (n / total) * 2 + 0.02)
        pool = self.sample(fraction, seed=seed).collect()
        attempt = seed
        while len(pool) < n:  # extremely unlikely; widen until satisfied
            attempt += 1
            fraction = min(1.0, fraction * 2)
            pool = self.sample(fraction, seed=attempt).collect()
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pool), size=n, replace=False)
        return [pool[i] for i in sorted(idx.tolist())]

    def histogram(self, buckets: int | list) -> tuple[list, list[int]]:
        """(bucket_edges, counts) over a numeric RDD.

        ``buckets`` is either a bucket count (evenly spaced over
        [min, max]) or an explicit ascending edge list.  The final bucket
        is closed on the right, as in Spark.
        """
        if isinstance(buckets, int):
            if buckets < 1:
                raise EngineError("bucket count must be >= 1")
            lo, hi = self.min(), self.max()
            if lo == hi:
                edges = [lo, hi]
            else:
                step = (hi - lo) / buckets
                edges = [lo + i * step for i in range(buckets)] + [hi]
        else:
            edges = list(buckets)
            if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
                raise EngineError("bucket edges must be ascending, >= 2 entries")
        n_buckets = len(edges) - 1

        def count_part(_ctx, it: Iterator[T]) -> list[int]:
            import bisect

            counts = [0] * n_buckets
            for x in it:
                if x < edges[0] or x > edges[-1]:
                    continue
                idx = min(bisect.bisect_right(edges, x) - 1, n_buckets - 1)
                counts[idx] += 1
            return counts

        totals = [0] * n_buckets
        for partial in self.context.run_job(self, count_part):
            for i, c in enumerate(partial):
                totals[i] += c
        return edges, totals

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
        sample_fraction: float = 0.2,
    ) -> "RDD[T]":
        """Total sort: sample keys, range-partition, sort each partition."""
        n_out = num_partitions or self.num_partitions
        sample = (
            self.map(key_func).sample(min(1.0, sample_fraction), seed=17).collect()
        )
        if not sample:  # tiny input: fall back to collecting all keys
            sample = self.map(key_func).collect()
        bounds = compute_range_bounds(sample, n_out)
        part = RangePartitioner(bounds, ascending=ascending)
        keyed = self.key_by(key_func)
        shuffled = ShuffledRDD(keyed, part)

        def sort_part(_i: int, it: Iterator) -> Iterator[T]:
            items = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _k, v in items)

        return shuffled.map_partitions_with_index(sort_part, preserves_partitioning=True)

    # -- pair-RDD shuffles ---------------------------------------------------
    def partition_by(self, partitioner: Partitioner) -> "RDD[tuple[K, V]]":
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def combine_by_key(
        self,
        create_combiner: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: int | None = None,
        map_side_combine: bool = True,
    ) -> "RDD[tuple[K, U]]":
        agg = Aggregator(create_combiner, merge_value, merge_combiners)
        part = HashPartitioner(num_partitions or self.num_partitions)
        return ShuffledRDD(self, part, aggregator=agg, map_side_combine=map_side_combine)

    def reduce_by_key(
        self, f: Callable[[V, V], V], num_partitions: int | None = None
    ) -> "RDD[tuple[K, V]]":
        return self.combine_by_key(lambda v: v, f, f, num_partitions)

    def fold_by_key(
        self, zero: V, f: Callable[[V, V], V], num_partitions: int | None = None
    ) -> "RDD[tuple[K, V]]":
        return self.combine_by_key(lambda v: f(zero, v), f, f, num_partitions)

    def aggregate_by_key(
        self,
        zero: U,
        seq_op: Callable[[U, V], U],
        comb_op: Callable[[U, U], U],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, U]]":
        import copy

        return self.combine_by_key(
            lambda v: seq_op(copy.deepcopy(zero), v), seq_op, comb_op, num_partitions
        )

    def group_by_key(self, num_partitions: int | None = None) -> "RDD[tuple[K, list[V]]]":
        # No map-side combine: grouping map-side only moves bytes earlier.
        # The merge functions mutate in place — `acc + [v]` would copy the
        # accumulated list on every record, O(n^2) per key under skew.
        return self.combine_by_key(
            lambda v: [v],
            _append_value,
            _extend_list,
            num_partitions,
            map_side_combine=False,
        )

    def group_by(
        self, f: Callable[[T], K], num_partitions: int | None = None
    ) -> "RDD[tuple[K, list[T]]]":
        return self.key_by(f).group_by_key(num_partitions)

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        part = HashPartitioner(num_partitions or max(self.num_partitions, other.num_partitions))
        return CoGroupedRDD(self.context, [self, other], part)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda groups: [(a, b) for a in groups[0] for b in groups[1]]
        )

    def left_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda g: [(a, b) for a in g[0] for b in (g[1] or [None])]
        )

    def right_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda g: [(a, b) for b in g[1] for a in (g[0] or [None])]
        )

    def full_outer_join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flat_map_values(
            lambda g: [(a, b) for a in (g[0] or [None]) for b in (g[1] or [None])]
        )

    def subtract_by_key(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flat_map(
            lambda kv: [(kv[0], v) for v in kv[1][0]] if not kv[1][1] else []
        )

    # =====================================================================
    # Actions
    # =====================================================================
    def collect(self) -> list[T]:
        chunks = self.context.run_job(self, lambda _ctx, it: list(it))
        return [x for chunk in chunks for x in chunk]

    def collect_as_map(self) -> dict:
        return dict(self.collect())

    def count(self) -> int:
        return sum(self.context.run_job(self, lambda _ctx, it: sum(1 for _ in it)))

    def is_empty(self) -> bool:
        return self.take(1) == []

    def first(self) -> T:
        got = self.take(1)
        if not got:
            raise EngineError("first() on empty RDD")
        return got[0]

    def take(self, n: int) -> list[T]:
        """Collect partitions one at a time until ``n`` elements are found."""
        if n <= 0:
            return []
        out: list[T] = []
        for p in range(self.num_partitions):
            chunk = self.context.run_job(
                self, lambda _ctx, it: list(itertools.islice(it, n - len(out))), [p]
            )[0]
            out.extend(chunk)
            if len(out) >= n:
                break
        return out[:n]

    def reduce(self, f: Callable[[T, T], T]) -> T:
        def reduce_part(_ctx, it: Iterator[T]) -> list[T]:
            acc = None
            empty = True
            for x in it:
                acc = x if empty else f(acc, x)
                empty = False
            return [] if empty else [acc]

        partials = [x for chunk in self.context.run_job(self, reduce_part) for x in chunk]
        if not partials:
            raise EngineError("reduce() on empty RDD")
        acc = partials[0]
        for x in partials[1:]:
            acc = f(acc, x)
        return acc

    def fold(self, zero: T, f: Callable[[T, T], T]) -> T:
        import copy

        def fold_part(_ctx, it: Iterator[T]) -> T:
            acc = copy.deepcopy(zero)
            for x in it:
                acc = f(acc, x)
            return acc

        acc = copy.deepcopy(zero)
        for partial in self.context.run_job(self, fold_part):
            acc = f(acc, partial)
        return acc

    def aggregate(self, zero: U, seq_op: Callable[[U, T], U], comb_op: Callable[[U, U], U]) -> U:
        import copy

        def agg_part(_ctx, it: Iterator[T]) -> U:
            acc = copy.deepcopy(zero)
            for x in it:
                acc = seq_op(acc, x)
            return acc

        acc = copy.deepcopy(zero)
        for partial in self.context.run_job(self, agg_part):
            acc = comb_op(acc, partial)
        return acc

    def sum(self):
        return self.fold(0, lambda a, b: a + b)

    def max(self):
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self):
        return self.reduce(lambda a, b: a if a <= b else b)

    def stats(self):
        """Count/mean/stdev/min/max of a numeric RDD in one pass."""
        from repro.engine.statcounter import StatCounter

        def stat_part(_ctx, it: Iterator[T]) -> StatCounter:
            counter = StatCounter()
            for x in it:
                counter.add(x)
            return counter

        total = StatCounter()
        for partial in self.context.run_job(self, stat_part):
            total.merge(partial)
        return total

    def stdev(self) -> float:
        return self.stats().stdev

    def variance(self) -> float:
        return self.stats().variance

    def mean(self) -> float:
        total, n = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if n == 0:
            raise EngineError("mean() on empty RDD")
        return total / n

    def count_by_value(self) -> dict[T, int]:
        return dict(self.map(lambda x: (x, 1)).reduce_by_key(lambda a, b: a + b).collect())

    def count_by_key(self) -> dict:
        return dict(self.map(lambda kv: (kv[0], 1)).reduce_by_key(lambda a, b: a + b).collect())

    def lookup(self, key: K) -> list[V]:
        part = self.partitioner
        if part is not None:
            idx = part.partition(key)
            rows = self.context.run_job(
                self, lambda _ctx, it: [v for k, v in it if k == key], [idx]
            )
            return rows[0]
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def top(self, n: int, key: Callable[[T], Any] | None = None) -> list[T]:
        import heapq

        def top_part(_ctx, it: Iterator[T]) -> list[T]:
            return heapq.nlargest(n, it, key=key)

        partials = [x for chunk in self.context.run_job(self, top_part) for x in chunk]
        return heapq.nlargest(n, partials, key=key)

    def take_ordered(self, n: int, key: Callable[[T], Any] | None = None) -> list[T]:
        import heapq

        def small_part(_ctx, it: Iterator[T]) -> list[T]:
            return heapq.nsmallest(n, it, key=key)

        partials = [x for chunk in self.context.run_job(self, small_part) for x in chunk]
        return heapq.nsmallest(n, partials, key=key)

    def save_as_text_file(self, dfs, path: str) -> None:
        """Write one ``part-NNNNN`` file per partition into the mini-DFS."""
        chunks = self.context.run_job(self, lambda _ctx, it: [str(x) for x in it])
        for i, lines in enumerate(chunks):
            dfs.write_lines(f"{path.rstrip('/')}/part-{i:05d}", lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, partitions={self.num_partitions})"


# =========================================================================
# Concrete RDDs
# =========================================================================
class ResidentRDD(RDD[T]):
    """Worker-side stand-in for an RDD shipped without its lineage.

    Carries the id and partition count the RDDs above it need to address
    their parent; every partition a task reads from it arrives as a
    preloaded block, so ``compute`` is unreachable in a healthy run."""

    def __init__(self, rdd_id: int, num_partitions: int):
        self.context = None
        self.id = rdd_id
        self.dependencies = []
        self.storage_level = None
        self._partitions = [Partition(index=i) for i in range(num_partitions)]

    def compute(self, partition: Partition, task_ctx) -> Iterator[T]:
        raise EngineError(
            f"partition {partition.index} of RDD {self.id} shipped as a block "
            "reference but is not among the task's preloaded blocks"
        )


class ParallelCollectionRDD(RDD[T]):
    """Driver-side collection sliced into ``num_slices`` partitions.

    The slices stay on the driver: the process backend ships partition
    ``i`` as block ``("rdd", id, i)`` (offered by the scheduler, pushed
    once per worker, dropped when this RDD is garbage collected), never
    inside a pickled task graph."""

    def __init__(self, context: "Context", data: Iterable[T], num_slices: int):
        super().__init__(context, [])
        if num_slices < 1:
            raise EngineError("num_slices must be >= 1")
        items = list(data)
        n = len(items)
        self._num_slices = num_slices
        self._slices: list[tuple] | None = []
        for i in range(num_slices):
            lo = (i * n) // num_slices
            hi = ((i + 1) * n) // num_slices
            self._slices.append(tuple(items[lo:hi]))

    def _make_partitions(self) -> list[Partition]:
        return [Partition(index=i) for i in range(self._num_slices)]

    def slice(self, index: int) -> tuple:
        return self._slices[index]

    def compute(self, partition: Partition, task_ctx) -> Iterator[T]:
        data = self._slices[partition.index]
        if task_ctx is not None:
            task_ctx.metrics.records_in += len(data)
        return iter(data)

    def __getstate__(self):
        state = super().__getstate__()
        if shipping_resident() is not None:
            state["_slices"] = None  # shipped as blocks, see class docstring
        return state


class TextFileRDD(RDD[str]):
    """Lines of a mini-DFS file, one partition per input split."""

    def __init__(self, context: "Context", dfs, path: str):
        super().__init__(context, [])
        self.dfs = dfs
        self.path = path

    def _make_partitions(self) -> list[Partition]:
        from repro.hdfs.textio import compute_splits

        return [
            SplitPartition(index=i, split=s)
            for i, s in enumerate(compute_splits(self.dfs, self.path))
        ]

    def compute(self, partition: Partition, task_ctx) -> Iterator[str]:
        from repro.hdfs.textio import read_split_lines

        assert isinstance(partition, SplitPartition)
        lines = read_split_lines(self.dfs, partition.split)
        if task_ctx is not None:
            task_ctx.metrics.input_bytes += partition.split.length
            task_ctx.metrics.records_in += len(lines)
        return iter(lines)


class MapPartitionsRDD(RDD[U]):
    """Narrow one-to-one transformation of a parent RDD."""

    def __init__(
        self,
        parent: RDD,
        f: Callable[[int, Iterator], Iterable[U]],
        preserves_partitioning: bool = False,
    ):
        super().__init__(parent.context, [OneToOneDependency(parent)])
        self.parent = parent
        self.f = f
        self.preserves_partitioning = preserves_partitioning

    def _make_partitions(self) -> list[Partition]:
        return [Partition(index=p.index) for p in self.parent.partitions()]

    @property
    def partitioner(self) -> Partitioner | None:
        return self.parent.partitioner if self.preserves_partitioning else None

    def compute(self, partition: Partition, task_ctx) -> Iterator[U]:
        parent_part = self.parent.partitions()[partition.index]
        return iter(self.f(partition.index, self.parent.iterator(parent_part, task_ctx)))


class ShuffledRDD(RDD[tuple]):
    """Output side of a shuffle: one partition per reduce bucket."""

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
    ):
        dep = ShuffleDependency(parent, partitioner, aggregator, map_side_combine)
        super().__init__(parent.context, [dep])
        self.shuffle_dep = dep
        self._partitioner = partitioner

    def _make_partitions(self) -> list[Partition]:
        return [ReducePartition(index=i) for i in range(self._partitioner.num_partitions)]

    @property
    def partitioner(self) -> Partitioner | None:
        return self._partitioner

    def _fetch(self, partition: Partition, task_ctx) -> list[list]:
        key = (self.shuffle_dep.shuffle_id, partition.index)
        if task_ctx is not None and key in task_ctx.preloaded_shuffle:
            return task_ctx.preloaded_shuffle[key]
        if self.context is None:
            raise EngineError(
                "shuffle fetch in worker without preloaded input "
                f"(shuffle {self.shuffle_dep.shuffle_id})"
            )
        buckets, nbytes = self.context.shuffle_manager.fetch(*key)
        if task_ctx is not None:
            task_ctx.metrics.shuffle_read_bytes += nbytes
        return buckets

    def compute(self, partition: Partition, task_ctx) -> Iterator[tuple]:
        buckets = self._fetch(partition, task_ctx)
        agg = self.shuffle_dep.aggregator
        if agg is None:
            return itertools.chain.from_iterable(buckets)
        merged: dict = {}
        if self.shuffle_dep.map_side_combine:
            # Records are already (key, combiner) pairs.
            for bucket in buckets:
                for k, c in bucket:
                    if k in merged:
                        merged[k] = agg.merge_combiners(merged[k], c)
                    else:
                        merged[k] = c
        else:
            for bucket in buckets:
                for k, v in bucket:
                    if k in merged:
                        merged[k] = agg.merge_value(merged[k], v)
                    else:
                        merged[k] = agg.create_combiner(v)
        return iter(merged.items())


class CoGroupedRDD(RDD[tuple]):
    """Groups the values of several pair-RDDs by key in one shuffle round."""

    def __init__(self, context: "Context", parents: list[RDD], partitioner: Partitioner):
        deps = [ShuffleDependency(p, partitioner) for p in parents]
        super().__init__(context, deps)
        self.shuffle_deps = deps
        self._partitioner = partitioner

    def _make_partitions(self) -> list[Partition]:
        return [ReducePartition(index=i) for i in range(self._partitioner.num_partitions)]

    @property
    def partitioner(self) -> Partitioner | None:
        return self._partitioner

    def compute(self, partition: Partition, task_ctx) -> Iterator[tuple]:
        n = len(self.shuffle_deps)
        table: dict[Any, tuple[list, ...]] = {}
        for slot, dep in enumerate(self.shuffle_deps):
            key = (dep.shuffle_id, partition.index)
            if task_ctx is not None and key in task_ctx.preloaded_shuffle:
                buckets = task_ctx.preloaded_shuffle[key]
            elif self.context is not None:
                buckets, nbytes = self.context.shuffle_manager.fetch(*key)
                if task_ctx is not None:
                    task_ctx.metrics.shuffle_read_bytes += nbytes
            else:
                raise EngineError("cogroup fetch in worker without preloaded input")
            for bucket in buckets:
                for k, v in bucket:
                    if k not in table:
                        table[k] = tuple([] for _ in range(n))
                    table[k][slot].append(v)
        return iter(table.items())
