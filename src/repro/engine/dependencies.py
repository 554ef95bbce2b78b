"""RDD dependencies — the edges of the lineage graph.

Narrow dependencies (each child partition depends on a bounded set of
parent partitions) are pipelined inside one task; a shuffle dependency
ends the pipeline and introduces a stage boundary, exactly as in Spark's
DAG scheduler paper.

Shipping note: a worker needs only the edges it will walk.  Inside
:func:`ship_without_lineage` (entered by the process executor around a
task batch) an RDD whose partitions arrive as block references pickles
as a stub, a parallelized collection leaves its slices behind, and a
:class:`ShuffleDependency` drops its map-side parent — the reduce side
reads shuffle blocks, the map side runs ``task.rdd`` directly.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.partitioner import Partitioner
    from repro.engine.rdd import RDD

_shuffle_ids = itertools.count()
_ship_local = threading.local()


@contextmanager
def ship_without_lineage(resident: frozenset):
    """While active (per thread), RDD graphs pickle for a worker.

    ``resident`` holds the ids of RDDs whose partitions *every* task of
    the batch's stage reads through block references
    (:attr:`~repro.engine.stage.Task.resident_rdds`); each pickles as a
    :class:`~repro.engine.rdd.ResidentRDD` stub — id and partition count,
    nothing below it — because its lineage, down to the source data,
    would be dead weight in every batch of every job."""
    previous = getattr(_ship_local, "resident", None)
    _ship_local.resident = resident
    try:
        yield
    finally:
        _ship_local.resident = previous


def shipping_resident() -> frozenset | None:
    """The active :func:`ship_without_lineage` set, ``None`` outside one."""
    return getattr(_ship_local, "resident", None)


@dataclass
class Aggregator:
    """combineByKey semantics: how shuffled values merge.

    ``create_combiner(v)`` starts a combiner from the first value of a key,
    ``merge_value(c, v)`` folds another value in, and
    ``merge_combiners(c1, c2)`` merges two partial combiners (used on the
    reduce side and, when ``map_side_combine`` is on, also on the map side).
    """

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]


class Dependency:
    """Base edge type."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd  # the parent RDD


class NarrowDependency(Dependency):
    """Child partition i depends on parent partitions ``get_parents(i)``."""

    def get_parents(self, partition_index: int) -> list[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """map/filter/flatMap-style: child partition i <- parent partition i."""

    def get_parents(self, partition_index: int) -> list[int]:
        return [partition_index]


class ShuffleDependency(Dependency):
    """Stage boundary: the parent's records are repartitioned by key."""

    def __init__(
        self,
        rdd: "RDD",
        partitioner: "Partitioner",
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
    ):
        super().__init__(rdd)
        if map_side_combine and aggregator is None:
            raise ValueError("map_side_combine requires an aggregator")
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine
        self.shuffle_id = next(_shuffle_ids)

    def __getstate__(self):
        state = dict(self.__dict__)
        if shipping_resident() is not None:
            state["rdd"] = None  # no worker walks this edge (module docstring)
        return state
