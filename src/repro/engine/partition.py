"""Partition descriptors.

A partition is the unit of parallelism: every RDD is a list of partitions
and every task computes exactly one of them.  A descriptor says *which*
piece (an index, an input split, a reduce-bucket id) and never carries
the piece's data, so it is always cheap to ship inside a task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Partition:
    """Base partition: just an index within its RDD."""

    index: int


@dataclass(frozen=True)
class SplitPartition(Partition):
    """Partition backed by a mini-DFS input split."""

    split: Any  # repro.hdfs.textio.InputSplit


@dataclass(frozen=True)
class ReducePartition(Partition):
    """Post-shuffle partition: one reduce bucket of a shuffle."""
