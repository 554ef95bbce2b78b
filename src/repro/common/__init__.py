"""Shared utilities: itemset canon, seeded RNG, timing, size estimation."""

from repro.common.errors import (
    BlockUnavailableError,
    ClusterModelError,
    DatasetError,
    EngineError,
    FileAlreadyExists,
    FileNotFoundInDfs,
    HdfsError,
    JobConfigError,
    MapReduceError,
    MiningError,
    ReproError,
    TaskFailedError,
)
from repro.common.itemset import (
    Item,
    Itemset,
    canonical,
    canonical_transaction,
    contains,
    is_canonical,
    join_prefix,
    min_support_count,
    subsets_k_minus_1,
    support_fraction,
)
from repro.common.rng import make_rng, spawn, stable_hash
from repro.common.sizeof import estimate_size, pickled_size
from repro.common.timing import now

__all__ = [
    "BlockUnavailableError",
    "ClusterModelError",
    "DatasetError",
    "EngineError",
    "FileAlreadyExists",
    "FileNotFoundInDfs",
    "HdfsError",
    "Item",
    "Itemset",
    "JobConfigError",
    "MapReduceError",
    "MiningError",
    "ReproError",
    "TaskFailedError",
    "canonical",
    "canonical_transaction",
    "contains",
    "estimate_size",
    "is_canonical",
    "join_prefix",
    "make_rng",
    "min_support_count",
    "now",
    "pickled_size",
    "spawn",
    "stable_hash",
    "subsets_k_minus_1",
    "support_fraction",
]
