"""The baseline substrates' public surface, pinned.

DESIGN.md choice 28's keep rule covers the packages around the MapReduce
baseline too: ``repro.hdfs``, ``repro.mapreduce``, ``repro.common`` and
``repro.bench`` keep what a miner, the baseline, a bench or an example
calls.  The sets below are the surface as it stands, so a name cut (or
added back) is a visible diff here, as ``tests/engine/test_surface.py``
is for the engine.
"""

import repro.bench
import repro.common
import repro.hdfs
import repro.mapreduce
from repro.hdfs import DataNode, MiniDfs, NameNode

EXPORTS = {
    repro.hdfs: {
        "BlockId", "BlockInfo", "DEFAULT_BLOCK_SIZE", "DataNode", "DfsMetrics", "FileMeta",
        "InputSplit", "MiniDfs", "NameNode", "compute_splits", "normalize_path",
        "read_all_lines_via_splits", "read_split_lines",
    },
    repro.mapreduce: {
        "COMBINE_INPUT_RECORDS", "COMBINE_OUTPUT_RECORDS", "Counters", "FunctionMapper",
        "FunctionReducer", "GROUP_TASK", "JobMetrics", "JobResult", "JobRunner", "JobSpec",
        "MAP_INPUT_RECORDS", "MAP_OUTPUT_RECORDS", "Mapper", "REDUCE_INPUT_RECORDS",
        "REDUCE_OUTPUT_RECORDS", "Reducer", "default_partitioner", "read_job_output",
    },
    repro.common: {
        "BlockUnavailableError", "ClusterModelError", "DatasetError", "EngineError",
        "FileAlreadyExists", "FileNotFoundInDfs", "HdfsError", "Item", "Itemset",
        "JobConfigError", "MapReduceError", "MiningError", "ReproError", "TaskFailedError",
        "canonical", "canonical_transaction", "contains", "estimate_size", "is_canonical",
        "join_prefix", "make_rng", "min_support_count", "now", "pickled_size", "spawn",
        "stable_hash", "subsets_k_minus_1", "support_fraction",
    },
    repro.bench: {
        "ComparisonRun", "SweepPoint", "format_table", "partition_sweep", "replay_mr",
        "replay_mr_per_pass", "replay_yafim", "replay_yafim_per_pass", "run_comparison",
        "sizeup_series", "sparkline", "speedup_series", "support_sweep",
    },
}
METHODS = {
    MiniDfs: {
        "block_locations", "close", "exists", "fail_datanode", "file_length", "list_files",
        "read_block_range", "read_bytes", "read_lines", "read_text", "write_bytes",
        "write_lines", "write_text",
    },
    NameNode: {"allocate_block", "create_file", "exists", "get_file", "list_files"},
    DataNode: {"fail", "read_block", "write_block"},
}


def test_the_substrate_exports_are_pinned():
    for package, names in EXPORTS.items():
        assert set(package.__all__) == names, package.__name__
        assert all(hasattr(package, name) for name in names), package.__name__


def test_the_dfs_methods_are_pinned():
    for cls, names in METHODS.items():
        public = {n for n in vars(cls) if not n.startswith("_")}
        assert public == names, cls.__name__
