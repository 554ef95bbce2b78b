"""The engine's public surface, pinned.

DESIGN.md choice 28 cuts the engine down to the Spark subset the miners,
the MapReduce baseline, the benches and the examples run on.  The sets
below are the surface as it stands, so a method or an export added (or
cut) is a visible diff here, the way ``tests/test_option_census.py``
pins options.  The surface is read in an interpreter where ``networkx``
cannot be imported: lineage introspection is a walk of the RDD graph and
needs no graph library.
"""

import json
import os
import subprocess
import sys

import repro

RDD_METHODS = {
    "aggregate", "aggregate_by_key", "cache", "cogroup", "collect", "collect_as_map",
    "combine_by_key", "compute", "count", "count_by_key", "count_by_value", "distinct",
    "filter", "first", "flat_map", "flat_map_values", "fold", "fold_by_key",
    "full_outer_join", "glom", "group_by", "group_by_key", "intersection", "is_empty",
    "iterator", "join", "key_by", "keys", "left_outer_join", "lookup", "map",
    "map_partitions", "map_partitions_with_index", "map_values", "num_partitions",
    "partition_by", "partitioner", "partitions", "persist", "reduce", "reduce_by_key",
    "repartition", "right_outer_join", "sample", "save_as_text_file", "sort_by",
    "subtract", "subtract_by_key", "sum", "take", "take_ordered", "top", "unpersist",
    "values", "zip_with_index",
}
CONTEXT_METHODS = {
    "broadcast", "clear_shuffle_outputs", "empty_rdd", "parallelize", "run_job", "stop",
    "text_file",
}
EXPORTS = {
    "Aggregator", "BlockId", "BlockManager", "Broadcast", "BroadcastManager", "Context",
    "EngineMetrics", "EventLog", "FaultInjector", "HashPartitioner", "InjectedTaskFailure",
    "JobSummary", "NarrowDependency", "OneToOneDependency", "ParallelCollectionRDD",
    "Partitioner", "RDD", "RangePartitioner", "ShuffleDependency", "ShuffledRDD", "Span",
    "StageSummary", "StorageLevel", "TaskMetrics", "TextFileRDD", "Tracer",
    "collect_engine_metrics", "compute_range_bounds", "debug_string", "export_chrome_trace",
    "stage_count",
}

READ_SURFACE = """
import json, sys
sys.modules["networkx"] = None  # any import of it fails
import repro.engine as engine
from repro.engine import RDD, Context, stage_count

def public(cls):
    return sorted(n for n in vars(cls) if not n.startswith("_"))

with Context(backend="serial") as ctx:
    two_shuffles = (
        ctx.parallelize([(1, 1), (2, 1)], 2)
        .reduce_by_key(lambda a, b: a + b)
        .map(lambda kv: (kv[1], kv[0]))
        .reduce_by_key(min)
    )
    print(json.dumps({
        "rdd": public(RDD), "context": public(Context), "exports": sorted(engine.__all__),
        "stages": stage_count(two_shuffles),
    }))
"""


def test_the_engine_surface_is_pinned_and_needs_no_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", READ_SURFACE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    surface = json.loads(done.stdout)
    assert surface["stages"] == 3
    assert set(surface["rdd"]) == RDD_METHODS
    assert set(surface["context"]) == CONTEXT_METHODS
    assert set(surface["exports"]) == EXPORTS
