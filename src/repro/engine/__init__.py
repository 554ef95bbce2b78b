"""Mini-Spark: lazy RDDs, lineage, DAG scheduling, shuffle, cache, broadcast.

Public surface::

    from repro.engine import Context, StorageLevel

    with Context(backend="processes", parallelism=2) as ctx:
        counts = (
            ctx.parallelize(words, 8)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
"""

from repro.engine.accumulator import (
    FLOAT_PARAM,
    INT_PARAM,
    LIST_PARAM,
    Accumulator,
    AccumulatorParam,
)
from repro.engine.broadcast import Broadcast, BroadcastManager
from repro.engine.context import Context
from repro.engine.dependencies import (
    Aggregator,
    NarrowDependency,
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.engine.faults import FaultInjector, InjectedTaskFailure
from repro.engine.lineage import debug_string, explain, stage_count, to_networkx
from repro.engine.metrics import EventLog, JobSummary, StageSummary, TaskMetrics
from repro.engine.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    compute_range_bounds,
)
from repro.engine.rdd import RDD, ParallelCollectionRDD, ShuffledRDD, TextFileRDD, UnionRDD
from repro.engine.statcounter import StatCounter
from repro.engine.storage import BlockId, BlockManager, StorageLevel
from repro.engine.tracing import (
    EngineMetrics,
    Span,
    Tracer,
    collect_engine_metrics,
    export_chrome_trace,
)

__all__ = [
    "FLOAT_PARAM",
    "INT_PARAM",
    "LIST_PARAM",
    "Accumulator",
    "AccumulatorParam",
    "Aggregator",
    "BlockId",
    "BlockManager",
    "Broadcast",
    "BroadcastManager",
    "Context",
    "EngineMetrics",
    "EventLog",
    "FaultInjector",
    "HashPartitioner",
    "InjectedTaskFailure",
    "JobSummary",
    "NarrowDependency",
    "OneToOneDependency",
    "ParallelCollectionRDD",
    "Partitioner",
    "RDD",
    "RangeDependency",
    "RangePartitioner",
    "ShuffleDependency",
    "ShuffledRDD",
    "Span",
    "StageSummary",
    "StatCounter",
    "StorageLevel",
    "TaskMetrics",
    "TextFileRDD",
    "Tracer",
    "UnionRDD",
    "collect_engine_metrics",
    "compute_range_bounds",
    "debug_string",
    "explain",
    "export_chrome_trace",
    "stage_count",
    "to_networkx",
]
