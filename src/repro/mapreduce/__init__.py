"""MapReduce runtime over the mini-DFS (substrate of the MRApriori baseline)."""

from repro.mapreduce.counters import (
    COMBINE_INPUT_RECORDS,
    COMBINE_OUTPUT_RECORDS,
    GROUP_TASK,
    MAP_INPUT_RECORDS,
    MAP_OUTPUT_RECORDS,
    REDUCE_INPUT_RECORDS,
    REDUCE_OUTPUT_RECORDS,
    Counters,
)
from repro.mapreduce.job import (
    FunctionMapper,
    FunctionReducer,
    JobSpec,
    Mapper,
    Reducer,
    default_partitioner,
)
from repro.mapreduce.runner import JobMetrics, JobResult, JobRunner, read_job_output

__all__ = [
    "COMBINE_INPUT_RECORDS",
    "COMBINE_OUTPUT_RECORDS",
    "Counters",
    "FunctionMapper",
    "FunctionReducer",
    "GROUP_TASK",
    "JobMetrics",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "MAP_INPUT_RECORDS",
    "MAP_OUTPUT_RECORDS",
    "Mapper",
    "REDUCE_INPUT_RECORDS",
    "REDUCE_OUTPUT_RECORDS",
    "Reducer",
    "default_partitioner",
    "read_job_output",
]
