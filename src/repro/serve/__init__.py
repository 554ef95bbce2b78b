"""``repro.serve`` — the multi-tenant mining service.

One :class:`MiningService` turns the one-shot mining API into a serving
layer: a tenant-fair priority queue (:class:`TenantQueue`) over a bounded
worker pool (each worker a :class:`JobRunner` call on a thread paired
with a job-worker process, :mod:`repro.serve.jobworker`, where fresh
mines run outside this interpreter), a bounded job table, a cross-job
dataset cache and result memoization — the same
amortize-the-repeated-cost move the YAFIM paper
makes for Apriori passes, applied across requests.  :class:`ShardRouter` spreads jobs over N >= 1
of them; :class:`MiningServer` puts a router behind a stdlib JSON/HTTP
front-end; :class:`LocalClient` / :class:`HttpClient` are one client on
two transports (in-process dispatch, a socket).  The protocol they all
speak is one table, :data:`repro.serve.api.OPERATIONS`.  See
``docs/serving.md``.
"""

from repro.serve.cache import (
    DatasetCache,
    FingerprintChain,
    LruByteCache,
    ResultCache,
    dataset_fingerprint,
)
from repro.serve.client import HttpClient, LocalClient
from repro.serve.datasets import AppendResult, DatasetRegistry, ManagedDataset
from repro.serve.http import MiningServer, config_from_dict
from repro.serve.jobs import (
    ApiError,
    Job,
    JobRequest,
    JobState,
    RejectedError,
    ServeError,
    TERMINAL_STATES,
)
from repro.serve.planner import CostPlanner, PlanDecision
from repro.serve.queue import TenantQueue
from repro.serve.router import ShardRouter
from repro.serve.runner import JobRunner
from repro.serve.service import LatencyHistogram, MiningService
from repro.serve.shard import HashRing

__all__ = [
    "ApiError",
    "AppendResult",
    "CostPlanner",
    "DatasetCache",
    "DatasetRegistry",
    "FingerprintChain",
    "HashRing",
    "HttpClient",
    "Job",
    "JobRequest",
    "JobRunner",
    "JobState",
    "LatencyHistogram",
    "LocalClient",
    "LruByteCache",
    "ManagedDataset",
    "MiningServer",
    "MiningService",
    "PlanDecision",
    "RejectedError",
    "ResultCache",
    "ServeError",
    "ShardRouter",
    "TERMINAL_STATES",
    "TenantQueue",
    "config_from_dict",
    "dataset_fingerprint",
]
