"""Closed-loop client op shared by the two serve workloads.

Op = ``submit`` -> ``wait`` -> ``result`` in hand, over
:class:`repro.serve.client.HttpClient`.  A traced pass records one span
per verb call, keyed by job id, and keeps what went over the wire so
sizes can be computed after the pass instead of inside an op.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.serve.client import HttpClient
from repro.serve.jobs import ServeError

#: a request that fails, is rejected or never finishes counts as this
#: latency in every percentile
OP_TIMEOUT_S = 30.0

LAYER = "serve.client"


@dataclass
class JobRecord:
    """One op as the client saw it."""

    kind: str  # "fresh" | "repeat" | "stream"
    key: object  # what the oracle check looks the answer up by
    ok: bool = False
    latency_s: float = OP_TIMEOUT_S
    itemsets: dict | None = None
    snapshot: dict | None = None  # final job snapshot (via, queued/run seconds)
    submit_s: float = 0.0
    wait_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    mark: int = 0  # where the speed probe stood when the op began


class TracedClient(HttpClient):
    """``HttpClient`` that counts status polls, keeps submit/result
    payloads, and counts error responses (used by traced passes only)."""

    def __init__(self, url: str):
        super().__init__(url)
        self.polls = 0
        self.errors = 0
        self.exchanges: list[tuple[str, dict | None, dict]] = []

    def _request(self, method, path, payload=None):
        try:
            response = super()._request(method, path, payload)
        except ServeError:
            self.errors += 1
            raise
        if path == "/jobs" or path.startswith("/results/"):
            self.exchanges.append((path, payload, response))
        return response

    def status(self, job_id):
        self.polls += 1
        return super().status(job_id)

    def wire_bytes(self) -> tuple[list[int], list[int]]:
        """(submit request sizes, result response sizes), re-encoded the
        way the transport encodes them."""
        requests = [len(json.dumps(p)) for path, p, _ in self.exchanges if path == "/jobs"]
        responses = [
            len(json.dumps(r)) for path, _, r in self.exchanges if path != "/jobs"
        ]
        return requests, responses


def run_job(client: HttpClient, record: JobRecord, transactions, config,
            recorder=None, t0: float | None = None, **submit_kwargs) -> JobRecord:
    """Drive one op to its result; failures leave ``record.ok`` false.

    ``t0`` back-dates the op's start (the stream workload's op starts at
    its append call).
    """
    started = time.perf_counter()
    t0 = started if t0 is None else t0
    polls_before = getattr(client, "polls", 0)
    try:
        snapshot = client.submit(transactions, config, **submit_kwargs)
        submitted = time.perf_counter()
        job_id = snapshot["job_id"]
        final = client.wait(job_id, timeout=OP_TIMEOUT_S)
        waited = time.perf_counter()
        record.snapshot = final
        if final["state"] != "done":
            raise ServeError(f"job {job_id} ended {final['state']}: {final.get('error')}")
        record.itemsets = client.result(job_id)
        done = time.perf_counter()
    except ServeError as err:
        print(f"op failed: {err!r}")
        return record
    record.ok = True
    record.latency_s = done - t0
    record.submit_s = submitted - started
    record.wait_s = waited - submitted
    record.fetch_s = done - waited
    record.polls = getattr(client, "polls", 0) - polls_before
    if recorder is not None:
        root = recorder.add("op", LAYER, t0, done, op=job_id)
        for name, start, end in (
            ("submit", started, submitted), ("wait", submitted, waited),
            ("result", waited, done),
        ):
            recorder.add(name, LAYER, start, end, op=job_id, parent=root)
    return record


def aggregate_metrics(metrics: dict) -> dict:
    """Flatten a routed ``GET /metrics`` payload into summed counters."""
    services = [shard["service"] for shard in metrics["shards"]]

    def total(block: str, key: str) -> int:
        return sum(s[block][key] for s in services)

    return {
        "result_hits": total("result_cache", "hits"),
        "result_misses": total("result_cache", "misses"),
        "dataset_hits": total("dataset_cache", "hits"),
        "dataset_misses": total("dataset_cache", "misses"),
        "contexts_created": total("context_pool", "created"),
        "contexts_reused": total("context_pool", "reused"),
        "retired_rows": total("dataset_registry", "retired_transactions"),
        "coalesced": sum(s["jobs_coalesced"] for s in services),
        "rejected": metrics["router"]["jobs_rejected"],
        "spilled": metrics["router"]["jobs_spilled"],
        "per_shard": [s["jobs_home"] + s["jobs_spilled_in"] for s in metrics["shards"]],
    }


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
