"""Job model for the mining service.

A :class:`Job` is one submitted mining request plus its full lifecycle
trail: state transitions, timestamps, attempt count, error, and (when
finished) the :class:`~repro.core.results.MiningRunResult`.  Jobs move
through::

    PENDING ──▶ RUNNING ──▶ DONE
       │           ├──────▶ FAILED      (error, retries exhausted)
       │           ├──────▶ TIMED_OUT   (deadline fired mid-run)
       └───────────┴──────▶ CANCELLED   (client cancel, queued or running)

A DONE job's result is held as it is sent: :func:`kept` renders its
itemsets and trace to their JSON text once, where the answer is
produced (a :class:`KeptItemsets`, a :class:`KeptTrace`), its passes
to :class:`KeptPass` rows.

A job's record has one owner: the :class:`Job` in the table of the
shard that accepted it.  State is only ever mutated under that service's
lock (``attempts`` by the runner of the one worker that holds the job);
readers get point-in-time :meth:`Job.snapshot` dicts, which are also the
HTTP status-endpoint payloads.  The id says where the record lives —
``job-<shard>-<n>``, or ``job-<n>`` from an unnamed embedded service,
``n`` counting that shard's accepted jobs — so a router needs no table
to find it, and a shard can tell an id it has since let go (410
``job_expired``) from one it never minted (404 ``unknown_job``) by
comparing ``n`` with its own counter.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from repro.common.errors import ReproError
from repro.core.registry import MiningConfig
from repro.engine.tracing import Tracer, chrome_trace_document


#: server-side cap on one long-poll wait (``/changes``, ``/jobs/<id>``)
#: — below the HTTP client's 30s socket timeout so a quiet feed or a
#: long job answers "nothing yet", not with a connection error
MAX_POLL_S = 25.0


class ServeError(ReproError):
    """Raised for invalid service requests (unknown job, bad payload...)."""


class ApiError(ServeError):
    """A request the service refuses with a specific HTTP status + code.

    The structured half of the HTTP error contract: the front-end maps it
    to ``{"error": message, "code": code}`` with status ``status``, and
    :class:`~repro.serve.client.HttpClient` re-raises it client-side so a
    caller can branch on ``code`` (``"version_conflict"``,
    ``"unknown_dataset"``...) instead of parsing prose.
    """

    def __init__(self, message: str, *, status: int = 400, code: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> dict:
        """The JSON body the error response carries."""
        return {"error": str(self), "code": self.code}


class RejectedError(ServeError):
    """Admission control refused a job — the 429 of the serving tier.

    Carries enough structure for a client to back off intelligently:
    ``retry_after_s`` (the server's load-based estimate of when a slot
    frees up), the rejecting ``scope`` (one shard vs. the whole router),
    and the queue numbers that triggered the rejection.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_s: float = 1.0,
        scope: str = "shard",
        shard: str | None = None,
        queue_depth: int | None = None,
        queue_limit: int | None = None,
    ):
        super().__init__(message)
        self.retry_after_s = max(0.0, retry_after_s)
        self.scope = scope
        self.shard = shard
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit

    def payload(self) -> dict:
        """The JSON body a 429 response carries."""
        return {
            "error": str(self),
            "rejected": True,
            "scope": self.scope,
            "shard": self.shard,
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "retry_after_s": round(self.retry_after_s, 3),
        }


class RowsNotResident(ServeError):
    """A submit that named its rows by fingerprint alone ("the rows you
    already hold") needs them to run, and the shard's ``DatasetCache`` no
    longer has them: the caller still holds the request and decodes it in
    full.  Raised before the job table, tenant counters or queue change."""


def _tupled(value):
    """A decoded JSON value with every array a tuple, as it was mined."""
    return tuple(map(_tupled, value)) if type(value) is list else value


def _unsendable(item):
    raise ServeError(f"the answer holds {item!r} ({type(item).__name__}), which JSON cannot carry")


#: one decode at a time: a kept answer is decoded at most once
_DECODING = threading.Lock()


class KeptItemsets(Mapping):
    """A finished answer's ``{itemset: count}`` as the service holds it:
    the JSON text of the ``itemsets`` field it is sent as (``[[items],
    count]`` rows — a named dataset's warm answer in payload order, as a
    reset's family is; any other in the order mined) and its length.

    ``GET /results`` sends :attr:`text` as it is and never decodes it.
    For an embedded caller it is the read-only mapping it stands for: the
    first read that needs the itemsets decodes the text, once, with every
    array a tuple; ``len`` needs no decode.
    """

    __slots__ = ("text", "_n", "_decoded")

    def __init__(self, text: str, n: int):
        self.text = text
        self._n = n
        self._decoded: dict | None = None

    @property
    def decoded(self) -> bool:
        """Whether a read in this process has decoded the text."""
        return self._decoded is not None

    def _family(self) -> dict:
        if self._decoded is None:
            with _DECODING:
                if self._decoded is None:
                    self._decoded = {
                        _tupled(itemset): count for itemset, count in json.loads(self.text)
                    }
        return self._decoded

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, itemset):
        return self._family()[itemset]

    def __iter__(self):
        return iter(self._family())

    def __repr__(self) -> str:
        return f"<KeptItemsets: {self._n} itemsets in {len(self.text)} characters of JSON>"


def _events_text(events: list) -> str:
    """``events`` as JSON array items; an argument JSON cannot carry is its
    ``repr`` (every argument is, for a key not a string or a cycle)."""
    try:
        return json.dumps(events, default=repr)[1:-1]
    except (TypeError, ValueError):
        return json.dumps([{**e, "args": {str(k): repr(v) for k, v in e["args"].items()}}
                           for e in events])[1:-1]


class KeptTrace:
    """A finished answer's trace as the service holds it: the chrome-trace
    text ``GET /jobs/{id}/trace`` sends, its span count and origin.  The
    server adds its ``job_worker`` span and ``rows_resident`` instant
    with the tracer's own ``add_span`` / ``instant``, on the run's clock
    (``perf_counter`` is one for the host's processes), without decoding."""

    __slots__ = ("text", "n_spans", "origin_s", "_tracks")
    _TAIL = '], "displayTimeUnit": "ms"}'  # how the text ends: its events array is last

    def __init__(self, tracer: Tracer):
        events = chrome_trace_document([tracer])["traceEvents"]
        self.text = '{"traceEvents": [' + _events_text(events) + self._TAIL
        self.n_spans, self.origin_s = len(tracer.spans), tracer.origin_s
        self._tracks = [e["args"]["name"] for e in events if e["name"] == "thread_name"]

    def add_span(self, name, category, start_s, duration_s, track="driver", **args) -> None:
        self.n_spans += 1
        self._add(track, args, name=name, cat=category, ph="X",
                  ts=(start_s - self.origin_s) * 1e6, dur=duration_s * 1e6)

    def instant(self, name, category, track="driver", **args) -> None:
        self._add(track, args, name=name, cat=category, ph="i", s="t",
                  ts=(time.perf_counter() - self.origin_s) * 1e6)

    def _add(self, track: str, args: dict, **event) -> None:
        new = []
        if track not in self._tracks:  # a track the run had no event on: name it
            self._tracks.append(track)
            new.append({"name": "thread_name", "ph": "M", "pid": 0,
                        "tid": len(self._tracks) - 1, "args": {"name": track}})
        new.append({**event, "pid": 0, "tid": self._tracks.index(track), "args": args})
        self.text = self.text[: -len(self._TAIL)] + ", " + _events_text(new) + self._TAIL


class KeptPass(NamedTuple):
    """One pass of a kept answer: what ``total_seconds`` and ``summary()``
    read of an :class:`~repro.core.results.IterationStats`."""

    k: int
    seconds: float
    n_candidates: int
    n_frequent: int


def kept(result):
    """``result`` as the service keeps it, each part rendered once where
    the answer is made: its itemsets to the JSON text they are sent as (a
    :class:`KeptItemsets`), a ``Tracer`` to a :class:`KeptTrace`, its
    passes to :class:`KeptPass` rows; ``engine_metrics`` stays.  A part
    already kept is left as it is.  Raises :class:`ServeError` naming an
    item that JSON cannot carry — no client could be sent such an answer."""
    itemsets = result.itemsets
    if not isinstance(itemsets, KeptItemsets):
        text = json.dumps(list(itemsets.items()), default=_unsendable)
        result.itemsets = KeptItemsets(text, len(itemsets))
    if isinstance(result.trace, Tracer):
        result.trace = KeptTrace(result.trace)
    if any(type(p) is not KeptPass for p in result.iterations):
        result.iterations = [KeptPass(p.k, p.seconds, p.n_candidates, p.n_frequent)
                             for p in result.iterations]
    return result


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
)

_JOB_ID = re.compile(r"job-(?:(.+)-)?([1-9][0-9]*)")


def mint_job_id(shard: str | None, number: int) -> str:
    """The id of the ``number``-th job ``shard`` accepted.  Router-made
    shard names (``shard-<i>``) keep it to URL-unreserved characters."""
    return f"job-{shard}-{number}" if shard else f"job-{number}"


def parse_job_id(job_id: str) -> tuple[str | None, int]:
    """``(shard, number)`` as :func:`mint_job_id` put them in;
    ``(None, 0)`` — no shard's counter reaches 0 — for anything else."""
    match = _JOB_ID.fullmatch(job_id)
    if match is None:
        return None, 0
    return match.group(1), int(match.group(2))


@dataclass
class JobRequest:
    """Everything a client specifies for one mining job."""

    config: MiningConfig
    priority: int = 0  # lower runs first; ties FIFO
    timeout_s: float | None = None
    max_retries: int = 0
    retry_backoff_s: float = 0.05  # doubles per retry
    tenant: str = "default"  # fair-share scheduling bucket

    def __post_init__(self):
        if self.max_retries < 0:
            raise ServeError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServeError(f"timeout_s must be positive, got {self.timeout_s}")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ServeError(f"tenant must be a non-empty string, got {self.tenant!r}")


@dataclass
class Job:
    """One submission's identity, request, and lifecycle record."""

    request: JobRequest
    dataset_fingerprint: str
    job_id: str  # minted by the accepting service (see mint_job_id)
    state: JobState = JobState.PENDING
    submitted_s: float = field(default_factory=time.monotonic)
    started_s: float | None = None
    finished_s: float | None = None
    attempts: int = 0
    error: str | None = None
    result: object | None = None  # MiningRunResult when DONE, its itemsets kept()
    #: how the result was produced: "run", "memoized" (result-cache hit at
    #: submit time) or "coalesced" (attached to an identical in-flight job)
    via: str = "run"
    coalesced_with: str | None = None
    #: name of the MiningService shard that accepted the job (router mode)
    shard: str | None = None
    #: the service's planner's :class:`~repro.serve.planner.PlanDecision`
    #: for this submission (None = no planner, or a named-dataset job);
    #: ``planned`` reads it and the runner applies it
    decision: object | None = field(default=None, repr=False)
    #: named-dataset provenance: which managed dataset (and which version
    #: of it) the job's transaction snapshot came from; None for raw
    #: transaction submissions
    dataset_id: str | None = None
    dataset_version: int | None = None
    #: submitted by fingerprint alone ("the rows you already hold"): what
    #: it runs on came from the shard's DatasetCache, not from the request
    rows_resident: bool = False
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: the submitted transactions, pinned until the job is terminal so
    #: DatasetCache eviction under memory pressure can never fail an
    #: accepted job (admission control bounds how many pins exist)
    _txns: object | None = field(default=None, repr=False)
    #: the ManagedDataset ``dataset_version`` was snapshotted from — the
    #: warm-miner path answers only while it is still the live entry
    #: under its name; dropped with ``_txns`` when the job is terminal
    _dataset_entry: object | None = field(default=None, repr=False)

    @property
    def result_key(self) -> tuple[str, str]:
        """Memoization key: (dataset fingerprint, config content hash) —
        of the config as asked, whatever the planner chose to run it with."""
        return (self.dataset_fingerprint, self.request.config.cache_key())

    @property
    def planned(self) -> dict | None:
        """Execution knobs the planner chose, e.g. ``{"candidate_store":
        "bitmap", "num_partitions": 1}`` — applied when the job runs, never
        part of its key (None = unplanned)."""
        return None if self.decision is None else self.decision.chosen

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; True when it did."""
        return self.done_event.wait(timeout)

    def snapshot(self) -> dict:
        """JSON-safe point-in-time status (the ``GET /jobs/<id>`` payload)."""
        now = time.monotonic()
        out = {
            "job_id": self.job_id,
            "state": self.state.value,
            "algorithm": self.request.config.algorithm,
            "min_support": self.request.config.min_support,
            "dataset_fingerprint": self.dataset_fingerprint,
            "priority": self.request.priority,
            "tenant": self.request.tenant,
            "attempts": self.attempts,
            "via": self.via,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
            "shard": self.shard,
            "dataset_id": self.dataset_id,
            "dataset_version": self.dataset_version,
            "planned": self.planned,
            "queued_seconds": round(
                (self.started_s or self.finished_s or now) - self.submitted_s, 6
            ),
            "run_seconds": (
                round((self.finished_s or now) - self.started_s, 6)
                if self.started_s is not None
                else None
            ),
        }
        if self.state is JobState.DONE and self.result is not None:
            out["num_itemsets"] = self.result.num_itemsets
        return out
