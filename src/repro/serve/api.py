"""The serve protocol, declared once.

:data:`OPERATIONS` has one row per operation of the mining service:
the HTTP method and path template (its ``{placeholders}`` are the path
arguments), each other argument's place on the wire (JSON body key or
query key) with its coercion and required/default, the success status,
and how a :class:`~repro.serve.router.ShardRouter` finds the shard that
owns it.  The HTTP handler and the in-process dispatch it shares
(:func:`repro.serve.http.dispatch`), the verbs of the one client behind
both transports (:mod:`repro.serve.client`), the router's forwarders and
the dataset verbs of an embedded :class:`~repro.serve.service.MiningService`
are all derived from the rows; adding an argument to an operation is an
edit to its row and to the method that implements it — on
``MiningService`` for the job rows, on
:class:`~repro.serve.datasets.DatasetRegistry` for the ``BY_DATASET`` rows.

:func:`encode_request` and :func:`decode_request` are the only two
functions that know the wire format.  They are inverses:
``decode_request(*encode_request(name, **kw))`` gives back ``kw`` (plus
the row's declared defaults) for every ``kw`` the row accepts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from urllib.parse import parse_qs, quote, unquote, urlencode, urlsplit

from repro.core.registry import MiningConfig
from repro.serve.datasets import POLICY_FIELDS
from repro.serve.jobs import MAX_POLL_S, ApiError, JobRequest, ServeError

BODY, QUERY = "body", "query"

#: how the router finds the shard an operation runs on: the one that
#: accepted the job, the named dataset's home, or every shard (the
#: router answers itself: placement for submit, sums for the rest)
BY_JOB, BY_DATASET, FANOUT = "job", "dataset", "fanout"

_OMIT = object()  # no default: an absent field is left to the implementation


@dataclass
class Field:
    """One body or query argument of an operation.

    ``name`` is the keyword the implementation takes, ``wire`` its key
    on the wire when that differs.  ``coerce`` turns the wire value into
    the keyword value and raises on a bad one; ``render`` is its inverse
    for values JSON cannot carry as given.
    """

    name: str
    where: str
    coerce: Callable | None = None
    required: bool = False
    default: object = _OMIT
    wire: str = ""
    render: Callable | None = None

    def __post_init__(self):
        self.wire = self.wire or self.name


@dataclass(eq=False)
class Operation:
    """One row of the protocol.  ``call`` names the implementing method
    (of ``MiningService``, or ``DatasetRegistry`` for a ``BY_DATASET``
    row) where it differs from ``name``; ``finish`` is a cross-field step
    run on the decoded keywords."""

    name: str
    method: str
    path: str
    fields: tuple[Field, ...] = ()
    status: int = 200
    route: str = FANOUT
    call: str = ""
    quote_path: bool = True
    finish: Callable[[dict], None] | None = None

    def __post_init__(self):
        # derived once, at import — per-request dispatch only looks up
        self.call = self.call or self.name
        self.path_names = tuple(re.findall(r"\{(\w+)\}", self.path))
        self.pattern = re.compile(re.sub(r"\{\w+\}", "([^/]+)", self.path))
        self.by_name = {f.name: f for f in self.fields}
        self.wire_names = {
            where: frozenset(f.wire for f in self.fields if f.where == where)
            for where in (BODY, QUERY)
        }


# -- coercions ---------------------------------------------------------------
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(MiningConfig)}

#: the most partitions a request may ask for: each is a task per pass, so
#: a 5-row job at 50 000 partitions took 7.7 s and 472 MiB
MAX_NUM_PARTITIONS = 4096


def config_from_dict(payload: dict) -> MiningConfig:
    """Build a :class:`MiningConfig` from a JSON object, rejecting unknown
    keys with a clear error instead of a ``TypeError`` deep in dataclasses,
    and the engine knobs past what one request may ask of the host:
    ``parallelism`` (worker processes, on ``processes``) above its CPU
    count, ``num_partitions`` above :data:`MAX_NUM_PARTITIONS`."""
    if not isinstance(payload, dict):
        raise ServeError(f"config must be an object, got {type(payload).__name__}")
    unknown = set(payload) - _CONFIG_FIELDS
    if unknown:
        raise ServeError(
            f"unknown config field(s) {sorted(unknown)}; valid: {sorted(_CONFIG_FIELDS)}"
        )
    if "min_support" not in payload:
        raise ServeError("config.min_support is required")
    config = MiningConfig(**payload)
    for name, limit in (
        ("parallelism", os.cpu_count() or 1), ("num_partitions", MAX_NUM_PARTITIONS),
    ):
        value = getattr(config, name)
        if value is not None and value > limit:
            raise ServeError(f"config.{name} must be <= {limit} on this server, got {value}")
    return config


def _config_payload(config) -> dict:
    return config.canonical() if isinstance(config, MiningConfig) else config


def _is(kind: type, what: str, empty_ok: bool = True) -> Callable:
    def check(value):
        if not isinstance(value, kind) or not (value or empty_ok):
            raise TypeError(f"must be {what}, got {type(value).__name__}")
        return value

    return check


def _minable(check: Callable) -> Callable:
    """``check``, then every row is a list a miner can canonicalise: its
    items hash and sort against one another (``[1, "a"]`` does not).
    Refused here, at the door: a fingerprint only renders items, so on a
    named dataset a warm miner would meet the row after the version had
    moved and fail every later job.  A named dataset's items must also be
    all ``str`` or all ``int``: the dataset tier refuses ``[[1], ["a"]]``."""

    def rows(value):
        for row in check(value):
            if not isinstance(row, list):
                raise TypeError(f"every row must be a list of items, got {type(row).__name__}")
            try:
                # one sort, as cheap as the repeat path it guards: items
                # that sort are of one kind (strings, numbers, or lists
                # again), so if the first hashes they all do
                sorted(row)
                if row:
                    hash(row[0])
            except TypeError as err:
                raise ApiError(
                    f"transactions: row {row!r:.60} cannot be mined: {err}",
                    code="unminable_row",
                ) from None
        return value

    return rows


_list = _is(list, "a list")
_rows = _minable(_is(list, "a non-empty list of lists", empty_ok=False))
_delta = _minable(_is(list, "a list of lists"))
_text = _is(str, "a non-empty string", empty_ok=False)
_flag = _is(bool, "true or false")


def _row_lists(transactions) -> list:
    return [list(t) for t in transactions]


def _names(value) -> frozenset:
    return frozenset(_text(v) for v in _list(value))


def _poll_s(value) -> float:
    """One long-poll wait: never negative, never past the server's cap."""
    return max(0.0, min(float(value), MAX_POLL_S))


#: coercion for a ``JobRequest`` field, by its annotation (a new field
#: with another annotation fails here, at import)
_BY_ANNOTATION = {"int": int, "float": float, "float | None": float, "str": _text}


def _finish_submit(kwargs: dict) -> None:
    if (kwargs["transactions"] is None) == ("dataset_id" not in kwargs):
        raise ServeError("pass transactions or dataset: one of them, not both")


OPERATIONS: tuple[Operation, ...] = (
    Operation(
        "submit", "POST", "/jobs", status=202, finish=_finish_submit,
        fields=(
            Field("config", BODY, config_from_dict, required=True, render=_config_payload),
            *(
                Field(f.name, BODY, _BY_ANNOTATION[f.type])
                for f in dataclasses.fields(JobRequest)
                if f.name != "config"
            ),
            Field("dataset_id", BODY, _text, wire="dataset"),
            Field("transactions", BODY, _rows, default=None, render=_row_lists),
            # knobs the shard's planner must leave alone (inert without one)
            Field("pinned", BODY, _names, render=sorted),
        ),
    ),
    # ``HttpClient.status`` takes "<id>[?timeout_s=<s>]" as its one
    # argument (``wait`` polls through it, and subclasses count polls by
    # overriding it), so this is the one path argument sent as given
    Operation(
        "wait", "GET", "/jobs/{job_id}", route=BY_JOB, quote_path=False,
        fields=(Field("timeout", QUERY, _poll_s, default=0.0, wire="timeout_s"),),
    ),
    Operation("cancel", "DELETE", "/jobs/{job_id}", route=BY_JOB),
    Operation("result", "GET", "/results/{job_id}", route=BY_JOB, call="get"),
    Operation("trace", "GET", "/jobs/{job_id}/trace", route=BY_JOB, call="get"),
    # items not all str or all int: a 400 from ManagedDataset, naming the type
    Operation(
        "create_dataset", "POST", "/datasets/{dataset_id}", status=201, route=BY_DATASET,
        fields=(
            Field("transactions", BODY, _rows, required=True, render=_row_lists),
            Field("replace", BODY, _flag),
            # values pass through: ManagedDataset validates its own policies
            *(Field(name, BODY) for name in POLICY_FIELDS),
        ),
    ),
    Operation(
        "append_dataset", "POST", "/datasets/{dataset_id}/append", route=BY_DATASET,
        fields=(
            # optional: ``flush`` with no delta is a pure "flush now"
            Field("transactions", BODY, _delta, default=None, render=_row_lists),
            Field("expected_version", BODY, int),
            Field("flush", BODY, _flag),
        ),
    ),
    # ``warm_miners`` / ``watches`` are asked of the owner, at ``version``:
    # the one answer that carries them (an append's and /metrics' do not)
    Operation("dataset_info", "GET", "/datasets/{dataset_id}", route=BY_DATASET),
    # the mining key is (min_support, max_length): the tier counts on
    # bitmaps, so a ``candidate_store`` here is an unknown query param
    Operation(
        "dataset_changes", "GET", "/datasets/{dataset_id}/changes", route=BY_DATASET,
        fields=(
            Field("since", QUERY, int, required=True),
            Field("min_support", QUERY, float, required=True),
            Field("max_length", QUERY, int),
            Field("timeout_s", QUERY, float),
        ),
    ),
    Operation("healthz", "GET", "/healthz"),
    # read without a wait, so they may lag: ``job_workers.datasets_resident``
    # (each worker's last answer), ``dataset_owner.versions_applied`` (the
    # pushes read so far) and ``.vm_hwm_kb`` (/proc at the call)
    Operation("metrics", "GET", "/metrics"),
)

BY_NAME = {op.name: op for op in OPERATIONS}


# -- the codec ---------------------------------------------------------------
def encode_request(name: str, **kwargs) -> tuple[str, str, dict | None]:
    """``(method, path, payload)`` for calling operation ``name`` with
    ``kwargs`` (the implementation's own keywords).  ``None`` values are
    not sent; path arguments are percent-quoted whole, so an id is data
    and never URL syntax."""
    op = BY_NAME[name]
    if not set(op.path_names) <= kwargs.keys() <= {*op.path_names, *op.by_name}:
        raise TypeError(f"{name}() takes {[*op.path_names, *op.by_name]}, got {sorted(kwargs)}")
    ids = {k: kwargs.pop(k) for k in op.path_names}
    if op.quote_path:
        ids = {k: quote(str(v), safe="") for k, v in ids.items()}
    sent: dict[str, dict] = {BODY: {}, QUERY: {}}
    for key, value in kwargs.items():
        if value is not None:
            field = op.by_name[key]
            sent[field.where][field.wire] = field.render(value) if field.render else value
    path = op.path.format(**ids)
    if sent[QUERY]:
        path += "?" + urlencode(sent[QUERY])
    return op.method, path, sent[BODY] if op.wire_names[BODY] else None


def _json_object(body) -> dict:
    if body is None or body == b"":
        raise ServeError("request body required")
    if isinstance(body, bytes):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as err:
            raise ServeError(f"invalid JSON body: {err}") from err
    if not isinstance(body, dict):
        raise ServeError("request body must be a JSON object")
    return body


def decode_request(method: str, raw_path: str, body=b"") -> tuple[Operation, dict]:
    """The operation a request names and the keywords to call its
    implementation with.  ``body`` is the request's bytes, or — from an
    in-process caller — the payload itself, which goes through the same
    checks minus the JSON parse.

    Raises :class:`ApiError` 404 ``unknown_route`` when nothing matches,
    and :class:`ServeError` (a 400) for a missing or malformed body, an
    undeclared body or query key (``priorty``, ``?timeout=5`` must not
    silently fall back to defaults), a missing required field or a value
    its coercion refuses.
    """
    url = urlsplit(raw_path)
    path = url.path.rstrip("/")
    for op in OPERATIONS:
        match = op.pattern.fullmatch(path) if op.method == method else None
        if match is not None:
            break
    else:
        raise ApiError(f"no route for {method} {raw_path}", status=404, code="unknown_route")
    given = {
        BODY: _json_object(body) if op.wire_names[BODY] else {},
        QUERY: {k: v[-1] for k, v in parse_qs(url.query).items()} if url.query else {},
    }
    for where, label in ((BODY, "field(s)"), (QUERY, "query param(s)")):
        unknown = given[where].keys() - op.wire_names[where]
        if unknown:
            raise ServeError(
                f"unknown {label} {sorted(unknown)}; valid: {sorted(op.wire_names[where])}"
            )
    kwargs = dict(zip(op.path_names, map(unquote, match.groups())))
    for field in op.fields:
        value = given[field.where].get(field.wire)
        if value is None:  # absent, or a JSON null
            if field.required:
                raise ServeError(f"{field.where} field {field.wire!r} is required")
            if field.default is not _OMIT:
                kwargs[field.name] = field.default
            continue
        try:
            kwargs[field.name] = field.coerce(value) if field.coerce else value
        except (TypeError, ValueError) as err:
            raise ServeError(f"{field.wire}: {err}") from err
    if op.finish is not None:
        op.finish(kwargs)
    return op, kwargs


__all__ = [
    "BY_DATASET",
    "BY_JOB",
    "BY_NAME",
    "FANOUT",
    "Field",
    "OPERATIONS",
    "Operation",
    "config_from_dict",
    "decode_request",
    "encode_request",
]
