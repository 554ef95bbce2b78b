"""Stdlib HTTP front-end for :class:`~repro.serve.service.MiningService`.

JSON over ``http.server`` — no third-party dependencies:

==========================  =================================================
``POST /jobs``              submit ``{"transactions": [[...], ...] |
                            "dataset": "<id>",
                            "config": {"min_support": ..., ...},
                            "priority"/"timeout_s"/"max_retries"/"tenant"/
                            "pinned"/"approx"}`` → 202 with the job snapshot
                            (200 when memoized; 429 + ``Retry-After`` when
                            admission control or load shedding rejects)
``GET /jobs/<id>``          lifecycle snapshot (state, attempts, timings...);
                            ``?timeout_s=<s>`` long-polls: the answer waits
                            up to that long (server cap 25 s) for the job
                            to turn terminal
``DELETE /jobs/<id>``       cancel (queued or running)
``GET /results/<id>``       mined itemsets once DONE (409 with the state
                            while the job is still in flight)
``POST /datasets/<id>``     register a named, versioned dataset
                            ``{"transactions": [...], "replace": bool,
                            "max_window"/"max_age_s" (window policies),
                            "flush_rows"/"flush_age_s" (ingest buffer)}``
                            (409 ``dataset_exists`` on duplicate names)
``POST /datasets/<id>/append``  append ``{"transactions": [...],
                            "expected_version": int?, "flush": bool}``: on
                            a buffering dataset the delta is staged until
                            a flush trigger fires; otherwise new version +
                            new fingerprint, stale cached results
                            invalidated (409 ``version_conflict`` /
                            ``dataset_retired``, 404 ``unknown_dataset``)
``GET /datasets/<id>``      version, size, fingerprint, warm-miner count,
                            buffered rows, policies
``GET /datasets/<id>/changes``  the change feed: ``?since=<version>&
                            min_support=<s>[&max_length=][&candidate_store=]
                            [&timeout_s=]`` → the family diff
                            (added/removed/count-changed frequent itemsets)
                            from ``since`` to the current version;
                            long-polls up to ``timeout_s`` when already
                            current; ``reset=true`` + full family when the
                            change log no longer covers ``since``
``GET /healthz``            liveness + worker count
``GET /metrics``            queue depth, per-state job counts, cache hit
                            rates, per-job engine-metrics summaries
==========================  =================================================

Error responses carry a machine-usable ``code`` next to the human
``error`` message (``bad_request``, ``unknown_job``, ``unknown_dataset``,
``dataset_exists``, ``version_conflict``, ``not_done``, ``rejected``,
``unknown_route``) — :class:`~repro.serve.client.HttpClient` re-raises
them as :class:`~repro.serve.jobs.ApiError` so callers branch on the
code, not on message prose.

``MiningServer`` runs the whole stack in-process on an ephemeral port —
the tests and the CI smoke step use it; ``repro serve`` keeps it in the
foreground.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import fields as dataclass_fields
from dataclasses import replace as dc_replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import MiningError
from repro.core.registry import MiningConfig
from repro.serve.jobs import ApiError, JobState, RejectedError, ServeError
from repro.serve.planner import CostPlanner
from repro.serve.router import ShardRouter
from repro.serve.service import MAX_POLL_S, MiningService

_CONFIG_FIELDS = {f.name for f in dataclass_fields(MiningConfig)}

#: top-level keys POST /jobs accepts; anything else is a 400 (typos like
#: ``priorty`` must not silently fall back to defaults)
_SUBMIT_FIELDS = {
    "transactions", "dataset", "config", "priority", "timeout_s",
    "max_retries", "tenant", "pinned", "approx",
}

#: body keys for POST /datasets/<id> and POST /datasets/<id>/append
_CREATE_FIELDS = {
    "transactions", "replace",
    "max_window", "max_age_s", "flush_rows", "flush_age_s",
}
_APPEND_FIELDS = {"transactions", "expected_version", "flush"}

#: query keys for GET /datasets/<id>/changes and GET /jobs/<id>
_CHANGES_PARAMS = {"since", "min_support", "max_length", "candidate_store", "timeout_s"}
_JOB_PARAMS = {"timeout_s"}


def _query_params(query: str, valid: set) -> dict:
    """The query string as a dict; a key outside ``valid`` is a 400
    (``?timeout=5`` must not silently poll without waiting)."""
    params = {k: v[-1] for k, v in parse_qs(query).items()}
    unknown = set(params) - valid
    if unknown:
        raise ServeError(
            f"unknown query param(s) {sorted(unknown)}; valid: {sorted(valid)}"
        )
    return params


def config_from_dict(payload: dict) -> MiningConfig:
    """Build a :class:`MiningConfig` from a JSON object, rejecting unknown
    keys with a clear error instead of a ``TypeError`` deep in dataclasses."""
    if not isinstance(payload, dict):
        raise ServeError(f"config must be an object, got {type(payload).__name__}")
    unknown = set(payload) - _CONFIG_FIELDS
    if unknown:
        raise ServeError(
            f"unknown config field(s) {sorted(unknown)}; valid: {sorted(_CONFIG_FIELDS)}"
        )
    if "min_support" not in payload:
        raise ServeError("config.min_support is required")
    return MiningConfig(**payload)


def result_payload(job) -> dict:
    """JSON form of a DONE job's :class:`MiningRunResult`.

    Approximate results (``repro.core.approx``) carry an extra
    ``approx`` provenance block; its *absence* on a result served for an
    approx submission means the cache answered from the exact twin.
    """
    result = job.result
    payload = {
        "job_id": job.job_id,
        "algorithm": result.algorithm,
        "min_support": result.min_support,
        "n_transactions": result.n_transactions,
        "num_itemsets": result.num_itemsets,
        "total_seconds": result.total_seconds,
        "via": job.via,
        "itemsets": [[list(itemset), count] for itemset, count in result.itemsets.items()],
    }
    if hasattr(result, "verified_exact"):
        payload["approx"] = {
            "n_samples": result.n_samples,
            "sample_frac": result.sample_frac,
            "ratio": result.ratio,
            "seed": result.seed,
            "sample_sizes": list(result.sample_sizes),
            "candidates_verified": result.candidates_verified,
            "border_violations": [list(v) for v in result.border_violations],
            "verified_exact": result.verified_exact,
        }
    return payload


def itemsets_from_payload(payload: dict) -> dict:
    """Inverse of :func:`result_payload` for the ``itemsets`` field."""
    return {tuple(itemset): count for itemset, count in payload["itemsets"]}


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: buffer the response and send it once, when the handler returns:
    #: headers and body as two writes are two syscalls — beside a mining
    #: worker each one costs this thread a wait for the GIL — and on a
    #: kept-alive connection the second waits for the client's delayed ACK
    wbufsize = 1 << 20
    disable_nagle_algorithm = True  # same, for a body the buffer cannot hold

    @property
    def service(self) -> MiningService | ShardRouter:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    # -- plumbing ----------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # an error may answer before the request body was read: end
            # the connection rather than parse the leftovers as a request
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServeError("request body required")
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as err:
            raise ServeError(f"invalid JSON body: {err}") from err
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    def _job_or_404(self, job_id: str):
        try:
            return self.service.get(job_id)
        except ServeError:
            self._send_json(
                404, {"error": f"unknown job {job_id!r}", "code": "unknown_job"}
            )
            return None

    def _no_route(self, method: str) -> None:
        self._send_json(
            404,
            {"error": f"no route for {method} {self.path}", "code": "unknown_route"},
        )

    def _txns_from(self, payload: dict) -> list:
        transactions = payload.get("transactions")
        if not isinstance(transactions, list) or not transactions:
            raise ServeError("transactions must be a non-empty list of lists")
        return transactions

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif path == "/metrics":
            self._send_json(200, self.service.metrics())
        elif path.startswith("/jobs/"):
            self._get_job(path.removeprefix("/jobs/"), url.query)
        elif path.startswith("/results/"):
            job = self._job_or_404(path.removeprefix("/results/"))
            if job is None:
                return
            if job.state is JobState.DONE:
                self._send_json(200, result_payload(job))
            else:
                self._send_json(
                    409,
                    {
                        "error": f"job is {job.state.value}, not done",
                        "code": "not_done",
                        **job.snapshot(),
                    },
                )
        elif path.startswith("/datasets/"):
            rest = path.removeprefix("/datasets/")
            try:
                if rest.endswith("/changes") and rest.removesuffix("/changes"):
                    dataset_id = rest.removesuffix("/changes")
                    if "/" in dataset_id:
                        self._no_route("GET")
                        return
                    self._get_changes(dataset_id, url.query)
                elif rest and "/" not in rest:
                    self._send_json(200, self.service.dataset_info(rest))
                else:
                    self._no_route("GET")
            except ApiError as err:
                self._send_json(err.status, err.payload())
            except (ServeError, MiningError, TypeError, ValueError) as err:
                self._send_json(400, {"error": str(err), "code": "bad_request"})
        else:
            self._no_route("GET")

    def _get_job(self, job_id: str, query: str) -> None:
        """The job's snapshot — after blocking up to ``timeout_s`` (capped
        server-side) for it to turn terminal, when the query asks."""
        try:
            timeout_s = float(_query_params(query, _JOB_PARAMS).get("timeout_s", 0.0))
        except (ServeError, ValueError) as err:
            self._send_json(400, {"error": str(err), "code": "bad_request"})
            return
        job = self._job_or_404(job_id)
        if job is None:
            return
        if timeout_s > 0:
            job.wait(min(timeout_s, MAX_POLL_S))
        self._send_json(200, job.snapshot())

    def _get_changes(self, dataset_id: str, query: str) -> None:
        params = _query_params(query, _CHANGES_PARAMS)
        for required in ("since", "min_support"):
            if required not in params:
                raise ServeError(f"query param {required!r} is required")
        max_length = params.get("max_length")
        payload = self.service.dataset_changes(
            dataset_id,
            since=int(params["since"]),
            min_support=float(params["min_support"]),
            max_length=int(max_length) if max_length is not None else None,
            candidate_store=params.get("candidate_store"),
            timeout_s=float(params.get("timeout_s", 0.0)),
        )
        self._send_json(200, payload)

    def do_POST(self) -> None:  # noqa: N802
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path == "/jobs":
                self._post_job()
            elif path.startswith("/datasets/"):
                rest = path.removeprefix("/datasets/")
                if rest.endswith("/append") and rest.removesuffix("/append"):
                    dataset_id = rest.removesuffix("/append")
                    if "/" in dataset_id:
                        self._no_route("POST")
                        return
                    self._post_append(dataset_id)
                elif rest and "/" not in rest:
                    self._post_create(rest)
                else:
                    self._no_route("POST")
            else:
                self._no_route("POST")
        except RejectedError as err:
            # admission control / load shedding: structured 429 with a
            # machine-usable backoff hint (integer seconds per RFC 9110,
            # fractional seconds in the body)
            self._send_json(
                429,
                {**err.payload(), "code": "rejected"},
                headers={"Retry-After": str(max(1, math.ceil(err.retry_after_s)))},
            )
        except ApiError as err:
            # requests the service refused with a specific status + code
            # (unknown_dataset, dataset_exists, version_conflict...)
            self._send_json(err.status, err.payload())
        except (ServeError, MiningError, TypeError, ValueError) as err:
            # TypeError/ValueError cover malformed-but-valid-JSON payloads:
            # a string min_support tripping __post_init__'s comparison, a
            # non-numeric priority, a non-iterable transaction element hit
            # during fingerprinting — all client errors, not server faults.
            self._send_json(400, {"error": str(err), "code": "bad_request"})

    def _post_job(self) -> None:
        payload = self._read_json()
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            raise ServeError(
                f"unknown field(s) {sorted(unknown)}; "
                f"valid: {sorted(_SUBMIT_FIELDS)}"
            )
        dataset = payload.get("dataset")
        transactions = None
        if dataset is not None:
            if payload.get("transactions") is not None:
                raise ServeError("pass transactions or dataset, not both")
            if not isinstance(dataset, str) or not dataset:
                raise ServeError("dataset must be a non-empty dataset id string")
        else:
            transactions = self._txns_from(payload)
        config_payload = payload.get("config") or {}
        config = config_from_dict(config_payload)
        if payload.get("approx"):
            # top-level sugar for the fast tier: flips the config
            # knob without the client rebuilding the config object
            config = dc_replace(config, approx=True)
        submit_kwargs = dict(
            priority=int(payload.get("priority", 0)),
            timeout_s=payload.get("timeout_s"),
            max_retries=int(payload.get("max_retries", 0)),
            tenant=str(payload.get("tenant", "default")),
        )
        if dataset is not None:
            submit_kwargs["dataset_id"] = dataset
        if isinstance(self.service, ShardRouter):
            # a knob is pinned when its value is non-default or when it
            # is named here — "pinned" lets a caller force-keep a
            # default-valued knob the planner would otherwise choose
            submit_kwargs["pinned"] = set(payload.get("pinned") or ())
        job = self.service.submit(transactions, config, **submit_kwargs)
        self._send_json(200 if job.is_terminal else 202, job.snapshot())

    def _post_create(self, dataset_id: str) -> None:
        payload = self._read_json()
        unknown = set(payload) - _CREATE_FIELDS
        if unknown:
            raise ServeError(
                f"unknown field(s) {sorted(unknown)}; valid: {sorted(_CREATE_FIELDS)}"
            )
        info = self.service.create_dataset(
            dataset_id,
            self._txns_from(payload),
            replace=bool(payload.get("replace", False)),
            max_window=payload.get("max_window"),
            max_age_s=payload.get("max_age_s"),
            flush_rows=payload.get("flush_rows"),
            flush_age_s=payload.get("flush_age_s"),
        )
        self._send_json(201, info)

    def _post_append(self, dataset_id: str) -> None:
        payload = self._read_json()
        unknown = set(payload) - _APPEND_FIELDS
        if unknown:
            raise ServeError(
                f"unknown field(s) {sorted(unknown)}; valid: {sorted(_APPEND_FIELDS)}"
            )
        expected = payload.get("expected_version")
        if expected is not None:
            expected = int(expected)
        flush = bool(payload.get("flush", False))
        # flush=true with no (or an empty) delta is a pure "flush now"
        transactions = (
            self._txns_from(payload)
            if not flush or payload.get("transactions")
            else None
        )
        info = self.service.append_dataset(
            dataset_id, transactions, expected_version=expected, flush=flush
        )
        self._send_json(200, info)

    def do_DELETE(self) -> None:  # noqa: N802
        path = self.path.rstrip("/")
        if not path.startswith("/jobs/"):
            self._send_json(404, {"error": f"no route for DELETE {self.path}"})
            return
        job = self._job_or_404(path.removeprefix("/jobs/"))
        if job is not None:
            cancelled = self.service.cancel(job.job_id)
            self._send_json(200, {"job_id": job.job_id, "cancelled": cancelled})


class MiningServer:
    """A :class:`MiningService` — or a :class:`ShardRouter` over several —
    behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (read it back from ``.port``)::

        with MiningServer(port=0, n_workers=4) as server:
            client = HttpClient(server.url)
            ...

    ``shards > 1`` (or ``planner=True``) puts a :class:`ShardRouter` in
    front: consistent-hash routing by dataset fingerprint, per-shard
    bounded queues with 429s, spill-over, and optional cost-based
    planning::

        with MiningServer(port=0, shards=4, queue_limit=16, planner=True):
            ...

    The server owns its service unless one is passed in (which may be a
    ``MiningService`` or a ``ShardRouter``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: MiningService | ShardRouter | None = None,
        quiet: bool = True,
        shards: int = 1,
        queue_limit: int | None = None,
        planner: bool | CostPlanner = False,
        **service_kwargs,
    ):
        self._owns_service = service is None
        if service is None:
            if shards > 1 or planner:
                if queue_limit is not None:
                    service_kwargs["queue_limit"] = queue_limit  # else router default
                service = ShardRouter(
                    n_shards=max(1, shards),
                    planner=(
                        planner if isinstance(planner, CostPlanner)
                        else CostPlanner() if planner else None
                    ),
                    **service_kwargs,
                )
            else:
                service = MiningService(queue_limit=queue_limit, **service_kwargs)
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.quiet = quiet  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MiningServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI path)."""
        try:
            self._serving = True
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._serving:
            self._serving = False
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_service:
            self.service.shutdown()

    def __enter__(self) -> "MiningServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "MiningServer",
    "config_from_dict",
    "itemsets_from_payload",
    "result_payload",
]
