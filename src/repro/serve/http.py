"""Stdlib HTTP front-end for the mining service.

JSON over ``http.server`` — no third-party dependencies.  The routes,
their arguments and the validation of both are one table,
:data:`repro.serve.api.OPERATIONS` (argument by argument; semantics in
``docs/serving.md``); :func:`dispatch` matches a request to its row,
calls the row's implementation on the backend (the server's
:class:`~repro.serve.router.ShardRouter`) and renders the answer or the
refusal — the one place a request becomes a call and an exception
becomes a status.  The socket handler runs it on the bytes it read;
:class:`~repro.serve.client.LocalClient` runs it on the payload it would
have sent, so both transports answer alike by construction:

======================================  =====================================
``POST /jobs``                          submit ``transactions`` or a named
                                        ``dataset`` + ``config`` → 202 with
                                        the job snapshot (200 when memoized;
                                        429 + ``Retry-After`` when admission
                                        control or load shedding rejects)
``GET /jobs/{job_id}``                  lifecycle snapshot; ``?timeout_s=<s>``
                                        long-polls (server cap 25 s) for the
                                        job to turn terminal (410
                                        ``job_expired`` once the shard no
                                        longer retains the finished job)
``DELETE /jobs/{job_id}``               cancel (queued or running)
``GET /results/{job_id}``               mined itemsets once DONE (409
                                        ``not_done`` while in flight)
``POST /datasets/{dataset_id}``         register a named, versioned dataset
                                        with its window / ingest policies
                                        (409 ``dataset_exists``)
``POST /datasets/{dataset_id}/append``  append (or stage, or flush) a delta:
                                        new version, stale results dropped
                                        (409 ``version_conflict`` /
                                        ``dataset_retired``)
``GET /datasets/{dataset_id}``          version, size, fingerprint, policies
``GET /datasets/{dataset_id}/changes``  the change feed: family diff since
                                        ``?since=<version>``, long-polled
``GET /healthz``                        liveness, shard and worker counts
``GET /metrics``                        router counters, the ring, per-shard
                                        service metrics
======================================  =====================================

A ``{job_id}`` / ``{dataset_id}`` path segment is percent-decoded whole:
an id is data, whatever characters it holds.  Every error response
carries a machine-usable ``code`` next to the human ``error`` message
(``bad_request``, ``unknown_job``, ``job_expired``, ``unknown_dataset``,
``dataset_exists``, ``version_conflict``, ``dataset_retired``,
``not_done``, ``rejected``, ``unknown_route``, ``payload_too_large``) —
the client (:mod:`repro.serve.client`, either transport) re-raises them
as :class:`~repro.serve.jobs.ApiError` so callers branch on the code,
not on message prose.  A request that declares a body over
:data:`MAX_BODY_BYTES` is answered 413 without the body being read.

``MiningServer`` runs the whole stack in-process on an ephemeral port —
the tests use it; ``repro serve`` keeps it in the foreground.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.errors import MiningError
from repro.serve.api import Operation, config_from_dict, decode_request
from repro.serve.jobs import ApiError, Job, JobState, RejectedError, ServeError
from repro.serve.planner import CostPlanner
from repro.serve.router import ShardRouter


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


def _answer(op: Operation, kwargs: dict, out) -> tuple[int, dict]:
    """``(status, JSON body)`` for what ``op``'s implementation returned."""
    if op.name == "cancel":
        return op.status, {"job_id": kwargs["job_id"], "cancelled": out}
    if not isinstance(out, Job):
        return op.status, out
    if op.name == "result":
        if out.state is JobState.DONE:
            return op.status, result_payload(out)
        return 409, {
            "error": f"job is {out.state.value}, not done",
            "code": "not_done",
            **out.snapshot(),
        }
    # a submit answered from the result cache is complete, not accepted
    return (200 if out.is_terminal else op.status), out.snapshot()


#: the largest request body the handler reads, in bytes.  A full-scale
#: T10I4D100K submit is ~6 MB of JSON; a body the size of a shard's whole
#: default dataset-cache budget could never be kept warm anyway.
MAX_BODY_BYTES = 64 * 1024 * 1024


def dispatch(backend, method: str, raw_path: str, body) -> tuple[int, dict, dict]:
    """One request against ``backend`` (a router, or a bare service):
    decode it against the protocol table, call the operation, render —
    under the one exception -> status ladder.  ``body`` is what
    :func:`~repro.serve.api.decode_request` takes: the request's bytes,
    or the payload itself from an in-process caller.  Returns ``(status,
    JSON payload, extra response headers)``."""
    headers: dict = {}
    try:
        op, kwargs = decode_request(method, raw_path, body)
        out = getattr(backend, op.call)(**kwargs)
        status, payload = _answer(op, kwargs, out)
    except RejectedError as err:
        # admission control / load shedding: structured 429 with a
        # machine-usable backoff hint (integer seconds per RFC 9110,
        # fractional seconds in the body)
        status, payload = 429, {**err.payload(), "code": "rejected"}
        headers["Retry-After"] = str(max(1, math.ceil(err.retry_after_s)))
    except ApiError as err:
        # refused with a specific status + code (unknown_route,
        # unknown_job, unknown_dataset, version_conflict...)
        status, payload = err.status, err.payload()
    except (ServeError, MiningError, TypeError, ValueError) as err:
        # TypeError/ValueError cover malformed-but-valid-JSON payloads
        # the codec cannot see through: a string min_support tripping
        # __post_init__'s comparison, a non-iterable transaction
        # element hit during fingerprinting — all client errors, not
        # server faults.
        status, payload = 400, {"error": str(err), "code": "bad_request"}
    return status, payload, headers


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: buffer the response and send it once, when the handler returns:
    #: headers and body as two writes are two syscalls — beside a mining
    #: worker each one costs this thread a wait for the GIL — and on a
    #: kept-alive connection the second waits for the client's delayed ACK
    wbufsize = 1 << 20
    disable_nagle_algorithm = True  # same, for a body the buffer cannot hold

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # an error may answer with part of the request unread: end
            # the connection rather than parse the leftovers as a request
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _handle(self) -> None:
        """Every request: read the body the headers declare (refusing one
        that is malformed or too large unread), then :func:`dispatch`."""
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            answer = 400, {"error": f"bad Content-Length {length[:40]!r}", "code": "bad_request"}
        elif len(length.lstrip("0")) > len(str(MAX_BODY_BYTES)) or int(length) > MAX_BODY_BYTES:
            # by its digit count first: int() itself refuses a few thousand
            answer = 413, {
                "error": f"declared request body exceeds {MAX_BODY_BYTES} bytes",
                "code": "payload_too_large",
            }
        else:
            answer = dispatch(
                self.server.service,  # type: ignore[attr-defined]
                self.command, self.path, self.rfile.read(int(length)),
            )
        self._send_json(*answer)

    do_GET = do_POST = do_DELETE = _handle  # the names http.server looks up


class MiningServer:
    """A :class:`ShardRouter` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (read it back from ``.port``)::

        with MiningServer(port=0, n_workers=4) as server:
            client = HttpClient(server.url)
            ...

    Every server has the one shape: ``shards`` :class:`MiningService`
    shards (default 1) behind consistent-hash routing by dataset
    fingerprint, each with ``n_workers`` workers and a queue bounded at
    ``queue_limit`` (default 32, ``None`` = unbounded) that answers 429
    when full, spill-over between shards, and optional cost-based
    planning::

        with MiningServer(port=0, shards=4, queue_limit=16, planner=True):
            ...

    The server owns its router unless one is passed in as ``service``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: ShardRouter | None = None,
        quiet: bool = True,
        shards: int = 1,
        queue_limit: int | None = 32,
        planner: bool | CostPlanner = False,
        **service_kwargs,
    ):
        self._owns_service = service is None
        # The router first, the socket after: every shard forks its job
        # workers in its constructor, while this process has one thread,
        # and a worker forked after the bind would hold the listening
        # socket.  (Handler and worker threads only start with requests.)
        if service is None:
            if planner is True:
                planner = CostPlanner()
            service = ShardRouter(
                n_shards=shards, queue_limit=queue_limit, planner=planner or None,
                **service_kwargs,
            )
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
