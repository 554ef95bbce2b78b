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
``not_done``, ``rejected``, ``unknown_route``, ``payload_too_large``,
``incomplete_body``) —
the client (:mod:`repro.serve.client`, either transport) re-raises them
as :class:`~repro.serve.jobs.ApiError` so callers branch on the code,
not on message prose.  A request that declares a body over
:data:`MAX_BODY_BYTES` is answered 413 without the body being read; one
whose body stops short of the length it declared — the client hung up,
or had not sent it all by the handler's deadline for the body — is
answered 400 / 408 ``incomplete_body`` and its connection closed.

A byte-identical resubmission is recognised by the digest of its body
(:class:`RepeatMemo`, the socket transport's), and every answer is sent
as the JSON text its result was rendered to when it was produced
(:func:`result_text`) — a change-feed diff as the text its first reader
rendered (:class:`~repro.serve.datasets.FeedAnswer`).

``MiningServer`` runs the whole stack in-process on an ephemeral port —
the tests use it; ``repro serve`` keeps it in the foreground.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import signal
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.errors import MiningError
from repro.serve.api import BY_NAME, Operation, config_from_dict, decode_request
from repro.serve.datasets import FeedAnswer
from repro.serve.jobs import (
    ApiError,
    Job,
    JobState,
    RejectedError,
    RowsNotResident,
    ServeError,
)
from repro.serve.planner import CostPlanner
from repro.serve.router import ShardRouter


def result_text(job) -> str:
    """The ``GET /results/{id}`` body of a DONE job: the payload's head
    and, as its last field, the ``itemsets`` text the result keeps
    (:class:`~repro.serve.jobs.KeptItemsets`) — ``json.dumps`` of the
    whole payload, byte for byte, with nothing rendered or decoded here."""
    result = job.result
    head = json.dumps({
        "job_id": job.job_id,
        "algorithm": result.algorithm,
        "min_support": result.min_support,
        "n_transactions": result.n_transactions,
        "num_itemsets": result.num_itemsets,
        "total_seconds": result.total_seconds,
        "via": job.via,
    })
    return f'{head[:-1]}, "itemsets": {result.itemsets.text}}}'


def itemsets_from_payload(payload: dict) -> dict:
    """``{tuple(items): count}`` of a decoded :func:`result_text`."""
    return {tuple(itemset): count for itemset, count in payload["itemsets"]}


_SUBMIT = BY_NAME["submit"]

#: request bodies a :class:`RepeatMemo` recognises (least recently seen
#: out first).  An entry is a digest, a config and a few scalars — well
#: under 1 KiB — and never the rows
REMEMBERED_BODIES = 1024


class RepeatMemo:
    """The request bodies the socket transport has decoded, so that a
    repeat is not decoded again.

    ``sha256(body)`` of an accepted ``POST /jobs`` maps
    to the keywords :func:`~repro.serve.api.decode_request` made of it —
    **minus ``transactions``** — plus the fingerprint the job was placed
    by.  :func:`dispatch` submits a recognised body as ``transactions=None,
    fingerprint=...`` ("the rows you already hold"), down the same ladder:
    no JSON parse, no row check, no fingerprint.  The rows stay with their
    one owner, the shard's ``DatasetCache``; this holds none.  A body is
    remembered only once the full path accepted it — never a refused one,
    never a ``dataset=`` submit (its rows are the dataset's current
    version, not the body's).

    Answers need no memo: a result holds its itemsets as the text it is
    sent as, whoever fetches it (:func:`result_text`).  Only the socket
    transport has bytes to digest, so only :class:`MiningServer` makes
    one; ``/metrics`` reports :meth:`stats` — with ``results_sent``, the
    results it answered — as ``router.http``.
    """

    def __init__(self):
        self._lock = threading.Lock()  # the bodies' LRU order and the counters
        self._bodies: OrderedDict[bytes, tuple[dict, str]] = OrderedDict()
        self.bodies_recognised = 0
        self.bodies_remembered = 0
        self.fallbacks_not_resident = 0
        self.results_sent = 0

    def recall(self, method: str, raw_path: str, body) -> dict | None:
        """The submit keywords of a body seen before, else ``None``."""
        if method != _SUBMIT.method or raw_path != _SUBMIT.path:
            return None
        digest = hashlib.sha256(body).digest()
        with self._lock:
            known = self._bodies.get(digest)
            if known is None:
                return None
            self._bodies.move_to_end(digest)
            self.bodies_recognised += 1
        kwargs, fingerprint = known
        return {**kwargs, "transactions": None, "fingerprint": fingerprint}

    def remember(self, body: bytes, kwargs: dict, job: Job) -> None:
        """``body`` was decoded to ``kwargs`` and accepted as ``job``."""
        if kwargs.get("transactions") is None:
            return  # a named dataset's job
        kept = {k: v for k, v in kwargs.items() if k != "transactions"}
        with self._lock:
            self._bodies[hashlib.sha256(body).digest()] = kept, job.dataset_fingerprint
            self.bodies_remembered += 1
            while len(self._bodies) > REMEMBERED_BODIES:
                self._bodies.popitem(last=False)

    def clear(self) -> None:
        """Forget every body (the counters stay): the next request is
        decoded in full."""
        with self._lock:
            self._bodies.clear()

    def fell_back(self) -> None:
        with self._lock:
            self.fallbacks_not_resident += 1

    def sent_result(self) -> None:
        with self._lock:
            self.results_sent += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "bodies_recognised": self.bodies_recognised,
                "bodies_remembered": self.bodies_remembered,
                "fallbacks_not_resident": self.fallbacks_not_resident,
                "results_sent": self.results_sent,
            }


def _answer(op: Operation, kwargs: dict, out, memo: RepeatMemo | None):
    """``(status, JSON body)`` for what ``op``'s implementation returned."""
    if op.name == "cancel":
        return op.status, {"job_id": kwargs["job_id"], "cancelled": out}
    if isinstance(out, FeedAnswer):
        return op.status, out.text  # the head, then the rows as the feed keeps them
    if not isinstance(out, Job):
        if memo is not None and op.name == "metrics":
            out["router"]["http"] = memo.stats()
        return op.status, out
    if op.name == "result":
        if out.state is JobState.DONE:
            if memo is not None:
                memo.sent_result()
            return op.status, result_text(out)
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


def dispatch(
    backend, method: str, raw_path: str, body, memo: RepeatMemo | None = None
) -> tuple[int, dict | str, dict]:
    """One request against ``backend`` (a router, or a bare service):
    decode it against the protocol table, call the operation, render —
    under the one exception -> status ladder.  ``body`` is what
    :func:`~repro.serve.api.decode_request` takes: the request's bytes,
    or the payload itself from an in-process caller.  Returns ``(status,
    JSON payload, extra response headers)``.

    A DONE job's result and a change-feed answer come back as the
    payload's JSON text, ready to send.  ``memo`` is the socket transport's
    :class:`RepeatMemo` (``body`` is bytes then): a submit body it
    recognises is submitted without being decoded — and decoded after
    all when the shard no longer holds its rows — and an accepted one is
    remembered."""
    headers: dict = {}
    try:
        out = None
        kwargs = memo.recall(method, raw_path, body) if memo is not None else None
        if kwargs is not None:
            op = _SUBMIT
            try:
                out = backend.submit(**kwargs)
            except RowsNotResident:
                memo.fell_back()
        if out is None:
            op, kwargs = decode_request(method, raw_path, body)
            out = getattr(backend, op.call)(**kwargs)
            if memo is not None and op is _SUBMIT:
                memo.remember(body, kwargs, out)
        status, payload = _answer(op, kwargs, out, memo)
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
    #: seconds a request may take to arrive, all of it from its first
    #: byte (:class:`_RequestReader`), and a write or an idle kept-alive
    #: connection may block: a client that stalls or trickles anywhere in
    #: a request gives its handler thread back.  Above the client's own
    #: 30 s; a long-poll blocks in the service, not on the socket
    timeout = 60.0

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send_json(
        self, status: int, payload: dict | str, headers: dict | None = None
    ) -> None:
        """``payload``, or the JSON text :func:`dispatch` already made of it."""
        text = payload if isinstance(payload, str) else json.dumps(payload)
        body = text.encode("utf-8")
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
            declared = int(length)
            body = self._read_body(declared)
            if body is None or len(body) < declared:
                # stalled (408) or hung up (400) mid-body: nothing was decoded,
                # digested or remembered, and whatever else arrives on this
                # connection is not a request
                answer = (408 if body is None else 400), {
                    "error": f"request body ended before the {declared} bytes declared",
                    "code": "incomplete_body",
                }
            else:
                answer = dispatch(
                    self.server.service,  # type: ignore[attr-defined]
                    self.command, self.path, body,
                    self.server.memo,  # type: ignore[attr-defined]
                )
        self._send_json(*answer)

    def _read_body(self, declared: int) -> bytes | None:
        """The body, by the request's deadline.  None when the deadline
        passed (or the connection broke); short when the client hung up."""
        try:
            return self.rfile.read(declared)
        except OSError:  # the deadline passed, or the connection broke
            return None

    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self._requests = _RequestReader(self.connection, self.timeout)
        self.rfile = io.BufferedReader(self._requests)

    def handle_one_request(self) -> None:
        self._requests.deadline = None  # this request's clock starts at its first byte
        super().handle_one_request()

    do_GET = do_POST = do_DELETE = _handle  # the names http.server looks up


class _RequestReader(io.RawIOBase):
    """A handler's socket as its request reader sees it: every read of
    one request — request line, headers and body alike — is due by one
    deadline, ``timeout`` seconds after the request's first byte.  A
    client that trickles a byte per read is cut off like one that
    stalls (``TimeoutError``: http.server drops the connection while
    reading the head, the handler answers 408 for the body), and a
    kept-alive connection still waits ``timeout`` for its next request.
    """

    def __init__(self, sock, timeout: float):
        self._sock = sock
        self._timeout = timeout
        self.deadline: float | None = None

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.deadline is not None:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("request not received by its deadline")
            self._sock.settimeout(left)
        try:
            got = self._sock.recv_into(buffer)
        finally:
            self._sock.settimeout(self._timeout)  # writes keep the per-call timeout
        if self.deadline is None and got:
            self.deadline = time.monotonic() + self._timeout
        return got


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
    when full, spill-over between shards, and an optional planner::

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
        self.memo = self._httpd.memo = RepeatMemo()  # type: ignore[attr-defined]
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
        """Serve on the calling (main) thread: the ``repro serve`` CLI path.

        Ctrl-C closes the server, running jobs drained.  SIGTERM does not
        wait for them: the job workers are killed and their temporary
        directories removed, and then the process ends by that signal.
        Whoever sees it exit finds nothing of it left, running or in its
        ``TMPDIR`` — which they may be about to remove.
        """
        signal.signal(signal.SIGTERM, _raise_terminated)
        terminated = False
        try:
            self._serving = True
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        except _Terminated:
            terminated = True
        finally:
            self.close(wait=not terminated)
        if terminated:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

    def close(self, wait: bool = True) -> None:
        """Stop serving and shut the owned router down (``wait``: running
        jobs drained first; else their job workers are killed at once)."""
        if self._serving:
            self._serving = False
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_service:
            self.service.shutdown(wait)

    def __enter__(self) -> "MiningServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class _Terminated(BaseException):
    """SIGTERM, raised on the main thread to unwind ``serve_forever``."""


def _raise_terminated(_signum, _frame) -> None:
    raise _Terminated


__all__ = [
    "MiningServer",
    "RepeatMemo",
    "config_from_dict",
    "itemsets_from_payload",
    "result_text",
]
