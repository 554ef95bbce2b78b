"""The client of the mining service: one contract, two transports.

:class:`Client` is the serve protocol as Python methods.  Its 1:1 verbs
are generated from :data:`repro.serve.api.OPERATIONS` (one per row:
path arguments, then the row's wire names), and its sugar — ``status``,
``cancel`` → bool, ``wait``, ``result`` → ``{tuple: count}``, a blocking
``mine`` that backs off on a 429 — and the refusal → exception mapping
are written once over ``_request(method, path, payload) -> dict``.  What
a subclass adds is only how one request reaches a server:

* :class:`HttpClient` sends it down a kept-alive socket to a running
  :class:`~repro.serve.http.MiningServer`;
* :class:`LocalClient` hands it to :func:`repro.serve.http.dispatch` on a
  router (or bare service) in this process — the handler's own decode →
  call → render → error ladder, minus the socket and the JSON text.

So both return the same dicts and raise the same :class:`ApiError` /
:class:`RejectedError` for the same call, and a test or benchmark swaps
one for the other.  The client *is* the wire contract: an embedded
caller that wants live :class:`~repro.serve.jobs.Job` objects or the
full ``MiningRunResult`` already holds the service or router —
``svc.submit(...) -> Job``.
"""

from __future__ import annotations

import http.client
import inspect
import json
import threading
import time
from urllib.parse import urlsplit

from repro.core.registry import MiningConfig
from repro.serve.api import BY_DATASET, OPERATIONS, Operation, encode_request
from repro.serve.http import MAX_BODY_BYTES, dispatch, itemsets_from_payload
from repro.serve.jobs import (
    MAX_POLL_S,
    ApiError,
    JobState,
    RejectedError,
    ServeError,
    TERMINAL_STATES,
)

#: job states (as strings) in which polling should stop
TERMINAL_STATE_VALUES = frozenset(s.value for s in TERMINAL_STATES)

#: connection-level failures worth retrying: the server is starting,
#: restarting, or briefly shedding its listen backlog
_TRANSIENT_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)

#: the payload arguments: positional, in this order, on every verb
#: whose row takes them
_POSITIONAL = ("transactions", "config")

#: a row's verb is named after the row, except the three whose answer the
#: sugar dresses up (generated private, wrapped below) or renames
_VERB_NAMES = {"wait": "_wait", "cancel": "_cancel", "result": "result_detail"}


def _verb(op: Operation, name: str):
    """The client method for one row of the protocol table: its path
    arguments, then the payload arguments, then every other field
    keyword-only under its *wire* name.  An argument not passed is not
    sent, so the server's own default applies."""
    keywords = {f.wire: f.name for f in op.fields}
    leading = [*op.path_names, *(w for w in _POSITIONAL if w in keywords)]
    param = inspect.Parameter
    signature = inspect.Signature(
        [param(n, param.POSITIONAL_OR_KEYWORD) for n in ("self", *leading)]
        + [
            param(f.wire, param.KEYWORD_ONLY, default=param.empty if f.required else None)
            for f in op.fields
            if f.wire not in leading
        ]
    )

    def verb(self, *args, **kwargs) -> dict:
        given = signature.bind(self, *args, **kwargs).arguments  # TypeError, as a def would
        del given["self"]
        return self._request(
            *encode_request(op.name, **{keywords.get(w, w): v for w, v in given.items()})
        )

    owner = "DatasetRegistry" if op.route == BY_DATASET else "MiningService"
    verb.__name__ = name
    verb.__qualname__ = f"Client.{name}"
    verb.__signature__ = signature
    verb.__doc__ = (
        f"``{op.method} {op.path}``: the answer's JSON payload.  Arguments "
        f"as on ``{owner}.{op.call}``; one left out is left to the server."
    )
    return verb


class Client:
    """The serve protocol over ``_exchange`` (see the module docstring)."""

    #: the floor between two status reads of :meth:`wait`
    poll_interval_s = 0.05

    # -- transport ---------------------------------------------------------
    def _exchange(self, method: str, path: str, payload: dict | None):
        """Carry one request to the server: ``(status, JSON payload,
        response headers)`` — the one method a transport implements."""
        raise NotImplementedError

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One request: the answer's payload, or the refusal raised."""
        status, answer, headers = self._exchange(method, path, payload)
        if status < 400:
            return answer
        summary = f"{method} {path} -> HTTP {status}: {answer.get('error', '')}"
        if status == 429:
            retry_after = answer.get("retry_after_s")
            if retry_after is None:
                try:
                    retry_after = float(headers.get("Retry-After"))
                except (TypeError, ValueError):
                    retry_after = 1.0
            raise RejectedError(
                summary,
                retry_after_s=float(retry_after),
                scope=answer.get("scope", "server"),
                shard=answer.get("shard"),
                queue_depth=answer.get("queue_depth"),
                queue_limit=answer.get("queue_limit"),
            )
        # structured client error: re-raise with the server's code
        # so callers branch on ``err.code`` ("version_conflict",
        # "unknown_dataset"...) instead of parsing message prose
        raise ApiError(summary, status=status, code=answer.get("code", "error"))

    # -- sugar over the generated verbs ------------------------------------
    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: the job's snapshot, now.  ``job_id`` goes
        into the path as given, so it may carry the route's query string
        (:meth:`wait` asks for ``<id>?timeout_s=<s>``)."""
        return self._wait(job_id)

    def cancel(self, job_id: str) -> bool:
        return bool(self._cancel(job_id).get("cancelled"))

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal; returns the final snapshot.

        Each status read long-polls (``GET /jobs/<id>?timeout_s=<s>``):
        the server answers when the job turns terminal, or after the
        time asked (it caps one wait at ``MAX_POLL_S``), so a finished
        job is seen when it finishes and not at the next poll tick.
        ``poll_interval_s`` is only the floor between two reads when a
        non-terminal answer came back early.  A 429 on a read (a
        rate-limited server) is not fatal: the loop honours the
        ``Retry-After`` hint and keeps going until the deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def poll() -> dict:
            wait_s = MAX_POLL_S
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - time.monotonic()))
            # every poll is one ``status(<one argument>)`` call: the
            # argument is what follows "/jobs/" in the encoded request
            path = encode_request("wait", job_id=job_id, timeout=wait_s)[1]
            return self.status(path.rpartition("/")[2])

        while True:
            asked = time.monotonic()
            snapshot = self._past_429s(poll, deadline)
            if snapshot["state"] in TERMINAL_STATE_VALUES:
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            early = self.poll_interval_s - (time.monotonic() - asked)
            if early > 0:
                time.sleep(early)

    @staticmethod
    def _past_429s(call, deadline: float | None):
        """``call()``'s answer — asked again after the server's hint for
        as long as it is refused with a 429 and ``deadline`` allows
        (then the last :class:`RejectedError` propagates)."""
        while True:
            try:
                return call()
            except RejectedError as err:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                sleep_s = max(0.01, err.retry_after_s)
                if deadline is not None:
                    sleep_s = min(sleep_s, max(0.0, deadline - time.monotonic()))
                time.sleep(sleep_s)

    def result(self, job_id: str) -> dict:
        """The job's itemsets as ``{tuple(items): count}`` (raises unless DONE)."""
        return itemsets_from_payload(self.result_detail(job_id))

    def mine(
        self,
        transactions,
        config: MiningConfig | dict,
        timeout: float | None = None,
        **submit_kwargs,
    ) -> dict:
        """Submit, poll to completion, return the itemsets mapping.

        When admission control rejects the submit with a 429, back off
        for the server's ``Retry-After`` and resubmit, until ``timeout``
        runs out (then the last :class:`RejectedError` propagates).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        snapshot = self._past_429s(
            lambda: self.submit(transactions, config, **submit_kwargs), deadline
        )
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        final = self.wait(snapshot["job_id"], remaining)
        if final["state"] != JobState.DONE.value:
            raise ServeError(
                f"job {final['job_id']} ended {final['state']}: {final.get('error')}"
            )
        return self.result(final["job_id"])


for _op in OPERATIONS:
    _name = _VERB_NAMES.get(_op.name, _op.name)
    setattr(Client, _name, _verb(_op, _name))


class LocalClient(Client):
    """The client with no socket: every request runs the HTTP handler's
    own :func:`~repro.serve.http.dispatch` on ``service`` — a
    :class:`~repro.serve.router.ShardRouter` or a bare
    :class:`~repro.serve.service.MiningService` in this process.  The
    answer is decoded from the JSON text it would be sent as: a payload
    rendered for the encoder (tuples, say), or a result's kept text, comes
    back as the socket transport decodes it."""

    def __init__(self, service):
        self.service = service

    def _exchange(self, method: str, path: str, payload: dict | None):
        status, answer, headers = dispatch(self.service, method, path, payload)
        text = answer if isinstance(answer, str) else json.dumps(answer)
        return status, json.loads(text), headers


class HttpClient(Client):
    """JSON-over-HTTP transport to a running :class:`MiningServer`.

    Transient connection failures (refused/reset while the server starts
    or restarts) are retried with capped exponential backoff
    (``connect_retries`` attempts, ``retry_backoff_s`` doubling up to
    ``max_backoff_s``).  Each thread that uses the client keeps ONE
    connection open and sends every request down it: an op is three
    requests (submit, wait, result), and a connection per request costs
    the server an accept and a new handler thread each time — beside a
    mining worker, several waits for the GIL.
    """

    def __init__(
        self,
        base_url: str,
        poll_interval_s: float = Client.poll_interval_s,
        connect_retries: int = 4,
        retry_backoff_s: float = 0.1,
        max_backoff_s: float = 2.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.poll_interval_s = poll_interval_s
        self.connect_retries = connect_retries
        self.retry_backoff_s = retry_backoff_s
        self.max_backoff_s = max_backoff_s
        url = urlsplit(self.base_url)
        self._connect = (
            http.client.HTTPSConnection if url.scheme == "https"
            else http.client.HTTPConnection
        )
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()  # .connection: this thread's

    def _exchange(self, method: str, path: str, payload: dict | None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        if body and len(body) > MAX_BODY_BYTES:
            # the server's own answer, given here: it refuses this length
            # unread and hangs up, so a send that long dies of the reset
            # and would be retried below as a server that is restarting
            return 413, {
                "error": f"request body of {len(body)} bytes exceeds {MAX_BODY_BYTES}",
                "code": "payload_too_large",
            }, {}
        headers = {"Content-Type": "application/json"} if body else {}
        attempt = 0
        while True:
            conn = getattr(self._local, "connection", None)
            reused = conn is not None
            if conn is None:
                conn = self._local.connection = self._connect(
                    *self._address, timeout=30
                )
            try:
                conn.request(method, self._prefix + path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError) as err:
                conn.close()
                self._local.connection = None
                transient = isinstance(err, _TRANSIENT_CONNECT_ERRORS)
                if reused and transient:
                    continue  # the server dropped an idle connection: reconnect
                if transient and attempt < self.connect_retries:
                    time.sleep(
                        min(self.max_backoff_s, self.retry_backoff_s * (2**attempt))
                    )
                    attempt += 1
                    continue
                raise ServeError(f"cannot reach {self.base_url}: {err}") from err
            if response.status < 400:
                return response.status, json.loads(data), response.headers
            try:
                answer = json.loads(data)
            except ValueError:
                answer = None
            if not isinstance(answer, dict):  # not this server's body: best effort
                answer = {"error": response.reason}
            return response.status, answer, response.headers
