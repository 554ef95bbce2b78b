"""Clients for the mining service: in-process and over HTTP.

:class:`LocalClient` talks to a :class:`~repro.serve.service.MiningService`
directly (zero serialization — the embedded deployment); :class:`HttpClient`
speaks the JSON protocol of :mod:`repro.serve.http` with nothing beyond
``http.client``.  Both expose the operations of
:data:`repro.serve.api.OPERATIONS` (``submit`` / ``status`` / ``result``
/ ``wait`` / ``cancel`` and the dataset verbs) plus a blocking ``mine``
convenience that round-trips one request, so tests and benchmarks can
swap transports.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from repro.core.registry import MiningConfig
from repro.serve.api import OPERATIONS, encode_request
from repro.serve.jobs import (
    MAX_POLL_S,
    ApiError,
    JobState,
    RejectedError,
    ServeError,
    TERMINAL_STATES,
)
from repro.serve.service import MiningService

#: job states (as strings) in which polling should stop
TERMINAL_STATE_VALUES = frozenset(s.value for s in TERMINAL_STATES)

#: what ``LocalClient`` passes straight to its backend
_BACKEND_CALLS = frozenset(op.call for op in OPERATIONS)

#: connection-level failures worth retrying: the server is starting,
#: restarting, or briefly shedding its listen backlog
_TRANSIENT_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


class LocalClient:
    """In-process client: thin sugar over a service (or router) you
    already hold.  Only the verbs whose behaviour differs from the
    backend's are spelled out; every other operation of the protocol
    table is the backend's own method, arguments untouched."""

    def __init__(self, service: MiningService):
        self.service = service

    def __getattr__(self, name: str):
        if name in _BACKEND_CALLS:
            return getattr(self.service, name)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def status(self, job_id: str) -> dict:
        return self.service.get(job_id).snapshot()

    def wait(self, job_id: str, timeout: float | None = None):
        job = self.service.wait(job_id, timeout)
        if not job.is_terminal:
            raise ServeError(f"job {job_id} still {job.state.value} after {timeout}s")
        return job

    def result(self, job_id: str) -> dict:
        """The job's mined itemsets (raises unless DONE)."""
        job = self.service.get(job_id)
        if job.state is not JobState.DONE:
            raise ServeError(f"job {job_id} is {job.state.value}, not done")
        return dict(job.result.itemsets)

    def mine(self, transactions, config: MiningConfig, timeout: float | None = None):
        """Submit, wait, and return the full :class:`MiningRunResult`."""
        job = self.wait(self.submit(transactions, config).job_id, timeout)
        if job.state is not JobState.DONE:
            raise ServeError(f"job {job.job_id} ended {job.state.value}: {job.error}")
        return job.result


class HttpClient:
    """JSON-over-HTTP client for a running :class:`MiningServer`.

    Transient connection failures (refused/reset while the server starts
    or restarts) are retried with capped exponential backoff
    (``connect_retries`` attempts, ``retry_backoff_s`` doubling up to
    ``max_backoff_s``).  Each thread that uses the client keeps ONE
    connection open and sends every request down it: an op is three
    requests (submit, wait, result), and a connection per request costs
    the server an accept and a new handler thread each time — beside a
    mining worker, several waits for the GIL.  A 429 rejection raises
    :class:`~repro.serve.jobs.RejectedError` carrying the server's
    ``Retry-After`` hint, which :meth:`mine` honours by backing off and
    resubmitting until its deadline.
    """

    def __init__(
        self,
        base_url: str,
        poll_interval_s: float = 0.05,
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

    # -- transport ---------------------------------------------------------
    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
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
                return json.loads(data)
            try:
                detail_payload = json.loads(data)
                detail = detail_payload.get("error", "")
            except (ValueError, AttributeError):  # best-effort error body
                detail_payload, detail = {}, ""
            summary = f"{method} {path} -> HTTP {response.status}: {detail or response.reason}"
            if response.status == 429:
                retry_after = detail_payload.get("retry_after_s")
                if retry_after is None:
                    try:
                        retry_after = float(response.getheader("Retry-After"))
                    except (TypeError, ValueError):
                        retry_after = 1.0
                raise RejectedError(
                    summary,
                    retry_after_s=float(retry_after),
                    scope=detail_payload.get("scope", "server"),
                    shard=detail_payload.get("shard"),
                    queue_depth=detail_payload.get("queue_depth"),
                    queue_limit=detail_payload.get("queue_limit"),
                )
            # structured client error: re-raise with the server's code
            # so callers branch on ``err.code`` ("version_conflict",
            # "unknown_dataset"...) instead of parsing message prose
            raise ApiError(
                summary, status=response.status, code=detail_payload.get("code", "error")
            )

    # -- verbs -------------------------------------------------------------
    def _call(self, operation: str, **kwargs) -> dict:
        return self._request(*encode_request(operation, **kwargs))

    def healthz(self) -> dict:
        return self._call("healthz")

    def metrics(self) -> dict:
        return self._call("metrics")

    def submit(
        self,
        transactions,
        config: MiningConfig | dict,
        *,
        priority: int = 0,
        timeout_s: float | None = None,
        max_retries: int = 0,
        retry_backoff_s: float | None = None,
        tenant: str = "default",
        pinned=(),
        approx: bool = False,
        dataset: str | None = None,
    ) -> dict:
        """POST the job; returns the server's job snapshot (``job_id`` etc.).

        ``approx=True`` requests the sampling fast tier without touching
        the config object (equivalent to ``config.approx = True``).
        ``dataset`` names a registered dataset instead of shipping raw
        ``transactions`` (pass ``transactions=None``): the job runs on
        the dataset's current version, server-side.
        ``pinned`` names default-valued knobs the server's planner must
        leave alone (a no-op on a server started without ``--planner``).
        Raises :class:`RejectedError` on a 429 (queue full / load shed);
        its ``retry_after_s`` says how long to back off before retrying.
        """
        if approx and isinstance(config, MiningConfig) and not config.approx:
            # flip the flag before serializing: canonical() only
            # carries the sampling knobs on approx configs, so setting
            # it server-side would lose any non-default knob values
            config = dataclasses.replace(config, approx=True)
        return self._call(
            "submit", config=config, priority=priority, timeout_s=timeout_s,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s, tenant=tenant,
            dataset_id=dataset, transactions=None if dataset is not None else transactions,
            pinned=pinned or None, approx=approx or None,
        )

    def create_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        replace: bool = False,
        max_window: int | None = None,
        max_age_s: float | None = None,
        flush_rows: int | None = None,
        flush_age_s: float | None = None,
    ) -> dict:
        """``POST /datasets/<id>``: register a named, versioned dataset.

        ``max_window`` / ``max_age_s`` bound the window (oldest
        transactions retire automatically); ``flush_rows`` /
        ``flush_age_s`` enable the ingest buffer (small appends coalesce
        into one delta update per flush).
        """
        return self._call(
            "create_dataset", dataset_id=dataset_id, transactions=transactions,
            replace=replace or None, max_window=max_window, max_age_s=max_age_s,
            flush_rows=flush_rows, flush_age_s=flush_age_s,
        )

    def append_dataset(
        self,
        dataset_id: str,
        transactions,
        *,
        expected_version: int | None = None,
        flush: bool = False,
    ) -> dict:
        """``POST /datasets/<id>/append``: new version, stale caches dropped.

        On a buffering dataset the delta may only be *staged* (the
        response says ``flushed=false``); ``flush=True`` forces the
        buffer through — with an empty/omitted delta it is a pure
        "flush now".  Raises :class:`~repro.serve.jobs.ApiError` with
        ``code="version_conflict"`` when ``expected_version`` no longer
        matches, ``code="unknown_dataset"`` for an unregistered name, or
        ``code="dataset_retired"`` after a same-name replace.
        """
        return self._call(
            "append_dataset", dataset_id=dataset_id, transactions=transactions,
            expected_version=expected_version, flush=flush or None,
        )

    def dataset_info(self, dataset_id: str) -> dict:
        """``GET /datasets/<id>``: version, size, fingerprint, warm miners."""
        return self._call("dataset_info", dataset_id=dataset_id)

    def dataset_changes(
        self,
        dataset_id: str,
        *,
        since: int,
        min_support: float,
        max_length: int | None = None,
        candidate_store: str | None = None,
        timeout_s: float = 0.0,
    ) -> dict:
        """``GET /datasets/<id>/changes``: the family diff since ``since``.

        Long-polls server-side up to ``timeout_s`` (capped at ~25s, below
        the client's socket timeout) when ``since`` is already current.
        The payload carries ``added`` / ``removed`` / ``changed`` itemset
        lists, or ``reset=true`` with the full ``family`` when the change
        log no longer covers ``since``.
        """
        return self._call(
            "dataset_changes", dataset_id=dataset_id, since=int(since),
            min_support=min_support, max_length=max_length,
            candidate_store=candidate_store, timeout_s=timeout_s or None,
        )

    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: the job's snapshot, now.  ``job_id`` goes
        into the path as given, so it may carry the route's query string
        (:meth:`wait` asks for ``<id>?timeout_s=<s>``)."""
        return self._call("wait", job_id=job_id)

    def cancel(self, job_id: str) -> bool:
        return bool(self._call("cancel", job_id=job_id).get("cancelled"))

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
        while True:
            asked = time.monotonic()
            wait_s = MAX_POLL_S
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - asked))
            # every poll is one ``status(<one argument>)`` call: the
            # argument is what follows "/jobs/" in the encoded request
            path = encode_request("wait", job_id=job_id, timeout=wait_s)[1]
            try:
                snapshot = self.status(path.rpartition("/")[2])
            except RejectedError as err:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                time.sleep(self._bounded_sleep(err.retry_after_s, deadline))
                continue
            if snapshot["state"] in TERMINAL_STATE_VALUES:
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            early = self.poll_interval_s - (time.monotonic() - asked)
            if early > 0:
                time.sleep(early)

    def _bounded_sleep(self, wanted_s: float, deadline: float | None) -> float:
        sleep_s = max(0.01, wanted_s)
        if deadline is not None:
            sleep_s = min(sleep_s, max(0.0, deadline - time.monotonic()))
        return sleep_s

    def result_detail(self, job_id: str) -> dict:
        """The raw ``GET /results/<id>`` payload (raises unless DONE)."""
        return self._call("result", job_id=job_id)

    def result(self, job_id: str) -> dict:
        """The job's itemsets as ``{tuple(items): count}`` (raises unless DONE)."""
        from repro.serve.http import itemsets_from_payload

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
        while True:
            try:
                snapshot = self.submit(transactions, config, **submit_kwargs)
                break
            except RejectedError as err:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                time.sleep(self._bounded_sleep(err.retry_after_s, deadline))
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        final = self.wait(snapshot["job_id"], remaining)
        if final["state"] != JobState.DONE.value:
            raise ServeError(
                f"job {final['job_id']} ended {final['state']}: {final.get('error')}"
            )
        return self.result(final["job_id"])
