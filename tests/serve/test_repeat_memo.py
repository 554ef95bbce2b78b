"""A repeat is answered from what the server already holds.

``repro.serve.http.RepeatMemo``: a request body it has decoded is
recognised by its digest and submitted as "the rows you already hold" —
which changes no answer: every case here reads the same with the memo
emptied.  Every answer is sent as the JSON text its result keeps, whoever
fetches it.  Plus the raw-socket drills of the handler that reads those
bodies (stalled, truncated, invalid, oversized).
"""

import gc
import http.client
import json
import select
import socket
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.core.results import MiningRunResult
from repro.datasets import mushroom_like
from repro.serve import CostPlanner, HttpClient, LocalClient, MiningServer, ShardRouter
from repro.serve.http import (
    REMEMBERED_BODIES,
    RepeatMemo,
    _Handler,
    dispatch,
    itemsets_from_payload,
)
from repro.serve.jobs import Job, JobRequest, JobState, KeptItemsets, kept
from tests.serve import _runners
from tests.serve.test_kept_answers import trace_events

ROWS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3], [4]]

#: snapshot fields that are a job's own, whatever it was asked
OWN = ("job_id", "queued_seconds", "run_seconds")


def as_body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def send(server, method: str, path: str, body: bytes | None = None):
    """One request on its own connection: ``(status, headers, raw body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


def post_job(server, body: bytes) -> dict:
    """``POST /jobs``, waited for: the final snapshot."""
    status, _, answer = send(server, "POST", "/jobs", body)
    assert status in (200, 202), answer
    snapshot = json.loads(answer)
    while snapshot["state"] in ("pending", "running"):
        snapshot = json.loads(send(server, "GET", f"/jobs/{snapshot['job_id']}?timeout_s=20")[2])
    return snapshot


def fetch(server, job_id: str) -> dict:
    status, _, answer = send(server, "GET", f"/results/{job_id}")
    assert status == 200, answer
    return json.loads(answer)


def shared(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if k not in OWN}


# -- (a) recognised or not, socket or not: one answer --------------------------
@st.composite
def submit_payloads(draw):
    item = draw(st.sampled_from([st.integers(0, 5), st.sampled_from("abcde")]))
    payload = {
        "transactions": draw(
            st.lists(st.lists(item, min_size=1, max_size=4), min_size=4, max_size=9)
        ),
        "config": {
            "min_support": draw(st.sampled_from([0.2, 0.45, 0.7])),
            "backend": "serial",
        },
    }
    optional = {
        "pinned": st.lists(st.sampled_from(["backend", "num_partitions"]), unique=True),
        "priority": st.integers(-3, 3),
        "tenant": st.sampled_from(["default", "acme", "zürich"]),
        "max_retries": st.integers(0, 2),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            payload[name] = draw(values)
    return payload


@pytest.fixture(scope="module")
def planned_pair():
    """The same server twice: behind a socket, and in this process."""
    with MiningServer(port=0, shards=2, n_workers=1, planner=CostPlanner()) as server:
        with ShardRouter(n_shards=2, n_workers=1, planner=CostPlanner()) as router:
            yield server, LocalClient(router)


@settings(max_examples=25, deadline=None)
@given(submit_payloads())
def test_a_recognised_body_is_answered_as_a_decoded_one(planned_pair, payload):
    server, local = planned_pair
    memo, body = server.memo, as_body(payload)
    post_job(server, body)  # by now the full path has accepted this body

    before = memo.stats()
    again = post_job(server, body)
    recognised = memo.stats()
    assert recognised["bodies_recognised"] == before["bodies_recognised"] + 1
    assert recognised["bodies_remembered"] == before["bodies_remembered"]
    answer = fetch(server, again["job_id"])

    memo.clear()
    decoded = post_job(server, body)
    assert memo.stats()["bodies_recognised"] == recognised["bodies_recognised"]
    assert memo.stats()["bodies_remembered"] == recognised["bodies_remembered"] + 1
    assert again["via"] == decoded["via"] == "memoized"
    assert shared(again) == shared(decoded)
    reference = fetch(server, decoded["job_id"])
    assert {**answer, "job_id": None} == {**reference, "job_id": None}

    local.wait(local._request("POST", "/jobs", payload)["job_id"], timeout=60.0)
    in_process = local.wait(local._request("POST", "/jobs", payload)["job_id"], timeout=60.0)
    assert shared(in_process) == shared(again)
    assert local.result(in_process["job_id"]) == itemsets_from_payload(answer)


# -- (b) a refused body is never remembered --------------------------------------
REFUSED = {
    "unminable_row": {"transactions": [[1, "a"], [2]], "config": {"min_support": 0.5}},
    "bad_request": {"transactions": ROWS, "config": {"min_support": 0.5, "supprot": 1}},
}


@pytest.fixture(scope="module")
def server():
    with MiningServer(port=0, n_workers=1) as srv:
        yield srv


@pytest.mark.parametrize("code", REFUSED)
def test_a_body_refused_at_the_door_is_decoded_and_refused_again(server, code):
    before = server.memo.stats()
    for _ in range(3):
        status, headers, answer = send(server, "POST", "/jobs", as_body(REFUSED[code]))
        assert (status, json.loads(answer)["code"]) == (400, code)
        assert headers["Connection"] == "close"
    assert server.memo.stats() == before


def test_a_body_refused_by_admission_is_decoded_and_refused_again():
    release = threading.Event()

    def gated(txns, config):
        release.wait(15.0)
        out = MiningRunResult(config.algorithm, config.min_support, len(txns))
        out.itemsets = {(1,): len(txns)}
        return out

    register_algorithm("memo_gate", gated, overwrite=True)
    try:
        with MiningServer(port=0, n_workers=1, queue_limit=1) as srv:
            client = HttpClient(srv.url, poll_interval_s=0.005)

            def gate(tag):
                return {"min_support": 0.4, "algorithm": "memo_gate", "options": {"tag": tag}}

            running = client.submit(ROWS, gate("runs"))
            deadline = time.monotonic() + 10.0
            while client.status(running["job_id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            fills = client.submit(ROWS, gate("fills"))
            remembered = srv.memo.stats()
            assert remembered["bodies_remembered"] == 2
            over = as_body({"transactions": ROWS, "config": gate("over")})
            for _ in range(3):
                status, headers, answer = send(srv, "POST", "/jobs", over)
                assert (status, json.loads(answer)["code"]) == (429, "rejected")
                assert headers["Retry-After"]
            assert srv.memo.stats() == remembered
            assert srv.service.metrics()["shards"][0]["jobs_rejected"] == 3
            release.set()
            client.wait(fills["job_id"], timeout=30.0)
            assert post_job(srv, over)["state"] == "done"  # accepted: now it is remembered
            assert srv.memo.stats()["bodies_remembered"] == 3
            assert post_job(srv, over)["via"] == "memoized"
            assert srv.memo.stats()["bodies_recognised"] == 1
    finally:
        release.set()
        unregister_algorithm("memo_gate")


# -- (c) the rows have one owner, and may have left ------------------------------
def dataset(seed: int) -> list:
    return [[seed, seed + 1, seed + 2], [seed, seed + 1], [seed + 1, seed + 2], [seed]] * 40


def oracle(rows, min_support: float) -> list:
    mined = mine_frequent_itemsets(rows, config=MiningConfig(min_support=min_support))
    return sorted([sorted(i), c] for i, c in mined.itemsets.items())


def test_rows_and_result_gone_fall_back_to_the_body_in_hand():
    with MiningServer(
        port=0, n_workers=1, result_cache_entries=1, dataset_cache_bytes=1024
    ) as srv:
        bodies = [
            as_body({"transactions": dataset(seed), "config": {"min_support": 0.3}})
            for seed in (10, 20, 30)
        ]
        for body in bodies:  # each evicts the one before: rows (bytes) and result (LRU of 1)
            assert post_job(srv, body)["via"] == "run"
        service = srv.service.shards[0]
        assert service.datasets.stats()["entries"] == 1 and len(service.results) == 1
        final = post_job(srv, bodies[0])
        assert (final["state"], final["via"]) == ("done", "run")
        assert srv.memo.stats() == {
            "bodies_recognised": 1, "bodies_remembered": 4,
            "fallbacks_not_resident": 1, "results_sent": 0,
        }
        assert not service.get(final["job_id"]).rows_resident
        answer = fetch(srv, final["job_id"])["itemsets"]
        assert sorted([sorted(i), c] for i, c in answer) == oracle(dataset(10), 0.3)


def test_result_gone_rows_resident_runs_on_the_rows_the_shard_holds():
    with MiningServer(port=0, n_workers=1, result_cache_entries=1) as srv:
        first, other = (
            as_body({"transactions": dataset(seed), "config": {"min_support": 0.3}})
            for seed in (10, 20)
        )
        assert post_job(srv, first)["via"] == "run"
        assert post_job(srv, other)["via"] == "run"  # the one result slot moves on
        service = srv.service.shards[0]
        shipped = service.metrics()["job_workers"]["rows_shipped"]
        final = post_job(srv, first)
        assert (final["state"], final["via"]) == ("done", "run")
        assert srv.memo.stats()["bodies_recognised"] == 1
        assert srv.memo.stats()["fallbacks_not_resident"] == 0
        job = service.get(final["job_id"])
        assert job.rows_resident
        assert [e["name"] for e in trace_events(job.result) if e.get("cat") == "serve"] == [
            "rows_resident"
        ]
        # ... which its job worker held too
        assert service.metrics()["job_workers"]["rows_shipped"] == shipped
        answer = fetch(srv, final["job_id"])["itemsets"]
        assert sorted([sorted(i), c] for i, c in answer) == oracle(dataset(10), 0.3)


def test_a_planner_reads_no_rows_so_a_cached_result_answers_without_them():
    """The shard's ``DatasetCache`` has let the rows go but its result
    cache still holds the answer: a recognised repeat is planned and
    answered ``memoized`` without the rows, and its body is not decoded a
    second time."""
    with MiningServer(
        port=0, n_workers=1, planner=True, dataset_cache_bytes=1024
    ) as srv:
        first, other = (
            as_body({"transactions": dataset(seed), "config": {"min_support": 0.3}})
            for seed in (10, 20)
        )
        assert post_job(srv, first)["via"] == "run"
        assert post_job(srv, other)["via"] == "run"  # evicts the first rows
        service = srv.service.shards[0]
        fingerprint = service.get("job-shard-0-1").dataset_fingerprint
        assert fingerprint not in service.datasets and len(service.results) == 2
        repeat = post_job(srv, first)
        assert (repeat["via"], repeat["planned"]) == (
            "memoized", {"candidate_store": "bitmap", "num_partitions": 1},
        )
        assert srv.memo.stats()["bodies_recognised"] == 1
        assert HttpClient(srv.url).metrics()["router"]["http"]["fallbacks_not_resident"] == 0


# -- (d) one byte apart is another body --------------------------------------------
def test_near_identical_bodies_never_share_an_entry(server):
    server.memo.clear()
    recognised = server.memo.stats()["bodies_recognised"]
    base = {"transactions": [[1, 2], [2, 3], [1, 2, 3]], "config": {"min_support": 0.5}}
    variants = [
        base,
        {**base, "transactions": [[2, 3], [1, 2], [1, 2, 3]]},  # a reordered row
        {**base, "transactions": [["1", "2"], ["2", "3"], ["1", "2", "3"]]},  # 1 vs "1"
        {**base, "config": {"min_support": 0.6}},
        {**base, "priority": 0},  # the default, spelled out
    ]
    snapshots = [post_job(server, as_body(v)) for v in variants]
    assert all(s["state"] == "done" for s in snapshots)
    assert len(server.memo._bodies) == len(variants)
    assert server.memo.stats()["bodies_recognised"] == recognised
    for kept, _ in server.memo._bodies.values():
        assert "transactions" not in kept
    spaced = json.dumps(base, separators=(",", ":")).encode()  # same JSON, other bytes
    assert post_job(server, spaced)["via"] == "memoized"
    assert server.memo.stats()["bodies_recognised"] == recognised


# -- (e) bounded ---------------------------------------------------------------------
class Accepting:
    """A backend that accepts every submit: what :func:`dispatch` needs of one."""

    def __init__(self):
        self.calls = []

    def submit(self, transactions, config, **kwargs) -> Job:
        self.calls.append(transactions)
        return Job(JobRequest(config), "f" * 64, f"job-{len(self.calls)}")


def test_ten_thousand_distinct_bodies_keep_the_memo_at_its_cap():
    backend, memo = Accepting(), RepeatMemo()
    for i in range(10_000):
        body = as_body({"transactions": [[i]], "config": {"min_support": 0.5}})
        assert dispatch(backend, "POST", "/jobs", body, memo)[0] == 202
        assert len(memo._bodies) <= REMEMBERED_BODIES
    assert len(memo._bodies) == REMEMBERED_BODIES
    assert memo.stats()["bodies_remembered"] == 10_000
    # the most recent are the ones kept, and a kept one arrives without its rows
    recent = as_body({"transactions": [[9_999]], "config": {"min_support": 0.5}})
    oldest = as_body({"transactions": [[0]], "config": {"min_support": 0.5}})
    for body, rows in ((recent, None), (oldest, [[0]])):
        dispatch(backend, "POST", "/jobs", body, memo)
        assert backend.calls[-1] == rows
    assert memo.stats()["bodies_recognised"] == 1


def test_only_an_exact_post_to_jobs_is_looked_up():
    backend, memo = Accepting(), RepeatMemo()
    body = as_body({"transactions": [[1]], "config": {"min_support": 0.5}})
    dispatch(backend, "POST", "/jobs", body, memo)
    for method, path in (("POST", "/jobs/"), ("POST", "/jobs?x=1"), ("GET", "/jobs")):
        dispatch(backend, method, path, body, memo)
    assert memo.stats()["bodies_recognised"] == 0
    # and a job on a named dataset is never remembered: its rows are not the body's
    named = as_body({"dataset": "feed", "config": {"min_support": 0.5}})
    assert dispatch(backend, "POST", "/jobs", named, memo)[0] == 202
    dispatch(backend, "POST", "/jobs", named, memo)
    assert memo.stats() == {
        "bodies_recognised": 0, "bodies_remembered": 2,
        "fallbacks_not_resident": 0, "results_sent": 0,
    }


# -- (f) the kept answer -------------------------------------------------------------
def reference(job) -> bytes:
    """The body for ``job`` as ``json.dumps`` of the list-shaped payload,
    rendered here from the decoded result: what the wire always carried."""
    result = job.result
    return as_body({
        "job_id": job.job_id,
        "algorithm": result.algorithm,
        "min_support": result.min_support,
        "n_transactions": result.n_transactions,
        "num_itemsets": result.num_itemsets,
        "total_seconds": result.total_seconds,
        "via": job.via,
        "itemsets": [[list(items), count] for items, count in result.itemsets.items()],
    })


def test_every_fetch_sends_the_text_its_result_keeps():
    """The answer is rendered once, where it was produced: the job that ran
    it and every repeat answered from the cache send that one text, and no
    fetch decodes it."""
    rows = [["a", "b", 'q"uote'], ["a", "b"], ["b", "c"], ["a", "c"], ["d"]] * 20
    payload = {"transactions": rows, "config": {"min_support": 0.3, "backend": "serial"}}
    with MiningServer(port=0, n_workers=1) as srv:
        ids = [post_job(srv, as_body(payload))["job_id"] for _ in range(4)]
        bodies = [send(srv, "GET", f"/results/{job_id}")[2] for job_id in ids]
        jobs = [srv.service.get(job_id) for job_id in ids]
        assert [job.via for job in jobs] == ["run", "memoized", "memoized", "memoized"]
        itemsets = jobs[0].result.itemsets
        assert isinstance(itemsets, KeptItemsets)
        assert all(job.result.itemsets is itemsets for job in jobs)
        assert not itemsets.decoded
        assert srv.memo.stats()["results_sent"] == 4
        for job, body in zip(jobs, bodies):
            assert LocalClient(srv.service).result_detail(job.job_id) == json.loads(body)
            assert body == reference(job)


@pytest.mark.parametrize("warm", [False, True], ids=["rows", "named-dataset"])
def test_result_bodies_are_the_list_shaped_payload_byte_for_byte(warm):
    """The bytes sent — for the job that ran, a repeat answered from the
    cache, and a warm miner's answer — are those of the list-shaped
    payload."""
    rows = [list(t) for t in mushroom_like(scale=0.02, seed=3).transactions]
    config = {"min_support": 0.4, "backend": "serial"}
    if warm:
        payload = {"dataset": "feed", "config": {**config, "incremental": True}}
    else:
        payload = {"transactions": rows, "config": config}
    with MiningServer(port=0, n_workers=1) as srv:
        if warm:
            HttpClient(srv.url).create_dataset("feed", rows)
        for via in ("run", "memoized"):
            done = post_job(srv, as_body(payload))
            assert done["via"] == via
            body = send(srv, "GET", f"/results/{done['job_id']}")[2]
            job = srv.service.get(done["job_id"])
            assert len(job.result.itemsets) > 50
            assert LocalClient(srv.service).result_detail(done["job_id"]) == json.loads(body)
            assert body == reference(job)


@pytest.fixture
def homes():
    """``memo_blocker`` ships and holds the one worker; ``memo_closure``
    cannot ship (a lambda), so it runs in the server."""
    register_algorithm("memo_blocker", _runners.sleepy, overwrite=True)
    register_algorithm("memo_closure", lambda txns, cfg: _runners.fast(txns, cfg), overwrite=True)
    yield
    unregister_algorithm("memo_blocker")
    unregister_algorithm("memo_closure")


@pytest.mark.parametrize("home", ["job-worker", "named-dataset", "in-server"])
def test_every_via_from_every_home_sends_the_list_shaped_bytes(homes, home):
    """A job that ran, one coalesced onto it and one memoized, for each of
    the three places an answer is produced: a job worker, a named
    dataset's warm miner, and the server's own interpreter."""
    rows = [list(t) for t in mushroom_like(scale=0.02, seed=3).transactions]
    config = {"min_support": 0.4, "backend": "serial"}
    payload = {
        "job-worker": {"transactions": rows, "config": config},
        "named-dataset": {"dataset": "feed", "config": {**config, "incremental": True}},
        "in-server": {"transactions": rows, "config": {**config, "algorithm": "memo_closure"}},
    }[home]
    blocker = {"transactions": ROWS, "config": {
        "min_support": 0.5, "algorithm": "memo_blocker", "options": {"seconds": 0.5}}}
    with MiningServer(port=0, n_workers=1) as srv:
        HttpClient(srv.url).create_dataset("feed", rows)
        assert send(srv, "POST", "/jobs", as_body(blocker))[0] == 202
        queued = [json.loads(send(srv, "POST", "/jobs", as_body(payload))[2]) for _ in range(2)]
        assert [snapshot["state"] for snapshot in queued] == ["pending", "pending"]
        for snapshot in queued:
            send(srv, "GET", f"/jobs/{snapshot['job_id']}?timeout_s=20")
        ids = [snapshot["job_id"] for snapshot in queued]
        ids.append(post_job(srv, as_body(payload))["job_id"])
        jobs = [srv.service.get(job_id) for job_id in ids]
        assert [job.via for job in jobs] == ["run", "coalesced", "memoized"]
        assert len({id(job.result) for job in jobs}) == 1
        shipped = srv.service.metrics()["shards"][0]["service"]["job_workers"]["jobs_run"]
        assert shipped == (2 if home == "job-worker" else 1)  # the blocker always ships
        for job in jobs:
            body = send(srv, "GET", f"/results/{job.job_id}")[2]
            assert LocalClient(srv.service).result_detail(job.job_id) == json.loads(body)
            assert body == reference(job)


def test_an_answer_sent_is_held_by_its_result_alone():
    """Sending an answer leaves nothing of it with the transport: the
    text goes when its result does."""

    class Finished:
        """A backend of finished jobs: what :func:`dispatch` needs for a fetch."""

        def __init__(self, jobs):
            self.jobs = {job.job_id: job for job in jobs}

        def get(self, job_id: str) -> Job:
            return self.jobs[job_id]

    results = [kept(MiningRunResult("yafim", 0.5, 3, itemsets={(i, "x"): 3})) for i in range(50)]
    results.append(kept(MiningRunResult("yafim", 0.5, 3)))  # no itemsets at all
    jobs = [
        Job(JobRequest(MiningConfig(min_support=0.5)), "f" * 64, f"job-{i}",
            state=JobState.DONE, result=result, via="memoized")
        for i, result in enumerate(results)
    ]
    memo, backend = RepeatMemo(), Finished(jobs)
    for job in jobs:
        status, text, _ = dispatch(backend, "GET", f"/results/{job.job_id}", None, memo)
        assert status == 200 and text.encode("utf-8") == reference(job)
    assert memo.stats()["results_sent"] == len(jobs)
    held = [weakref.ref(result) for result in results]
    del results, jobs, job, backend
    gc.collect()
    assert not any(ref() is not None for ref in held)


# -- the handler that reads the bodies -------------------------------------------------
def connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


def read_response(sock) -> tuple[int, dict, bytes]:
    """Status, headers and body of one response; then the peer must have
    closed the connection when it said it would."""
    stream = sock.makefile("rb")
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline().strip()):
        name, _, value = line.decode().partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    if headers.get("connection") == "close":
        assert stream.read() == b""
    return status, headers, body


def handlers() -> list:
    return [t for t in threading.enumerate() if "process_request" in t.name]


def no_handler_left(within_s: float = 5.0) -> None:
    deadline = time.monotonic() + within_s
    while handlers():
        assert time.monotonic() < deadline, "a handler thread is still parked"
        time.sleep(0.01)


def test_a_stalled_body_gives_its_thread_back(monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)

    with MiningServer(port=0, n_workers=1) as srv:
        before = srv.memo.stats()
        stalled = connect(srv)
        stalled.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 4000\r\n\r\n{\"transact")
        status, headers, body = read_response(stalled)  # ... and nothing more is sent
        assert (status, json.loads(body)["code"]) == (408, "incomplete_body")
        assert headers["connection"] == "close"
        stalled.close()
        idle = connect(srv)  # a kept-alive connection nobody uses goes the same way
        assert idle.recv(1) == b""
        idle.close()
        client = HttpClient(srv.url)  # ... and a client that kept one reconnects unasked
        assert client.healthz()["status"] == "ok"
        time.sleep(0.5)
        assert client.healthz()["status"] == "ok"
        no_handler_left()
        assert srv.memo.stats() == before
        parked = connect(srv)  # stalls across the shutdown
        parked.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 4000\r\n\r\n")
        t0 = time.monotonic()
    assert time.monotonic() - t0 < 5.0, "close() waited for a stalled client"
    parked.close()


def test_a_trickled_body_is_cut_off_at_one_deadline_for_all_of_it(monkeypatch):
    """One byte every 0.3 s keeps every single read inside a 0.5 s timeout;
    the body as a whole is still due 0.5 s after its first read."""
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    with MiningServer(port=0, n_workers=1) as srv:
        before = srv.memo.stats()
        trickle = connect(srv)
        try:
            trickle.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 4000\r\n\r\n")
            t0 = time.monotonic()
            while time.monotonic() - t0 < 5.0:
                trickle.sendall(b" ")
                if select.select([trickle], [], [], 0.3)[0]:  # the answer is in
                    break
            status, headers, body = read_response(trickle)
            elapsed = time.monotonic() - t0
        finally:
            trickle.close()
        assert (status, json.loads(body)["code"]) == (408, "incomplete_body")
        assert headers["connection"] == "close"
        assert elapsed < 1.2, f"answered after {elapsed:.2f} s"
        no_handler_left()
        assert srv.memo.stats() == before


def test_a_trickled_head_is_cut_off_by_the_same_deadline(monkeypatch):
    """The request line and headers are due by the deadline the body is:
    a header byte every 0.3 s never lets one read reach 0.5 s, but the
    connection is dropped 0.5 s after the first byte, thread and all."""
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    head = b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"x" * 64 + b"\r\n\r\n"
    with MiningServer(port=0, n_workers=1) as srv:
        trickle = connect(srv)
        t0 = time.monotonic()
        try:
            for byte in head:
                if time.monotonic() - t0 > 3.0:
                    break
                trickle.sendall(bytes([byte]))
                if select.select([trickle], [], [], 0.3)[0]:  # dropped (or answered)
                    break
            dropped = trickle.recv(1) == b""
        except ConnectionError:  # dropped while a byte was on its way
            dropped = True
        finally:
            elapsed = time.monotonic() - t0
            trickle.close()
        assert dropped, "the trickled head was answered"
        assert elapsed < 1.2, f"dropped after {elapsed:.2f} s"
        no_handler_left()


@pytest.mark.parametrize(
    "declared, sent",
    [(None, b'{"transactions": [[1, 2], [1'), (400, b'{"transactions": [[1, 2]], "config"')],
    ids=["invalid-json", "truncated"],
)
def test_a_broken_body_on_a_kept_alive_connection_poisons_nothing(server, declared, sent):
    before = server.memo.stats()
    sock = connect(server)
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")  # the connection is kept alive...
        status, headers, _ = read_response(sock)
        assert status == 200 and "connection" not in headers
        length = len(sent) if declared is None else declared
        sock.sendall(f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + sent)
        if declared is not None:
            sock.shutdown(socket.SHUT_WR)  # the client hangs up mid-body
        status, headers, body = read_response(sock)  # ... until the broken request
        code = "bad_request" if declared is None else "incomplete_body"
        assert (status, json.loads(body)["code"]) == (400, code)
        assert headers["connection"] == "close"
    finally:
        sock.close()
    assert server.memo.stats() == before
    status, _, answer = send(server, "POST", "/jobs", as_body(
        {"transactions": ROWS, "config": {"min_support": 0.5}}))
    assert status in (200, 202), answer


def test_an_oversized_body_is_never_digested(server, monkeypatch):
    body = as_body({"transactions": ROWS, "config": {"min_support": 0.5, "max_length": 2}})
    monkeypatch.setattr("repro.serve.http.MAX_BODY_BYTES", len(body) - 1)
    monkeypatch.setattr("repro.serve.http.hashlib", None)  # any digest would raise
    before = server.memo.stats()
    for _ in range(2):
        status, headers, answer = send(server, "POST", "/jobs", body)
        assert (status, json.loads(answer)["code"]) == (413, "payload_too_large")
        assert headers["Connection"] == "close"
    assert server.memo.stats() == before


# -- observability -------------------------------------------------------------------
def test_metrics_report_the_memo_in_the_router_block_of_the_socket_transport(server):
    over_http = HttpClient(server.url).metrics()
    assert over_http["router"]["http"] == server.memo.stats()
    assert set(over_http["router"]["http"]) == {
        "bodies_recognised", "bodies_remembered", "fallbacks_not_resident", "results_sent",
    }
    assert "http" not in LocalClient(server.service).metrics()["router"]
