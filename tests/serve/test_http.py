"""HTTP front-end: endpoints, error codes, client round-trips, CLI wiring."""

import json
import os
import threading
import time
import zlib

import pytest

from repro.common.errors import MiningError
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.datasets import mushroom_like
from repro.serve import HttpClient, MiningServer, ServeError
from repro.serve.api import MAX_NUM_PARTITIONS
from repro.serve.http import config_from_dict, itemsets_from_payload, result_text

TXNS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]
CFG = MiningConfig(min_support=0.4, backend="serial")


@pytest.fixture(scope="module")
def server():
    with MiningServer(port=0, n_workers=2, result_ttl_s=60.0) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return HttpClient(server.url, poll_interval_s=0.01)


class TestConfigFromDict:
    def test_builds_config(self):
        cfg = config_from_dict({"min_support": 0.3, "algorithm": "eclat"})
        assert cfg == MiningConfig(min_support=0.3, algorithm="eclat")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServeError, match="unknown config field"):
            config_from_dict({"min_support": 0.3, "supprot": 0.2})

    def test_requires_min_support(self):
        with pytest.raises(ServeError, match="min_support"):
            config_from_dict({"algorithm": "eclat"})

    def test_rejects_non_object(self):
        with pytest.raises(ServeError, match="must be an object"):
            config_from_dict([1, 2])

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("max_length", 0), ("max_length", -1),
            ("num_partitions", 0), ("num_partitions", MAX_NUM_PARTITIONS + 1),
            ("num_partitions", 10**6),
            ("parallelism", 0), ("parallelism", (os.cpu_count() or 1) + 1),
        ],
    )
    def test_bounds_the_machine_knobs(self, knob, value):
        """Below 1 is refused by ``MiningConfig`` itself; above what one
        request may ask of the host, by the door."""
        with pytest.raises((ServeError, MiningError), match=knob):
            config_from_dict({"min_support": 0.3, knob: value})

    @pytest.mark.parametrize("backend", ["threads", "bogus"])
    def test_rejects_an_unknown_backend(self, backend):
        """``threads`` is a retired name: refused like any other typo."""
        with pytest.raises(MiningError, match="backend"):
            config_from_dict({"min_support": 0.3, "backend": backend})

    def test_accepts_the_machine_knobs_at_their_limits(self):
        cpus = os.cpu_count() or 1
        cfg = config_from_dict(
            {"min_support": 0.3, "num_partitions": MAX_NUM_PARTITIONS, "parallelism": cpus}
        )
        assert (cfg.num_partitions, cfg.parallelism) == (MAX_NUM_PARTITIONS, cpus)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok" and payload["workers"] == 2

    def test_submit_status_result_round_trip(self, client):
        snapshot = client.submit(TXNS, CFG)
        assert snapshot["job_id"].startswith("job-")
        final = client.wait(snapshot["job_id"], timeout=30.0)
        assert final["state"] == "done"
        itemsets = client.result(final["job_id"])
        assert itemsets == mine_frequent_itemsets(TXNS, config=CFG).itemsets
        (shard,) = client.metrics()["shards"]
        assert shard["service"]["jobs_by_state"]["done"] >= 1

    def test_result_conflict_while_pending(self, client, server):
        # a job that never runs (blocked behind nothing) finishes fast, so
        # probe the 409 with a job that is already terminal-but-not-done
        snapshot = client.submit(TXNS, CFG, timeout_s=30.0)
        client.wait(snapshot["job_id"], timeout=30.0)
        cancelled = client.submit(
            [[9, 8], [8, 7]], MiningConfig(min_support=0.9, backend="serial"),
        )
        # cancel may race completion; either way /results must 409 or 200
        client.cancel(cancelled["job_id"])
        final = client.wait(cancelled["job_id"], timeout=30.0)
        if final["state"] != "done":
            with pytest.raises(ServeError, match="409"):
                client.result(final["job_id"])

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.status("job-999999")
        with pytest.raises(ServeError, match="404"):
            client.result("job-999999")

    def test_bad_submit_payloads_are_400(self, client):
        with pytest.raises(ServeError, match="400"):
            client._request("POST", "/jobs", {"config": {"min_support": 0.4}})
        with pytest.raises(ServeError, match="400"):
            client._request("POST", "/jobs", {"transactions": TXNS, "config": {}})
        with pytest.raises(ServeError, match="400"):
            client.submit(TXNS, {"min_support": 0.4, "algorithm": "nope"})

    def test_type_invalid_payloads_are_400_not_connection_abort(self, client):
        # valid JSON with wrong field types must come back as a clean 400,
        # not an uncaught TypeError that aborts the connection server-side
        with pytest.raises(ServeError, match="400"):
            client._request(
                "POST", "/jobs",
                {"transactions": TXNS, "config": {"min_support": "0.4"}},
            )
        with pytest.raises(ServeError, match="400"):
            client._request(
                "POST", "/jobs",
                {"transactions": TXNS, "config": {"min_support": 0.4},
                 "priority": "high"},
            )
        with pytest.raises(ServeError, match="400"):
            # non-iterable transaction elements blow up during fingerprinting
            client._request(
                "POST", "/jobs",
                {"transactions": [1, 2], "config": {"min_support": 0.4}},
            )

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client._request("GET", "/nope")
        with pytest.raises(ServeError, match="404"):
            client._request("POST", "/nope", {})

    def test_metrics_exposes_queue_states_and_hit_rates(self, client):
        client.mine(TXNS, CFG, timeout=30.0)  # memoized or run — either way counted
        m = client.metrics()
        assert m["router"]["queue_depth"] >= 0
        (shard,) = m["shards"]
        service = shard["service"]
        assert set(service["jobs_by_state"]) == {
            "pending", "running", "done", "failed", "cancelled", "timed_out"
        }
        assert "hit_rate" in service["dataset_cache"]
        assert "hit_rate" in service["result_cache"]
        assert any("state" in j for j in service["recent_jobs"])

    def test_memoized_submit_returns_200_done(self, client):
        client.mine(TXNS, CFG, timeout=30.0)
        snapshot = client.submit(TXNS, CFG)
        assert snapshot["state"] == "done" and snapshot["via"] == "memoized"


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_incremental_job_checks_out_no_context_on_any_backend(backend):
    """``POST /jobs`` with ``incremental=True``: the oracle's map whatever
    ``backend`` says — the tier walks its own bitmaps, so the field is
    inert (even ``processes`` ships: raw rows, a cold build in the job
    worker) and no engine context is built for the job."""
    rows = TXNS + [[backend]]  # its own fingerprint: no memoized answer
    config = MiningConfig(min_support=0.4, backend=backend, incremental=True)
    with MiningServer(port=0, n_workers=1) as srv:
        client = HttpClient(srv.url, poll_interval_s=0.01)
        assert client.mine(rows, config, timeout=30.0) == (
            mine_frequent_itemsets(rows, config=CFG).itemsets
        )
        (shard,) = client.metrics()["shards"]
        assert shard["service"]["job_workers"]["jobs_run"] == 1
        (ran,) = shard["service"]["recent_jobs"]
        assert ran["via"] == "run" and "engine_metrics" not in ran  # no engine ran


class TestJobLongPoll:
    """``GET /jobs/<id>?timeout_s=`` answers when the job turns terminal,
    and ``HttpClient.wait`` rides it instead of sleeping between reads."""

    INC = MiningConfig(min_support=0.4, backend="serial", incremental=True)

    @pytest.fixture()
    def parked(self, server, request):
        """``(submit, entry)``: jobs on this dataset park in the
        warm-miner path for as long as the test holds ``entry.lock``
        (which the submit, made from the test's own thread, re-enters)."""
        name = request.node.name  # in a row too: no memoized answer
        HttpClient(server.url).create_dataset(name, TXNS + [[zlib.crc32(name.encode())]])

        def submit():
            return server.service.submit(None, self.INC, dataset_id=name).job_id

        (shard,) = server.service.shards
        return submit, shard.dataset_registry.get(name)

    def test_wait_returns_when_the_job_finishes_in_one_read(self, server, parked):
        submit, entry = parked
        reads = []

        class Counting(HttpClient):
            def status(self, job_id):
                reads.append(job_id)
                return super().status(job_id)

        # a client that slept between reads would need 5 s to notice
        client = Counting(server.url, poll_interval_s=5.0)
        got = {}

        def waiter(job_id):
            got["snapshot"] = client.wait(job_id, timeout=30.0)
            got["at"] = time.monotonic()

        with entry.lock:
            job_id = submit()
            t = threading.Thread(target=waiter, args=(job_id,))
            t.start()
            time.sleep(0.3)
            assert t.is_alive() and not got  # parked server-side, not done
            released = time.monotonic()
        t.join(10.0)
        assert not t.is_alive()
        assert got["snapshot"]["state"] == "done"
        assert got["at"] - released < 2.0
        assert len(reads) == 1

    def test_long_poll_times_out_with_the_current_snapshot(self, server, parked):
        submit, entry = parked
        client = HttpClient(server.url, poll_interval_s=0.01)
        with entry.lock:
            job_id = submit()
            t0 = time.monotonic()
            assert client.status(job_id)["state"] in ("pending", "running")
            assert time.monotonic() - t0 < 1.0  # a plain read never blocks
            t0 = time.monotonic()
            snapshot = client.status(f"{job_id}?timeout_s=0.25")
            assert 0.25 <= time.monotonic() - t0 < 2.0
            assert snapshot["state"] in ("pending", "running")
            t0 = time.monotonic()
            with pytest.raises(ServeError, match="still"):
                client.wait(job_id, timeout=0.3)
            assert 0.3 <= time.monotonic() - t0 < 2.0
        assert client.wait(job_id, timeout=30.0)["state"] == "done"

    def test_bad_query_is_400(self, client):
        job_id = client.submit(TXNS, CFG)["job_id"]
        for query in ("timeout=5", "timeout_s=soon", "timeout_s=1&since=3"):
            with pytest.raises(ServeError, match="400"):
                client.status(f"{job_id}?{query}")
        with pytest.raises(ServeError, match="404"):
            client.status("job-999999?timeout_s=0.1")
        assert client.status(f"{job_id}?timeout_s=30")["state"] == "done"


class TestConcurrentHttp:
    def test_eight_concurrent_http_jobs_match_direct(self, client):
        ds = mushroom_like(scale=0.02, seed=9)
        configs = [
            MiningConfig(min_support=s, algorithm=a, backend="serial")
            for s in (0.5, 0.6, 0.7, 0.8)
            for a in ("yafim", "apriori")
        ]
        direct = {
            c.cache_key(): mine_frequent_itemsets(ds.transactions, config=c).itemsets
            for c in configs
        }
        mined = {}

        def run_one(cfg):
            mined[cfg.cache_key()] = client.mine(ds.transactions, cfg, timeout=120.0)

        threads = [threading.Thread(target=run_one, args=(c,)) for c in configs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(mined) == 8
        for key, itemsets in mined.items():
            assert itemsets == direct[key]


class TestPayloadHelpers:
    def test_result_payload_round_trip(self):
        from repro.serve import LocalClient, MiningService

        with MiningService(n_workers=1) as svc:
            job = svc.submit(TXNS, CFG)
            job.wait(30.0)
            payload = json.loads(result_text(job))
            assert payload["num_itemsets"] == job.result.num_itemsets
            assert itemsets_from_payload(payload) == job.result.itemsets
            assert LocalClient(svc).result(job.job_id) == job.result.itemsets


class TestShardedServer:
    """MiningServer with shards>1 / planner: the router behind HTTP."""

    @pytest.fixture(scope="class")
    def sharded(self):
        with MiningServer(port=0, shards=2, n_workers=1, planner=True) as srv:
            yield srv

    @pytest.fixture(scope="class")
    def sharded_client(self, sharded):
        return HttpClient(sharded.url, poll_interval_s=0.01)

    def test_healthz_reports_shards(self, sharded_client):
        h = sharded_client.healthz()
        assert h["shards"] == 2 and h["workers"] == 2

    def test_tenant_round_trips(self, sharded_client):
        snap = sharded_client.submit(TXNS, CFG, tenant="acme")
        final = sharded_client.wait(snap["job_id"], timeout=30.0)
        assert final["tenant"] == "acme"
        assert final["state"] == "done"

    def test_planned_knobs_in_snapshot(self, sharded_client):
        # all-default engine knobs -> nothing pinned, planner fills them
        snap = sharded_client.submit(
            [[7, 8, 9], [7, 8], [8, 9]], MiningConfig(min_support=0.4)
        )
        final = sharded_client.wait(snap["job_id"], timeout=30.0)
        assert final["planned"] == {"candidate_store": "bitmap", "num_partitions": 1}

    def test_pinned_freezes_default_valued_knob(self, sharded_client):
        snap = sharded_client.submit(
            [[4, 5, 6], [4, 5], [5, 6]],
            MiningConfig(min_support=0.4),  # all-default engine knobs
            pinned=["backend", "num_partitions", "candidate_store"],
        )
        final = sharded_client.wait(snap["job_id"], timeout=30.0)
        assert final["planned"] == {}

    def test_jobs_route_to_distinct_shards(self, sharded, sharded_client):
        router = sharded.service  # in-process: probe the ring directly
        wanted, seed = {}, 0
        while len(wanted) < 2:
            seed += 1
            txns = [[seed, seed + 1], [seed, seed + 2], [seed + 3000]]
            wanted.setdefault(router.home_shard(txns), txns)
        before = sharded_client.metrics()
        shards_seen = set()
        for txns in wanted.values():
            snap = sharded_client.submit(txns, CFG)
            final = sharded_client.wait(snap["job_id"], timeout=30.0)
            shards_seen.add(final["shard"])
        assert shards_seen == {"shard-0", "shard-1"}
        after = sharded_client.metrics()
        assert after["router"]["jobs_routed"] - before["router"]["jobs_routed"] == 2
        homes = [
            now["jobs_home"] - was["jobs_home"]
            for was, now in zip(before["shards"], after["shards"])
        ]
        assert homes == [1, 1]  # one job per shard, each at its home

    def test_metrics_exposes_router_and_per_shard_blocks(self, sharded_client):
        m = sharded_client.metrics()
        assert {"router", "ring", "shards", "planner"} <= set(m)
        assert len(m["shards"]) == 2
        assert {"jobs_home", "service"} <= set(m["shards"][0])
        assert "latency" in m["shards"][0]["service"]

    def test_unknown_top_level_field_is_400(self, sharded_client):
        with pytest.raises(ServeError, match="unknown field.*priorty"):
            sharded_client._request(
                "POST", "/jobs",
                {"transactions": TXNS, "config": {"min_support": 0.4},
                 "priorty": 3},
            )


class TestAdmissionOverHttp:
    def test_429_with_retry_after_and_mine_recovers(self):
        """On both transports: the refusal carries the hint, and
        ``mine`` backs off on it instead of raising."""
        import threading
        import time

        from repro.core.registry import register_algorithm, unregister_algorithm
        from repro.core.results import MiningRunResult
        from repro.serve import LocalClient, RejectedError

        release = threading.Event()

        def gated(txns, config):
            release.wait(15.0)
            out = MiningRunResult(
                algorithm=config.algorithm,
                min_support=config.min_support,
                n_transactions=len(txns),
            )
            out.itemsets = {(1,): 1}
            return out

        register_algorithm("http_gate_algo", gated, overwrite=True)
        try:
            with MiningServer(port=0, n_workers=1, queue_limit=1) as srv:
                client = HttpClient(srv.url, poll_interval_s=0.01)
                gate_cfg = {"min_support": 0.4, "algorithm": "http_gate_algo"}
                first = client.submit(TXNS, gate_cfg)
                deadline = time.monotonic() + 10.0
                while client.status(first["job_id"])["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                fill_cfg = {"min_support": 0.4, "algorithm": "http_gate_algo",
                            "options": {"tag": "fill"}}
                client.submit(TXNS, fill_cfg)
                clients = {"http": client, "local": LocalClient(srv.service)}
                over = {
                    name: {"min_support": 0.4, "algorithm": "http_gate_algo",
                           "options": {"tag": f"over-{name}"}}
                    for name in clients
                }
                for name, via in clients.items():
                    with pytest.raises(RejectedError) as exc:
                        via.submit(TXNS, over[name])
                    err = exc.value
                    assert err.retry_after_s > 0, name
                    assert err.queue_depth == 1 and err.queue_limit == 1, name
                assert client.metrics()["router"]["queue_depth"] <= 1  # bounded by the limit
                # mine() backs off on 429 and resubmits once space frees up
                mined = {}

                def mine_over(name):
                    mined[name] = clients[name].mine(TXNS, over[name], timeout=30.0)

                threads = [threading.Thread(target=mine_over, args=(n,)) for n in clients]
                for t in threads:
                    t.start()
                time.sleep(0.2)  # let each hit at least one 429
                release.set()
                for t in threads:
                    t.join(30.0)
                    assert not t.is_alive(), "mine() never recovered from 429"
                assert mined == {"http": {(1,): 1}, "local": {(1,): 1}}
        finally:
            release.set()
            unregister_algorithm("http_gate_algo")


class TestClientConnectRetry:
    def test_gives_up_after_retries(self):
        import time

        client = HttpClient(
            "http://127.0.0.1:9",  # discard port: connection refused
            connect_retries=2, retry_backoff_s=0.02,
        )
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="cannot reach"):
            client.healthz()
        # two backoffs happened (0.02 + 0.04) before giving up
        assert time.monotonic() - t0 >= 0.06

    def test_retries_through_server_startup(self):
        import socket
        import threading
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        started = {}

        def late_start():
            time.sleep(0.3)
            started["server"] = MiningServer(port=port, n_workers=1).start()

        t = threading.Thread(target=late_start)
        t.start()
        try:
            client = HttpClient(
                f"http://127.0.0.1:{port}",
                connect_retries=6, retry_backoff_s=0.1,
            )
            assert client.healthz()["status"] == "ok"  # refused, then served
        finally:
            t.join(5.0)
            if "server" in started:
                started["server"].close()


class TestClientKeepsOneConnection:
    """Every request of a thread goes down one kept-alive connection; an
    error answer or a dropped connection costs one reconnect, never a
    failed or mis-parsed request."""

    def test_requests_reuse_the_connection(self, server):
        client = HttpClient(server.url)
        client.healthz()
        sock = client._local.connection.sock
        final = client.wait(client.submit(TXNS, CFG)["job_id"], timeout=30.0)
        client.result(final["job_id"])
        assert client._local.connection.sock is sock

    def test_an_error_answer_does_not_poison_the_next_request(self, server):
        # the 404 is sent before the body is read: the server must end the
        # connection, or "{...}" would prefix the next request line
        client = HttpClient(server.url)
        for _ in range(2):
            with pytest.raises(ServeError, match="404"):
                client._request("POST", "/nowhere", {"transactions": TXNS})
            assert client.healthz()["status"] == "ok"

    def test_reconnects_when_the_server_dropped_the_connection(self, server):
        import socket

        client = HttpClient(server.url, connect_retries=0)
        client.healthz()
        client._local.connection.sock.shutdown(socket.SHUT_RDWR)
        assert client.healthz()["status"] == "ok"  # no retry budget needed

    def test_each_thread_has_its_own_connection(self, server):
        client = HttpClient(server.url)
        client.healthz()
        mine = client._local.connection
        seen = []

        def other():
            client.healthz()
            seen.append(client._local.connection)

        t = threading.Thread(target=other)
        t.start()
        t.join(10.0)
        assert seen and seen[0] is not mine
        assert client._local.connection is mine
