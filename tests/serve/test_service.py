"""MiningService lifecycle: queueing, caching, coalescing, cancel/timeout/retry."""

import threading
import time

import pytest

from repro.common.errors import MiningError
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import (
    MiningConfig,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.results import MiningRunResult
from repro.datasets import mushroom_like
from repro.engine.faults import InjectedTaskFailure
from repro.serve import HttpClient, JobState, LocalClient, MiningServer, MiningService, ServeError
from repro.serve.http import _Handler

TXNS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]
CFG = MiningConfig(min_support=0.4, backend="serial")


def _result(txns, config, n=1) -> MiningRunResult:
    out = MiningRunResult(
        algorithm=config.algorithm,
        min_support=config.min_support,
        n_transactions=len(txns),
    )
    out.itemsets = {(1,): n}
    return out


@pytest.fixture
def algo():
    """Register a throwaway algorithm; yields its name, cleans up after."""
    registered = []

    def _register(runner, name="probe_algo"):
        register_algorithm(name, runner, overwrite=True)
        registered.append(name)
        return name

    yield _register
    for name in registered:
        unregister_algorithm(name)


@pytest.fixture
def service():
    with MiningService(n_workers=1, result_ttl_s=60.0) as svc:
        yield svc


class TestSubmitAndRun:
    def test_single_job_matches_direct_call(self, service):
        job = service.submit(TXNS, CFG)
        assert job.wait(30.0)
        direct = mine_frequent_itemsets(TXNS, config=CFG)
        assert job.state is JobState.DONE
        assert job.result.itemsets == direct.itemsets
        assert job.attempts == 1 and job.via == "run"

    def test_unknown_algorithm_fails_fast(self, service):
        with pytest.raises(MiningError):
            service.submit(TXNS, MiningConfig(min_support=0.4, algorithm="nope"))

    def test_unknown_job_id(self, service):
        with pytest.raises(ServeError):
            service.get("job-does-not-exist")

    def test_memoized_resubmission(self, service):
        first = service.submit(TXNS, CFG)
        first.wait(30.0)
        again = service.submit(TXNS, CFG)
        assert again.state is JobState.DONE and again.via == "memoized"
        assert again.result.itemsets == first.result.itemsets
        assert service.results.hits == 1

    def test_int_and_str_copies_of_a_dataset_get_their_own_answers(self, service):
        """Bugfix: ``1`` and ``"1"`` render alike, and the fingerprint
        rendered every item with ``str()`` — so the str copy of a dataset
        was answered with the int copy's memoized itemsets, and a named
        dataset's parsed rows were handed to a job over the other copy."""
        ints = [[1, 2], [1, 2], [1]]
        strs = [[str(item) for item in row] for row in ints]
        first = service.submit(ints, CFG)
        assert first.wait(30.0) and dict(first.result.itemsets) == {(1,): 3, (2,): 2, (1, 2): 2}
        again = service.submit(strs, CFG)
        assert again.wait(30.0) and again.via == "run"
        assert dict(again.result.itemsets) == {("1",): 3, ("2",): 2, ("1", "2"): 2}
        service.create_dataset("ints", ints)
        service.create_dataset("strs", strs)
        assert service.dataset_info("ints")["fingerprint"] != service.dataset_info("strs")[
            "fingerprint"
        ]
        for name, answer in (("ints", first), ("strs", again)):
            job = service.submit(None, MiningConfig(min_support=0.5), dataset_id=name)
            assert job.wait(30.0) and job.result.itemsets == answer.result.itemsets

    def test_priority_orders_queued_jobs(self, service, algo):
        release = threading.Event()
        order = []

        def blocker(txns, config):
            release.wait(10.0)
            return _result(txns, config)

        def recorder(txns, config):
            order.append(config.options["tag"])
            return _result(txns, config)

        blocker_name = algo(blocker, "blocker_algo")
        recorder_name = algo(recorder, "recorder_algo")
        first = service.submit(TXNS, MiningConfig(min_support=0.4, algorithm=blocker_name))
        deadline = time.monotonic() + 10.0
        while first.state is not JobState.RUNNING:  # wait for the worker to grab it
            assert time.monotonic() < deadline
            time.sleep(0.005)
        low = service.submit(
            TXNS,
            MiningConfig(min_support=0.4, algorithm=recorder_name, options={"tag": "low"}),
            priority=5,
        )
        high = service.submit(
            TXNS,
            MiningConfig(min_support=0.4, algorithm=recorder_name, options={"tag": "high"}),
            priority=-5,
        )
        assert service.queue_depth() == 2
        release.set()
        for job in (first, low, high):
            assert job.wait(30.0)
        assert order == ["high", "low"]


class TestCancellation:
    def test_cancel_queued_job(self, service, algo):
        release = threading.Event()
        name = algo(lambda t, c: (release.wait(10.0), _result(t, c))[1], "block_algo")
        running = service.submit(TXNS, MiningConfig(min_support=0.4, algorithm=name))
        queued = service.submit(TXNS, CFG)
        assert queued.state is JobState.PENDING
        assert service.cancel(queued.job_id) is True
        assert queued.state is JobState.CANCELLED
        assert queued.started_s is None  # never ran
        release.set()
        running.wait(30.0)

    def test_cancel_running_job(self, service, algo):
        started = threading.Event()

        def slow(txns, config):
            started.set()
            time.sleep(5.0)
            return _result(txns, config)

        name = algo(slow, "slow_algo")
        job = service.submit(TXNS, MiningConfig(min_support=0.4, algorithm=name))
        assert started.wait(10.0)
        t0 = time.monotonic()
        assert service.cancel(job.job_id) is True
        assert job.wait(10.0)
        assert job.state is JobState.CANCELLED
        assert time.monotonic() - t0 < 2.0  # did not wait out the sleep

    def test_cancel_terminal_job_is_noop(self, service):
        job = service.submit(TXNS, CFG)
        job.wait(30.0)
        assert service.cancel(job.job_id) is False
        assert job.state is JobState.DONE


class TestTimeout:
    def test_timeout_fires_mid_iteration(self, service, algo):
        def grinding(txns, config):
            for _ in range(200):  # ~4s of "iterations"
                time.sleep(0.02)
            return _result(txns, config)

        name = algo(grinding, "grind_algo")
        t0 = time.monotonic()
        job = service.submit(
            TXNS, MiningConfig(min_support=0.4, algorithm=name), timeout_s=0.2
        )
        assert job.wait(10.0)
        assert job.state is JobState.TIMED_OUT
        assert "timed out" in job.error
        assert time.monotonic() - t0 < 2.0
        # a timed-out run must not poison the result cache
        assert len(service.results) == 0

    def test_default_timeout_applies(self, algo):
        name = None
        with MiningService(n_workers=1, default_timeout_s=0.1) as svc:
            register_algorithm("snooze_algo", lambda t, c: time.sleep(5.0), overwrite=True)
            name = "snooze_algo"
            try:
                job = svc.submit(TXNS, MiningConfig(min_support=0.4, algorithm=name))
                assert job.wait(10.0)
                assert job.state is JobState.TIMED_OUT
            finally:
                unregister_algorithm(name)


class TestRetry:
    def test_retry_exhausts_budget_on_injected_fault(self, service, algo):
        calls = []

        def faulty(txns, config):
            calls.append(1)
            raise InjectedTaskFailure("injected fault from repro.engine.faults")

        name = algo(faulty, "faulty_algo")
        job = service.submit(
            TXNS,
            MiningConfig(min_support=0.4, algorithm=name),
            max_retries=2,
            retry_backoff_s=0.01,
        )
        assert job.wait(30.0)
        assert job.state is JobState.FAILED
        assert job.attempts == 3 and len(calls) == 3  # 1 try + 2 retries
        assert "transient failure after 3 attempt(s)" in job.error

    def test_transient_fault_recovers_within_budget(self, service, algo):
        calls = []

        def flaky(txns, config):
            calls.append(1)
            if len(calls) < 3:
                raise InjectedTaskFailure("flaky")
            return _result(txns, config)

        name = algo(flaky, "flaky_algo")
        job = service.submit(
            TXNS,
            MiningConfig(min_support=0.4, algorithm=name),
            max_retries=3,
            retry_backoff_s=0.01,
        )
        assert job.wait(30.0)
        assert job.state is JobState.DONE and job.attempts == 3

    def test_permanent_error_fails_without_retry(self, service, algo):
        calls = []

        def broken(txns, config):
            calls.append(1)
            raise ValueError("programming error")

        name = algo(broken, "broken_algo")
        job = service.submit(
            TXNS, MiningConfig(min_support=0.4, algorithm=name), max_retries=3
        )
        assert job.wait(30.0)
        assert job.state is JobState.FAILED
        assert len(calls) == 1
        assert "permanent" in job.error


class TestCoalescing:
    def test_identical_concurrent_submissions_coalesce(self, service, algo):
        release = threading.Event()
        calls = []

        def gated(txns, config):
            calls.append(1)
            release.wait(10.0)
            return _result(txns, config)

        name = algo(gated, "gated_algo")
        cfg = MiningConfig(min_support=0.4, algorithm=name)
        primary = service.submit(TXNS, cfg)
        follower = service.submit(TXNS, cfg)
        assert follower.via == "coalesced"
        assert follower.coalesced_with == primary.job_id
        release.set()
        assert primary.wait(30.0) and follower.wait(30.0)
        assert primary.state is JobState.DONE and follower.state is JobState.DONE
        assert follower.result is primary.result  # shared, not recomputed
        assert len(calls) == 1
        assert service.jobs_coalesced == 1

    def test_follower_promoted_when_primary_cancelled(self, service, algo):
        started = threading.Event()
        calls = []

        def gated(txns, config):
            calls.append(1)
            started.set()
            time.sleep(0.3)
            return _result(txns, config, n=len(calls))

        name = algo(gated, "promote_algo")
        cfg = MiningConfig(min_support=0.4, algorithm=name)
        primary = service.submit(TXNS, cfg)
        assert started.wait(10.0)
        follower = service.submit(TXNS, cfg)
        assert follower.via == "coalesced"
        service.cancel(primary.job_id)
        assert primary.wait(10.0)
        assert primary.state is JobState.CANCELLED
        # follower reruns on its own rather than inheriting the cancellation
        assert follower.wait(30.0)
        assert follower.state is JobState.DONE and follower.via == "run"
        assert len(calls) == 2


class TestEndToEnd:
    def test_eight_concurrent_jobs_match_direct_results(self, algo):
        ds = mushroom_like(scale=0.02, seed=5)
        configs = [
            MiningConfig(min_support=s, algorithm=a, backend="serial")
            for s in (0.45, 0.55, 0.65, 0.75)
            for a in ("yafim", "apriori")
        ]
        assert len(configs) == 8
        direct = {
            c.cache_key(): mine_frequent_itemsets(ds.transactions, config=c)
            for c in configs
        }
        with MiningService(n_workers=4) as svc:
            client = LocalClient(svc)
            results = {}

            def run_one(cfg):
                results[cfg.cache_key()] = client.mine(ds.transactions, cfg, timeout=120)

            threads = [threading.Thread(target=run_one, args=(c,)) for c in configs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(results) == 8
            for key, itemsets in results.items():
                assert itemsets == direct[key].itemsets
            states = svc.jobs_by_state()
            assert states["done"] == 8
            # one dataset shared across all eight jobs
            assert svc.datasets.stats()["entries"] == 1

    def test_memoized_rerun_is_5x_faster(self):
        ds = mushroom_like(scale=0.05, seed=5)
        cfg = MiningConfig(min_support=0.35, backend="serial")
        with MiningService(n_workers=1) as svc:
            # timed on the service, where the memo's cost lives (the client
            # adds the same codec work to a cold and to a memoized job)
            t0 = time.perf_counter()
            cold = svc.submit(ds.transactions, cfg)
            assert cold.wait(120)
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = svc.submit(ds.transactions, cfg)
            assert warm.wait(120)
            warm_s = time.perf_counter() - t0
            assert warm.via == "memoized" and warm.result.itemsets == cold.result.itemsets
            assert cold_s / max(warm_s, 1e-9) >= 5.0
            assert LocalClient(svc).mine(ds.transactions, cfg, timeout=120) == cold.result.itemsets


class TestShutdown:
    def test_shutdown_cancels_queued_and_rejects_new(self, algo):
        release = threading.Event()
        name = "shutdown_algo"
        register_algorithm(
            name, lambda t, c: (release.wait(10.0), _result(t, c))[1], overwrite=True
        )
        try:
            svc = MiningService(n_workers=1)
            running = svc.submit(TXNS, MiningConfig(min_support=0.4, algorithm=name))
            queued = svc.submit(TXNS, CFG)
            release.set()
            svc.shutdown()
            assert queued.state is JobState.CANCELLED
            assert running.is_terminal
            with pytest.raises(ServeError):
                svc.submit(TXNS, CFG)
        finally:
            unregister_algorithm(name)

    def test_follower_settles_when_primary_cancelled_after_shutdown(self, algo):
        # once shutdown has run, workers are exiting and the pending-cancel
        # sweep is over — a follower promoted at that point must be settled,
        # not re-queued to wait on a worker that will never come
        started = threading.Event()
        release = threading.Event()

        def gated(txns, config):
            started.set()
            release.wait(10.0)
            return _result(txns, config)

        name = algo(gated, "late_shutdown_algo")
        svc = MiningService(n_workers=1)
        try:
            cfg = MiningConfig(min_support=0.4, algorithm=name)
            primary = svc.submit(TXNS, cfg)
            assert started.wait(10.0)
            follower = svc.submit(TXNS, cfg)
            assert follower.via == "coalesced"
            svc.shutdown(wait=False)  # primary is still running
            assert svc.cancel(primary.job_id) is True
            assert primary.wait(10.0)
            assert primary.state is JobState.CANCELLED
            assert follower.wait(10.0), "follower stranded PENDING after shutdown"
            assert follower.state is JobState.CANCELLED
            assert follower.error == "service shut down"
        finally:
            release.set()
            svc.shutdown()

    def test_a_long_poll_on_a_queued_follower_returns_at_shutdown(self, algo, monkeypatch):
        """A gated job runs; a primary is queued behind it with a follower
        coalesced onto it, and a client long-polls the follower over the
        socket.  ``shutdown(wait=False)`` cancels both queued jobs and the
        poll comes back with that snapshot at once."""
        # an idle kept-alive connection gives its handler thread back in 0.5 s
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        started, release = threading.Event(), threading.Event()

        def gated(txns, config):
            started.set()
            release.wait(15.0)
            return _result(txns, config)

        name = algo(gated, "parked_algo")
        threads_before = set(threading.enumerate())
        with MiningServer(port=0, n_workers=1) as server:
            client = HttpClient(server.url)
            try:
                running = client.submit(TXNS, MiningConfig(min_support=0.4, algorithm=name))
                assert started.wait(10.0)
                primary = client.submit(TXNS, CFG)
                follower = client.submit(TXNS, CFG)
                assert primary["state"] == "pending"
                assert (follower["via"], follower["coalesced_with"]) == (
                    "coalesced", primary["job_id"])
                answer = {}
                poll = threading.Thread(target=lambda: answer.update(
                    HttpClient(server.url).wait(follower["job_id"], timeout=20.0)))
                poll.start()
                time.sleep(0.2)  # the poll is parked in the service
                assert poll.is_alive()
                t0 = time.monotonic()
                server.service.shutdown(wait=False)
                poll.join(1.0)
                assert not poll.is_alive(), "the long-poll outlived the shutdown"
                assert time.monotonic() - t0 < 1.0
                for snapshot in (answer, client.status(primary["job_id"])):
                    assert (snapshot["state"], snapshot["error"]) == (
                        "cancelled", "service shut down")
                assert client.status(running["job_id"])["state"] == "running"
            finally:
                release.set()
            assert client.wait(running["job_id"], timeout=10.0)["state"] == "done"
            shard = client.metrics()["shards"][0]["service"]
            assert shard["jobs_submitted"] == 3
            assert {k: v for k, v in shard["jobs_by_state"].items() if v} == {
                "done": 1, "cancelled": 2}
        deadline = time.monotonic() + 5.0
        while left := [t for t in threading.enumerate() if t not in threads_before]:
            assert time.monotonic() < deadline, f"threads left behind: {left}"
            time.sleep(0.01)

    def test_metrics_shape(self, service):
        service.submit(TXNS, CFG).wait(30.0)
        m = service.metrics()
        assert {"queue_depth", "workers", "jobs_by_state", "dataset_cache",
                "result_cache", "context_pool", "recent_jobs"} <= set(m)
        assert m["jobs_by_state"]["done"] == 1
        # an engine job ran, and the block stays what the frozen ledger reads
        assert m["context_pool"] == {"idle": 0, "created": 0, "reused": 0}
        assert 0.0 <= m["dataset_cache"]["hit_rate"] <= 1.0
        snap = m["recent_jobs"][0]
        assert snap["state"] == "done" and snap["num_itemsets"] > 0
