"""A job's record has one owner: the table of the shard that accepted it.

Bounded retention (410 vs 404 from the shard's own counter), state
counters instead of table walks, refusals that touch nothing, the
planner as the service's collaborator (keyed as asked, run as planned),
ids that name their shard, the ``/metrics`` key set held against the
parent's, and a soak run that watches every container.
"""

import gc
import random
import statistics
import sys
import threading
import time
import tracemalloc

import pytest

from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.core.results import MiningRunResult
from repro.serve import (
    ApiError,
    CostPlanner,
    JobState,
    LatencyHistogram,
    LocalClient,
    MiningService,
    RejectedError,
    ServeError,
    ShardRouter,
)

TXNS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]


def _result(txns, config) -> MiningRunResult:
    out = MiningRunResult(
        algorithm=config.algorithm, min_support=config.min_support, n_transactions=len(txns)
    )
    out.itemsets = {(1,): len(txns)}
    return out


@pytest.fixture
def algos():
    """``table_fast`` returns at once; ``table_gate`` holds its worker
    until the yielded event is set."""
    release = threading.Event()
    register_algorithm("table_fast", _result, overwrite=True)
    register_algorithm(
        "table_gate", lambda t, c: (release.wait(15.0), _result(t, c))[1], overwrite=True
    )
    yield release
    release.set()
    unregister_algorithm("table_fast")
    unregister_algorithm("table_gate")


def fast(tag=None) -> MiningConfig:
    return MiningConfig(min_support=0.4, algorithm="table_fast", options={"tag": tag})


def gate(tag=None) -> MiningConfig:
    return MiningConfig(min_support=0.4, algorithm="table_gate", options={"tag": tag})


def wait_running(job, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline, f"job never ran: {job.state}"
        time.sleep(0.005)


def code_of(call) -> tuple[int, str]:
    with pytest.raises(ApiError) as err:
        call()
    return err.value.status, err.value.code


def walk(svc) -> dict:
    counts = {state.value: 0 for state in JobState}
    for job in svc._jobs.values():
        counts[job.state.value] += 1
    return counts


# -- retention -----------------------------------------------------------------
class TestBoundedTable:
    def test_keeps_result_cache_entries_terminal_jobs_and_says_410_after(self, algos):
        with MiningService(n_workers=1, result_cache_entries=3, name="s") as svc:
            jobs = [svc.submit(TXNS, fast(i)) for i in range(6)]
            assert all(j.wait(30.0) for j in jobs)
            assert [j.job_id for j in jobs] == [f"job-s-{n}" for n in range(1, 7)]
            assert list(svc._jobs) == ["job-s-4", "job-s-5", "job-s-6"]
            for call in (svc.get, svc.wait, svc.cancel):
                assert code_of(lambda: call("job-s-1")) == (410, "job_expired")
            # never minted: past the counter, another shard's, no shard, not an id
            for never in ("job-s-7", "job-s-0", "job-t-1", "job-1", "job-s-x", "s-1", ""):
                assert code_of(lambda: svc.get(never)) == (404, "unknown_job"), never
            assert svc.jobs_by_state() == {**walk(svc), "done": 6}
            assert [j["job_id"] for j in svc.metrics()["recent_jobs"]] == list(svc._jobs)

    def test_an_unnamed_service_keeps_plain_ids(self, algos):
        with MiningService(n_workers=1, result_cache_entries=1) as svc:
            first, second = svc.submit(TXNS, fast(1)), svc.submit(TXNS, fast(2))
            assert first.wait(30.0) and second.wait(30.0)
            assert (first.job_id, second.job_id) == ("job-1", "job-2")
            assert code_of(lambda: svc.get("job-1")) == (410, "job_expired")
            assert code_of(lambda: svc.get("job-3")) == (404, "unknown_job")
            assert code_of(lambda: svc.get("job-shard-0-1")) == (404, "unknown_job")

    def test_live_jobs_are_never_let_go(self, algos):
        with MiningService(n_workers=1, result_cache_entries=2) as svc:
            warm = svc.submit(TXNS, fast())
            assert warm.wait(30.0)
            running = svc.submit(TXNS, gate())
            wait_running(running)
            queued = svc.submit(TXNS, gate("queued"))
            follower = svc.submit(TXNS, gate())
            for _ in range(10):  # terminal on arrival: churns the retained tail
                assert svc.submit(TXNS, fast()).via == "memoized"
            assert len(svc._jobs) == 3 + 2
            for job in (running, queued, follower):
                assert svc.get(job.job_id) is job
            counts = svc.jobs_by_state()
            assert counts == {**walk(svc), "done": 11}
            assert (counts["running"], counts["pending"]) == (1, 2)
            algos.set()
            assert all(j.wait(30.0) for j in (running, queued, follower))
            assert sum(svc.jobs_by_state().values()) == svc.jobs_submitted == 14


# -- no client-named state ---------------------------------------------------------
def test_tenant_names_past_the_cap_fold_into_other(algos, monkeypatch):
    monkeypatch.setattr("repro.serve.service.MAX_TENANT_NAMES", 4)
    with MiningService(n_workers=1) as svc:
        assert svc.submit(TXNS, fast()).wait(30.0)  # tenant "default"; later ones memoize
        running = svc.submit(TXNS, gate(), tenant="a")
        wait_running(running)
        queued = svc.submit(TXNS, gate("queued"), tenant="b")
        for i in range(40):  # each name a client's to choose
            assert svc.submit(TXNS, fast(), tenant=f"name-{i}").via == "memoized"
            assert len(svc._tenant_counts) <= 4
        stats = svc.tenant_stats()
        assert sorted(stats) == ["name-37", "name-38", "name-39", "other"]
        # "a" and "b" were folded with their jobs live: one running, one still queued
        assert stats["other"] == {"submitted": 40, "done": 38, "pending": 1, "weight": 1.0}
        assert stats["name-39"] == {"submitted": 1, "done": 1, "pending": 0, "weight": 1.0}
        algos.set()
        assert running.wait(30.0) and queued.wait(30.0)  # they finish where they were counted
        stats = svc.tenant_stats()
        assert stats["other"] == {"submitted": 40, "done": 40, "pending": 0, "weight": 1.0}
        assert sum(t["submitted"] for t in stats.values()) == svc.jobs_submitted == 43
        assert svc.submit(TXNS, fast(), tenant="other").via == "memoized"  # shares the bucket
        assert svc.tenant_stats()["other"]["submitted"] == 41


# -- admit first ---------------------------------------------------------------
def footprint(svc) -> dict:
    """Everything a refused submit must leave as it found it."""
    results = svc.results.stats()
    for probe_counter in ("hits", "misses", "hit_rate"):  # the probe is counted
        del results[probe_counter]
    return {
        "dataset_cache": svc.datasets.stats(),
        "result_cache": results,
        "table": list(svc._jobs),
        "jobs_submitted": svc.jobs_submitted,
        "jobs_by_state": svc.jobs_by_state(),
        "tenants": svc.tenant_stats(),
        "inflight": sorted(svc._inflight),
    }


class TestRefusedSubmitsTouchNothing:
    def test_fifty_rejections_on_one_service(self, algos):
        with MiningService(n_workers=1, queue_limit=1) as svc:
            wait_running(svc.submit(TXNS, gate()))
            svc.submit(TXNS, gate("fills-the-slot"))
            before = footprint(svc)
            for i in range(50):
                with pytest.raises(RejectedError):
                    svc.submit([[i, i + 1], [i]], fast(i), tenant=f"refused-{i}")
            assert footprint(svc) == before
            assert svc.jobs_rejected == 50
            assert before["dataset_cache"]["entries"] == 1
            algos.set()  # or shutdown waits out the gate

    def test_a_shut_down_service_adds_nothing(self, algos):
        svc = MiningService(n_workers=1)
        svc.shutdown()
        before = footprint(svc)
        with pytest.raises(ServeError, match="shut down"):
            svc.submit([[7, 8]], fast())
        assert footprint(svc) == before

    def test_through_a_three_shard_spill_chain(self, algos):
        with ShardRouter(n_shards=3, n_workers=1, queue_limit=1, shed_priority=0,
                         shed_at=1.0) as router:
            seed = 0
            for shard in router.shards:  # saturate every shard: one running, one queued
                for tag in ("runs", "fills"):
                    while True:
                        seed += 1
                        if router.home_shard([[seed]]) == shard.name:
                            break
                    job = router.submit([[seed]], gate(tag))
                    assert job.shard == shard.name
                    if tag == "runs":
                        wait_running(job)
            before = [footprint(s) for s in router.shards]
            for i in range(20):  # every shard in the chain is tried, and refuses
                with pytest.raises(RejectedError) as err:
                    router.submit([[9000 + i], [i]], fast(i))
                assert err.value.scope == "router"
            for i in range(5):  # shed before any shard is asked
                with pytest.raises(RejectedError, match="shed"):
                    router.submit([[8000 + i]], fast(i), priority=5)
            assert [footprint(s) for s in router.shards] == before
            metrics = router.metrics()
            assert metrics["router"]["jobs_rejected"] == 20 and metrics["router"]["jobs_shed"] == 5
            assert [s["jobs_rejected"] for s in metrics["shards"]] == [20, 20, 20]
            algos.set()  # or each shard's shutdown waits out its gate


# -- the planner is the service's collaborator -----------------------------------
class TestKeyedAsAskedRunAsPlanned:
    def test_a_flipping_plan_never_defeats_the_memo(self):
        cfg = MiningConfig(min_support=0.4)  # every engine knob left to the planner
        with MiningService(n_workers=1) as svc:  # embedded, no router: it plans too
            svc.planner = CostPlanner()
            # every other submit pins the partitions at their default: the
            # plan flips under the same question
            jobs = [
                svc.submit(TXNS, cfg, pinned=("num_partitions",) if i % 2 else ())
                for i in range(20)
            ]
            assert all(j.wait(60.0) for j in jobs)
            first, repeats = jobs[0], jobs[1:]
            assert first.via == "run" and first.state is JobState.DONE
            assert {j.via for j in repeats} <= {"memoized", "coalesced"}
            # each job reports its own plan
            plans = [j.snapshot()["planned"] for j in jobs]
            assert plans == [
                {"num_partitions": 1, "candidate_store": "bitmap"},
                {"candidate_store": "bitmap"},
            ] * 10
            # keyed as asked: the caller's config, untouched
            assert all(j.request.config == cfg for j in jobs)
            assert len({j.result_key for j in jobs}) == 1
            assert svc.results.stats()["entries"] == 1

    def test_named_dataset_jobs_and_unplanned_services_carry_no_plan(self, algos):
        with MiningService(n_workers=1) as svc:
            plain = svc.submit(TXNS, fast(), pinned=("backend",))  # inert without a planner
            assert plain.wait(30.0) and plain.planned is None
            svc.planner = CostPlanner()
            svc.create_dataset("w", TXNS)
            named = svc.submit(None, MiningConfig(min_support=0.4), dataset_id="w")
            assert named.wait(30.0) and named.planned is None
            assert svc.planner.stats()["plans"] == 0

    def test_promoted_follower_runs_with_its_own_plan(self):
        started = threading.Event()
        stores = []

        def slow(ctx, txns, config):
            stores.append(config.candidate_store)
            started.set()
            time.sleep(0.3)
            out = _result(txns, config)
            out.trace = out.engine_metrics = object()
            return out

        register_algorithm("table_engine", slow, needs_engine=True, overwrite=True)
        try:
            with ShardRouter(n_shards=1, n_workers=1, planner=CostPlanner()) as router:
                cfg = MiningConfig(min_support=0.4, algorithm="table_engine", backend="serial")
                primary = router.submit(TXNS, cfg)
                assert started.wait(10.0)
                follower = router.submit(TXNS, cfg, pinned=("candidate_store",))
                assert follower.via == "coalesced"
                assert router.cancel(primary.job_id)
                assert follower.wait(30.0) and (follower.state, follower.via) == (
                    JobState.DONE, "run")
                # the follower's run, on the follower's plan
                assert stores == ["bitmap", "hashtree"]
        finally:
            unregister_algorithm("table_engine")


# -- no per-job state in the router ----------------------------------------------
class TestJobIdNamesItsShard:
    def test_live_jobs_are_reached_from_the_id_alone_on_four_shards(self, algos):
        with ShardRouter(n_shards=4, n_workers=1) as router:
            jobs, seed = {}, 0
            while len(jobs) < 4:  # one gated job per shard
                seed += 1
                home = router.home_shard([[seed]])
                if home not in jobs:
                    jobs[home] = router.submit([[seed]], gate())
            for name, job in jobs.items():
                assert job.job_id == f"job-{name}-1" and job.shard == name
                assert router.get(job.job_id) is job
                assert LocalClient(router).status(job.job_id)["shard"] == name
                assert router.wait(job.job_id, 0.01) is job and not job.is_terminal
                assert not any(
                    job.job_id in held for held in vars(router).values()
                    if isinstance(held, (dict, set, list))
                )
            for job in jobs.values():
                assert router.cancel(job.job_id) is True
                assert router.wait(job.job_id, 10.0).state is JobState.CANCELLED

    def test_ids_that_name_nobody_are_404(self, algos):
        with ShardRouter(n_shards=2, n_workers=1) as router:
            job = router.submit(TXNS, fast())
            assert router.wait(job.job_id, 30.0).state is JobState.DONE
            minted = f"job-{job.shard}-"
            for never in ("job-1", "job-shard-9-1", f"{minted}2", f"{minted}0", "job-", "x"):
                for call in (router.get, router.wait, router.cancel):
                    assert code_of(lambda: call(never)) == (404, "unknown_job"), never


# -- /metrics: same keys as the parent, same cost on day 30 ------------------------
def flatten(value, prefix="") -> set:
    keys = set()
    if isinstance(value, dict):
        for key, inner in value.items():
            keys.add(f"{prefix}{key}")
            keys |= flatten(inner, f"{prefix}{key}.")
    elif isinstance(value, list):
        for inner in value:
            keys |= flatten(inner, f"{prefix[:-1]}[*].")
    return keys


def leaves(names: str) -> dict:
    return dict.fromkeys(names.split())


HISTOGRAM = leaves("count max_s mean_s p50_s p95_s p99_s")
#: shape of the routed payload at the parent commit (PR 17) after the
#: script below, recorded by running it there; lists hold one element
#: shape.  Two blocks added since: ``job_workers``, ``dataset_owner``.  Gone with the
#: approximate tier and the cost model: ``planner``'s estimate counters,
#: ``result_cache``'s ``approx_indexed`` / ``upgrades``, a job's ``fast_tier``
PARENT_SHAPE = {
    "planner": leaves("plans"),
    "ring": leaves("nodes replicas"),
    "router": leaves(
        "jobs_rejected jobs_routed jobs_shed jobs_spilled queue_depth queue_limit_per_shard "
        "shards shed_at shed_priority spill"
    ),
    "shards": [{
        **leaves("jobs_home jobs_rejected jobs_spilled_in name queue_depth queue_limit"),
        "service": {
            **leaves("name queue_depth queue_limit workers jobs_submitted jobs_coalesced "
                     "jobs_rejected"),
            "context_pool": leaves("created idle reused"),
            "dataset_cache": leaves("bytes entries evictions hit_rate hits max_bytes misses"),
            "dataset_registry": leaves(
                "appends buffered creates datasets flushes retired_transactions"
            ),
            "job_workers": leaves(
                "alive datasets_resident jobs_run killed restarts rows_shipped ship_bytes started"
            ),
            "dataset_owner": leaves(
                "datasets pid requests respawns started versions_applied vm_hwm_kb"
            ),
            "jobs_by_state": leaves("cancelled done failed pending running timed_out"),
            "latency": {"queue_wait": HISTOGRAM, "run": HISTOGRAM},
            "result_cache": leaves(
                "entries evictions expirations hit_rate hits invalidations max_entries misses "
                "ttl_s"
            ),
            "tenants": {"default": leaves("cancelled done pending submitted weight")},
            "recent_jobs": [{
                **leaves(
                    "algorithm attempts coalesced_with dataset_fingerprint dataset_id "
                    "dataset_version engine_metrics error job_id min_support "
                    "num_itemsets priority queued_seconds run_seconds shard state tenant "
                    "trace_spans via"
                ),
                # the planner chooses no backend: two knobs, not three
                "planned": leaves("candidate_store num_partitions"),
            }],
        },
    }],
}


def test_routed_metrics_keep_the_parents_key_set(algos):
    """submit x3 incl. one coalesced and one memoized, a 429, a cancel,
    one engine job — on a planner server."""
    with ShardRouter(n_shards=1, n_workers=1, queue_limit=1, planner=CostPlanner()) as router:
        first = router.submit(TXNS, gate())
        wait_running(first)
        assert router.submit(TXNS, gate()).via == "coalesced"
        fill = router.submit(TXNS, gate("fill"))
        with pytest.raises(RejectedError):
            router.submit(TXNS, gate("over"))
        assert router.cancel(fill.job_id)
        algos.set()
        assert router.wait(first.job_id, 10.0).state is JobState.DONE
        engine = router.submit([[1, 2], [1, 2, 3], [2, 3]], MiningConfig(min_support=0.4))
        assert router.wait(engine.job_id, 30.0).state is JobState.DONE
        assert router.submit(TXNS, gate()).via == "memoized"
        assert flatten(router.metrics()) == flatten(PARENT_SHAPE)
    with ShardRouter(n_shards=1, n_workers=1) as unplanned:
        assert "planner" not in unplanned.metrics()


def test_histogram_summary_is_the_last_windows_whatever_fell_out():
    """The window is kept sorted as samples come and go (a summary is
    index reads, not a sort): duplicates and evictions included, it must
    read exactly as a sort of the last ``max_samples`` would."""
    rng = random.Random(18)
    hist, seen = LatencyHistogram(max_samples=16), []
    for _ in range(200):
        seen.append(rng.choice([0.001, 0.002, 0.005]) if rng.random() < 0.4 else rng.random())
        hist.record(seen[-1])
        window = sorted(seen[-16:])
        snap = hist.snapshot()
        assert hist._sorted == window and list(hist._window) == seen[-16:]
        assert snap["count"] == len(seen) and snap["max_s"] == round(window[-1], 6)
        assert snap["p50_s"] == round(window[round(0.5 * (len(window) - 1))], 6)


# -- soak ------------------------------------------------------------------------
CAP = 64  # result_cache_entries: small, so retention is exercised from job ~130 on
CLIENTS = 4


def test_soak_four_thousand_jobs_leave_nothing_behind(algos):
    """4 000 jobs + 400 retiring appends on a ``ShardRouter(2)``, called as
    ``dispatch`` calls it (the codec in front is test_api.py's subject);
    jobs 100..800 come from more client threads than cores with thread
    switches forced often, the rest from one closed-loop client.  Sized by
    what it compares: every bounded container is full by the early mark
    (``CAP`` retained jobs and results, 256 histogram samples, a 4 KiB
    dataset cache), and the late mark has five times the jobs behind it —
    under ``tracemalloc``, which makes a job six times its price."""
    tracemalloc.start()
    try:
        with ShardRouter(n_shards=2, n_workers=1, result_cache_entries=CAP,
                         dataset_cache_bytes=4 * 1024) as router:
            router.create_dataset("feed", [[i, i + 1] for i in range(40)], max_window=48)
            services = router.shards
            for svc in services:
                # bounded at 2048 samples each; swapped for ones that are full
                # by the first mark, or their fill (~240 KB) reads as growth
                svc.queue_wait_hist = LatencyHistogram(max_samples=256)
                svc.run_time_hist = LatencyHistogram(max_samples=256)

            def one_job(i: int) -> None:
                tenant = f"tenant-{i % 5}"
                if i % 10 == 0:  # an append that retires, then a job on the window
                    router.append_dataset("feed", [[i, i + 1], [i + 2]])
                    job = router.submit(None, fast(), dataset_id="feed", tenant=tenant)
                elif i % 3 == 0:  # a repeat: memoized once its first run is in
                    job = router.submit([[i % 24, 1], [2]], fast(), tenant=tenant)
                else:
                    job = router.submit([[i, i + 1], [i]], fast(), tenant=tenant)
                final = router.wait(job.job_id, 30.0)
                assert final.state is JobState.DONE and router.get(job.job_id).result.itemsets
                for svc in services:
                    assert len(svc._jobs) <= CAP + CLIENTS

            def stress(start: int, stop: int) -> None:
                failures = []

                def worker(offset):
                    try:
                        for i in range(start + offset, stop, CLIENTS):
                            one_job(i)
                    except BaseException as err:  # noqa: BLE001 - reported below
                        failures.append(err)

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(CLIENTS)]
                switch = sys.getswitchinterval()
                sys.setswitchinterval(1e-4)
                try:
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(120.0)
                finally:
                    sys.setswitchinterval(switch)
                assert not any(t.is_alive() for t in threads) and not failures, failures

            def metrics_cost(start: int) -> float:
                samples = []
                for i in range(start, start + 100):
                    one_job(i)
                    t0 = time.perf_counter()
                    router.metrics()
                    samples.append(time.perf_counter() - t0)
                return statistics.median(samples)

            def held() -> tuple[int, dict]:
                gc.collect()
                sizes = {
                    name: len(value) for name, value in vars(router).items()
                    if hasattr(value, "__len__")
                }
                return tracemalloc.get_traced_memory()[0], sizes

            early_cost = metrics_cost(0)
            stress(100, 800)
            early_bytes, early_sizes = held()
            for i in range(800, 3_900):
                one_job(i)
            late_cost = metrics_cost(3_900)
            late_bytes, late_sizes = held()

            assert late_sizes == early_sizes  # the router holds nothing that grew
            assert late_cost <= 2 * early_cost + 2e-4, (early_cost, late_cost)
            assert late_bytes <= 1.10 * early_bytes, (early_bytes, late_bytes)
            assert sum(s.jobs_submitted for s in services) == 4_000
            assert router.dataset_info("feed")["version"] == 1 + 400
            for svc in services:  # quiescent: counters == a walk + what was let go
                counts, table = svc.jobs_by_state(), walk(svc)
                let_go = svc.jobs_submitted - len(svc._jobs)
                assert len(svc._jobs) == CAP and not svc._inflight and not svc._queue._lanes
                assert sum(counts.values()) == svc.jobs_submitted
                assert counts["pending"] == counts["running"] == 0 == table["pending"]
                assert counts["done"] == table["done"] + let_go
    finally:
        tracemalloc.stop()
