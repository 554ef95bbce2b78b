"""ShardRouter: affinity, spill, shedding, delegation, planner wiring."""

import threading
import time

import pytest

from repro.core.registry import (
    MiningConfig,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.results import MiningRunResult
from repro.datasets import mushroom_like
from repro.serve import (
    CostPlanner,
    JobState,
    LocalClient,
    RejectedError,
    ServeError,
    ShardRouter,
)

CFG = MiningConfig(min_support=0.4, backend="serial")


def _result(txns, config) -> MiningRunResult:
    out = MiningRunResult(
        algorithm=config.algorithm,
        min_support=config.min_support,
        n_transactions=len(txns),
    )
    out.itemsets = {(1,): 1}
    return out


def wait_running(job, timeout: float = 10.0) -> None:
    """Spin until a worker has picked the job up (it left the queue)."""
    deadline = time.monotonic() + timeout
    while job.state is not JobState.RUNNING:
        assert time.monotonic() < deadline, f"job never ran: {job.state}"
        time.sleep(0.005)


def datasets_by_home(router: ShardRouter, per_shard: int = 1) -> dict:
    """Distinct tiny datasets grouped by home shard — lets a test aim a
    submission at a specific shard by picking from the right bucket."""
    buckets: dict[str, list] = {s.name: [] for s in router.shards}
    seed = 0
    while any(len(v) < per_shard for v in buckets.values()):
        seed += 1
        txns = [[seed, seed + 1, seed + 2], [seed, seed + 1], [seed + 9000]]
        home = router.home_shard(txns)
        if len(buckets[home]) < per_shard:
            buckets[home].append(txns)
        assert seed < 10_000, "could not cover every shard"
    return buckets


@pytest.fixture
def gated_algo():
    """A blocking algorithm: jobs hold their worker until released."""
    release = threading.Event()

    def gated(txns, config):
        release.wait(15.0)
        return _result(txns, config)

    register_algorithm("router_gate_algo", gated, overwrite=True)
    yield "router_gate_algo", release
    release.set()
    unregister_algorithm("router_gate_algo")


class TestRouting:
    def test_home_shard_deterministic_and_honoured(self):
        with ShardRouter(n_shards=3, n_workers=1) as router:
            buckets = datasets_by_home(router)
            for name, (txns,) in buckets.items():
                job = router.submit(txns, CFG)
                assert job.shard == name == router.home_shard(txns)
                assert router.wait(job.job_id, 30).state is JobState.DONE

    def test_affinity_makes_resubmits_memoized(self):
        with ShardRouter(n_shards=4, n_workers=1) as router:
            ds = mushroom_like(scale=0.02, seed=3).transactions
            first = router.submit(ds, CFG)
            router.wait(first.job_id, 30)
            again = router.submit(ds, CFG)
            assert again.shard == first.shard
            assert again.via == "memoized"

    def test_all_shards_usable_via_local_client(self):
        with ShardRouter(n_shards=2, n_workers=1) as router:
            client = LocalClient(router)
            buckets = datasets_by_home(router)
            for (txns,) in buckets.values():
                assert client.mine(txns, CFG, timeout=30)

    def test_constructor_validation(self):
        with pytest.raises(ServeError, match="n_shards"):
            ShardRouter(n_shards=0)
        with pytest.raises(ServeError, match="shed_at"):
            ShardRouter(n_shards=1, shed_at=1.5)


class TestSpill:
    def test_saturated_home_spills_to_next_ring_node(self, gated_algo):
        algo, release = gated_algo
        gate_cfg = MiningConfig(min_support=0.4, algorithm=algo)
        with ShardRouter(n_shards=2, n_workers=1, queue_limit=1) as router:
            buckets = datasets_by_home(router, per_shard=3)
            (home_name, txns_list), *_ = buckets.items()
            # occupy the home shard's worker, then fill its queue slot
            running = router.submit(txns_list[0], gate_cfg)
            wait_running(running)
            queued = router.submit(
                txns_list[1], MiningConfig(min_support=0.4, algorithm=algo,
                                           options={"tag": "fill"})
            )
            assert running.shard == queued.shard == home_name
            # third dataset homed there must spill to the other shard
            spilled = router.submit(txns_list[2], CFG)
            assert spilled.shard != home_name
            metrics = router.metrics()
            assert metrics["router"]["jobs_spilled"] == 1
            placed = {s["name"]: (s["jobs_home"], s["jobs_spilled_in"]) for s in metrics["shards"]}
            assert placed == {home_name: (2, 0), spilled.shard: (0, 1)}
            release.set()
            for job in (running, queued, spilled):
                assert router.wait(job.job_id, 30).is_terminal

    def test_spill_false_rejects_instead(self, gated_algo):
        algo, release = gated_algo
        gate_cfg = MiningConfig(min_support=0.4, algorithm=algo)
        with ShardRouter(n_shards=2, n_workers=1, queue_limit=1,
                         spill=False) as router:
            buckets = datasets_by_home(router, per_shard=3)
            (home_name, txns_list), *_ = buckets.items()
            wait_running(router.submit(txns_list[0], gate_cfg))
            router.submit(
                txns_list[1], MiningConfig(min_support=0.4, algorithm=algo,
                                           options={"tag": "fill"})
            )
            with pytest.raises(RejectedError) as exc:
                router.submit(txns_list[2], CFG)
            assert exc.value.scope == "router"
            release.set()

    def test_all_shards_saturated_raises_router_rejection(self, gated_algo):
        algo, release = gated_algo
        with ShardRouter(n_shards=2, n_workers=1, queue_limit=1) as router:
            buckets = datasets_by_home(router, per_shard=2)
            for txns_list in buckets.values():
                wait_running(router.submit(
                    txns_list[0], MiningConfig(min_support=0.4, algorithm=algo)
                ))
                router.submit(
                    txns_list[1],
                    MiningConfig(min_support=0.4, algorithm=algo,
                                 options={"tag": "fill"}),
                )
            with pytest.raises(RejectedError) as exc:
                router.submit([[777, 778]], CFG)
            err = exc.value
            assert err.scope == "router"
            assert err.retry_after_s > 0
            assert router.metrics()["router"]["jobs_rejected"] == 1
            release.set()


class TestShedding:
    def test_low_priority_shed_when_hot(self, gated_algo):
        algo, release = gated_algo
        with ShardRouter(n_shards=1, n_workers=1, queue_limit=2,
                         shed_priority=0, shed_at=0.5) as router:
            wait_running(
                router.submit([[1, 2]], MiningConfig(min_support=0.4, algorithm=algo))
            )
            router.submit(
                [[1, 2]], MiningConfig(min_support=0.4, algorithm=algo,
                                       options={"tag": "fill"})
            )  # queue now 1/2 full -> at shed_at
            with pytest.raises(RejectedError) as exc:
                router.submit([[5, 6]], CFG, priority=5)
            assert exc.value.scope == "router"
            assert "shed" in str(exc.value)
            assert router.metrics()["router"]["jobs_shed"] == 1
            # important traffic still admitted
            ok = router.submit([[5, 6]], CFG, priority=0)
            release.set()
            assert router.wait(ok.job_id, 30).state is JobState.DONE

    def test_shedding_off_by_default(self, gated_algo):
        algo, release = gated_algo
        with ShardRouter(n_shards=1, n_workers=1, queue_limit=3) as router:
            router.submit([[1, 2]], MiningConfig(min_support=0.4, algorithm=algo))
            job = router.submit([[5, 6]], CFG, priority=99)
            release.set()
            assert router.wait(job.job_id, 30).state is JobState.DONE


class TestDelegation:
    def test_get_wait_cancel_route_to_owning_shard(self, gated_algo):
        algo, release = gated_algo
        with ShardRouter(n_shards=3, n_workers=1) as router:
            job = router.submit([[1, 2]], MiningConfig(min_support=0.4, algorithm=algo))
            assert router.get(job.job_id) is job
            assert router.queue_depth() >= 0
            assert router.cancel(job.job_id) is True
            assert router.wait(job.job_id, 10).state is JobState.CANCELLED
            release.set()

    def test_unknown_job_raises(self):
        with ShardRouter(n_shards=2, n_workers=1) as router:
            with pytest.raises(ServeError, match="unknown job"):
                router.get("job-404")

    def test_a_submit_with_no_source_is_the_shards_refusal(self):
        """Bugfix: neither ``transactions`` nor ``dataset_id`` died in the
        router's ``list(None)`` before any shard could say so."""
        with ShardRouter(n_shards=2, n_workers=1) as router:
            with pytest.raises(ServeError, match="requires transactions or a dataset_id"):
                router.submit(None, CFG)
            assert router.metrics()["router"]["jobs_routed"] == 0

    def test_shutdown_rejects_new_submits(self):
        router = ShardRouter(n_shards=2, n_workers=1)
        router.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            router.submit([[1, 2]], CFG)
        router.shutdown()  # idempotent


class TestMetricsAndHealth:
    def test_metrics_shape(self):
        with ShardRouter(n_shards=2, n_workers=1,
                         planner=CostPlanner()) as router:
            job = router.submit([[1, 2], [1, 3], [1, 2]], CFG)
            router.wait(job.job_id, 30)
            m = router.metrics()
            assert {"router", "ring", "shards", "planner"} <= set(m)
            assert m["router"]["shards"] == 2
            assert m["router"]["jobs_routed"] == 1
            assert m["ring"]["nodes"] == ["shard-0", "shard-1"]
            assert len(m["shards"]) == 2
            per_shard = m["shards"][0]
            assert {"name", "jobs_home", "queue_depth", "service"} <= set(per_shard)
            assert "result_cache" in per_shard["service"]

    def test_healthz_counts_all_workers(self):
        with ShardRouter(n_shards=3, n_workers=2) as router:
            h = router.healthz()
            assert h == {"status": "ok", "shards": 3, "workers": 6}


class TestPlannerWiring:
    def test_jobs_carry_their_plan(self):
        planner = CostPlanner()
        with ShardRouter(n_shards=2, n_workers=1, planner=planner) as router:
            ds = mushroom_like(scale=0.02, seed=4).transactions
            job = router.submit(ds, MiningConfig(min_support=0.4))
            final = router.wait(job.job_id, 30)
            assert final.state is JobState.DONE
            assert final.planned == {"candidate_store": "bitmap", "num_partitions": 1}
            assert planner.stats() == {"plans": 1}
            assert router.metrics()["planner"] == {"plans": 1}

    def test_memoized_job_is_planned_as_its_first_run_was(self):
        planner = CostPlanner()
        with ShardRouter(n_shards=1, n_workers=1, planner=planner) as router:
            ds = [[1, 2, 3], [1, 2], [2, 3]]
            first = router.submit(ds, CFG)
            router.wait(first.job_id, 30)
            again = router.submit(ds, CFG)
            assert again.via == "memoized"
            assert again.planned == first.planned
            assert planner.stats() == {"plans": 2}

    def test_pinned_knobs_survive_routing(self):
        planner = CostPlanner()
        with ShardRouter(n_shards=1, n_workers=1, planner=planner) as router:
            cfg = MiningConfig(min_support=0.4, backend="processes")
            job = router.submit([[1, 2], [1, 3]], cfg, pinned=("candidate_store",))
            final = router.wait(job.job_id, 30)
            assert final.state is JobState.DONE
            assert final.request.config.backend == "processes"
            assert final.request.config.candidate_store == "hashtree"
