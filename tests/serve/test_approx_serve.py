"""Serving-tier tests for the approximate fast tier.

Covers the exact-over-approx memoization contract, the planner's
fast-tier routing, and the HTTP surface (top-level ``approx`` flag,
provenance payload, exact-upgrade observability).
"""

import pytest

from repro.core.approx import ApproxResult
from repro.core.registry import MiningConfig
from repro.serve.cache import ResultCache
from repro.serve.client import HttpClient
from repro.serve.http import MiningServer
from repro.serve.planner import CostPlanner
from repro.serve.service import MiningService

TXNS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c"],
    ["a", "c"],
    ["d"],
] * 20

APPROX = MiningConfig(
    min_support=0.3, approx=True, sample_frac=0.5, backend="serial"
)
EXACT = APPROX.exact_twin()


class TestResultCacheUpgrade:
    def test_put_approx_then_get(self):
        cache = ResultCache()
        cache.put_approx(("fp", "a"), "approx-result", exact_key=("fp", "e"))
        assert cache.get(("fp", "a")) == "approx-result"
        assert cache.get(("fp", "e")) is None

    def test_exact_put_upgrades_approx_entries(self):
        cache = ResultCache()
        cache.put_approx(("fp", "a1"), "approx-1", exact_key=("fp", "e"))
        cache.put_approx(("fp", "a2"), "approx-2", exact_key=("fp", "e"))
        cache.put(("fp", "e"), "exact")
        # the superseded approx entries are gone; the exact one answers
        assert cache.get(("fp", "a1")) is None
        assert cache.get(("fp", "a2")) is None
        assert cache.get(("fp", "e")) == "exact"
        assert cache.stats()["upgrades"] == 2

    def test_exact_put_without_approx_entries_is_plain(self):
        cache = ResultCache()
        cache.put(("fp", "e"), "exact")
        assert cache.stats()["upgrades"] == 0

    def test_index_prunes_dead_entries(self):
        cache = ResultCache(max_entries=1)
        cache.put_approx(("fp", "a1"), "approx-1", exact_key=("fp", "e"))
        cache.put_approx(("fp", "a2"), "approx-2", exact_key=("fp", "e"))  # evicts a1
        assert cache.stats()["approx_indexed"] == 1

    def test_index_prunes_on_unrelated_eviction(self):
        # the evicting put is for a DIFFERENT exact key: the approx
        # entry's index row must still be cleaned, and the now-empty
        # row dropped entirely (long-running servers would otherwise
        # accumulate one dead row per (dataset, config) pair)
        cache = ResultCache(max_entries=1)
        cache.put_approx(("fp", "a1"), "approx-1", exact_key=("fp", "e"))
        cache.put(("fp2", "x"), "other")  # evicts a1
        assert cache.stats()["approx_indexed"] == 0
        assert cache._approx_for == {}
        assert cache._exact_of == {}

    def test_index_prunes_on_expiration(self):
        cache = ResultCache(ttl_s=10.0)
        cache.put_approx(("fp", "a1"), "approx-1", exact_key=("fp", "e"), now=0.0)
        assert cache.get(("fp", "a1"), now=20.0) is None  # expired
        assert cache.stats()["approx_indexed"] == 0
        assert cache._approx_for == {}
        assert cache._exact_of == {}

    def test_get_first_records_one_miss_for_the_whole_probe(self):
        cache = ResultCache()
        assert cache.get_first([("fp", "e"), ("fp", "a")]) is None
        assert cache.misses == 1 and cache.hits == 0
        cache.put_approx(("fp", "a"), "approx", exact_key=("fp", "e"))
        assert cache.get_first([("fp", "e"), ("fp", "a")]) == "approx"
        assert cache.misses == 1 and cache.hits == 1


class TestServiceApproxFlow:
    def test_approx_job_runs_and_carries_provenance(self):
        with MiningService(n_workers=1) as svc:
            job = svc.submit(TXNS, APPROX)
            assert job.wait(60)
            assert job.state.value == "done", job.error
            assert isinstance(job.result, ApproxResult)
            assert job.result.n_samples == APPROX.approx_samples

    def test_exact_completion_upgrades_memoized_entry(self):
        with MiningService(n_workers=1) as svc:
            j1 = svc.submit(TXNS, APPROX)
            assert j1.wait(60) and j1.state.value == "done", j1.error
            # approx resubmit hits the approx entry
            j2 = svc.submit(TXNS, APPROX)
            assert j2.via == "memoized"
            assert isinstance(j2.result, ApproxResult)
            # the exact twin completes -> its entry supersedes the approx one
            j3 = svc.submit(TXNS, EXACT)
            assert j3.wait(120) and j3.state.value == "done", j3.error
            assert svc.results.stats()["upgrades"] == 1
            # approx resubmit is now answered by the exact result
            j4 = svc.submit(TXNS, APPROX)
            assert j4.via == "memoized"
            assert not isinstance(j4.result, ApproxResult)

    def test_approx_hit_never_shadows_exact_entry(self):
        with MiningService(n_workers=1) as svc:
            j1 = svc.submit(TXNS, EXACT)
            assert j1.wait(120) and j1.state.value == "done", j1.error
            # a first-time approx submission short-circuits on the exact twin
            job = svc.submit(TXNS, APPROX)
            assert job.via == "memoized"
            assert not isinstance(job.result, ApproxResult)

    def test_twin_probe_counts_one_miss_per_submit(self):
        with MiningService(n_workers=1) as svc:
            job = svc.submit(TXNS, APPROX)  # no twin, no own entry: ONE miss
            assert svc.results.misses == 1
            assert job.wait(60) and job.state.value == "done", job.error


class TestPlannerFastTier:
    @staticmethod
    def _slow_planner(**kwargs):
        # a huge unit cost makes any dataset look expensive, forcing the
        # estimate over the fast-tier cutoff without big fixtures
        # (routing itself is opt-in, so the cutoff is set explicitly)
        kwargs.setdefault("approx_cutoff_s", 1.0)
        return CostPlanner(unit_cost_s=1.0, **kwargs)

    def test_routing_is_opt_in(self):
        # default planner: no cutoff -> even an expensive interactive job
        # stays exact; silently trading completeness for latency must be
        # an explicit operator decision
        planner = CostPlanner(unit_cost_s=1.0)
        assert planner.approx_cutoff_s is None
        planned, decision = planner.plan(TXNS, MiningConfig(min_support=0.3))
        assert not planned.approx
        assert not decision.routed_fast

    def test_interactive_expensive_job_routes_to_fast_tier(self):
        planner = self._slow_planner()
        planned, decision = planner.plan(TXNS, MiningConfig(min_support=0.3))
        assert planned.approx
        assert decision.chosen["approx"] is True
        assert "fast tier" in decision.reason
        assert decision.routed_fast
        assert decision.snapshot()["routed_fast"] is True

    def test_batch_priority_stays_exact(self):
        planner = self._slow_planner()
        planned, _ = planner.plan(TXNS, MiningConfig(min_support=0.3), priority=5)
        assert not planned.approx

    def test_pinned_approx_is_respected(self):
        planner = self._slow_planner()
        planned, decision = planner.plan(
            TXNS, MiningConfig(min_support=0.3), pinned=("approx",)
        )
        assert not planned.approx
        assert "approx" in decision.pinned

    def test_explicit_approx_counts_as_pinned(self):
        planner = self._slow_planner()
        planned, decision = planner.plan(TXNS, APPROX)
        assert planned.approx  # kept, not chosen
        assert "approx" not in decision.chosen
        assert "approx" in decision.pinned

    def test_cutoff_none_disables_routing(self):
        planner = self._slow_planner(approx_cutoff_s=None)
        planned, _ = planner.plan(TXNS, MiningConfig(min_support=0.3))
        assert not planned.approx

    def test_cheap_job_stays_exact(self):
        # realistic unit cost: the tiny dataset estimates under the cutoff
        planner = CostPlanner(approx_cutoff_s=1.0)
        planned, decision = planner.plan(TXNS, MiningConfig(min_support=0.3))
        assert not planned.approx
        assert decision.estimated_seconds < planner.approx_cutoff_s

    def test_approx_estimate_cheaper_than_exact(self):
        planner = CostPlanner()
        stats = planner.stats_for(TXNS)
        exact_est = planner.estimate_seconds(stats, EXACT)
        approx_est = planner.estimate_seconds(stats, APPROX)
        assert approx_est < exact_est

    def test_approx_config_plans_even_for_non_engine_algorithm(self):
        planner = CostPlanner()
        config = MiningConfig(min_support=0.3, algorithm="apriori", approx=True)
        _, decision = planner.plan(TXNS, config)
        assert decision.work_units > 0  # not the unplanned early-return

    def test_reroute_stamped_on_job_snapshot(self):
        from repro.serve.router import ShardRouter

        planner = self._slow_planner()
        with ShardRouter(n_shards=1, n_workers=1, planner=planner) as router:
            job = router.submit(
                TXNS, MiningConfig(min_support=0.3, backend="serial")
            )
            assert job.wait(60) and job.state.value == "done", job.error
            assert job.fast_tier
            assert job.snapshot()["fast_tier"] is True
            assert isinstance(job.result, ApproxResult)


class TestHttpApprox:
    @pytest.fixture(scope="class")
    def server(self):
        with MiningServer(port=0, n_workers=2) as server:
            yield server

    def test_round_trip_with_provenance(self, server):
        client = HttpClient(server.url)
        snap = client.submit(
            TXNS, MiningConfig(min_support=0.3, sample_frac=0.5, backend="serial"),
            approx=True,
        )
        final = client.wait(snap["job_id"], 60)
        assert final["state"] == "done", final
        detail = client.result_detail(snap["job_id"])
        approx = detail["approx"]
        assert approx["n_samples"] == 4
        assert approx["sample_frac"] == 0.5
        assert len(approx["sample_sizes"]) == 4
        assert isinstance(approx["verified_exact"], bool)
        assert isinstance(approx["border_violations"], list)

    def test_exact_resubmit_upgrades_served_entry(self, server):
        client = HttpClient(server.url)
        config = MiningConfig(min_support=0.4, sample_frac=0.5, backend="serial")
        snap = client.submit(TXNS, config, approx=True)
        assert client.wait(snap["job_id"], 60)["state"] == "done"
        # the exact twin runs...
        exact_snap = client.submit(TXNS, config)
        assert client.wait(exact_snap["job_id"], 120)["state"] == "done"
        # ...so a fresh approx submit memoizes onto the exact entry:
        # no approx provenance block on the served result
        again = client.submit(TXNS, config, approx=True)
        assert again["via"] == "memoized"
        detail = client.result_detail(again["job_id"])
        assert "approx" not in detail
        assert detail["itemsets"] == client.result_detail(exact_snap["job_id"])["itemsets"]
        (shard,) = client.metrics()["shards"]
        assert shard["service"]["result_cache"]["upgrades"] >= 1

    def test_unknown_top_level_field_still_rejected(self, server):
        client = HttpClient(server.url)
        with pytest.raises(Exception, match="unknown field"):
            client._request(
                "POST", "/jobs",
                {"transactions": [["a"]], "config": {"min_support": 0.5},
                 "aprox": True},
            )
