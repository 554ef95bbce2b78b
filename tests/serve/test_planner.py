"""Cost-based planner: stats, cost model shape, knob choice, calibration."""

import random

import pytest

from repro.core.registry import MiningConfig
from repro.serve import CostPlanner, DatasetStats
from repro.serve.planner import PLANNABLE_FIELDS


def make_txns(n=50, width=5, vocab=40, seed=0):
    rng = random.Random(seed)
    return [
        [f"i{rng.randrange(vocab)}" for _ in range(width)] for _ in range(n)
    ]


SPARSE = make_txns(n=80, width=4, vocab=200)
DENSE = [[f"i{j}" for j in range(30)] for _ in range(80)]  # width == vocab


class TestDatasetStats:
    def test_from_transactions(self):
        stats = DatasetStats.from_transactions([[1, 2, 3], [1, 2], [4]])
        assert stats.n_transactions == 3
        assert stats.avg_width == pytest.approx(2.0)
        assert stats.distinct_items == 4
        assert stats.total_items == 6

    def test_density_dense_vs_sparse(self):
        dense = DatasetStats.from_transactions(DENSE)
        sparse = DatasetStats.from_transactions(SPARSE)
        assert dense.density == pytest.approx(1.0)
        assert sparse.density < 0.1

    def test_empty_dataset(self):
        stats = DatasetStats.from_transactions([])
        assert stats.n_transactions == 0 and stats.density == 0.0

    def test_sample_cap_bounds_vocab_scan(self):
        txns = [[i] for i in range(100)]
        stats = DatasetStats.from_transactions(txns, sample_cap=10)
        assert stats.n_transactions == 100
        assert stats.distinct_items == 10  # prefix sample only


class TestCostModel:
    def test_lower_support_costs_more(self):
        planner = CostPlanner()
        stats = DatasetStats.from_transactions(SPARSE)
        hi = planner.work_units(stats, MiningConfig(min_support=0.5))
        lo = planner.work_units(stats, MiningConfig(min_support=0.01))
        assert lo > hi

    def test_more_data_costs_more(self):
        planner = CostPlanner()
        small = DatasetStats(100, 5.0, 50)
        big = DatasetStats(10_000, 5.0, 50)
        cfg = MiningConfig(min_support=0.1)
        assert planner.work_units(big, cfg) > planner.work_units(small, cfg)

    def test_denser_data_costs_more(self):
        planner = CostPlanner()
        cfg = MiningConfig(min_support=0.1)
        sparse = DatasetStats(1000, 5.0, 500)
        dense = DatasetStats(1000, 5.0, 10)
        assert planner.work_units(dense, cfg) > planner.work_units(sparse, cfg)

    def test_estimate_seconds_positive_and_monotone(self):
        planner = CostPlanner()
        stats = DatasetStats.from_transactions(SPARSE)
        est_hi = planner.estimate_seconds(stats, MiningConfig(min_support=0.5))
        est_lo = planner.estimate_seconds(stats, MiningConfig(min_support=0.01))
        assert 0 < est_hi < est_lo

    def test_stats_memoized_by_fingerprint(self):
        planner = CostPlanner()
        s1 = planner.stats_for(SPARSE)
        s2 = planner.stats_for(SPARSE)
        assert s1 is s2
        assert planner.stats()["stats_cached"] == 1


class TestPlanning:
    def test_small_job_goes_serial(self):
        planner = CostPlanner()
        cfg, decision = planner.plan([[1, 2], [1, 3]], MiningConfig(min_support=0.5))
        assert cfg.backend == "serial"
        assert cfg.num_partitions == 1
        assert decision.chosen["backend"] == "serial"

    def test_large_job_gets_executor_backend(self):
        planner = CostPlanner(serial_cutoff_s=1e-12)
        cfg, decision = planner.plan(SPARSE, MiningConfig(min_support=0.05))
        assert cfg.backend in ("threads", "processes")
        assert cfg.num_partitions >= 1

    def test_huge_estimate_picks_processes(self):
        planner = CostPlanner()
        stats = DatasetStats(5_000_000, 40.0, 50)
        planner._stats["fp"] = stats  # seed the memo; txns never scanned
        cfg, decision = planner.plan(
            [[1]], MiningConfig(min_support=0.001), fingerprint="fp"
        )
        assert cfg.backend == "processes"

    def test_dense_dataset_gets_bitmap_store(self):
        planner = CostPlanner()
        cfg, decision = planner.plan(DENSE, MiningConfig(min_support=0.5))
        assert cfg.candidate_store == "bitmap"

    def test_sparse_dataset_keeps_hashtree(self):
        planner = CostPlanner()
        cfg, _ = planner.plan(SPARSE, MiningConfig(min_support=0.5))
        assert cfg.candidate_store == "hashtree"

    def test_non_default_values_are_pinned(self):
        planner = CostPlanner()
        cfg_in = MiningConfig(min_support=0.5, backend="processes", num_partitions=7)
        cfg, decision = planner.plan(DENSE, cfg_in)
        # explicit caller choices survive planning untouched
        assert cfg.backend == "processes" and cfg.num_partitions == 7
        assert {"backend", "num_partitions"} <= set(decision.pinned)
        # unpinned knobs are still planned
        assert cfg.candidate_store == "bitmap"

    def test_explicit_pin_freezes_default_value(self):
        planner = CostPlanner()
        cfg, decision = planner.plan(
            DENSE, MiningConfig(min_support=0.5), pinned=("candidate_store",)
        )
        assert cfg.candidate_store == "hashtree"  # pinned at its default
        assert "candidate_store" in decision.pinned
        assert cfg.backend == "serial"  # others still planned

    def test_pinned_ignores_unknown_names(self):
        planner = CostPlanner()
        _, decision = planner.plan(
            DENSE, MiningConfig(min_support=0.5), pinned=("min_support", "nope")
        )
        assert not set(decision.pinned) - set(PLANNABLE_FIELDS)

    def test_non_engine_algorithm_passes_through(self):
        planner = CostPlanner()
        cfg_in = MiningConfig(min_support=0.5, algorithm="apriori")
        cfg, decision = planner.plan(DENSE, cfg_in)
        assert cfg is cfg_in
        assert decision.chosen == {}
        assert "does not run on the engine" in decision.reason

    @pytest.mark.parametrize("cutoff", [None, 0.0])
    def test_incremental_config_passes_through(self, cutoff):
        """The tier runs on no engine: nothing to plan, and above all no
        fast-tier reroute (``approx`` + ``incremental`` is not a config)."""
        planner = CostPlanner(approx_cutoff_s=cutoff)
        cfg_in = MiningConfig(min_support=0.4, incremental=True)
        cfg, decision = planner.plan(DENSE, cfg_in)
        assert cfg is cfg_in
        assert decision.chosen == {} and not decision.routed_fast
        assert "incremental tier does not run on the engine" in decision.reason

    def test_incremental_submit_is_accepted_by_a_service_whose_planner_has_a_cutoff(self):
        from repro.algorithms import apriori
        from repro.serve import JobState, MiningService

        with MiningService(n_workers=1) as service:
            service.planner = CostPlanner(approx_cutoff_s=0.0)
            config = MiningConfig(min_support=0.4, incremental=True, max_length=2)
            job = service.submit(DENSE, config)
            assert job.wait(30.0) and job.state is JobState.DONE, job.error
            assert job.planned == {} and not job.request.config.approx
            assert job.result.itemsets == apriori(DENSE, 0.4, max_length=2)

    def test_decision_snapshot_shape(self):
        planner = CostPlanner()
        _, decision = planner.plan(SPARSE, MiningConfig(min_support=0.4))
        snap = decision.snapshot()
        assert {"estimated_seconds", "chosen", "pinned", "reason"} <= set(snap)


class TestCalibration:
    def test_observe_moves_unit_cost_toward_actual(self):
        planner = CostPlanner(unit_cost_s=1e-9)
        _, decision = planner.plan(SPARSE, MiningConfig(min_support=0.1))
        assert decision.work_units > 0
        slow_unit = 1e-3
        before = planner.unit_cost_s
        planner.observe(decision, decision.work_units * slow_unit)
        after = planner.unit_cost_s
        assert before < after < slow_unit  # EWMA: moved toward, not jumped to
        assert planner.observations == 1

    def test_observe_converges(self):
        planner = CostPlanner(unit_cost_s=1e-9)
        _, decision = planner.plan(SPARSE, MiningConfig(min_support=0.1))
        true_unit = 5e-6
        for _ in range(40):
            planner.observe(decision, decision.work_units * true_unit)
        assert planner.unit_cost_s == pytest.approx(true_unit, rel=0.05)

    def test_observe_ignores_degenerate_samples(self):
        planner = CostPlanner()
        _, decision = planner.plan(SPARSE, MiningConfig(min_support=0.1))
        planner.observe(decision, 0.0)
        planner.observe(decision, -1.0)
        assert planner.observations == 0
