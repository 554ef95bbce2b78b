"""The serve-tier planner: stats, cost model shape, the two knob rules,
calibration."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets as datasets
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.serve import CostPlanner, DatasetStats, HttpClient, MiningServer
from repro.serve.planner import PLANNABLE_FIELDS


def make_txns(n=50, width=5, vocab=40, seed=0):
    rng = random.Random(seed)
    return [
        [f"i{rng.randrange(vocab)}" for _ in range(width)] for _ in range(n)
    ]


SPARSE = make_txns(n=80, width=4, vocab=200)
DENSE = [[f"i{j}" for j in range(30)] for _ in range(80)]  # width == vocab

#: what an unpinned engine job runs with
PLANNED = {"candidate_store": "bitmap", "num_partitions": 1}

#: every generator in the tree, at a small scale, with a support that
#: keeps its lattice small there
GENERATORS = {
    "pumsb_star_like": (lambda: datasets.pumsb_star_like(0.005, 0), 0.65),
    "chess_like": (lambda: datasets.chess_like(0.03, 0), 0.85),
    "retail_like": (
        lambda: datasets.retail_like(n_transactions=400, n_items=300, seed=0), 0.02
    ),
    "t10i4d100k_like": (lambda: datasets.t10i4d100k_like(0.005, 0), 0.02),
    "mushroom_like": (lambda: datasets.mushroom_like(0.03, 0), 0.4),
}


@functools.cache
def generator_rows(name: str) -> tuple[list, float]:
    make, support = GENERATORS[name]
    return make().transactions, support


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
    """Two fixed rules for what the caller did not pin — ``bitmap``, and
    one partition on ``serial`` — and never a backend."""

    def test_small_job_goes_serial(self):
        planner = CostPlanner()
        cfg, decision = planner.plan([[1, 2], [1, 3]], MiningConfig(min_support=0.5))
        assert cfg.backend == "serial"  # the default, not a choice
        assert cfg.num_partitions == 1
        assert decision.chosen == PLANNED

    def test_large_job_keeps_the_default_backend(self):
        planner = CostPlanner(unit_cost_s=1.0)  # any dataset looks expensive
        cfg, decision = planner.plan(SPARSE, MiningConfig(min_support=0.05))
        assert decision.estimated_seconds > 30.0
        assert cfg.backend == "serial" and cfg.num_partitions == 1
        assert decision.chosen == PLANNED

    def test_huge_estimate_picks_no_backend(self):
        planner = CostPlanner()
        stats = DatasetStats(5_000_000, 40.0, 50)
        planner._stats["fp"] = stats  # seed the memo; txns never scanned
        cfg, decision = planner.plan(
            [[1]], MiningConfig(min_support=0.001), fingerprint="fp"
        )
        assert decision.estimated_seconds > 30.0
        assert cfg.backend == "serial"
        assert decision.chosen == PLANNED

    def test_dense_dataset_gets_bitmap_store(self):
        planner = CostPlanner()
        cfg, decision = planner.plan(DENSE, MiningConfig(min_support=0.5))
        assert cfg.candidate_store == "bitmap"

    def test_sparse_dataset_gets_bitmap_store(self):
        planner = CostPlanner()
        cfg, _ = planner.plan(SPARSE, MiningConfig(min_support=0.5))
        assert cfg.candidate_store == "bitmap"

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_every_generator_plans_bitmap_on_one_serial_partition(self, generator):
        rows, support = generator_rows(generator)
        cfg, decision = CostPlanner().plan(rows, MiningConfig(min_support=support))
        assert decision.chosen == PLANNED
        assert cfg.backend == "serial"

    def test_non_default_values_are_pinned(self):
        planner = CostPlanner()
        cfg_in = MiningConfig(min_support=0.5, backend="processes", num_partitions=7)
        cfg, decision = planner.plan(DENSE, cfg_in)
        # explicit caller choices survive planning untouched
        assert cfg.backend == "processes" and cfg.num_partitions == 7
        assert "num_partitions" in decision.pinned
        assert "backend" not in decision.pinned  # never planned, so never pinned
        # unpinned knobs are still planned
        assert cfg.candidate_store == "bitmap"

    @pytest.mark.parametrize(
        "asked, pinned, kept",
        [
            ({"backend": "threads"}, (), {"backend": "threads", "num_partitions": None}),
            ({"backend": "processes"}, (), {"backend": "processes", "num_partitions": None}),
            ({"num_partitions": 3}, (), {"num_partitions": 3}),
            ({"candidate_store": "linear"}, (), {"candidate_store": "linear"}),
            ({}, ("num_partitions",), {"num_partitions": None}),
        ],
        ids=["threads", "processes", "partitions", "store", "pin-partitions"],
    )
    def test_pinned_knobs_survive(self, asked, pinned, kept):
        cfg, decision = CostPlanner().plan(
            SPARSE, MiningConfig(min_support=0.3, **asked), pinned=pinned
        )
        assert {name: getattr(cfg, name) for name in kept} == kept
        assert not set(kept) & set(decision.chosen)
        assert "backend" not in decision.chosen

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=30),
        support=st.sampled_from([0.001, 0.05, 0.3, 0.9]),
        backend=st.sampled_from(["serial", "threads", "processes"]),
        pinned=st.lists(st.sampled_from(["backend", *PLANNABLE_FIELDS]), unique=True),
        unit_cost_s=st.sampled_from([1e-9, 2e-7, 1.0]),
        cutoff=st.sampled_from([None, 0.0, 1.0]),
        priority=st.integers(-2, 2),
    )
    def test_backend_is_never_chosen(
        self, rows, support, backend, pinned, unit_cost_s, cutoff, priority
    ):
        planner = CostPlanner(unit_cost_s=unit_cost_s, approx_cutoff_s=cutoff)
        cfg, decision = planner.plan(
            rows, MiningConfig(min_support=support, backend=backend),
            pinned=pinned, priority=priority,
        )
        assert "backend" not in decision.chosen
        assert cfg.backend == backend

    def test_explicit_pin_freezes_default_value(self):
        planner = CostPlanner()
        cfg, decision = planner.plan(
            DENSE, MiningConfig(min_support=0.5), pinned=("candidate_store",)
        )
        assert cfg.candidate_store == "hashtree"  # pinned at its default
        assert "candidate_store" in decision.pinned
        assert cfg.num_partitions == 1  # others still planned

    def test_pinned_ignores_unknown_names(self):
        planner = CostPlanner()
        _, decision = planner.plan(
            DENSE, MiningConfig(min_support=0.5), pinned=("min_support", "nope", "backend")
        )
        assert not set(decision.pinned) - set(PLANNABLE_FIELDS)
        assert decision.chosen == PLANNED  # as if nothing were pinned

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


@pytest.fixture(scope="module")
def planning_server():
    with MiningServer(port=0, n_workers=1, planner=True) as server:
        yield server


@pytest.mark.parametrize("generator", GENERATORS)
def test_a_planning_server_runs_every_generator_as_planned(planning_server, generator):
    """Over the socket: the job is planned ``bitmap`` on one serial
    partition, and answers what ``fpgrowth`` answers."""
    rows, support = generator_rows(generator)
    client = HttpClient(planning_server.url)
    snapshot = client.wait(
        client.submit(rows, MiningConfig(min_support=support))["job_id"], timeout=60.0
    )
    assert (snapshot["state"], snapshot["via"]) == ("done", "run")
    assert snapshot["planned"] == PLANNED
    oracle = mine_frequent_itemsets(
        rows, config=MiningConfig(min_support=support, algorithm="fpgrowth")
    )
    assert client.result(snapshot["job_id"]) == oracle.itemsets


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
