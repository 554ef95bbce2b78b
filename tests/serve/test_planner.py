"""The serve-tier planner: the two knob rules, pinning, and a plan that
reads no rows."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets as datasets
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.serve import CostPlanner, HttpClient, MiningServer
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


class TestPlanning:
    """Two fixed rules for what the caller did not pin — ``bitmap``, and
    one partition on ``serial`` — and never a backend."""

    def test_small_job_goes_serial(self):
        planner = CostPlanner()
        cfg, decision = planner.plan([[1, 2], [1, 3]], MiningConfig(min_support=0.5))
        assert cfg.backend == "serial"  # the default, not a choice
        assert cfg.num_partitions == 1
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
            ({"backend": "processes"}, (), {"backend": "processes", "num_partitions": None}),
            ({"num_partitions": 3}, (), {"num_partitions": 3}),
            ({"candidate_store": "linear"}, (), {"candidate_store": "linear"}),
            ({}, ("num_partitions",), {"num_partitions": None}),
        ],
        ids=["processes", "partitions", "store", "pin-partitions"],
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
        backend=st.sampled_from(["serial", "processes"]),
        pinned=st.lists(st.sampled_from(["backend", *PLANNABLE_FIELDS]), unique=True),
    )
    def test_backend_is_never_chosen(self, rows, support, backend, pinned):
        cfg, decision = CostPlanner().plan(
            rows, MiningConfig(min_support=support, backend=backend), pinned=pinned
        )
        assert "backend" not in decision.chosen
        assert cfg.backend == backend

    def test_a_plan_reads_no_rows(self):
        """The same plan whatever the rows — none, or ones that refuse to
        be read — and whatever the fingerprint."""
        class Unreadable(list):
            def __iter__(self, *_):
                raise AssertionError("the planner read the rows")

            __len__ = __getitem__ = __bool__ = __iter__

        cfg = MiningConfig(min_support=0.4)
        plans = [
            CostPlanner().plan(rows, cfg, fingerprint=fp)
            for rows, fp in ((DENSE, None), (None, "f" * 64), (Unreadable(), None))
        ]
        assert all(plan == plans[0] for plan in plans)
        assert plans[0][1].chosen == PLANNED

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

    def test_incremental_config_passes_through(self):
        """The tier runs on no engine: nothing to plan."""
        cfg_in = MiningConfig(min_support=0.4, incremental=True)
        cfg, decision = CostPlanner().plan(DENSE, cfg_in)
        assert cfg is cfg_in
        assert decision.chosen == {}
        assert "incremental tier does not run on the engine" in decision.reason

    def test_incremental_submit_is_accepted_by_a_planning_service(self):
        from repro.algorithms import apriori
        from repro.serve import JobState, MiningService

        with MiningService(n_workers=1) as service:
            service.planner = CostPlanner()
            config = MiningConfig(min_support=0.4, incremental=True, max_length=2)
            job = service.submit(DENSE, config)
            assert job.wait(30.0) and job.state is JobState.DONE, job.error
            assert job.planned == {} and job.request.config is config
            assert job.result.itemsets == apriori(DENSE, 0.4, max_length=2)


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
