"""Registry tests: plugging algorithms in, `MiningConfig`, the legacy shim."""

import warnings

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import (
    MiningConfig,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    run_algorithm,
    unregister_algorithm,
)
from repro.core.results import MiningRunResult

TXNS = [
    [1, 2],
    [1, 3, 4, 5],
    [2, 3, 4, 6],
    [1, 2, 3, 4],
    [1, 2, 3, 6],
] * 6

ORACLE = apriori(TXNS, 0.4)


def _toy_result(txns, config):
    result = MiningRunResult(
        algorithm=config.algorithm,
        min_support=config.min_support,
        n_transactions=len(txns),
    )
    result.itemsets = apriori(txns, config.min_support, max_length=config.max_length)
    return result


class TestRegistry:
    def test_builtins_registered(self):
        names = algorithm_names()
        for name in ("yafim", "dist_eclat", "mrapriori", "apriori", "eclat", "fpgrowth"):
            assert name in names

    def test_round_trip_custom_algorithm(self):
        register_algorithm("toy", lambda txns, cfg: _toy_result(txns, cfg))
        try:
            assert "toy" in algorithm_names()
            got = mine_frequent_itemsets(TXNS, 0.4, algorithm="toy")
            assert got.itemsets == ORACLE
            assert got.algorithm == "toy"
        finally:
            unregister_algorithm("toy")
        assert "toy" not in algorithm_names()

    def test_engine_runner_gets_context_and_observability(self):
        seen = {}

        def engine_toy(ctx, txns, config):
            seen["ctx"] = ctx
            rdd = ctx.parallelize(txns, 2)
            seen["count"] = rdd.count()
            return _toy_result(txns, config)

        register_algorithm("toy_engine", engine_toy, needs_engine=True)
        try:
            got = mine_frequent_itemsets(TXNS, 0.4, algorithm="toy_engine", backend="serial")
        finally:
            unregister_algorithm("toy_engine")
        assert seen["count"] == len(TXNS)
        # The dispatcher attached the run's trace and folded metrics.
        assert got.trace is seen["ctx"].tracer
        assert got.engine_metrics is not None
        assert got.engine_metrics.n_jobs >= 1
        assert got.engine_metrics.n_tasks >= 2

    def test_duplicate_registration_rejected(self):
        register_algorithm("dup", lambda txns, cfg: _toy_result(txns, cfg))
        try:
            with pytest.raises(MiningError):
                register_algorithm("dup", lambda txns, cfg: _toy_result(txns, cfg))
            # overwrite=True replaces silently
            register_algorithm(
                "dup", lambda txns, cfg: _toy_result(txns, cfg), overwrite=True
            )
        finally:
            unregister_algorithm("dup")

    def test_get_unknown_algorithm_lists_names(self):
        with pytest.raises(MiningError, match="yafim"):
            get_algorithm("magic")

    def test_bad_name_rejected(self):
        with pytest.raises(MiningError):
            register_algorithm("", lambda txns, cfg: None)


class TestMiningConfig:
    def test_validates_support(self):
        with pytest.raises(MiningError):
            MiningConfig(min_support=0.0)
        with pytest.raises(MiningError):
            MiningConfig(min_support=1.5)

    @pytest.mark.parametrize("knob", ["max_length", "parallelism", "num_partitions"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_machine_knobs_below_one_are_refused(self, knob, value):
        """``None`` is "unset"; 0 or below is no smaller setting of it:
        ``max_length=0`` returned the 1-itemsets, a partition or worker
        count of 0 ran as unset."""
        with pytest.raises(MiningError, match=f"{knob} must be >= 1"):
            MiningConfig(min_support=0.4, **{knob: value})
        assert getattr(MiningConfig(min_support=0.4, **{knob: 1}), knob) == 1

    @pytest.mark.parametrize("backend", ["threads", "bogus"])
    @pytest.mark.parametrize(
        "knobs", [{}, {"incremental": True}, {"algorithm": "apriori"}],
        ids=["engine", "incremental", "oracle"],
    )
    def test_an_unknown_backend_is_refused_on_every_algorithm(self, knobs, backend):
        """Also where the backend is inert, so a served config naming one
        is refused at the door, never run in silence or failed later as a
        job.  ``threads`` is a retired name."""
        with pytest.raises(MiningError, match=f"unknown backend '{backend}'") as err:
            MiningConfig(min_support=0.5, backend=backend, **knobs)
        assert "serial, processes" in str(err.value)
        assert MiningConfig(min_support=0.5, backend="processes", **knobs).backend == "processes"

    def test_config_overload_matches_keywords(self):
        via_config = mine_frequent_itemsets(
            TXNS,
            config=MiningConfig(min_support=0.4, algorithm="eclat"),
        )
        via_kwargs = mine_frequent_itemsets(TXNS, 0.4, algorithm="eclat")
        assert via_config.itemsets == via_kwargs.itemsets == ORACLE

    def test_config_conflicts_with_min_support(self):
        with pytest.raises(MiningError):
            mine_frequent_itemsets(
                TXNS, 0.4, config=MiningConfig(min_support=0.4)
            )

    def test_min_support_required_without_config(self):
        with pytest.raises(MiningError):
            mine_frequent_itemsets(TXNS)

    def test_run_algorithm_direct(self):
        got = run_algorithm(TXNS, MiningConfig(min_support=0.4, algorithm="fpgrowth"))
        assert got.itemsets == ORACLE

    def test_unknown_candidate_store_lists_registered_names(self):
        from repro.core.candidatestore import store_names

        with pytest.raises(MiningError) as err:
            MiningConfig(min_support=0.4, candidate_store="btree")
        for name in store_names():
            assert name in str(err.value)

    def test_canonical_includes_candidate_store(self):
        cfg = MiningConfig(min_support=0.4, candidate_store="bitmap")
        assert cfg.canonical()["candidate_store"] == "bitmap"

    def test_cache_key_distinct_across_stores(self):
        from repro.core.candidatestore import store_names

        keys = {
            MiningConfig(min_support=0.4, candidate_store=name).cache_key()
            for name in store_names()
        }
        assert len(keys) == len(store_names())

    def test_cache_key_stable_for_same_store(self):
        a = MiningConfig(min_support=0.4, candidate_store="linear")
        b = MiningConfig(min_support=0.4, candidate_store="linear")
        assert a.cache_key() == b.cache_key()

    def test_both_spellings_of_the_store_are_one_config(self):
        """``options["candidate_store"]`` moves into the field, and wins
        over it: one key, and the store the field names is the one run."""
        field = MiningConfig(min_support=0.4, candidate_store="bitmap")
        for options in ({"candidate_store": "bitmap"}, {"candidate_store": "bitmap", "x": 1}):
            given = MiningConfig(min_support=0.4, candidate_store="linear", options=options)
            assert given.candidate_store == "bitmap" and "candidate_store" not in given.options
        option = MiningConfig(min_support=0.4, options={"candidate_store": "bitmap"})
        assert option == field and option.cache_key() == field.cache_key()

    def test_an_unknown_store_in_options_is_refused_at_construction(self):
        with pytest.raises(MiningError, match="unknown candidate store 'nope'"):
            MiningConfig(min_support=0.4, options={"candidate_store": "nope"})

    def test_options_store_overrides_the_config_field(self, monkeypatch):
        # ablation A3 through the options path: the field's default
        # "hashtree" is always folded in, but may not override it.
        import repro.core.yafim as yafim

        built = []
        real = yafim.make_store
        monkeypatch.setattr(
            yafim, "make_store",
            lambda name, *a, **kw: built.append(name) or real(name, *a, **kw),
        )
        got = run_algorithm(
            TXNS,
            MiningConfig(
                min_support=0.4, backend="serial",
                options={"candidate_store": "linear"},
            ),
        )
        assert got.itemsets == ORACLE
        assert built and set(built) == {"linear"}

    def test_explicit_store_flows_to_miner(self):
        got = run_algorithm(
            TXNS,
            MiningConfig(min_support=0.4, backend="serial", candidate_store="bitmap"),
        )
        assert got.itemsets == ORACLE


class TestEmptyRows:
    """Empty transactions count toward |D| on every in-memory path, so the
    absolute threshold — and the answer — match the oracle's."""

    ROWS = [["a", "b"], ["a", "b"], ["a"], [], [], [], ["b", "c"], []]

    @pytest.mark.parametrize(
        "path",
        [
            dict(algorithm="yafim"),
            dict(algorithm="rapriori"),
            dict(algorithm="dist_eclat"),
            dict(incremental=True),
        ],
        ids=["yafim", "rapriori", "dist_eclat", "incremental"],
    )
    def test_matches_oracle(self, path):
        config = MiningConfig(min_support=0.3, backend="serial", **path)
        got = run_algorithm(self.ROWS, config)
        assert got.n_transactions == len(self.ROWS)
        assert got.itemsets == apriori(self.ROWS, 0.3) == {("a",): 3, ("b",): 3}


class TestLegacyShim:
    """The pre-registry positional signature is gone: everything past
    ``min_support`` is keyword-only."""

    def test_too_many_positionals_is_type_error(self):
        with pytest.raises(TypeError):
            mine_frequent_itemsets(TXNS, 0.4, "eclat")
        with pytest.raises(TypeError):
            mine_frequent_itemsets(TXNS, 0.4, "yafim", None, "serial", None, 3)

    def test_keyword_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            mine_frequent_itemsets(TXNS, 0.4, algorithm="eclat")


class TestNoDispatchChain:
    def test_api_has_no_per_algorithm_branching(self):
        import inspect

        import repro.core.api as api

        src = inspect.getsource(api)
        assert "if algorithm ==" not in src
        assert "elif algorithm" not in src


class TestRunAlgorithmWithContext:
    """The context of a run is ``run_algorithm``'s own: built per run,
    stopped with it, never handed in."""

    def test_signature_is_rows_and_config(self):
        import inspect

        from repro.core.registry import run_algorithm

        assert list(inspect.signature(run_algorithm).parameters) == ["transactions", "config"]

    @pytest.fixture
    def built(self, monkeypatch):
        """Every engine ``Context`` constructed while the test runs."""
        from repro.engine.context import Context

        contexts = []
        init = Context.__init__

        def recording(self, *args, **kwargs):
            contexts.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Context, "__init__", recording)
        return contexts

    def test_context_is_built_and_stopped_per_run(self, built):
        """Two runs, two contexts, both stopped: nothing is inherited."""
        from repro.core.registry import MiningConfig, run_algorithm

        cfg = MiningConfig(min_support=0.4, algorithm="yafim", backend="processes")
        first, second = run_algorithm(TXNS, cfg), run_algorithm(TXNS, cfg)
        assert first.itemsets == second.itemsets == ORACLE
        assert first.engine_metrics.n_jobs == second.engine_metrics.n_jobs > 0
        assert first.trace is not second.trace and first.trace.label == "engine"
        assert len(built) == 2 and built[0] is not built[1]
        assert all(ctx._stopped and ctx.backend == "processes" for ctx in built)
        assert all(ctx.block_manager.cached_block_count == 0 for ctx in built)

    def test_non_engine_algorithms_ignore_ctx(self, built):
        """... there is none to ignore: an oracle and the incremental tier
        build no context, whatever ``backend`` says."""
        from repro.core.registry import MiningConfig, run_algorithm

        for knobs in ({"algorithm": "eclat"}, {"incremental": True}):
            cfg = MiningConfig(min_support=0.4, backend="processes", **knobs)
            assert run_algorithm(TXNS, cfg).itemsets == ORACLE
        assert built == []


class TestRunsOnEngine:
    """One answer, read by the dispatcher, the serve tier's shipping rule
    and its planner."""

    @pytest.mark.parametrize(
        "knobs, expected",
        [
            ({"algorithm": "yafim"}, True),
            ({"algorithm": "rapriori"}, True),
            ({"algorithm": "eclat"}, False),
            ({"algorithm": "mrapriori"}, False),
            ({"algorithm": "dist_eclat"}, True),
            ({"algorithm": "yafim", "incremental": True}, False),  # in-process tier
        ],
    )
    def test_table(self, knobs, expected):
        from repro.core.registry import MiningConfig, runs_on_engine

        assert runs_on_engine(MiningConfig(min_support=0.4, **knobs)) is expected

    def test_the_three_readers_call_it_and_nothing_rederives_it(self):
        import inspect

        from repro.core import registry
        from repro.serve import planner, runner

        for reader in (registry.run_algorithm, runner.shipping_request, planner.CostPlanner.plan):
            source = inspect.getsource(reader)
            assert "runs_on_engine(config)" in source
            assert "needs_engine" not in source
