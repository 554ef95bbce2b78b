"""Multi-sample approximate miner (repro.core.approx) tests."""

import pytest

from repro.algorithms import apriori
from repro.common.errors import MiningError
from repro.core.approx import ApproxMiner, ApproxResult
from repro.core.registry import MiningConfig, run_algorithm
from repro.datasets import medical_cases, mushroom_like
from repro.engine.context import Context

TXNS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c"],
    ["a", "c"],
    ["d"],
] * 20  # big enough that a 25% sample is representative


@pytest.fixture(scope="module")
def ctx():
    with Context(backend="threads", parallelism=4) as c:
        yield c


class TestApproxMiner:
    def test_matches_oracle_when_verified(self, ctx):
        result = ApproxMiner(ctx, n_samples=4, sample_frac=0.5, seed=1).run(TXNS, 0.3)
        assert isinstance(result, ApproxResult)
        assert result.verified_exact
        assert result.border_violations == []
        assert result.itemsets == apriori(TXNS, 0.3)

    def test_full_sample_always_exact(self, ctx):
        # sample_frac=1: every sample IS the database; the union of any
        # sample's family and border covers the lattice by construction
        result = ApproxMiner(ctx, n_samples=2, sample_frac=1.0, seed=0).run(TXNS, 0.3)
        assert result.verified_exact
        assert result.itemsets == apriori(TXNS, 0.3)

    def test_empty_rows_count_toward_database_size(self, ctx):
        # dropping empty rows shrank |D| 8 -> 4, lowered the absolute
        # threshold and reported the infrequent ('a', 'b'): 2
        txns = [["a", "b"], ["a", "b"], ["a"], [], [], [], ["b", "c"], []]
        result = ApproxMiner(ctx, sample_frac=1.0).run(txns, 0.3)
        assert result.n_transactions == 8
        assert result.itemsets == apriori(txns, 0.3) == {("a",): 3, ("b",): 3}

    def test_counts_are_exact_not_sampled(self, ctx):
        result = ApproxMiner(ctx, n_samples=3, sample_frac=0.4, seed=2).run(TXNS, 0.3)
        oracle = apriori(TXNS, 0.3)
        for iset, count in result.itemsets.items():
            assert count == oracle[iset]  # precision 1.0: no false positives

    def test_provenance_fields(self, ctx):
        result = ApproxMiner(ctx, n_samples=3, sample_frac=0.25, ratio=0.7,
                             seed=5).run(TXNS, 0.3)
        assert result.n_samples == 3
        assert result.sample_frac == 0.25
        assert result.ratio == 0.7
        assert result.seed == 5
        assert result.sample_sizes == [25, 25, 25]
        assert result.candidates_verified >= result.num_itemsets
        assert len(result.iterations) == 2
        assert [it.k for it in result.iterations] == [1, 2]
        assert "approx" in result.summary()

    def test_deterministic_for_fixed_seed(self, ctx):
        a = ApproxMiner(ctx, n_samples=3, sample_frac=0.3, seed=11).run(TXNS, 0.3)
        b = ApproxMiner(ctx, n_samples=3, sample_frac=0.3, seed=11).run(TXNS, 0.3)
        assert a.itemsets == b.itemsets
        assert a.sample_sizes == b.sample_sizes
        assert a.border_violations == b.border_violations
        assert a.verified_exact == b.verified_exact
        assert a.candidates_verified == b.candidates_verified

    def test_max_length_caps_output(self, ctx):
        result = ApproxMiner(ctx, n_samples=2, sample_frac=0.5, seed=1).run(
            TXNS, 0.3, max_length=1
        )
        assert result.itemsets
        assert all(len(i) == 1 for i in result.itemsets)

    def test_store_choice_changes_nothing(self, ctx):
        base = ApproxMiner(ctx, n_samples=2, sample_frac=0.5, seed=3).run(TXNS, 0.3)
        for store in ("bitmap", "linear"):
            other = ApproxMiner(
                ctx, n_samples=2, sample_frac=0.5, seed=3, candidate_store=store
            ).run(TXNS, 0.3)
            assert other.itemsets == base.itemsets, store

    def test_borders_span_full_universe_not_just_samples(self, ctx):
        # "z" is in the full database universe but absent from the sample:
        # its singleton must still enter the sample's negative border, or
        # a globally frequent item missed by every sample would never be
        # verified and verified_exact could be falsely claimed
        miner = ApproxMiner(ctx, n_samples=1, sample_frac=0.5, seed=0)
        samples = [[("a",), ("a", "b")]]
        per_sample = miner._mine_samples(samples, ["a", "b", "z"], 0.5, None, [])
        ((_, _, border),) = per_sample
        assert ("z",) in border

    def test_validation(self, ctx):
        with pytest.raises(MiningError):
            ApproxMiner(ctx, n_samples=0)
        with pytest.raises(MiningError):
            ApproxMiner(ctx, ratio=0.0)
        with pytest.raises(MiningError):
            ApproxMiner(ctx, sample_frac=1.5)
        with pytest.raises(ValueError):
            ApproxMiner(ctx, candidate_store="nope")
        with pytest.raises(MiningError):
            ApproxMiner(ctx).run(TXNS, 0.0)
        with pytest.raises(MiningError):
            ApproxMiner(ctx).run([], 0.5)


class TestOracleParityGrid:
    """Negative-border completeness: whenever no border violation occurs,
    the approx result equals the exact miner's itemsets — across
    backends (the guarantee is engine-independent)."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_backend_grid(self, backend):
        ds = medical_cases(n_cases=400, seed=3)
        oracle = apriori(ds.transactions, 0.08)
        with Context(backend=backend, parallelism=2) as ctx:
            result = ApproxMiner(
                ctx, n_samples=4, sample_frac=0.5, seed=4
            ).run(ds.transactions, 0.08)
        assert result.verified_exact, result.border_violations
        assert result.itemsets == oracle

    def test_dense_dataset(self):
        ds = mushroom_like(scale=0.04, seed=1)
        oracle = apriori(ds.transactions, 0.4)
        with Context(backend="threads", parallelism=4) as ctx:
            result = ApproxMiner(
                ctx, n_samples=4, sample_frac=0.25, seed=7, candidate_store="bitmap"
            ).run(ds.transactions, 0.4)
        assert result.verified_exact, result.border_violations
        assert result.itemsets == oracle


class TestConfigDispatch:
    def test_run_algorithm_dispatches_on_flag(self):
        config = MiningConfig(
            min_support=0.3, approx=True, sample_frac=0.5, backend="serial",
            options={"seed": 1},
        )
        result = run_algorithm(TXNS, config)
        assert isinstance(result, ApproxResult)
        assert result.algorithm == "approx"
        assert result.trace is not None
        assert result.engine_metrics is not None

    def test_run_algorithm_deterministic(self):
        config = MiningConfig(
            min_support=0.3, approx=True, sample_frac=0.4, backend="serial"
        )
        a = run_algorithm(TXNS, config)
        b = run_algorithm(TXNS, config)
        assert a.itemsets == b.itemsets
        assert a.sample_sizes == b.sample_sizes

    def test_approx_overrides_non_engine_algorithm(self):
        # approx replaces the configured algorithm wholesale, even a
        # sequential oracle that normally never touches the engine
        config = MiningConfig(
            min_support=0.3, algorithm="apriori", approx=True,
            sample_frac=0.5, backend="serial",
        )
        result = run_algorithm(TXNS, config)
        assert isinstance(result, ApproxResult)

    def test_config_validation(self):
        with pytest.raises(MiningError):
            MiningConfig(min_support=0.3, approx_samples=0)
        with pytest.raises(MiningError):
            MiningConfig(min_support=0.3, approx_ratio=1.5)
        with pytest.raises(MiningError):
            MiningConfig(min_support=0.3, sample_frac=0.0)

    def test_knobs_participate_in_cache_key(self):
        exact = MiningConfig(min_support=0.3)
        base = MiningConfig(min_support=0.3, approx=True)
        assert base.cache_key() != exact.cache_key()
        for knob in (
            {"approx_samples": 8}, {"approx_ratio": 0.5}, {"sample_frac": 0.2}
        ):
            assert (
                MiningConfig(min_support=0.3, approx=True, **knob).cache_key()
                != base.cache_key()
            ), knob

    def test_knobs_inert_on_exact_configs(self):
        # sampling knobs do nothing when approx=False, so they must not
        # perturb an exact config's identity (else an exact run could not
        # upgrade the approx entry indexed under its twin's key)
        base = MiningConfig(min_support=0.3)
        carried = MiningConfig(
            min_support=0.3, approx_samples=8, approx_ratio=0.5, sample_frac=0.2
        )
        assert carried.cache_key() == base.cache_key()

    def test_exact_twin_strips_every_approx_knob(self):
        config = MiningConfig(
            min_support=0.3, approx=True, approx_samples=8, approx_ratio=0.5,
            sample_frac=0.2, backend="serial", candidate_store="bitmap",
        )
        twin = config.exact_twin()
        assert not twin.approx
        assert twin.cache_key() == MiningConfig(
            min_support=0.3, backend="serial", candidate_store="bitmap"
        ).cache_key()
        # idempotent, and exact configs are their own twin
        assert twin.exact_twin() == twin
