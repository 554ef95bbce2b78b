"""End-to-end integration: generators -> both runtimes -> identical results.

These are the paper's correctness claims run across the whole stack: every
algorithm implementation (sequential oracles, YAFIM on each executor
backend, MRApriori and its variants) must produce byte-identical frequent
itemsets on every dataset family.
"""

import pytest

from repro.algorithms import apriori, eclat, fpgrowth
from repro.bench.harness import run_comparison
from repro.core import DPC, FPC, SPC, Yafim, generate_rules
from repro.datasets import (
    chess_like,
    medical_cases,
    mushroom_like,
    pumsb_star_like,
    quest_generator,
)
from repro.engine import Context
from repro.hdfs import MiniDfs
from repro.mapreduce import JobRunner

# Small-but-structured instances of each dataset family.
DATASETS = {
    "mushroom": (lambda: mushroom_like(scale=0.03, seed=11), 0.35),
    "chess": (lambda: chess_like(scale=0.07, seed=11), 0.85),
    "pumsb_star": (lambda: pumsb_star_like(scale=0.006, seed=11), 0.65),
    "quest": (lambda: quest_generator(n_transactions=400, n_items=60, seed=11), 0.03),
    "medical": (lambda: medical_cases(n_cases=300, seed=11), 0.05),
}

#: DPC's candidate budget, sized to the instance: the default (50 000, a
#: cluster-sized figure) lets a few-hundred-row sparse instance speculate
#: a level of C(|L1|, 3)-scale candidates — 105 s of the 110 this test
#: took on ``medical`` — where these still combine levels (asserted)
DPC_BUDGET = {"quest": 1_000, "medical": 3_000}


@pytest.mark.parametrize("name", sorted(DATASETS))
class TestAllMinersAgree:
    def test_oracles_and_yafim(self, name):
        make, sup = DATASETS[name]
        ds = make()
        want = apriori(ds.transactions, sup)
        assert eclat(ds.transactions, sup) == want
        assert fpgrowth(ds.transactions, sup) == want
        with Context(backend="serial") as ctx:
            got = Yafim(ctx).run(ds.transactions, sup)
        assert got.itemsets == want

    def test_mr_family_on_dfs(self, name, tmp_path):
        make, sup = DATASETS[name]
        ds = make()
        want = apriori([[str(i) for i in t] for t in ds.transactions], sup)
        with MiniDfs(
            root_dir=str(tmp_path), n_datanodes=3, block_size=8 * 1024, replication=2
        ) as dfs:
            ds.write_to_dfs(dfs, "/t.txt")
            budget = {"candidate_budget": DPC_BUDGET[name]} if name in DPC_BUDGET else {}
            for cls, kwargs in ((SPC, {}), (FPC, {"passes": 2}), (DPC, budget)):
                got = cls(JobRunner(dfs), **kwargs).run("/t.txt", sup)
                assert got.itemsets == want, cls.__name__
                # a level counted by its predecessor's job has no stages of
                # its own: SPC never combines, the other two must
                combined = [it.k for it in got.iterations if not it.stage_records]
                assert bool(combined) == (cls is not SPC), (cls.__name__, combined)


class TestCrossBackendYafim:
    @pytest.mark.parametrize("backend,par", [("processes", 2)])
    def test_backends_match_serial(self, backend, par):
        ds = medical_cases(n_cases=300, seed=11)
        with Context(backend="serial") as ctx:
            want = Yafim(ctx).run(ds.transactions, 0.05).itemsets
        with Context(backend=backend, parallelism=par) as ctx:
            got = Yafim(ctx).run(ds.transactions, 0.05).itemsets
        assert got == want

    def test_text_file_and_memory_agree(self, tmp_path):
        ds = mushroom_like(scale=0.03, seed=11)
        with Context(backend="serial") as ctx:
            mem = Yafim(ctx).run(ds.transactions, 0.4).itemsets
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=4096) as dfs:
            ds.write_to_dfs(dfs, "/t.txt")
            with Context(backend="serial") as ctx:
                file_based = Yafim(ctx).run_text_file(dfs, "/t.txt", 0.4).itemsets
        as_str = {tuple(str(i) for i in k): v for k, v in mem.items()}
        assert {tuple(sorted(k)): v for k, v in file_based.items()} == {
            tuple(sorted(k)): v for k, v in as_str.items()
        }


class TestFaultToleranceEndToEnd:
    def test_yafim_survives_task_failures(self):
        ds = medical_cases(n_cases=200, seed=11)
        with Context(backend="serial") as ctx:
            want = Yafim(ctx).run(ds.transactions, 0.08).itemsets
        # default dataflow: every pass is one result stage
        with Context(backend="serial") as ctx:
            ctx.fault_injector.fail_task(stage_kind="result", times=5)
            got = Yafim(ctx).run(ds.transactions, 0.08).itemsets
            assert ctx.fault_injector.injected == 5
        assert got == want
        # paper dataflow: the shuffle-map stages retry too
        with Context(backend="serial") as ctx:
            ctx.fault_injector.fail_task(stage_kind="shuffle_map", times=3)
            ctx.fault_injector.fail_task(stage_kind="result", times=2)
            got = Yafim(ctx, paper_dataflow=True).run(ds.transactions, 0.08).itemsets
            assert ctx.fault_injector.injected == 5
        assert got == want

    def test_yafim_survives_cache_loss_mid_run(self):
        """Drop every cached block between iterations — lineage recovery
        must recompute them without changing the result."""
        from repro.engine.storage import BlockId

        ds = medical_cases(n_cases=200, seed=11)
        with Context(backend="serial") as ctx:
            want = Yafim(ctx).run(ds.transactions, 0.08).itemsets

        class DroppingYafim(Yafim):
            def _build_matcher(self, candidates):
                # called once per phase-II iteration: sabotage the cache
                for block in list(ctx2.block_manager._mem):
                    ctx2.block_manager.drop_block(BlockId(block.rdd_id, block.partition))
                return super()._build_matcher(candidates)

        with Context(backend="serial") as ctx2:
            got = DroppingYafim(ctx2).run(ds.transactions, 0.08).itemsets
        assert got == want

    def test_mr_survives_datanode_failure(self, tmp_path):
        ds = medical_cases(n_cases=200, seed=11)
        with MiniDfs(
            root_dir=str(tmp_path), n_datanodes=3, block_size=4096, replication=2
        ) as dfs:
            ds.write_to_dfs(dfs, "/t.txt")
            want = SPC(JobRunner(dfs)).run("/t.txt", 0.08).itemsets
            dfs.fail_datanode("dn0")  # replication=2 keeps every block alive
            got = SPC(JobRunner(dfs)).run("/t.txt", 0.08).itemsets
        assert got == want


class TestDownstreamPipeline:
    def test_mine_then_rules(self):
        ds = medical_cases(n_cases=500, seed=3)
        run = run_comparison(ds, 0.05, num_partitions=4)
        rules = generate_rules(
            run.yafim.itemsets, run.yafim.n_transactions, min_confidence=0.8
        )
        assert rules, "expected high-confidence co-prescription rules"
        # every rule's itemset must be genuinely frequent
        for rule in rules[:50]:
            whole = tuple(sorted(rule.antecedent + rule.consequent))
            assert run.yafim.support(whole) >= 0.05 - 1e-9

    def test_replays_deterministic(self):
        from repro.bench.harness import replay_mr, replay_yafim
        from repro.cluster import PAPER_CLUSTER

        ds = medical_cases(n_cases=200, seed=11)
        run = run_comparison(ds, 0.08, num_partitions=2)
        assert replay_yafim(run.yafim, PAPER_CLUSTER) == replay_yafim(
            run.yafim, PAPER_CLUSTER
        )
        assert replay_mr(run.mrapriori, PAPER_CLUSTER) == replay_mr(
            run.mrapriori, PAPER_CLUSTER
        )
