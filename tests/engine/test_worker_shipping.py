"""Zero-redundancy task shipping: worker block store, broadcast dedup,
task batching, stable worker ids, and serve-layer composition.

The process backend ships each task as a small closure blob plus block
*references*; persistent workers resolve references against a local LRU
store and pull a missing block from the driver at most once.  These tests
pin the economics (one broadcast shipment per worker, not per task) and
the fallback paths (LRU eviction -> re-pull, worker crash -> respawn).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.engine import Context
from repro.engine.workerstore import (
    _MISS,
    WorkerBlockStore,
    broadcast_key,
    rdd_block_key,
)
from tests.procs import gone_within, pid_alive, wait_until_single_threaded


@pytest.fixture()
def pctx():
    with Context(backend="processes", parallelism=2) as c:
        yield c


class TestWorkerBlockStore:
    def test_put_get(self):
        store = WorkerBlockStore(budget_bytes=1000)
        store.put(("bc", 1), [1, 2, 3], 100)
        assert store.get(("bc", 1)) == [1, 2, 3]
        assert store.total_bytes == 100

    def test_miss_is_sentinel_not_none(self):
        store = WorkerBlockStore(budget_bytes=1000)
        store.put(("bc", 1), None, 10)  # None is a legal block value
        assert store.get(("bc", 1)) is None
        assert store.get(("bc", 2)) is _MISS

    def test_lru_eviction_order(self):
        store = WorkerBlockStore(budget_bytes=250)
        store.put(("bc", 1), "a", 100)
        store.put(("bc", 2), "b", 100)
        store.get(("bc", 1))  # touch 1 -> 2 becomes LRU
        store.put(("bc", 3), "c", 100)  # over budget: evicts 2
        assert store.get(("bc", 2)) is _MISS
        assert store.get(("bc", 1)) == "a"
        assert store.get(("bc", 3)) == "c"
        assert store.evictions == 1
        assert store.total_bytes == 200

    def test_keeps_at_least_one_block(self):
        store = WorkerBlockStore(budget_bytes=10)
        store.put(("rdd", 1, 0), list(range(100)), 5000)
        # The just-inserted block survives even though it busts the budget.
        assert store.get(("rdd", 1, 0)) == list(range(100))

    def test_remove(self):
        store = WorkerBlockStore(budget_bytes=1000)
        store.put(("shuf", 1, 0), "x", 50)
        assert store.remove(("shuf", 1, 0))
        assert not store.remove(("shuf", 1, 0))
        assert store.get(("shuf", 1, 0)) is _MISS
        assert store.total_bytes == 0

    def test_key_helpers(self):
        assert broadcast_key(7) == ("bc", 7)
        assert rdd_block_key(3, 1) == ("rdd", 3, 1)


class TestBroadcastOncePerWorker:
    def test_broadcast_ships_once_per_worker_not_per_task(self, pctx):
        payload = {i: "x" * 50 for i in range(200)}
        bc = pctx.broadcast(payload)
        rdd = pctx.parallelize(range(12), 6).map(lambda x, b=bc: (x, len(b.value)))
        assert rdd.collect() == [(i, 200) for i in range(12)]

        m = pctx.executor.shipping_metrics
        # 6 tasks referenced the broadcast but only 2 workers exist: the
        # payload crossed the IPC channel exactly once per worker.
        assert m.broadcast_unique_blocks == 1
        assert m.broadcast_blocks_shipped == 2
        assert m.broadcast_bytes_shipped == 2 * bc.shipping_size_bytes()
        assert m.dedup_hits >= 4  # the other 4 task references were free
        # The broadcast manager's per-worker ledger agrees.
        assert pctx.broadcast_manager.transfers == 2

    def test_second_job_ships_nothing(self, pctx):
        bc = pctx.broadcast(list(range(1000)))
        rdd = pctx.parallelize(range(8), 4).map(lambda x, b=bc: b.value[x])
        rdd.collect()
        m = pctx.executor.shipping_metrics
        shipped_after_first = m.broadcast_bytes_shipped
        assert shipped_after_first > 0
        rdd.collect()  # same broadcast, warm worker caches
        assert m.broadcast_bytes_shipped == shipped_after_first

    def test_destroy_invalidates_worker_caches(self, pctx):
        bc = pctx.broadcast([1, 2, 3])
        pctx.parallelize(range(4), 4).map(lambda x, b=bc: b.value[0]).collect()
        m = pctx.executor.shipping_metrics
        first = m.broadcast_bytes_shipped
        bc.destroy()
        bc2 = pctx.broadcast([4, 5, 6])
        got = pctx.parallelize(range(4), 4).map(lambda x, b=bc2: b.value[0]).collect()
        assert got == [4, 4, 4, 4]
        assert m.broadcast_bytes_shipped > first  # new payload really shipped


class TestWorkerStoreEvictionRepull:
    def test_evicted_block_is_pulled_again(self):
        # A 1-byte budget keeps only the most recent block: pushing B
        # evicts A, so reusing A forces the miss->pull path (the driver
        # still believes the worker holds A and does not re-push it).
        with Context(backend="processes", parallelism=1, worker_store_bytes=1) as ctx:
            bc_a = ctx.broadcast("a" * 2000)
            bc_b = ctx.broadcast("b" * 2000)
            ctx.parallelize([0], 1).map(lambda x, b=bc_a: len(b.value)).collect()
            ctx.parallelize([0], 1).map(lambda x, b=bc_b: len(b.value)).collect()
            got = ctx.parallelize([0], 1).map(lambda x, b=bc_a: len(b.value)).collect()
            assert got == [2000]
            m = ctx.executor.shipping_metrics
            assert m.worker_store_evictions >= 1
            assert m.blocks_pulled >= 1
            assert m.block_bytes_pulled > 0


class TestTaskBatching:
    def test_more_partitions_than_workers_matches_serial(self, pctx):
        data = [(i % 5, i) for i in range(70)]
        with Context(backend="serial") as sctx:
            expect = (
                sctx.parallelize(data, 7)
                .reduce_by_key(lambda a, b: a + b)
                .collect_as_map()
            )
        got = (
            pctx.parallelize(data, 7)
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        assert got == expect
        # 7 map tasks round-robin onto 2 workers as at most 2 batches/stage.
        m = pctx.executor.shipping_metrics
        assert m.batches >= 2

    def test_worker_crash_mid_batch_respawns_and_retries(self, pctx, tmp_path):
        marker = str(tmp_path / "crashed-once")

        def boom(x, marker=marker):
            if x == 3 and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)  # kill the worker process, not just the task
            return x * 10

        got = sorted(pctx.parallelize(range(6), 3).map(boom).collect())
        assert got == [0, 10, 20, 30, 40, 50]

    def test_cached_rdd_reused_from_driver_blocks(self, pctx):
        rdd = pctx.parallelize(range(20), 4).map(lambda x: x * 2).cache()
        assert rdd.sum() == 380
        m = pctx.executor.shipping_metrics
        pushed_after_first = m.blocks_pushed
        assert rdd.sum() == 380  # cached partitions resolve as references
        assert m.blocks_pushed == pushed_after_first  # worker store had them


class TestStableWorkerIds:
    def test_process_worker_ids_are_stable_slots(self, pctx):
        from repro.engine.task import current_task_context

        out = pctx.run_job(
            pctx.parallelize(range(8), 8),
            lambda tc, it: current_task_context().worker_id,
        )
        assert set(out) == {"worker-0", "worker-1"}
        # Round-robin batching: even partitions on slot 0, odd on slot 1.
        assert out[0::2] == ["worker-0"] * 4
        assert out[1::2] == ["worker-1"] * 4


class TestBlockInvalidation:
    """Released shuffle outputs and uncached RDDs must leave the executor's
    driver registry and the worker stores — iterative miners call
    clear_shuffle_outputs between passes precisely to bound driver memory,
    so the executor must not retain each iteration's payloads."""

    def test_clear_shuffle_outputs_releases_executor_blocks(self, pctx):
        data = [(i % 4, i) for i in range(40)]
        for _ in range(3):  # iterative-miner shape: shuffle, then release
            got = (
                pctx.parallelize(data, 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect_as_map()
            )
            assert len(got) == 4
            assert any(k[0] == "shuf" for k in pctx.executor._driver_blocks)
            pctx.clear_shuffle_outputs()
            assert not any(k[0] == "shuf" for k in pctx.executor._driver_blocks)
            assert not any(k[0] == "shuf" for k in pctx.executor._blob_cache)
            for handle in pctx.executor._handles:
                assert not any(k[0] == "shuf" for k in handle.known)

    def test_unpersist_releases_executor_blocks(self, pctx):
        rdd = pctx.parallelize(range(20), 4).map(lambda x: x * 2).cache()
        assert rdd.sum() == 380
        assert rdd.sum() == 380  # second pass offers cached partitions by ref
        assert any(k[0] == "rdd" for k in pctx.executor._driver_blocks)
        rdd.unpersist()
        assert not any(k[0] == "rdd" for k in pctx.executor._driver_blocks)
        assert not any(k[0] == "rdd" for k in pctx.executor._blob_cache)
        for handle in pctx.executor._handles:
            assert not any(k[0] == "rdd" for k in handle.known)
        assert rdd.sum() == 380  # recompute path still works after the drops

    def test_invalidate_prefix_is_selective(self):
        from repro.engine.executors import ProcessExecutor

        ex = ProcessExecutor(1)
        try:
            ex.offer_block(("shuf", 1, 0), [1])
            ex.offer_block(("shuf", 2, 0), [2])
            ex.offer_block(("rdd", 1, 0), [3])
            ex.invalidate_prefix(("shuf", 1))
            assert set(ex._driver_blocks) == {("shuf", 2, 0), ("rdd", 1, 0)}
            ex.invalidate_prefix(("shuf",))
            assert set(ex._driver_blocks) == {("rdd", 1, 0)}
        finally:
            ex.shutdown()


class TestStartMethod:
    def test_spawn_when_other_threads_alive(self):
        # Forking a multi-threaded process can deadlock the child on locks
        # held by other threads at fork time (the repro.serve HTTP server
        # is exactly that shape), so the pool must choose spawn.
        import threading

        release = threading.Event()
        t = threading.Thread(target=release.wait, daemon=True)
        t.start()
        try:
            with Context(backend="processes", parallelism=1) as ctx:
                got = ctx.parallelize([1, 2, 3], 1).map(lambda x: x + 1).collect()
                assert got == [2, 3, 4]
                assert ctx.executor._handles[0].process.started_by == "spawn"
        finally:
            release.set()
            t.join()

    def test_a_forked_pool_spawns_the_replacement_of_a_worker_killed_mid_batch(self, tmp_path):
        # The rule is applied at every start: by the time a worker has to be
        # replaced the driver has grown its dispatch threads.
        wait_until_single_threaded()
        marker = str(tmp_path / "killed-once")

        def die_once(x, marker=marker):
            if x == 3 and not os.path.exists(marker):
                open(marker, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return x * 10

        with Context(backend="processes", parallelism=2) as ctx:
            bc = ctx.broadcast({"add": 1})
            assert ctx.parallelize(range(4), 2).map(lambda x, b=bc: x + b.value["add"]).sum() == 10
            processes = [handle.process for handle in ctx.executor._handles]
            assert [p.started_by for p in processes] == ["fork", "fork"]
            first = [p.pid for p in processes]
            got = sorted(ctx.parallelize(range(6), 3).map(die_once).collect())
            assert got == [0, 10, 20, 30, 40, 50]  # the batch was retried
            assert sorted(p.started_by for p in processes) == ["fork", "spawn"]
            assert sorted(p.started for p in processes) == [1, 2]
            (replaced,) = [p for p in processes if p.started_by == "spawn"]
            assert replaced.alive and replaced.pid not in first
            assert gone_within(set(first) - {p.pid for p in processes}, 2.0) == []
            # the replacement holds nothing, and the driver knows it
            assert ctx.parallelize(range(8), 4).map(lambda x, b=bc: x + b.value["add"]).sum() == 36
            m = ctx.executor.shipping_metrics
            assert m.broadcast_blocks_shipped == 3 and m.blocks_pulled == 0  # pushed, not missed


class TestSigint:
    def test_an_engine_worker_survives_sigint_and_serves_the_next_batch(self, pctx):
        # Ctrl-C reaches the whole foreground group; stopping the pool is
        # the driver's call.
        def pids():
            return sorted(set(pctx.run_job(
                pctx.parallelize(range(4), 4), lambda tc, it: os.getpid()
            )))

        before = pids()
        assert len(before) == 2
        for pid in before:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)  # a worker that heard it is dead by now
        assert [pid_alive(pid) for pid in before] == [True, True]
        assert pids() == before
        assert [h.process.started for h in pctx.executor._handles] == [1, 1]


class TestServeComposition:
    def test_service_with_process_backend_and_context_reuse(self):
        from repro.core.api import mine_frequent_itemsets
        from repro.core.registry import MiningConfig
        from repro.serve import MiningService

        from repro.datasets import mushroom_like

        ds = mushroom_like(scale=0.03, seed=3)
        cfg_a = MiningConfig(min_support=0.4, backend="processes", parallelism=2)
        cfg_b = MiningConfig(min_support=0.5, backend="processes", parallelism=2)
        direct_a = mine_frequent_itemsets(ds.transactions, config=cfg_a)
        direct_b = mine_frequent_itemsets(ds.transactions, config=cfg_b)

        with MiningService(n_workers=1) as service:
            # Two in-server jobs, each on a process pool of its own.
            job_a = service.submit(ds.transactions, cfg_a)
            assert service.wait(job_a.job_id, timeout=120).state.value == "done"
            job_b = service.submit(ds.transactions, cfg_b)
            assert service.wait(job_b.job_id, timeout=120).state.value == "done"
            assert job_a.result.itemsets == direct_a.itemsets
            assert job_b.result.itemsets == direct_b.itemsets


class TestShipOnce:
    """A task batch carries functions and the graph the worker walks —
    never data: source slices and cached partitions are blocks, an RDD
    the whole stage reads as blocks ships without its lineage."""

    @staticmethod
    def _chain(n_rows: int) -> tuple[list[int], int]:
        """Six jobs over one cached RDD: (task bytes per job, pickled
        size of one source partition)."""
        import pickle

        rows = [(i, f"row-{i:020d}") for i in range(n_rows)]
        with Context(backend="processes", parallelism=2) as ctx:
            cached = ctx.parallelize(rows, 4).map(lambda r: (r[0] % 7, len(r[1]))).cache()
            m = ctx.executor.shipping_metrics
            per_job = []
            for k in range(6):
                before = m.task_bytes
                got = cached.map(lambda kv, k=k: kv[1] + k).sum()
                assert got == n_rows * (24 + k)
                per_job.append(m.task_bytes - before)
        return per_job, len(pickle.dumps(rows[: n_rows // 4]))

    def test_task_bytes_of_later_jobs_ignore_dataset_size(self):
        small, small_part = self._chain(400)
        big, big_part = self._chain(4000)
        assert big_part > 9 * small_part
        assert small[1:] == big[1:]  # jobs 2..6: stubs + functions only
        assert max(big) < big_part  # even job 1 ships no slice in a closure

    def test_slices_and_broadcasts_cross_once_per_worker(self, pctx):
        shipments = []
        pctx.executor.broadcast_ship_hook = lambda *event: shipments.append(event[:2])
        bc = pctx.broadcast({"add": 1})
        rdd = pctx.parallelize(range(40), 4)  # never cached: no cut
        for _ in range(3):
            assert rdd.map(lambda x, b=bc: x + b.value["add"]).sum() == 820
        m = pctx.executor.shipping_metrics
        # 4 slices (partition p always lands on worker p % 2) + the
        # broadcast on each of the 2 workers, all in job 1
        assert m.blocks_pushed == 6
        assert m.blocks_pulled == 0
        assert len(shipments) == len(set(shipments)) == 2

    def test_partial_block_loss_keeps_lineage_for_that_stage(self, pctx):
        from repro.engine.storage import BlockId

        cached = pctx.parallelize(range(40), 4).map(lambda x: x * 2).cache()
        assert cached.sum() == 1560
        assert pctx.block_manager.drop_block(BlockId(cached.id, 1))
        # partitions 0, 2, 3 hit their blocks, partition 1 recomputes from
        # the re-offered slice — and is cached back
        assert cached.map(lambda x: x + 1).sum() == 1600
        assert pctx.block_manager.cached_block_count == 4

    def test_collected_collection_releases_its_slices(self, pctx):
        import gc

        rdd = pctx.parallelize(range(40), 4)
        assert rdd.count() == 40
        keys = {k for k in pctx.executor._driver_blocks if k[:2] == ("rdd", rdd.id)}
        assert len(keys) == 4
        del rdd
        gc.collect()
        assert pctx.parallelize(range(8), 2).count() == 8  # next run_tasks drains
        assert not keys & set(pctx.executor._driver_blocks)
        for handle in pctx.executor._handles:
            assert not keys & handle.known

    def test_broadcast_is_serialized_once(self, pctx):
        import cloudpickle

        payload = {i: "y" * 40 for i in range(300)}
        real_dumps = cloudpickle.dumps
        dumped = []

        def counting_dumps(obj, *args, **kwargs):
            if obj is payload:
                dumped.append(1)
            return real_dumps(obj, *args, **kwargs)

        cloudpickle.dumps = counting_dumps
        try:
            bc = pctx.broadcast(payload)
            got = pctx.parallelize(range(8), 4).map(lambda x, b=bc: len(b.value)).collect()
        finally:
            cloudpickle.dumps = real_dumps
        assert got == [300] * 8
        assert dumped == [1]
        assert bc.size_bytes == len(bc.shipping_blob())
        m = pctx.executor.shipping_metrics
        assert m.broadcast_bytes_shipped == 2 * bc.size_bytes


MINING_TXNS = [
    ["a", "b", "c", "d"],
    ["a", "b", "c"],
    ["a", "b", "d"],
    ["b", "c", "d"],
    ["a", "c"],
    ["e", "a", "b", "c"],
] * 12


class TestMiningSurvivesEveryLossCase:
    """Lineage recovery on the process backend, through both level-wise
    miners: the driver loses a cached block, a worker cannot hold its
    partitions, and nothing is cached at all."""

    @pytest.fixture(scope="class")
    def oracle(self):
        from repro.algorithms import apriori

        return apriori(MINING_TXNS, 0.3)

    @pytest.mark.parametrize("algorithm", ["yafim", "rapriori"])
    @pytest.mark.parametrize("case", ["driver_drops_block", "tiny_worker_store", "no_cache"])
    def test_oracle_itemsets(self, oracle, algorithm, case):
        from repro.core import RApriori, Yafim
        from repro.engine.storage import BlockId

        base = {"yafim": Yafim, "rapriori": RApriori}[algorithm]

        class Miner(base):
            def _build_matcher(self, candidates):
                if case == "driver_drops_block":
                    # once per candidate pass: lose partition 0 of whatever
                    # is cached, so the next stage mixes hits and misses
                    manager = self.ctx.block_manager
                    for block in list(manager._mem):
                        if block.partition == 0:
                            manager.drop_block(BlockId(block.rdd_id, 0))
                return super()._build_matcher(candidates)

        ctx_kwargs = {"worker_store_bytes": 1} if case == "tiny_worker_store" else {}
        with Context(backend="processes", parallelism=2, **ctx_kwargs) as ctx:
            miner = Miner(ctx, num_partitions=4, cache_transactions=case != "no_cache")
            result = miner.run(MINING_TXNS, 0.3)
            m = ctx.executor.shipping_metrics
            if case == "tiny_worker_store":
                assert m.worker_store_evictions > 0 and m.blocks_pulled > 0
            if case == "no_cache":
                # no cut, yet the 4 source slices crossed once, not per pass
                assert m.blocks_pushed - m.broadcast_blocks_shipped == 4
                assert m.blocks_pulled == 0
        assert result.itemsets == oracle
        assert max(len(i) for i in oracle) >= 3  # the candidate passes ran
        assert all(it.shuffle_records == 0 for it in result.iterations)
