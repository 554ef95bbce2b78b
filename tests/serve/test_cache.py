"""Cross-job cache behaviour: fingerprints, LRU byte budget, TTL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import MiningConfig
from repro.serve.cache import (
    DatasetCache,
    FingerprintChain,
    LruByteCache,
    ResultCache,
    dataset_fingerprint,
)

#: rows whose renderings collide unless boundaries are hashed ("1" vs 1
#: must agree, "a b" vs "a", "b" must not)
rows = st.lists(
    st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "a b", "1"])), max_size=3
)


class TestDatasetFingerprint:
    def test_deterministic(self):
        txns = [[1, 2, 3], [2, 4]]
        assert dataset_fingerprint(txns) == dataset_fingerprint([list(t) for t in txns])

    def test_content_sensitive(self):
        assert dataset_fingerprint([[1, 2]]) != dataset_fingerprint([[1, 3]])
        assert dataset_fingerprint([[1], [2]]) != dataset_fingerprint([[1, 2]])

    def test_int_and_str_items_differ(self):
        # 1 and "1" render alike but mine to different itemsets: a dataset
        # of one must never be answered from the other's cache entry
        assert dataset_fingerprint([[1, 2]]) != dataset_fingerprint([["1", "2"]])
        assert dataset_fingerprint([[1]]) != dataset_fingerprint([[True]])

    def test_injective_for_items_containing_separators(self):
        # a space-join would conflate these, silently handing one tenant
        # another dataset's cache entry (and its memoized results)
        assert dataset_fingerprint([["a b"]]) != dataset_fingerprint([["a", "b"]])
        assert dataset_fingerprint([["a", "b c"]]) != dataset_fingerprint([["a b", "c"]])
        assert dataset_fingerprint([["a\nb"]]) != dataset_fingerprint([["a"], ["b"]])

    def test_injective_across_row_boundaries(self):
        # every row is its own digest: where a row ends is part of the hash
        assert dataset_fingerprint([[1], [2]]) != dataset_fingerprint([[1, 2]])
        assert dataset_fingerprint([[], [1]]) != dataset_fingerprint([[1], []])
        assert dataset_fingerprint([[1]]) != dataset_fingerprint([[1], []])
        assert dataset_fingerprint([]) != dataset_fingerprint([[]])

    def test_order_sensitive(self):
        assert dataset_fingerprint([[1], [2]]) != dataset_fingerprint([[2], [1]])
        assert dataset_fingerprint([[1, 2]]) != dataset_fingerprint([[2, 1]])


class TestFingerprintChainContract:
    """One fingerprint format: whatever extends, retires and copies led to
    a window, the chain reads what ``dataset_fingerprint`` reads."""

    @settings(max_examples=80, deadline=None)
    @given(
        initial=st.lists(rows, max_size=6),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("extend"), st.lists(rows, max_size=4)),
                st.tuples(st.just("retire"), st.integers(0, 5)),
                st.tuples(st.just("copy"), st.none()),
            ),
            max_size=8,
        ),
    )
    def test_chain_equals_one_shot_after_any_interleaving(self, initial, ops):
        chain, window = FingerprintChain(initial), list(initial)
        left_behind = []
        for op, arg in ops:
            if op == "extend":
                assert chain.extend(arg) == dataset_fingerprint(window + arg)
                window += arg
            elif op == "retire":
                assert chain.retire(arg) == dataset_fingerprint(window[arg:])
                del window[:arg]
            else:
                left_behind.append((chain, list(window)))
                chain = chain.copy()
            assert chain.hexdigest() == dataset_fingerprint(window)
            assert chain.n_transactions == len(window)
        for old, old_window in left_behind:  # copies never share state
            assert old.hexdigest() == dataset_fingerprint(old_window)

    def test_retire_reads_no_row(self):
        chain = FingerprintChain([[1, 2], [3], [4, 5]])
        assert chain.retire(2) == dataset_fingerprint([[4, 5]])
        assert chain.retire(0) == chain.retire(-3) == dataset_fingerprint([[4, 5]])
        assert chain.retire(7) == dataset_fingerprint([])  # over-retire: empty

    def test_extend_is_all_or_nothing(self):
        class Poison:
            def __str__(self):
                raise RuntimeError("unrenderable item")

        chain = FingerprintChain([[1, 2]])
        for bad in ([[3], [4, Poison()]], [[3], 4]):
            with pytest.raises((RuntimeError, TypeError)):
                chain.extend(bad)
            assert chain.hexdigest() == dataset_fingerprint([[1, 2]])
            assert chain.n_transactions == 1


class TestLruByteCache:
    def test_hit_miss_counters(self):
        cache = LruByteCache(max_bytes=1 << 20)
        assert cache.get("a") is None
        cache.put("a", [1, 2, 3])
        assert cache.get("a") == [1, 2, 3]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_byte_budget_evicts_lru(self):
        cache = LruByteCache(max_bytes=1)  # everything over budget
        cache.put("a", list(range(100)))
        cache.put("b", list(range(100)))
        # single-entry floor: newest survives even over budget
        assert "b" in cache and "a" not in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        from repro.common.sizeof import estimate_size

        big = list(range(200))
        cache = LruByteCache(max_bytes=int(estimate_size(big) * 2.5))
        cache.put("a", big)
        cache.put("b", big)
        cache.get("a")  # a is now most-recent
        cache.put("c", big)  # must evict b, not a
        assert "a" in cache and "b" not in cache

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            LruByteCache(max_bytes=0)


class TestDatasetCache:
    def test_add_returns_fingerprint_and_caches(self):
        cache = DatasetCache(1 << 20)
        txns = [[1, 2], [2, 3]]
        fp = cache.add(txns)
        assert fp == dataset_fingerprint(txns)
        assert cache.get(fp) == txns

    def test_re_add_is_idempotent(self):
        cache = DatasetCache(1 << 20)
        fp1 = cache.add([[1, 2]])
        fp2 = cache.add([[1, 2]])
        assert fp1 == fp2 and len(cache) == 1


class TestResultCache:
    def test_ttl_expiry(self):
        cache = ResultCache(max_entries=4, ttl_s=10.0)
        cache.put(("fp", "cfg"), "result", now=0.0)
        assert cache.get(("fp", "cfg"), now=5.0) == "result"
        assert cache.get(("fp", "cfg"), now=10.0) is None  # expired
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_lru_bound(self):
        cache = ResultCache(max_entries=2, ttl_s=100.0)
        for i in range(3):
            cache.put((f"fp{i}", "c"), i, now=0.0)
        assert cache.get(("fp0", "c"), now=1.0) is None
        assert cache.get(("fp2", "c"), now=1.0) == 2
        assert cache.evictions == 1

    def test_stats_shape(self):
        stats = ResultCache().stats()
        assert {"entries", "hits", "misses", "hit_rate", "ttl_s"} <= set(stats)


class TestMiningConfigCacheKey:
    def test_stable_across_option_order(self):
        a = MiningConfig(min_support=0.3, options={"x": 1, "y": 2})
        b = MiningConfig(min_support=0.3, options={"y": 2, "x": 1})
        assert a.cache_key() == b.cache_key()

    def test_differs_on_any_knob(self):
        base = MiningConfig(min_support=0.3)
        assert base.cache_key() != MiningConfig(min_support=0.31).cache_key()
        assert base.cache_key() != MiningConfig(min_support=0.3, algorithm="dist_eclat").cache_key()
        assert base.cache_key() != MiningConfig(min_support=0.3, max_length=2).cache_key()

    def test_canonical_is_json_round_trippable(self):
        import json

        cfg = MiningConfig(min_support=0.5, algorithm="eclat", options={"k": True})
        assert json.loads(json.dumps(cfg.canonical())) == cfg.canonical()


class TestDatasetCachePrecomputedFingerprint:
    def test_add_accepts_precomputed_fingerprint(self):
        # the router fingerprints once for ring placement; add() must not
        # redo the sha256 pass — and must file under the supplied key
        cache = DatasetCache(1 << 20)
        txns = [[1, 2], [2, 3]]
        fp = dataset_fingerprint(txns)
        assert cache.add(txns, fingerprint=fp) == fp
        assert cache.get(fp) == txns


class TestCachesUnderConcurrentLoad:
    """Satellite coverage: TTL expiry and LRU eviction while a service is
    actively submitting — the counters and bounds must hold under races."""

    def _service(self, **kwargs):
        from repro.serve import MiningService

        return MiningService(n_workers=2, **kwargs)

    def test_result_ttl_expiry_under_concurrent_resubmits(self):
        import threading
        import time

        from repro.core.registry import MiningConfig

        txns = [[1, 2, 3], [1, 2], [2, 3]]
        cfg = MiningConfig(min_support=0.4, backend="serial")
        with self._service(result_ttl_s=0.05) as svc:
            svc.wait(svc.submit(txns, cfg).job_id, 30)
            time.sleep(0.1)  # let the memoized entry expire
            vias = []
            lock = threading.Lock()

            def resubmit():
                job = svc.submit(txns, cfg)
                svc.wait(job.job_id, 30)
                with lock:
                    vias.append(job.via)

            threads = [threading.Thread(target=resubmit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            # the expired entry forces exactly one fresh run; everyone else
            # either coalesces onto it or memoizes its (fresh) result
            assert vias.count("run") == 1, vias
            assert set(vias) <= {"run", "coalesced", "memoized"}
            assert svc.results.expirations >= 1

    def test_dataset_cache_lru_eviction_under_concurrent_submits(self):
        import threading

        from repro.core.registry import MiningConfig

        datasets = [
            [[seed, seed + 1, seed + 2], [seed, seed + 1], [seed + 500]]
            for seed in range(0, 160, 10)
        ]
        cfg = MiningConfig(min_support=0.4, backend="serial")
        # a budget of ~6 of the 16 datasets: eviction must fire while
        # jobs stream in, without corrupting or failing any job — a job
        # whose dataset is evicted while queued runs from its own pin
        with self._service(dataset_cache_bytes=256) as svc:
            results = {}
            lock = threading.Lock()

            def mine_one(i, txns):
                job = svc.submit(txns, cfg)
                svc.wait(job.job_id, 60)
                with lock:
                    results[i] = job

            threads = [
                threading.Thread(target=mine_one, args=(i, d))
                for i, d in enumerate(datasets)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert len(results) == len(datasets)
            assert all(j.state.value == "done" for j in results.values())
            stats = svc.datasets.stats()
            assert stats["evictions"] > 0
            assert stats["entries"] < len(datasets)
            assert stats["bytes"] <= 256

    def test_queued_job_survives_dataset_eviction(self):
        import threading

        from repro.core.registry import (
            MiningConfig,
            register_algorithm,
            unregister_algorithm,
        )
        from repro.core.results import MiningRunResult
        from repro.serve import JobState

        release = threading.Event()

        def gated(txns, config):
            release.wait(15.0)
            out = MiningRunResult(
                algorithm=config.algorithm,
                min_support=config.min_support,
                n_transactions=len(txns),
            )
            out.itemsets = {(1,): len(txns)}
            return out

        register_algorithm("cache_gate_algo", gated, overwrite=True)
        try:
            from repro.serve import MiningService

            cfg = MiningConfig(min_support=0.4, algorithm="cache_gate_algo")
            with MiningService(n_workers=1, dataset_cache_bytes=256) as svc:
                gate = svc.submit([[1, 2], [2, 3]], cfg)
                queued = svc.submit([[7, 8], [8, 9], [9, 10]], cfg)
                # push the queued job's dataset out of the byte budget
                for seed in range(1000, 1160, 10):
                    svc.datasets.add([[seed, seed + 1], [seed + 2]])
                assert svc.datasets.get(queued.dataset_fingerprint) is None
                release.set()
                for job in (gate, queued):
                    assert svc.wait(job.job_id, 30).state is JobState.DONE
                assert queued.result.itemsets == {(1,): 3}
                # the run re-warmed the cache from the pin, then the pin
                # was dropped at completion
                assert svc.datasets.get(queued.dataset_fingerprint) is not None
                assert queued._txns is None
        finally:
            release.set()
            unregister_algorithm("cache_gate_algo")
