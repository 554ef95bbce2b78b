"""Named datasets: versioned fingerprints, stale-result invalidation,
warm incremental miners, and name-stable routing.

The load-bearing invariant (pinned here in exact and HTTP
flavours): once a dataset is appended to, no job submitted afterwards is
ever answered from a result memoized before the append.
"""

import time

import pytest

from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.serve import (
    ApiError,
    DatasetCache,
    DatasetRegistry,
    FingerprintChain,
    HttpClient,
    LocalClient,
    LruByteCache,
    MiningServer,
    MiningService,
    ResultCache,
    ServeError,
    ShardRouter,
    dataset_fingerprint,
)
from repro.serve.owner import DatasetOwner

BASE = [("a", "b", "c")] * 4 + [("a", "c")] * 4 + [("b", "c")] * 4
DELTA = [("a", "b", "c")] * 4
CFG = MiningConfig(min_support=0.5, backend="serial")
INC = MiningConfig(min_support=0.5, backend="serial", incremental=True)


def oracle(txns, config=CFG):
    exact = MiningConfig(min_support=config.min_support, backend="serial")
    return mine_frequent_itemsets(txns, config=exact).itemsets


@pytest.fixture
def reg():
    """A dataset tier on its own, with caches to keep coherent and a
    dataset owner of its own, stopped with it."""
    tier = DatasetRegistry(DatasetCache(1 << 20), ResultCache(16, 60.0), DatasetOwner("test"))
    yield tier
    tier.close()


class TestFingerprintChain:
    def test_chained_equals_one_shot(self):
        txns = BASE + DELTA + [("x", "y")]
        for split1 in (0, 1, 5, len(BASE)):
            chain = FingerprintChain(txns[:split1])
            chain.extend(txns[split1:split1 + 3])
            final = chain.extend(txns[split1 + 3:])
            assert final == dataset_fingerprint(txns)  # byte-identical
            assert chain.hexdigest() == final
            assert chain.n_transactions == len(txns)

    def test_every_version_is_a_real_fingerprint(self):
        chain = FingerprintChain(BASE)
        assert chain.hexdigest() == dataset_fingerprint(BASE)
        v2 = chain.extend(DELTA)
        assert v2 == dataset_fingerprint(BASE + DELTA)

    def test_copy_is_independent(self):
        chain = FingerprintChain(BASE)
        clone = chain.copy()
        clone.extend(DELTA)
        assert chain.hexdigest() == dataset_fingerprint(BASE)
        assert clone.hexdigest() == dataset_fingerprint(BASE + DELTA)
        assert clone.n_transactions == len(BASE) + len(DELTA)

    def test_injective_encoding(self):
        assert dataset_fingerprint([["a b"]]) != dataset_fingerprint([["a", "b"]])
        assert dataset_fingerprint([["ab"], ["c"]]) != dataset_fingerprint(
            [["ab", "c"]]
        )

    def test_int_and_str_items_differ(self):
        assert dataset_fingerprint([[1, 2], [3]]) != dataset_fingerprint(
            [["1", "2"], ["3"]]
        )
        chain = FingerprintChain([["1", "2"]])
        assert chain.extend([[3]]) != dataset_fingerprint([["1", "2"], ["3"]])
        assert chain.hexdigest() == dataset_fingerprint([["1", "2"], [3]])


class TestLruByteCacheRemove:
    def test_remove_present(self):
        cache = LruByteCache(1 << 20)
        cache.put("k", [1, 2, 3])
        assert cache.remove("k") is True
        assert "k" not in cache and cache.current_bytes == 0
        assert cache.evictions == 0  # mutation, not pressure

    def test_remove_absent(self):
        cache = LruByteCache(1 << 20)
        assert cache.remove("missing") is False


class TestResultCacheInvalidation:
    def test_drops_only_the_stale_fingerprint(self):
        cache = ResultCache(max_entries=16, ttl_s=60.0)
        cache.put(("fp1", "cfgA"), "a1")
        cache.put(("fp1", "cfgB"), "b1")
        cache.put(("fp2", "cfgA"), "a2")
        assert cache.invalidate_dataset("fp1") == 2
        assert cache.get(("fp1", "cfgA")) is None
        assert cache.get(("fp2", "cfgA")) == "a2"
        assert cache.stats()["invalidations"] == 2


class TestDatasetRegistry:
    def test_create_and_fingerprint(self, reg):
        entry, replaced = reg.create("w", BASE)
        assert replaced is None
        assert entry.version == 1
        assert entry.fingerprint == dataset_fingerprint(BASE)
        assert entry.prefix_since == 1

    def test_duplicate_name_conflicts(self, reg):
        reg.create("w", BASE)
        with pytest.raises(ApiError) as err:
            reg.create("w", BASE)
        assert err.value.status == 409 and err.value.code == "dataset_exists"

    def test_replace_returns_the_old_entry(self, reg):
        entry, _ = reg.create("w", BASE)
        old_fp = entry.fingerprint
        entry2, replaced = reg.create("w", DELTA, replace=True)
        assert replaced is entry
        assert replaced.fingerprint == old_fp
        assert entry2.fingerprint == dataset_fingerprint(DELTA)

    def test_unknown_dataset(self, reg):
        with pytest.raises(ApiError) as err:
            reg.get("nope")
        assert err.value.status == 404 and err.value.code == "unknown_dataset"
        assert err.value.payload() == {
            "error": str(err.value), "code": "unknown_dataset",
        }

    def test_append_advances_version(self, reg):
        entry, _ = reg.create("w", BASE)
        with entry.lock:
            res = entry.append(DELTA)
        assert entry.version == 2
        assert res.old_version == 1 and res.new_version == 2
        assert res.old_fingerprint == dataset_fingerprint(BASE)
        assert res.new_fingerprint == dataset_fingerprint(BASE + DELTA)
        # nothing retired: version 1's window is still a prefix of ours
        assert entry.prefix_since == 1
        assert entry.info()["n_transactions"] == len(BASE) + len(DELTA)

    def test_fingerprint_follows_a_sliding_window(self, reg):
        """The chain retires with the window: after any mix of plain and
        retiring appends the entry's fingerprint is the one-shot
        fingerprint of its rows (one cache keyspace with raw submits)."""
        entry, _ = reg.create("w", BASE, max_window=len(BASE) + 2)
        window = list(BASE)
        for delta in ([("x", "y")], DELTA, [("z",)] * 9, [], [("a",)]):
            with entry.lock:
                res = entry.append(delta)
            window = (window + delta)[-(len(BASE) + 2):]
            assert entry.transactions == window
            assert entry.fingerprint == entry.chain.hexdigest()
            assert entry.fingerprint == dataset_fingerprint(window)
            assert entry.chain.n_transactions == len(window)
            if res is not None:
                assert (entry.prefix_since == entry.version) == bool(res.n_retired)
        assert entry.retires == len(BASE) + 15 - len(window)

    def test_poisoned_delta_changes_nothing(self, reg):
        """Hashing the delta is the first step and takes it whole or not
        at all: chain, window, arrivals, version, prefix guard and warm
        miners all stay exactly as they were — also when a retire was due."""

        class Poison:
            def __str__(self):
                raise RuntimeError("unrenderable item")

        entry, _ = reg.create("w", BASE, max_window=len(BASE))
        cfg = MiningConfig(min_support=0.5, incremental=True)
        assert reg.warm_result(entry, 1, len(BASE), cfg).itemsets == oracle(BASE)
        miners = reg.owner.inspect(entry)["miners"]  # the owner's, by mining key
        (miner,) = miners.values()
        before = (
            list(entry.transactions), list(entry.arrivals), entry.version,
            entry.fingerprint, entry.prefix_since, entry.retires,
        )
        for bad in ([("a", "b"), ("a", Poison())], [("a", "b"), 7]):
            with entry.lock, pytest.raises(ApiError, match="fingerprinted"):
                entry.append(bad)
            assert before == (
                entry.transactions, entry.arrivals, entry.version,
                entry.fingerprint, entry.prefix_since, entry.retires,
            )
            assert entry.chain.hexdigest() == dataset_fingerprint(BASE)
            assert reg.owner.inspect(entry)["miners"] == miners
            assert list(miners) == [(0.5, None)] and miner["version"] == 1
        with entry.lock:
            entry.append(DELTA)  # still fully functional, the miner with it
        window = (BASE + DELTA)[len(DELTA):]
        assert entry.fingerprint == dataset_fingerprint(window)
        (moved,) = reg.owner.inspect(entry)["miners"].values()
        assert moved["ident"] == miner["ident"] and moved["version"] == 2
        assert reg.warm_result(entry, 2, len(window), cfg).itemsets == oracle(window)

    def test_retire_clears_the_prefix_guard(self, reg):
        """A retiring advance moves ``prefix_since`` to the version it
        produced: no older snapshot is a prefix of the window any more,
        and a job holding one has to fall back to a cold run of its own
        rows."""
        entry, _ = reg.create("w", BASE, max_window=len(BASE) + 1)
        with entry.lock:
            entry.append([("x",)])  # no retire: versions 1 and 2 both prefixes
        assert (entry.version, entry.prefix_since) == (2, 1)
        with entry.lock:
            res = entry.append(DELTA)  # retires: every older version goes
        assert res.n_retired == len(DELTA)
        assert (entry.version, entry.prefix_since) == (3, 3)
        cfg = MiningConfig(min_support=0.5, incremental=True)
        assert reg.warm_result(entry, 2, len(BASE) + 1, cfg) is None
        warm = reg.warm_result(entry, 3, len(entry.transactions), cfg)
        assert warm.itemsets == oracle(entry.transactions)

    def test_empty_create_rejected_and_empty_append_is_noop(self, reg):
        with pytest.raises(ApiError):
            reg.create("w", [])
        entry, _ = reg.create("w2", BASE)
        with entry.lock:
            assert entry.append([]) is None  # no retire due: nothing to do
        assert entry.version == 1


@pytest.fixture
def service():
    with MiningService(n_workers=1, result_ttl_s=60.0) as svc:
        yield svc


class TestServiceDatasets:
    def test_submit_by_name_matches_direct_mine(self, service):
        service.create_dataset("w", BASE)
        job = service.submit(None, CFG, dataset_id="w")
        assert job.wait(30.0)
        assert job.result.itemsets == oracle(BASE)
        assert job.dataset_id == "w" and job.dataset_version == 1
        assert job.snapshot()["dataset_version"] == 1

    def test_resubmit_memoizes(self, service):
        service.create_dataset("w", BASE)
        assert service.submit(None, CFG, dataset_id="w").wait(30.0)
        again = service.submit(None, CFG, dataset_id="w")
        assert again.via == "memoized"

    def test_append_never_serves_stale_exact_result(self, service):
        """Satellite invariant, exact tier: the pre-append memoized
        result must not answer any post-append submission."""
        service.create_dataset("w", BASE)
        pre = service.submit(None, CFG, dataset_id="w")
        assert pre.wait(30.0)
        info = service.append_dataset("w", DELTA, expected_version=1)
        assert info["version"] == 2
        assert info["invalidated_results"] >= 1
        post = service.submit(None, CFG, dataset_id="w")
        assert post.wait(30.0)
        assert post.via == "run"
        assert post.dataset_version == 2
        assert post.result.itemsets == oracle(BASE + DELTA)
        assert post.result.itemsets != pre.result.itemsets

    def test_job_pinned_before_a_retire_answers_its_own_snapshot(self, service):
        """A retire moves the prefix guard past every older version, so a
        job that snapshotted one re-mines its own rows cold; the warm
        miner has moved on and stays right."""
        service.create_dataset("w", BASE, max_window=len(BASE) + 1)
        assert service.submit(None, INC, dataset_id="w").wait(30.0)  # warm miner
        entry = service.dataset_registry.get("w")
        with entry.lock:  # the worker parks at the warm-miner path
            service.append_dataset("w", [("x", "y")])
            v2 = list(entry.transactions)
            stale = service.submit(None, INC, dataset_id="w")
            service.append_dataset("w", DELTA)  # retires under the parked job
            assert (entry.version, entry.prefix_since) == (3, 3)
        assert stale.wait(30.0)
        assert stale.dataset_version == 2
        assert stale.result.itemsets == oracle(v2)
        fresh = service.submit(None, INC, dataset_id="w")
        assert fresh.wait(30.0)
        assert fresh.dataset_version == 3
        assert fresh.result.itemsets == oracle((v2 + DELTA)[len(DELTA):])

    def test_info_answers_the_owners_counts_at_its_version(self, service, monkeypatch):
        """``warm_miners`` / ``watches`` come from the owner's push of the
        version ``info`` answers for, however late that push lands: a
        push held up in the server (as under CPU load) is waited for."""
        from repro.serve.datasets import ManagedDataset

        logged = ManagedDataset.logged

        def late(self, *args):
            time.sleep(0.3)
            logged(self, *args)

        monkeypatch.setattr(ManagedDataset, "logged", late)
        client = LocalClient(service)
        client.create_dataset("w", BASE)
        client.dataset_changes("w", since=1, min_support=0.5)
        client.append_dataset("w", DELTA)
        info = client.dataset_info("w")
        assert (info["version"], info["warm_miners"], info["watches"]) == (2, 1, 1)

    def test_version_conflict(self, service):
        service.create_dataset("w", BASE)
        service.append_dataset("w", DELTA, expected_version=1)
        with pytest.raises(ApiError) as err:
            service.append_dataset("w", DELTA, expected_version=1)
        assert err.value.status == 409 and err.value.code == "version_conflict"
        assert service.dataset_info("w")["version"] == 2  # nothing changed

    def test_replace_invalidates_old_contents(self, service):
        service.create_dataset("w", BASE)
        assert service.submit(None, CFG, dataset_id="w").wait(30.0)
        service.create_dataset("w", DELTA, replace=True)
        job = service.submit(None, CFG, dataset_id="w")
        assert job.wait(30.0)
        assert job.via == "run"
        assert job.result.itemsets == oracle(DELTA)

    def test_transactions_xor_dataset_id(self, service):
        service.create_dataset("w", BASE)
        with pytest.raises(ServeError):
            service.submit(BASE, CFG, dataset_id="w")
        with pytest.raises(ServeError):
            service.submit(None, CFG)

    def test_warm_miner_folds_only_the_delta(self, service):
        """Incremental serving: the second job after an append must reuse
        the dataset's warm miner with a delta update, not rebuild."""
        service.create_dataset("w", BASE)
        first = service.submit(None, INC, dataset_id="w")
        assert first.wait(30.0)
        assert first.result.itemsets == oracle(BASE)
        entry = service.dataset_registry.get("w")

        def miners():  # the owner's, by mining key
            return service.dataset_registry.owner.inspect(entry)["miners"]

        (miner,) = miners().values()
        assert miner["n_transactions"] == len(BASE)
        service.append_dataset("w", DELTA)  # existing items: no dict shift
        second = service.submit(None, INC, dataset_id="w")
        assert second.wait(30.0)
        assert second.via == "run"
        assert second.result.itemsets == oracle(BASE + DELTA)
        (miner,) = [now for now in miners().values() if now["ident"] == miner["ident"]]
        assert miner["n_transactions"] == len(BASE) + len(DELTA)
        assert miner["last_kind"] == "append"
        assert not miner["full_rebuild"]
        # no job of this tier ever ran on an engine context
        assert first.result.engine_metrics is None and second.result.engine_metrics is None

    def test_warm_miner_survives_memoized_hits(self, service):
        service.create_dataset("w", BASE)
        assert service.submit(None, INC, dataset_id="w").wait(30.0)
        assert service.submit(None, INC, dataset_id="w").via == "memoized"
        assert service.dataset_info("w")["warm_miners"] == 1

    def test_metrics_carry_registry_stats(self, service):
        service.create_dataset("w", BASE)
        service.append_dataset("w", DELTA)
        stats = service.metrics()["dataset_registry"]
        assert stats["datasets"] == 1
        assert stats["creates"] == 1 and stats["appends"] == 1


class TestRouterDatasets:
    def test_home_is_name_stable_across_appends(self):
        with ShardRouter(n_shards=3, n_workers=1) as router:
            router.create_dataset("w", BASE)
            home = router.dataset_home("w")
            router.append_dataset("w", DELTA)
            assert router.dataset_home("w") == home  # fingerprint moved, home didn't
            # the dataset lives only on its home shard
            owners = [
                s.name for s in router.shards
                if len(s.dataset_registry)
            ]
            assert owners == [home]

    def test_dataset_jobs_pin_to_the_home_shard(self):
        with ShardRouter(n_shards=3, n_workers=1) as router:
            router.create_dataset("w", BASE)
            job = router.submit(None, CFG, dataset_id="w")
            assert job.wait(30.0)
            assert job.shard == router.dataset_home("w")
            assert job.result.itemsets == oracle(BASE)
            router.append_dataset("w", DELTA)
            job2 = router.submit(None, CFG, dataset_id="w")
            assert job2.wait(30.0)
            assert job2.shard == router.dataset_home("w")
            assert job2.result.itemsets == oracle(BASE + DELTA)

    def test_unknown_dataset_through_router(self):
        with ShardRouter(n_shards=2, n_workers=1) as router:
            with pytest.raises(ApiError) as err:
                router.dataset_info("nope")
            assert err.value.code == "unknown_dataset"


class TestHttpDatasets:
    @pytest.fixture(scope="class")
    def server(self):
        with MiningServer(port=0, n_workers=2) as srv:
            yield srv

    def test_full_lifecycle_over_http(self, server):
        client = HttpClient(server.url)
        info = client.create_dataset("http-w", BASE)
        assert info["version"] == 1
        assert info["fingerprint"] == dataset_fingerprint(BASE)
        first = client.wait(
            client.submit(None, CFG, dataset="http-w")["job_id"], timeout=60
        )
        assert first["state"] == "done"
        assert first["dataset_id"] == "http-w" and first["dataset_version"] == 1
        assert client.result(first["job_id"]) == oracle(BASE)
        again = client.submit(None, CFG, dataset="http-w")  # same version: memoized
        assert client.wait(again["job_id"], timeout=60)["via"] == "memoized"

        info = client.append_dataset("http-w", DELTA, expected_version=1)
        assert info["version"] == 2 and info["invalidated_results"] >= 1
        assert client.dataset_info("http-w")["n_transactions"] == len(BASE) + len(
            DELTA
        )
        post = client.wait(
            client.submit(None, CFG, dataset="http-w")["job_id"], timeout=60
        )
        assert post["via"] == "run"  # the stale cache entry is gone
        assert post["state"] == "done" and post["dataset_version"] == 2
        assert client.result(post["job_id"]) == oracle(BASE + DELTA)

    def test_http_error_codes_are_structured(self, server):
        """Satellite: HttpClient surfaces the JSON error body as an
        ApiError with the server's status and code, not a bare HTTPError."""
        client = HttpClient(server.url)
        with pytest.raises(ApiError) as err:
            client.dataset_info("never-created")
        assert err.value.status == 404 and err.value.code == "unknown_dataset"

        client.create_dataset("http-dup", BASE)
        with pytest.raises(ApiError) as err:
            client.create_dataset("http-dup", BASE)
        assert err.value.status == 409 and err.value.code == "dataset_exists"
        with pytest.raises(ApiError) as err:
            client.append_dataset("http-dup", DELTA, expected_version=7)
        assert err.value.status == 409 and err.value.code == "version_conflict"
        with pytest.raises(ApiError) as err:
            client.submit(BASE, {"min_support": 0.5, "bogus_knob": 1})
        assert err.value.status == 400 and err.value.code == "bad_request"

    def test_submit_requires_exactly_one_source(self, server):
        client = HttpClient(server.url)
        # neither transactions nor dataset (raw body: the typed client
        # already refuses to build this request)
        with pytest.raises(ApiError) as err:
            client._request("POST", "/jobs", {"config": {"min_support": 0.5}})
        assert err.value.status == 400 and err.value.code == "bad_request"
        client.create_dataset("http-both", BASE)
        with pytest.raises(ApiError) as err:
            client._request(
                "POST",
                "/jobs",
                {
                    "config": {"min_support": 0.5},
                    "transactions": [list(t) for t in BASE],
                    "dataset": "http-both",
                },
            )
        assert err.value.status == 400 and err.value.code == "bad_request"
