"""Streaming ingestion: coalesced appends, window policies, the change
feed, and the dataset-lifecycle bugfixes.

The two invariants pinned here end-to-end:

* the window is always bounded by its policies, and after ANY automatic
  retire no job is ever answered from a pre-retire result;
* a change-feed diff composed over any span of versions, applied to the
  full mining result of the first version, equals the full mining result
  of the last — the subscription surface never drifts from the oracle.
"""

import http.client
import json
import random
import sys
import threading
import time

import pytest

from repro.core.api import mine_frequent_itemsets
from repro.core.incremental import FamilyDiff
from repro.core.registry import MiningConfig
from repro.datasets import mushroom_like
from repro.serve import (
    ApiError,
    DatasetCache,
    DatasetRegistry,
    HttpClient,
    LocalClient,
    ManagedDataset,
    MiningServer,
    MiningService,
    ResultCache,
    dataset_fingerprint,
)
from repro.serve.owner import DatasetOwner

BASE = [("a", "b", "c")] * 4 + [("a", "c")] * 4 + [("b", "c")] * 4
DELTA = [("a", "b", "c")] * 4
CFG = MiningConfig(min_support=0.5, backend="serial")
INC = MiningConfig(min_support=0.5, backend="serial", incremental=True)


def oracle(txns, min_support=0.5):
    cfg = MiningConfig(min_support=min_support, backend="serial")
    return mine_frequent_itemsets(txns, config=cfg).itemsets


@pytest.fixture
def reg():
    """A dataset tier on its own, with caches to keep coherent and a
    dataset owner of its own, stopped with it."""
    tier = DatasetRegistry(DatasetCache(1 << 20), ResultCache(16, 60.0), DatasetOwner("test"))
    yield tier
    tier.close()


def payload_to_family(pairs):
    """Invert ``_family_payload``: [[items, count], ...] -> {tuple: count}."""
    return {tuple(items): count for items, count in pairs}


def apply_payload_diff(family, payload):
    out = dict(family)
    for items, _ in payload["removed"]:
        out.pop(tuple(items), None)
    for items, count in payload["added"]:
        out[tuple(items)] = count
    for items, _, new in payload["changed"]:
        out[tuple(items)] = new
    return out


def client_on(transport: str, server):
    """The client under test, on the named transport of ``server``."""
    if transport == "local":
        return LocalClient(server.service)
    return HttpClient(server.url, poll_interval_s=0.01)


@pytest.fixture
def service():
    with MiningService(n_workers=1, result_ttl_s=60.0) as svc:
        yield svc


class TestIngestBuffer:
    def test_small_appends_coalesce_until_flush_rows(self, service):
        service.create_dataset("w", BASE, flush_rows=6)
        info = service.append_dataset("w", DELTA[:2])
        assert info["flushed"] is False
        assert info["version"] == 1 and info["buffered"] == 2
        info = service.append_dataset("w", DELTA[:3])
        assert info["flushed"] is False and info["buffered"] == 5
        info = service.append_dataset("w", DELTA[:1])  # 6th row: trigger
        assert info["flushed"] is True
        assert info["version"] == 2 and info["buffered"] == 0
        assert info["n_transactions"] == len(BASE) + 6

    def test_explicit_flush_applies_the_buffer(self, service):
        service.create_dataset("w", BASE, flush_rows=100)
        assert service.append_dataset("w", DELTA)["flushed"] is False
        info = service.append_dataset("w", None, flush=True)
        assert info["flushed"] is True and info["version"] == 2
        assert info["n_transactions"] == len(BASE) + len(DELTA)
        # one window advance folded all staged rows: exactly one flush
        assert service.dataset_registry.stats()["flushes"] == 1

    def test_flush_with_nothing_staged_is_a_noop(self, service):
        service.create_dataset("w", BASE, flush_rows=100)
        info = service.append_dataset("w", None, flush=True)
        assert info["version"] == 1 and info["flushed"] is True

    def test_submit_flushes_for_read_your_writes(self, service):
        """A job submitted for the dataset must see every accepted append,
        staged or not."""
        service.create_dataset("w", BASE, flush_rows=100)
        service.append_dataset("w", DELTA)
        job = service.submit(None, CFG, dataset_id="w")
        assert job.wait(30.0)
        assert job.dataset_version == 2
        assert job.result.itemsets == oracle(BASE + DELTA)
        assert service.dataset_info("w")["buffered"] == 0

    def test_coalesced_flush_is_one_version_bump(self, service):
        service.create_dataset("w", BASE, flush_rows=4)
        for txn in DELTA:  # 4 one-row appends -> a single advance
            info = service.append_dataset("w", [txn])
        assert info["version"] == 2
        stats = service.dataset_registry.stats()
        assert stats["appends"] == 4 and stats["flushes"] == 1

    def test_age_trigger_fires_via_background_flusher(self, service):
        service.create_dataset("w", BASE, flush_rows=100, flush_age_s=0.05)
        assert service.append_dataset("w", DELTA)["flushed"] is False
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if service.dataset_info("w")["version"] == 2:
                break
            time.sleep(0.02)
        info = service.dataset_info("w")
        assert info["version"] == 2 and info["buffered"] == 0
        assert info["n_transactions"] == len(BASE) + len(DELTA)

    def test_empty_append_without_flush_rejected(self, service):
        service.create_dataset("w", BASE)
        with pytest.raises(ApiError):
            service.append_dataset("w", [])


class TestWindowPolicies:
    def test_max_window_bounds_the_dataset(self, service):
        service.create_dataset("w", BASE, max_window=len(BASE))
        info = service.append_dataset("w", DELTA)
        assert info["n_transactions"] == len(BASE)
        assert info["retired_transactions"] == len(DELTA)
        entry = service.dataset_registry.get("w")
        window = (BASE + DELTA)[len(DELTA):]
        assert list(entry.transactions) == window
        assert entry.fingerprint == dataset_fingerprint(window)

    def test_create_trims_oversized_initial_window(self, service):
        info = service.create_dataset("w", BASE + DELTA, max_window=6)
        assert info["n_transactions"] == 6
        entry = service.dataset_registry.get("w")
        assert list(entry.transactions) == (BASE + DELTA)[-6:]

    def test_max_age_retires_by_arrival_stamp(self, reg):
        clock = [100.0]
        entry, _ = reg.create(
            "w", BASE, max_age_s=10.0, clock=lambda: clock[0]
        )
        clock[0] = 105.0
        with entry.lock:
            res = entry.append(DELTA)
        assert res.n_retired == 0
        clock[0] = 112.0  # BASE (t=100) expired, DELTA (t=105) alive
        with entry.lock:
            res = entry.append([("x", "y")])
        assert res.n_retired == len(BASE)
        assert list(entry.transactions) == DELTA + [("x", "y")]

    def test_window_never_empties_under_age_policy(self, reg):
        clock = [0.0]
        entry, _ = reg.create(
            "w", BASE, max_age_s=1.0, clock=lambda: clock[0]
        )
        clock[0] = 1000.0  # everything expired
        with entry.lock:
            res = entry.append([])
        assert res is not None and len(entry.transactions) == 1

    def test_policy_retire_never_serves_stale(self, service):
        """Satellite invariant: after an automatic retire, the pre-retire
        memoized result must not answer any later submission."""
        service.create_dataset("w", BASE + DELTA, max_window=len(BASE) + len(DELTA))
        pre = service.submit(None, CFG, dataset_id="w")
        assert pre.wait(30.0)
        extra = [("b", "c")] * 6
        info = service.append_dataset("w", extra)
        assert info["retired_transactions"] == len(extra)
        post = service.submit(None, CFG, dataset_id="w")
        assert post.wait(30.0)
        assert post.via == "run"
        window = (BASE + DELTA + extra)[len(extra):]
        assert post.result.itemsets == oracle(window)

    def test_retire_clears_prefix_guard_and_warm_jobs_stay_correct(self, service):
        """The warm-miner path's O(1) prefix guard must fail closed across
        a retire — the next incremental job re-mines, never reuses a
        snapshot that is no longer a prefix."""
        service.create_dataset("w", BASE, max_window=len(BASE))
        first = service.submit(None, INC, dataset_id="w")
        assert first.wait(30.0)
        service.append_dataset("w", DELTA)  # retires len(DELTA) oldest
        entry = service.dataset_registry.get("w")
        assert entry.prefix_since == entry.version == 2
        second = service.submit(None, INC, dataset_id="w")
        assert second.wait(30.0)
        assert second.result.itemsets == oracle((BASE + DELTA)[len(DELTA):])


class TestChangeFeed:
    def test_first_call_establishes_watch_with_empty_diff(self, service):
        service.create_dataset("w", BASE)
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        assert payload["version"] == 1 and payload["reset"] is False
        assert payload["added"] == [] and payload["removed"] == []
        assert payload["changed"] == []

    def test_diff_equals_set_difference_of_full_results(self, service):
        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)  # watch
        service.append_dataset("w", DELTA)
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        assert payload["reset"] is False and payload["version"] == 2
        old, new = oracle(BASE), oracle(BASE + DELTA)
        assert payload_to_family(payload["added"]) == {
            i: c for i, c in new.items() if i not in old
        }
        assert payload_to_family(payload["removed"]) == {
            i: c for i, c in old.items() if i not in new
        }
        assert apply_payload_diff(old, payload) == new

    def test_multi_version_span_composes(self, service):
        """A span whose logged rows do not outnumber the family is the
        composed diff (here one version's entry already rendered to text,
        the next still a diff)."""
        base = [("a", "b", "c", "d")] * 6 + [("a", "c")] * 3 + [("b", "d")] * 3 + [("e",)] * 3
        deltas = [[("a", "c", "e")] * 2, [("d", "e")]]
        service.create_dataset("w", base)
        service.dataset_changes("w", since=1, min_support=0.25)
        service.append_dataset("w", deltas[0])
        assert service.dataset_changes("w", since=1, min_support=0.25)["version"] == 2
        service.append_dataset("w", deltas[1])
        payload = service.dataset_changes("w", since=1, min_support=0.25)
        assert payload["version"] == 3 and payload["reset"] is False
        assert payload["added"] and payload["changed"]
        final = oracle(base + deltas[0] + deltas[1], 0.25)
        assert apply_payload_diff(oracle(base, 0.25), payload) == final

    def test_a_span_longer_than_the_family_is_a_reset(self, service):
        """Composing a span means decoding every entry in it; when they
        hold more rows than the family has itemsets, the family is the
        cheaper answer, and it is the oracle's."""
        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)
        service.append_dataset("w", DELTA)  # 7 rows
        service.append_dataset("w", [("b", "c")] * 8)  # 5 rows; the family has 5
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        assert payload["version"] == 3 and payload["reset"] is True
        final = oracle(BASE + DELTA + [("b", "c")] * 8)
        assert payload_to_family(payload["family"]) == final
        # one version back is still a diff
        payload = service.dataset_changes("w", since=2, min_support=0.5)
        assert payload["reset"] is False
        assert apply_payload_diff(oracle(BASE + DELTA), payload) == final

    @pytest.mark.parametrize("since, renderer", [(1, "_diff_rows"), (0, "_family_rows")])
    def test_answer_is_rendered_outside_the_dataset_lock(
        self, service, monkeypatch, since, renderer
    ):
        """Sorting and rendering every changed itemset is the slow part of
        an answer, and the writer must never queue behind it: a version's
        diff and a reset's family are rendered in the dataset's owner
        process, so the server renders neither (diff and full-family
        answers) and holds no lock of the dataset's while one is made."""
        import repro.serve.datasets as datasets_module

        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)  # watch
        service.append_dataset("w", DELTA)
        real = getattr(datasets_module, renderer)
        rendered_here = []
        monkeypatch.setattr(
            datasets_module, renderer, lambda *args: rendered_here.append(args) or real(*args)
        )
        payload = service.dataset_changes("w", since=since, min_support=0.5)
        assert payload["reset"] is (since == 0)
        if since:
            assert apply_payload_diff(oracle(BASE), payload) == oracle(BASE + DELTA)
        else:
            assert payload_to_family(payload["family"]) == oracle(BASE + DELTA)
        assert not rendered_here

    @pytest.mark.parametrize("spelling", [None, "bitmap", "hashtree"])
    def test_job_and_watch_share_one_miner(self, service, spelling):
        """A job's config says ``hashtree`` (the batch default) where a
        watcher says nothing; both mean this tier's default store, and
        one logical mining key must be one warm miner — built once,
        advanced once per version."""
        service.create_dataset("w", BASE)
        job = service.submit(None, INC, dataset_id="w")
        assert job.wait(30.0) and job.result.itemsets == oracle(BASE)
        entry = service.dataset_registry.get("w")

        def miners():  # the owner's, by mining key
            return service.dataset_registry.owner.inspect(entry)["miners"]

        (miner,) = miners().values()
        assert not miner["track_family_diff"]  # nobody reads a job-only miner's diffs
        service.dataset_changes("w", since=1, min_support=0.5, candidate_store=spelling)
        (now,) = miners().values()
        assert now["ident"] == miner["ident"] and now["track_family_diff"]
        service.append_dataset("w", DELTA)
        payload = service.dataset_changes(
            "w", since=1, min_support=0.5, candidate_store=spelling
        )
        assert apply_payload_diff(oracle(BASE), payload) == oracle(BASE + DELTA)
        (now,) = miners().values()
        assert now["ident"] == miner["ident"] and now["version"] == 2
        # a store this tier honours as asked is a different miner
        service.dataset_changes("w", since=2, min_support=0.5, candidate_store="linear")
        assert len(miners()) == 2

    def test_payloads_list_shorter_itemsets_first_then_item_order(self):
        from repro.serve.datasets import _diff_payload, _family_payload

        family = {(10, 2): 1, (2,): 5, (2, 3): 4, (10,): 3, (2, 3, 10): 1}
        assert [items for items, _ in _family_payload(family)] == [
            [2], [10], [2, 3], [10, 2], [2, 3, 10],
        ]  # numbers in numeric order, not "10" < "2"
        diff = FamilyDiff(added={("b",): 2, ("a",): 1}, changed={("c", "d"): (1, 2), ("c",): (4, 5)})
        assert _diff_payload(diff) == {
            "added": [[["a"], 1], [["b"], 2]], "removed": [],
            "changed": [[["c"], 4, 5], [["c", "d"], 1, 2]],
        }

    def test_bodies_are_the_list_shaped_payloads_byte_for_byte(self):
        """The owner renders ``(itemset, ...)`` tuples for the encoder and
        the server keeps a version's rows as that text; the bytes sent are
        ``json.dumps`` of the list-shaped reference payload of the oracle's
        diff — first read, re-read, a composed span, ``since == version``,
        a span over the rule and an uncovered ``since`` alike — on both
        transports, and LocalClient answers what they decode to."""
        from repro.serve.datasets import _diff_payload, _family_payload, _mining_key
        from repro.serve.http import dispatch

        rows = [tuple(t) for t in mushroom_like(scale=0.02, seed=3).transactions]
        with MiningServer(port=0, n_workers=1) as srv:
            client = HttpClient(srv.url)
            client.create_dataset("w", rows[:120])
            client.dataset_changes("w", since=1, min_support=0.4)  # the watch
            entry = srv.service.shards[0].dataset_registry.get("w")
            key = _mining_key(0.4, None, None)
            windows = {1: rows[:120]}
            diffs = {}

            def advance(delta):
                version = client.append_dataset("w", delta)["version"]
                windows[version] = windows[version - 1] + list(delta)
                diffs[version] = FamilyDiff.between(
                    oracle(windows[version - 1], 0.4), oracle(windows[version], 0.4)
                )

            def expect(since, version, answer):
                path = f"/datasets/w/changes?since={since}&min_support=0.4"
                header = {
                    "dataset_id": "w", "since": since, "version": version,
                    "n_transactions": len(entry.transactions),
                }
                sent = json.dumps({**header, **answer}).encode()
                conn = http.client.HTTPConnection(srv.host, srv.port, timeout=30)
                conn.request("GET", path)
                assert conn.getresponse().read() == sent
                conn.close()
                # LocalClient's transport: the text it decodes
                assert dispatch(srv.service, "GET", path, None)[1].encode() == sent
                local = LocalClient(srv.service).dataset_changes("w", since=since, min_support=0.4)
                assert local == json.loads(sent)

            advance(rows[120:128])
            assert len(diffs[2].changed) > 10
            one = {"reset": False, **_diff_payload(diffs[2])}
            expect(1, 2, one)  # first read: the text the owner rendered ...
            assert entry.watches[key].log[-1].text == json.dumps(_diff_payload(diffs[2]))[1:-1]
            expect(1, 2, one)  # ... re-read
            advance([rows[128][:4]])
            expect(2, 3, {"reset": False, **_diff_payload(diffs[3])})
            advance([rows[129][:4]])
            composed = FamilyDiff.compose([diffs[3], diffs[4]])  # two entries decoded
            assert composed.changed
            expect(2, 4, {"reset": False, **_diff_payload(composed)})
            expect(4, 4, {"reset": False, "added": [], "removed": [], "changed": []})
            family = oracle(windows[4], 0.4)
            reset = {"reset": True, "family": _family_payload(family)}
            expect(1, 4, reset)  # 3 versions hold more rows than the family
            expect(0, 4, reset)  # not covered at all

    def test_a_version_is_rendered_once_for_every_watcher(self, service, monkeypatch):
        """Three watchers on one key: each version's rows are rendered
        once, by the owner, and all three are sent the text it pushed."""
        import repro.serve.datasets as datasets_module

        rows = [tuple(t) for t in mushroom_like(scale=0.03, seed=5).transactions]
        service.create_dataset("w", rows[:100], max_window=100)
        entry = service.dataset_registry.get("w")
        renders = []  # in the server: none
        real = datasets_module._diff_rows

        def counting(diff):
            renders.append(diff)
            return real(diff)

        monkeypatch.setattr(datasets_module, "_diff_rows", counting)
        versions = 8
        answers: dict = {}  # version -> the watchers' answers
        seen = threading.Barrier(4)

        def watcher():
            since = 1
            service.dataset_changes("w", since=1, min_support=0.4)
            seen.wait(10.0)
            while since < 1 + versions:
                answer = service.dataset_changes("w", since=since, min_support=0.4, timeout_s=10.0)
                assert answer["reset"] is False
                answers.setdefault(answer["version"], []).append(answer)
                since = answer["version"]
                seen.wait(10.0)

        threads = [threading.Thread(target=watcher) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # readers interleave between check and swap
        try:
            for t in threads:
                t.start()
            seen.wait(10.0)  # all three watch
            for i in range(versions):
                service.append_dataset("w", rows[100 + 8 * i: 108 + 8 * i])
                seen.wait(10.0)  # all three have read it
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not renders
        assert service.dataset_registry.owner.inspect(entry)["renders"] == versions
        for version, read in answers.items():
            assert len(read) == 3
            assert read[0].rows is read[1].rows is read[2].rows  # one text, sent thrice

    def test_a_read_log_is_held_as_its_text(self, reg):
        """A 64-entry log read once per version retains at most 0.35x the
        bytes of the same log left as the diffs a warm miner logs, which
        share their itemsets with it (measured 0.2x here, 0.24x on the
        perf ledger's 3 000-row feed)."""
        import gc
        import tracemalloc

        from repro.core.incremental import IncrementalMiner
        from repro.serve.datasets import _diff_rows, _mining_key, _rows_text

        rows = [tuple(t) for t in mushroom_like(scale=0.1, seed=7).transactions]
        feed = [tuple(t) for t in mushroom_like(scale=0.1, seed=11).transactions]
        miner = IncrementalMiner(rows[:800], 0.5, track_family_diff=True)
        tracemalloc.start()
        try:
            reg.create_dataset("w", rows[:800], max_window=800)
            reg.dataset_changes("w", since=1, min_support=0.5)
            log = reg.get("w").watches[_mining_key(0.5, None, None)].log
            diffs = []  # the same log, left as the diffs the miner logged
            for i in range(64):
                delta = feed[2 * i: 2 * i + 2]
                reg.append_dataset("w", delta)
                reg.dataset_changes("w", since=1 + i, min_support=0.5)
                diffs.append(miner.slide(delta, len(delta)).family_diff)
                assert log[-1].text == _rows_text(_diff_rows(diffs[-1]))
            assert len(log) == 64 and all(isinstance(step.text, str) for step in log)
            retained = {}
            for name, held in (("text", log), ("diffs", diffs)):
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                held.clear()
                gc.collect()
                retained[name] = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained["text"] <= 0.35 * retained["diffs"], retained

    def test_embedded_rows_are_the_rendered_tuples_decoded_once(self, service):
        """``DatasetRegistry.dataset_changes`` answers a read-only mapping
        of today's keys whose rows are the ``(itemset, count)`` and
        ``(itemset, old, new)`` tuples the feed rendered, decoded from the
        kept text on the first read of a row field, and only then."""
        from repro.serve.datasets import FeedAnswer, _diff_rows, _family_rows

        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)
        service.append_dataset("w", DELTA)
        diff = FamilyDiff.between(oracle(BASE), oracle(BASE + DELTA))
        answer = service.dataset_changes("w", since=1, min_support=0.5)
        assert isinstance(answer, FeedAnswer)
        assert list(answer) == [
            "dataset_id", "since", "version", "n_transactions", "reset",
            "added", "removed", "changed",
        ]
        assert answer["version"] == 2 and not answer.decoded
        assert "family" not in answer and not answer.decoded
        assert {name: answer[name] for name in ("added", "removed", "changed")} == _diff_rows(diff)
        assert answer.decoded and answer["changed"] is answer["changed"]
        assert all(type(row) is tuple and type(row[0]) is tuple for row in answer["changed"])
        reset = service.dataset_changes("w", since=0, min_support=0.5)
        assert list(reset)[-2:] == ["reset", "family"] and reset["reset"] is True
        assert reset["family"] == _family_rows(oracle(BASE + DELTA))
        with pytest.raises(KeyError):
            reset["added"]

    def test_uncovered_since_ships_reset_with_full_family(self, service):
        service.create_dataset("w", BASE)
        service.append_dataset("w", DELTA)
        # watch established only now, at version 2: version 1 is not in
        # its log, so since=1 cannot be answered with a diff
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        assert payload["reset"] is True
        assert payload_to_family(payload["family"]) == oracle(BASE + DELTA)

    def test_since_ahead_of_version_rejected(self, service):
        service.create_dataset("w", BASE)
        with pytest.raises(ApiError):
            service.dataset_changes("w", since=7, min_support=0.5)

    def test_long_poll_wakes_on_append(self, service):
        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)

        def later():
            time.sleep(0.15)
            service.append_dataset("w", DELTA)

        t = threading.Thread(target=later)
        t.start()
        start = time.monotonic()
        payload = service.dataset_changes(
            "w", since=1, min_support=0.5, timeout_s=10.0
        )
        elapsed = time.monotonic() - start
        t.join()
        assert payload["version"] == 2
        assert elapsed < 5.0  # woke on notify, not on timeout

    def test_long_poll_timeout_returns_empty_diff(self, service):
        service.create_dataset("w", BASE)
        payload = service.dataset_changes(
            "w", since=1, min_support=0.5, timeout_s=0.1
        )
        assert payload["version"] == 1 and payload["reset"] is False

    def test_feed_spans_policy_retires(self, service):
        """Diffs must stay oracle-true when the advance includes an
        automatic retire (append + retire fold into one transition)."""
        service.create_dataset("w", BASE, max_window=len(BASE))
        service.dataset_changes("w", since=1, min_support=0.5)
        service.append_dataset("w", [("b", "c")] * 6)
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        assert payload["reset"] is False
        window = (BASE + [("b", "c")] * 6)[6:]
        assert apply_payload_diff(oracle(BASE), payload) == oracle(window)

    def test_watch_on_buffering_dataset_flushes_first(self, service):
        service.create_dataset("w", BASE, flush_rows=100)
        service.append_dataset("w", DELTA)  # staged
        payload = service.dataset_changes("w", since=1, min_support=0.5)
        # establishing the watch flushed the buffer: the baseline family
        # is the fully-applied window at version 2
        assert payload["version"] == 2
        assert service.dataset_info("w")["buffered"] == 0


class TestLifecycleBugfixes:
    def test_replace_retires_old_entry_before_invalidation(self, service):
        """Bugfix (a): a stale reference to the replaced entry must see
        the retired barrier (409), not silently mutate a zombie window."""
        service.create_dataset("w", BASE)
        stale = service.dataset_registry.get("w")
        service.create_dataset("w", DELTA, replace=True)
        assert stale.retired is True
        with pytest.raises(ApiError) as err:
            with stale.lock:
                stale.append([("x",)])
        assert err.value.status == 409 and err.value.code == "dataset_retired"
        # the live entry is untouched and serves the new contents
        job = service.submit(None, CFG, dataset_id="w")
        assert job.wait(30.0)
        assert job.result.itemsets == oracle(DELTA)

    def test_replace_wakes_long_pollers_with_409(self, service):
        service.create_dataset("w", BASE)
        service.dataset_changes("w", since=1, min_support=0.5)
        caught = []

        def poll():
            try:
                service.dataset_changes(
                    "w", since=1, min_support=0.5, timeout_s=10.0
                )
            except ApiError as exc:
                caught.append(exc)

        t = threading.Thread(target=poll)
        t.start()
        time.sleep(0.15)
        service.create_dataset("w", DELTA, replace=True)
        t.join(5.0)
        assert not t.is_alive()
        assert caught and caught[0].code == "dataset_retired"

    def test_poisoned_delta_leaves_entry_intact(self, service):
        """Bugfix (b): validate-and-hash BEFORE mutating — a delta that
        cannot be fingerprinted must not corrupt the window."""

        class Poison:
            def __str__(self):
                raise RuntimeError("unrenderable item")

        service.create_dataset("w", BASE)
        entry = service.dataset_registry.get("w")
        before_fp, before_n = entry.fingerprint, len(entry.transactions)
        with pytest.raises(ApiError):
            service.append_dataset("w", [("a", Poison())])
        assert entry.version == 1
        assert entry.fingerprint == before_fp
        assert len(entry.transactions) == before_n
        # the entry is still fully functional
        info = service.append_dataset("w", DELTA)
        assert info["version"] == 2
        assert entry.fingerprint == dataset_fingerprint(BASE + DELTA)

    @pytest.mark.parametrize("transport", ["local", "http"])
    @pytest.mark.parametrize("trigger", ["submit", "flusher"])
    def test_poisoned_append_is_refused(self, transport, trigger):
        """Bugfix: a delta is validated before it is staged (on the wire
        by the protocol's row check, for an embedded caller by
        ``buffer_add``).  The poisoned call answers 400 itself; the rows
        other callers staged stay staged, and the next flush trigger — an
        unrelated submit, or the flusher thread — folds them in instead
        of failing and dropping them."""
        good, poisoned = [["a", "b"]], [["a", "b"], 7]
        policy = {"flush_age_s": 0.05} if trigger == "flusher" else {}
        with MiningServer(port=0, n_workers=1) as server:
            client = client_on(transport, server)
            client.create_dataset("w", BASE, flush_rows=100, **policy)
            assert client.append_dataset("w", good)["buffered"] == 1
            with pytest.raises(ApiError, match="every row must be a list") as err:
                # the typed verb cannot even render a non-list row
                client._request("POST", "/datasets/w/append", {"transactions": poisoned})
            assert err.value.status == 400
            if trigger == "submit":
                info = client.dataset_info("w")
                assert (info["version"], info["buffered"]) == (1, 1)
                client.wait(server.service.submit(None, CFG, dataset_id="w").job_id, 30.0)
            deadline = time.monotonic() + 5.0
            while client.dataset_info("w")["version"] == 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            info = client.dataset_info("w")
            assert (info["version"], info["buffered"]) == (2, 0)
            assert info["n_transactions"] == len(BASE) + len(good)
            assert info["fingerprint"] == dataset_fingerprint(BASE + good)

    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_a_row_that_does_not_sort_never_reaches_a_warm_miner(self, transport):
        """Bugfix: ``[1, "a"]`` renders, so it used to pass the fingerprint,
        advance the dataset, and blow up in ``canonical_transaction``
        inside the warm miner — every later job on the dataset failed.
        It is refused at the door on every verb that takes rows, before
        the chain, the ingest buffer or the version moves."""
        with MiningServer(port=0, n_workers=1) as server:
            client = client_on(transport, server)
            client.create_dataset("d", BASE)
            assert client.mine(None, INC, timeout=30.0, dataset="d") == oracle(BASE)
            before = client.dataset_info("d")
            for rows in ([[1, "a"]], [["a", "b"], [{"x": 1}]], [[["a"], ["b"]]]):
                for call in (
                    lambda: client.append_dataset("d", rows, flush=True),
                    lambda: client.create_dataset("d", rows, replace=True),
                    lambda: client.create_dataset("fresh", rows),
                    lambda: client.submit(rows, CFG),
                ):
                    with pytest.raises(ApiError) as err:
                        call()
                    assert (err.value.status, err.value.code) == (400, "unminable_row")
            assert client.dataset_info("d") == before
            with pytest.raises(ApiError, match="unknown dataset"):
                client.dataset_info("fresh")
            # rows of one kind are still rows, whatever the kind
            client.append_dataset("d", [["a", "b", "c"], []], flush=True)
            assert client.mine(None, INC, timeout=30.0, dataset="d") == oracle(
                BASE + [("a", "b", "c"), ()]
            )
            assert client.mine([[1, 2.5, True], [2.5]], CFG, timeout=30.0) == {
                (1,): 1, (2.5,): 2, (1, 2.5): 1,
            }

    def test_a_flush_that_raises_keeps_the_staged_rows(self, reg):
        """Rows leave the buffer only once the advance that folds them in
        has landed — whatever made it raise."""
        entry = ManagedDataset("w", BASE, owner=reg.owner, flush_rows=100)
        entry.buffer_add(DELTA)
        entry._buffer.append(7)  # past the staging check, by hand
        with entry.lock, pytest.raises(ApiError, match="fingerprinted"):
            entry.flush()
        assert entry.pending_buffered == len(DELTA) + 1 and entry.version == 1
        entry._buffer.pop()
        with entry.lock:
            assert entry.flush().n_appended == len(DELTA)
        assert entry.pending_buffered == 0 and entry.version == 2

    def test_versions_stay_bounded_over_long_append_loop(self, service):
        """Bugfix (c): nothing on the entry may grow one element per
        version forever — in-flight jobs included.  What says which old
        versions are still usable is one integer, not a map."""
        service.create_dataset("w", BASE, max_window=len(BASE) + 30)
        entry = service.dataset_registry.get("w")
        assert service.submit(None, INC, dataset_id="w").wait(30.0)
        service.dataset_changes("w", since=1, min_support=0.5)  # a watch, its log

        def sizes():
            return {
                name: len(value) for name, value in vars(entry).items()
                if hasattr(value, "__len__") and name not in ("transactions", "arrivals")
            }

        def advance():  # a live reader keeps its watch
            service.append_dataset("w", [("a", "c")])
            service.dataset_changes("w", since=entry.version, min_support=0.5)

        for _ in range(entry.changelog_limit):  # fill what is bounded by design
            advance()
        (watch,) = entry.watches.values()
        before, log_before = sizes(), len(watch.log)
        jobs = []
        for _ in range(50):
            advance()
            jobs.append(service.submit(None, INC, dataset_id="w"))
        assert all(job.wait(30.0) for job in jobs)
        assert sizes() == before and len(watch.log) == log_before
        assert entry.version == 51 + entry.changelog_limit

    def test_warm_state_nobody_uses_goes(self, service):
        """Bugfix: every support a client ever sent kept a miner, slid on
        every retiring advance for as long as the dataset lived, and every
        watch kept logging.  A watch no reader polled and a miner no job or
        watch used for ``changelog_limit`` versions are dropped; what is
        in use stays."""
        service.create_dataset("w", BASE, max_window=len(BASE))
        entry = service.dataset_registry.get("w")
        owner = service.dataset_registry.owner
        for i in range(100):
            service.dataset_changes("w", since=1, min_support=0.3 + i / 500)
        assert service.submit(None, INC, dataset_id="w").wait(30.0)  # another key
        state = owner.inspect(entry)
        assert len(state["miners"]) == 101 and len(entry.watches) == len(state["watched"]) == 100
        for _ in range(entry.changelog_limit + 1):
            service.append_dataset("w", [("a", "b", "c")])
            payload = service.dataset_changes("w", since=entry.version, min_support=0.3)
        state = owner.inspect(entry)
        assert set(state["miners"]) == set(entry.watches) == set(state["last_used"]) == {
            (0.3, None, "bitmap")
        } == set(state["watched"])
        assert payload["reset"] is False
        # a returning job rebuilds cold, a returning reader gets the family
        window = list(entry.transactions)
        job = service.submit(None, INC, dataset_id="w")
        assert job.wait(30.0) and job.result.itemsets == oracle(window)
        payload = service.dataset_changes("w", since=1, min_support=0.3 + 1 / 500)
        assert payload["reset"] is True
        assert payload_to_family(payload["family"]) == oracle(window, 0.3 + 1 / 500)

    def test_a_reader_every_changelog_limit_versions_is_never_reset(self, service):
        """A reader that polls at least once per ``changelog_limit``
        versions keeps its watch and is answered with diffs; one that
        stays away a version longer is answered with the oracle family."""
        base = [tuple("abcdefg")] * 20  # 127 itemsets; the feed moves one
        service.create_dataset("w", base)
        entry = service.dataset_registry.get("w")
        limit = entry.changelog_limit
        window, family, since = list(base), oracle(base, 0.1), 1
        service.dataset_changes("w", since=1, min_support=0.1)
        for _ in range(2):
            for _ in range(limit):
                service.append_dataset("w", [("z",)])
                window.append(("z",))
            payload = service.dataset_changes("w", since=since, min_support=0.1)
            assert payload["reset"] is False and payload["version"] == since + limit
            family = apply_payload_diff(family, payload)
            assert family == oracle(window, 0.1)
            since = payload["version"]
        for _ in range(limit + 1):
            service.append_dataset("w", [("z",)])
            window.append(("z",))
        # nobody used them
        assert not entry.watches and not service.dataset_registry.owner.inspect(entry)["miners"]
        payload = service.dataset_changes("w", since=since, min_support=0.1)
        assert payload["reset"] is True
        assert payload_to_family(payload["family"]) == oracle(window, 0.1)

    def test_pinned_version_survives_until_job_finishes(self, service):
        """What a job pins is its own snapshot — the rows, and the entry
        they came from — and only until it is terminal: the dataset moves
        on underneath (here past a retire) and remembers nothing of it."""
        service.create_dataset("w", BASE, max_window=len(BASE))
        entry = service.dataset_registry.get("w")
        with entry.lock:  # the worker parks at the warm-miner path
            job = service.submit(None, INC, dataset_id="w")
            service.append_dataset("w", DELTA)
            assert job._dataset_entry is entry and job._txns == BASE
        assert job.wait(30.0)
        assert job.dataset_version == 1 and job.result.itemsets == oracle(BASE)
        assert job._dataset_entry is None and job._txns is None

    def test_registry_counters_are_lock_protected(self, reg):
        """Bugfix (d): concurrent appends must not lose counter
        increments to a data race."""
        n_threads, per_thread = 8, 200

        def hammer():
            for _ in range(per_thread):
                reg.record_append()
                reg.record_flush()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = reg.stats()
        assert stats["appends"] == n_threads * per_thread
        assert stats["flushes"] == n_threads * per_thread


class TestRandomizedStreamOracle:
    """Satellite (e): a randomized append stream under a window policy,
    checked against a cold re-mine of the policy-trimmed window."""

    ITEMS = ["a", "b", "c", "d", "e", "f"]

    @pytest.mark.parametrize("store", ["bitmap", "trie", "flatdict", "linear"])
    def test_stream_matches_full_remine(self, store):
        rng = random.Random(42 + len(store))
        feed = [
            tuple(sorted(rng.sample(self.ITEMS, rng.randint(1, 4))))
            for _ in range(140)
        ]
        max_window = 40
        with MiningService(n_workers=1, result_ttl_s=60.0) as svc:
            svc.create_dataset("w", feed[:30], max_window=max_window)
            window = list(feed[:30])
            cfg = MiningConfig(
                min_support=0.3, backend="serial", incremental=True,
                candidate_store=store,
            )
            svc.dataset_changes(
                "w", since=1, min_support=0.3, candidate_store=store
            )
            family = oracle(window, 0.3)
            cursor, version = 30, 1
            while cursor < len(feed):
                step = rng.randint(1, 9)
                delta = feed[cursor:cursor + step]
                cursor += step
                svc.append_dataset("w", delta)
                window = (window + delta)[-max_window:]
                info = svc.dataset_info("w")
                assert info["n_transactions"] <= max_window  # never exceeds
                assert info["n_transactions"] == len(window)
                payload = svc.dataset_changes(
                    "w", since=version, min_support=0.3, candidate_store=store
                )
                version = payload["version"]
                assert payload["reset"] is False
                family = apply_payload_diff(family, payload)
                assert family == oracle(window, 0.3)
            job = svc.submit(None, cfg, dataset_id="w")
            assert job.wait(60.0)
            assert job.result.itemsets == oracle(window, 0.3)


class TestHttpStreaming:
    @pytest.fixture(scope="class")
    def server(self):
        with MiningServer(port=0, n_workers=2) as srv:
            yield srv

    def test_streaming_lifecycle_over_http(self, server):
        """Create with a policy, watch, append over HTTP, long-poll
        /changes, check the diff against full results."""
        client = HttpClient(server.url)
        info = client.create_dataset("stream-w", BASE, max_window=len(BASE) + 4)
        assert info["policy"]["max_window"] == len(BASE) + 4
        baseline = client.dataset_changes("stream-w", since=1, min_support=0.5)
        assert baseline["version"] == 1

        info = client.append_dataset("stream-w", DELTA)
        assert info["version"] == 2 and info["flushed"] is True
        payload = client.dataset_changes(
            "stream-w", since=1, min_support=0.5, timeout_s=5.0
        )
        assert payload["reset"] is False and payload["version"] == 2
        old, new = oracle(BASE), oracle(BASE + DELTA)
        assert payload_to_family(payload["added"]) == {
            i: c for i, c in new.items() if i not in old
        }
        assert apply_payload_diff(old, payload) == new

    def test_buffered_append_over_http(self, server):
        client = HttpClient(server.url)
        client.create_dataset("buf-w", BASE, flush_rows=8)
        info = client.append_dataset("buf-w", DELTA)
        assert info["flushed"] is False and info["buffered"] == len(DELTA)
        info = client.append_dataset("buf-w", DELTA)
        assert info["flushed"] is True and info["version"] == 2
        assert info["n_transactions"] == len(BASE) + 2 * len(DELTA)

    def test_explicit_flush_over_http(self, server):
        """...and the flush wakes a ``/changes`` long-poll parked on
        another connection with the diff of the one advance."""
        client = HttpClient(server.url)
        info = client.create_dataset("flush-w", BASE, flush_rows=100)
        assert info["policy"]["flush_rows"] == 100
        client.dataset_changes("flush-w", since=1, min_support=0.5)  # the watch
        polled = {}

        def poll():  # from this thread the client opens its own connection
            polled.update(client.dataset_changes(
                "flush-w", since=1, min_support=0.5, timeout_s=15.0
            ))

        t = threading.Thread(target=poll)
        t.start()
        staged = client.append_dataset("flush-w", DELTA)
        info = client.append_dataset("flush-w", None, flush=True)
        assert info["flushed"] is True and info["version"] == 2
        t.join(30.0)
        assert not t.is_alive(), "long-poll never woke"
        # a watch reads its dataset's staged writes, so a poll that came in
        # after the append folded the rows in itself: one advance either way
        assert staged["version"] == 1 and polled["version"] == 2
        assert polled["reset"] is False
        assert apply_payload_diff(oracle(BASE), polled) == oracle(BASE + DELTA)

    def test_changes_rejects_bad_query(self, server):
        client = HttpClient(server.url)
        client.create_dataset("q-w", BASE)
        with pytest.raises(ApiError) as err:
            client._request(
                "GET", "/datasets/q-w/changes?since=1&min_support=0.5&bogus=1"
            )
        assert err.value.status == 400
        with pytest.raises(ApiError):
            client._request("GET", "/datasets/q-w/changes?since=1")  # no support


class TestWatchCli:
    def test_parser_wires_watch_subcommand(self):
        from repro.cli import build_parser, cmd_watch

        args = build_parser().parse_args(
            ["watch", "--dataset-id", "w", "--support", "0.5"]
        )
        assert args.func is cmd_watch
        assert args.dataset_id == "w" and args.support == 0.5
        assert args.candidate_store == "bitmap"
        assert args.poll_timeout == 20.0

    def test_submit_accepts_policy_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "submit", "--dataset-id", "w", "--input", "x.csv",
                "--support", "0.5", "--max-window", "100",
                "--max-age", "30", "--flush-rows", "8", "--flush-age", "2",
            ]
        )
        assert args.max_window == 100 and args.max_age == 30.0
        assert args.flush_rows == 8 and args.flush_age == 2.0
