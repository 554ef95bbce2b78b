"""One warm-miner path: jobs and watches of a named dataset share the
miner its dataset owner builds and catches up, whatever store a job's
config names, on both transports; a job whose snapshot the window has
left behind is answered from its own rows, cold, and the miner is none
the wiser.

Every answer is checked against a cold re-mine of the rows its
``dataset_version`` held, and ``warm_miners`` never passes one per mining
key.  The threaded run at the end is the lock-order drill: writers,
submitters and a long-poll watcher on one dataset must neither deadlock
nor hand any job another version's answer.
"""

import itertools
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.api import mine_frequent_itemsets
from repro.core.candidatestore import store_names
from repro.core.registry import MiningConfig
from repro.serve import HttpClient, JobState, LocalClient, MiningServer, ShardRouter

BASE = [("a", "b", "c")] * 4 + [("a", "c")] * 4 + [("b", "c")] * 4
DELTA = [("a", "b", "c")] * 4
OTHER = [("x", "y")] * 5 + [("x",)] * 3
GATE = [("g",)] * 3  # rows no dataset under test holds: never a memoized answer
NAME = "w"


def oracle(rows):
    cfg = MiningConfig(min_support=0.5, backend="serial")
    return mine_frequent_itemsets(rows, config=cfg).itemsets


def apply_diff(family, payload):
    assert payload["reset"] is False
    out = dict(family)
    for items, _ in payload["removed"]:
        del out[tuple(items)]
    for items, count in payload["added"]:
        out[tuple(items)] = count
    for items, _, new in payload["changed"]:
        out[tuple(items)] = new
    return out


class Tier:
    """A one-shard, one-worker router, a client on the transport under
    test, and the two things only a test needs: a look at the dataset's
    warm state in its owner, and a way to keep the worker busy."""

    def __init__(self, router, client, store):
        self.router, self.client = router, client
        self.config = MiningConfig(
            min_support=0.5, backend="serial", incremental=True, candidate_store=store
        )
        self.watch = dict(min_support=0.5)  # a watch names no store: the tier counts on bitmaps
        self._gates = itertools.count()

    @property
    def entry(self):
        return self.router.shards[0].dataset_registry.get(NAME)

    def miners(self, entry=None) -> dict:
        """The owner's warm miners of ``entry`` (the dataset's), by mining
        key: ``ident`` (one per miner object), ``version``,
        ``n_transactions``..."""
        state = self.router.shards[0].dataset_registry.owner.inspect(entry or self.entry)
        return {} if state is None else state["miners"]

    def miner(self) -> dict:
        (miner,) = self.miners().values()
        return miner

    def warm_miners(self) -> int:
        return self.client.dataset_info(NAME)["warm_miners"]

    def submit(self) -> str:
        return self.client.submit(None, self.config, dataset=NAME)["job_id"]

    def answer(self, job_id) -> tuple:
        """``(dataset_version, itemsets)`` of a job, once it is done."""
        self.client.wait(job_id, 30.0)
        snapshot = self.client.status(job_id)
        assert snapshot["state"] == "done", snapshot["error"]
        return snapshot["dataset_version"], self.client.result(job_id)

    def mine(self) -> tuple:
        return self.answer(self.submit())

    @contextmanager
    def worker_held(self):
        """The one worker parked for the length of the block — on a job
        for a gate dataset whose lock this thread holds — so what the
        block submits keeps the snapshot it took while the block moves
        the dataset on, and runs when the block ends."""
        gate = f"gate-{next(self._gates)}"
        self.router.create_dataset(gate, GATE)
        gate_entry = self.router.shards[0].dataset_registry.get(gate)
        with gate_entry.lock:
            job = self.router.submit(None, self.config, dataset_id=gate)
            deadline = time.monotonic() + 10.0
            while job.state is not JobState.RUNNING and time.monotonic() < deadline:
                time.sleep(0.005)
            assert job.state is JobState.RUNNING
            yield
        assert job.wait(30.0)


@pytest.fixture(params=["local", "http"])
def transport(request):
    return request.param


@pytest.fixture(params=store_names())
def tier(request, transport):
    with ShardRouter(n_shards=1, n_workers=1) as router:
        if transport == "local":
            yield Tier(router, LocalClient(router), request.param)
        else:
            with MiningServer(port=0, service=router) as server:
                yield Tier(router, HttpClient(server.url, poll_interval_s=0.01), request.param)


class TestGrid:
    def test_job_then_watch(self, tier):
        tier.client.create_dataset(NAME, BASE)
        assert tier.mine() == (1, oracle(BASE)) and tier.warm_miners() == 1
        miner = tier.miner()
        assert tier.client.dataset_changes(NAME, since=1, **tier.watch)["version"] == 1
        assert tier.warm_miners() == 1
        tier.client.append_dataset(NAME, DELTA)
        changes = tier.client.dataset_changes(NAME, since=1, **tier.watch)
        assert apply_diff(oracle(BASE), changes) == oracle(BASE + DELTA)
        assert tier.mine() == (2, oracle(BASE + DELTA))
        assert tier.miner()["ident"] == miner["ident"] and tier.miner()["version"] == 2

    def test_watch_then_job(self, tier):
        tier.client.create_dataset(NAME, BASE)
        assert tier.client.dataset_changes(NAME, since=1, **tier.watch)["version"] == 1
        miner = tier.miner()
        assert tier.mine() == (1, oracle(BASE)) and tier.warm_miners() == 1
        tier.client.append_dataset(NAME, DELTA)
        assert tier.mine() == (2, oracle(BASE + DELTA))
        changes = tier.client.dataset_changes(NAME, since=1, **tier.watch)
        assert apply_diff(oracle(BASE), changes) == oracle(BASE + DELTA)
        assert tier.miner()["ident"] == miner["ident"] and tier.miner()["version"] == 2

    def test_predates_append(self, tier):
        """Still a prefix of the window: the warm miner answers, caught
        up to the snapshot's rows and no further."""
        tier.client.create_dataset(NAME, BASE)
        assert tier.mine() == (1, oracle(BASE))
        miner = tier.miner()
        with tier.worker_held():
            tier.client.append_dataset(NAME, [("x",)])
            stale = tier.submit()
            tier.client.append_dataset(NAME, DELTA)
        assert tier.answer(stale) == (2, oracle(BASE + [("x",)]))
        # answered it; lazily behind v3
        assert tier.miner()["n_transactions"] == len(BASE) + 1
        assert tier.mine() == (3, oracle(BASE + [("x",)] + DELTA))
        assert tier.miner()["ident"] == miner["ident"] and tier.warm_miners() == 1

    def test_predates_retire(self, tier):
        """Rows of the snapshot have left the window: answered cold."""
        tier.client.create_dataset(NAME, BASE, max_window=len(BASE) + 1)
        assert tier.mine() == (1, oracle(BASE))
        miner = tier.miner()
        with tier.worker_held():
            tier.client.append_dataset(NAME, [("x",)])
            stale = tier.submit()
            tier.client.append_dataset(NAME, DELTA)  # retires; the miner slides now
            moved_on = tier.miner()["version"]
        assert tier.answer(stale) == (2, oracle(BASE + [("x",)]))
        assert tier.miner()["version"] == moved_on  # the cold path never touched it
        window = (BASE + [("x",)] + DELTA)[len(DELTA):]
        assert tier.mine() == (3, oracle(window))
        assert tier.miner()["ident"] == miner["ident"] and tier.warm_miners() == 1

    def test_predates_replace(self, tier):
        """The entry it snapshotted is no longer the one under the name:
        answered cold, for the rows it took."""
        tier.client.create_dataset(NAME, BASE)
        assert tier.mine() == (1, oracle(BASE))
        old = tier.entry
        with tier.worker_held():
            tier.client.append_dataset(NAME, [("x",)])
            stale = tier.submit()
            # the miner never sees the row the snapshot added ...
            assert tier.miner()["n_transactions"] == len(BASE)
            tier.client.create_dataset(NAME, OTHER, replace=True)
        assert tier.answer(stale) == (2, oracle(BASE + [("x",)]))
        # ... and went with the entry it belonged to
        assert tier.miners(old) == {}
        assert tier.entry is not old and tier.warm_miners() == 0
        assert tier.mine() == (1, oracle(OTHER)) and tier.warm_miners() == 1


def test_threaded_run_neither_deadlocks_nor_crosses_versions():
    """2 appenders (every advance retires), 2 job submitters, 1 long-poll
    watcher, one dataset, a couple of seconds: everybody finishes, every
    job's answer is the cold re-mine of the window its ``dataset_version``
    held, and the watcher's replayed family is the last version's."""
    window_size, seconds = len(BASE), 2.0
    inc = MiningConfig(min_support=0.5, backend="serial", incremental=True)
    exact = MiningConfig(min_support=0.5, backend="serial")
    deltas = [[("a", "b")], [("b", "c"), ("a", "b", "c")], [("a", "c")], [("c",)] * 2]
    appended: dict[int, list] = {}  # version -> the delta that produced it
    answers: list[tuple] = []  # (dataset_version, itemsets)
    seen: dict = {}  # the watcher's: version, family
    errors: list = []
    stop = threading.Event()

    def guarded(body):
        def run():
            try:
                body()
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)
                stop.set()
        return run

    with ShardRouter(n_shards=1, n_workers=2) as router:
        client = LocalClient(router)
        client.create_dataset(NAME, BASE, max_window=window_size)

        def appender(offset):
            def body():
                for i in itertools.count(offset):
                    if stop.is_set():
                        return
                    delta = deltas[i % len(deltas)]
                    # the entry lock orders the advances; the version says where
                    appended[client.append_dataset(NAME, delta)["version"]] = delta
            return body

        def submitter(config):
            def body():
                while not stop.is_set():
                    job = client.wait(client.submit(None, config, dataset=NAME)["job_id"], 30.0)
                    assert job["state"] == "done", job["error"]
                    answers.append((job["dataset_version"], client.result(job["job_id"])))
            return body

        def watcher():
            version, family = 1, oracle(BASE)
            while not stop.is_set():
                changes = client.dataset_changes(
                    NAME, since=version, min_support=0.5, timeout_s=0.2
                )
                if changes["reset"]:  # the log is bounded; a slow reader restarts
                    family = {tuple(i): c for i, c in changes["family"]}
                else:
                    family = apply_diff(family, changes)
                version = changes["version"]
            seen.update(version=version, family=family)

        client.dataset_changes(NAME, since=1, min_support=0.5)  # the watch, from v1
        bodies = [appender(0), appender(1), submitter(inc), submitter(exact), watcher]
        threads = [threading.Thread(target=guarded(body), daemon=True) for body in bodies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            stop.wait(seconds)
            stop.set()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert not errors, errors
        last = client.dataset_info(NAME)

    assert sorted(appended) == list(range(2, last["version"] + 1))  # no advance lost
    windows, rows = {1: list(BASE)}, list(BASE)
    for version in sorted(appended):
        rows = (rows + appended[version])[-window_size:]
        windows[version] = rows
    expected = {v: oracle(windows[v]) for v in {v for v, _ in answers} | {seen["version"]}}
    assert answers and len({v for v, _ in answers}) > 1
    for version, itemsets in answers:
        assert itemsets == expected[version], f"v{version}"
    assert seen["family"] == expected[seen["version"]]
