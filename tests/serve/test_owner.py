"""The dataset-owner process: a kill-the-owner drill, and a parity grid
across the move of a named dataset's warm state out of the server.

The drill SIGKILLs a shard's owner between two appends, and again while
a job waits on it: the next append and submit succeed and answer FP-Growth
on their version's window, a parked watcher is answered one
``reset: true`` and then diffs, and ``/metrics`` counts one respawn per
kill.  The grid interleaves create / append / age-retire / replace /
submit / changes on both transports: every answer is the cold re-mine of
the window its version held, every feed body is byte for byte the
reference payload of the oracle's diff or family, and the server builds
no incremental miner.  Three more: pushes and a delta each larger than
the pipe, in flight at once, do not hang the shard; the owner's kept
itemset texts render the bytes of ``json.dumps``; and an item of another
type than the dataset's is refused before anything moves.
"""

import http.client
import json
import os
import random
import signal
import threading
import time

from fractions import Fraction

import pytest

from repro.algorithms import fpgrowth
from repro.core import incremental
from repro.core.incremental import FamilyDiff
from repro.core.registry import MiningConfig
from repro.datasets import mushroom_like
from repro.serve import (
    ApiError,
    HttpClient,
    LocalClient,
    MiningServer,
    MiningService,
    dataset_fingerprint,
)
from repro.serve import owner as owner_module
from repro.serve.datasets import _diff_payload, _family_payload, _in_payload_order
from repro.serve.http import dispatch
from tests.procs import gone_within

SUPPORT = 0.4
INC = MiningConfig(min_support=SUPPORT, incremental=True)
ROWS = [tuple(t) for t in mushroom_like(scale=0.03, seed=9).transactions]
OWNER_FIELDS = {"pid", "started", "respawns", "datasets", "versions_applied", "requests",
                "vm_hwm_kb"}


def owner_block(client) -> dict:
    (shard,) = client.metrics()["shards"]
    return shard["service"]["dataset_owner"]


def wait_for(predicate, seconds: float = 20.0):
    deadline = time.monotonic() + seconds
    while not (value := predicate()):
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)
    return value


def apply(family: dict, answer: dict) -> dict:
    if answer["reset"]:
        return {tuple(items): count for items, count in answer["family"]}
    out = dict(family)
    for items, _ in answer["removed"]:
        del out[tuple(items)]
    for items, count in answer["added"]:
        out[tuple(items)] = count
    for items, _, new in answer["changed"]:
        out[tuple(items)] = new
    return out


class Watcher(threading.Thread):
    """Long-polls the feed from version 1 and keeps every answer; parked
    between versions (an answer comes when one lands)."""

    def __init__(self, client):
        super().__init__(daemon=True)
        self.client, self.answers, self.halt = client, [], threading.Event()

    def run(self):
        since, timeout_s = 1, 0.0  # the first call only establishes the watch
        while not self.halt.is_set():
            answer = self.client.dataset_changes("d", since=since, min_support=SUPPORT,
                                                 timeout_s=timeout_s)
            self.answers.append(answer)
            since, timeout_s = answer["version"], 20.0

    def seen(self, version: int) -> bool:
        return any(a["version"] >= version for a in list(self.answers))


class TestKillTheOwner:
    def test_a_killed_owner_is_respawned_and_rebuilt_cold(self):
        window, delta = 60, 8
        with MiningServer(port=0, n_workers=1) as server:
            client = HttpClient(server.url, poll_interval_s=0.01)
            assert client.create_dataset("d", ROWS[:window], max_window=window)["version"] == 1
            stream = list(ROWS[:window])

            def append(i):
                rows = ROWS[window + delta * i: window + delta * (i + 1)]
                stream.extend(rows)
                return client.append_dataset("d", rows)["version"]

            def mine():
                answer = client.mine(None, INC, timeout=60.0, dataset="d")
                assert answer == fpgrowth(stream[-window:], SUPPORT)

            mine()
            watcher = Watcher(HttpClient(server.url))
            watcher.start()
            wait_for(lambda: watcher.answers)
            first = owner_block(client)
            assert set(first) == OWNER_FIELDS and first["respawns"] == 0
            assert first["pid"] != os.getpid() and first["vm_hwm_kb"] > 0

            # 1. between two appends, with the watcher parked on the next version
            version = append(0)
            wait_for(lambda: watcher.seen(version))
            time.sleep(0.2)  # its next call is parked (one in flight is owed no reset)
            parked = len(watcher.answers)
            os.kill(first["pid"], signal.SIGKILL)
            wait_for(lambda: owner_block(client)["respawns"] == 1)
            append(1)
            mine()
            version = append(2)
            wait_for(lambda: watcher.seen(version))
            mine()

            # 2. while a job waits on it: stopped, the owner cannot answer
            pid = owner_block(client)["pid"]
            assert pid != first["pid"]
            version = append(3)
            wait_for(lambda: watcher.seen(version))
            os.kill(pid, signal.SIGSTOP)
            job = client.submit(None, INC, dataset="d")
            wait_for(lambda: client.status(job["job_id"])["state"] == "running")
            time.sleep(0.1)  # the worker thread is waiting on the owner's reply
            os.kill(pid, signal.SIGKILL)
            done = client.wait(job["job_id"], 60.0)
            assert done["state"] == "done" and done["dataset_version"] == version
            assert client.result(job["job_id"]) == fpgrowth(stream[-window:], SUPPORT)
            wait_for(lambda: owner_block(client)["respawns"] == 2)
            version = append(4)
            mine()
            wait_for(lambda: watcher.seen(version))
            watcher.halt.set()
            append(5)  # its last answer
            watcher.join(10.0)
            assert not watcher.is_alive()
            after = owner_block(client)
            assert after["respawns"] == 2 and after["started"] == first["started"] + 2

        # the watcher: diffs up to the first kill, one reset, diffs again
        # ... and after the second kill, one more reset
        resets = [i for i, a in enumerate(watcher.answers) if a["reset"]]
        assert len(resets) == 2 and resets[0] >= parked
        family = fpgrowth(ROWS[:window], SUPPORT)
        for answer in watcher.answers:
            family = apply(family, answer)
        assert family == fpgrowth(stream[-window:], SUPPORT)

    def test_the_owner_goes_with_the_server(self):
        with MiningServer(port=0, n_workers=1) as server:
            client = HttpClient(server.url)
            client.create_dataset("d", ROWS[:20])
            pid = owner_block(client)["pid"]
            assert pid is not None and os.path.exists(f"/proc/{pid}")
        assert gone_within([pid], 5.0) == []


# -- parity across the move ---------------------------------------------------
ITEMS = list("abcdefgh")
MAX_WINDOW, AGE_S = 24, 0.6


def random_rows(rng, n, items=ITEMS):
    return [tuple(sorted(rng.sample(items, rng.randint(1, 5)))) for _ in range(n)]


@pytest.fixture
def no_miner_built_here(monkeypatch):
    """Counts every ``IncrementalMiner`` made in this process from here on
    (a process forked after counts in its own copy of the list)."""
    built = []
    real = incremental.IncrementalMiner.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(incremental.IncrementalMiner, "__init__", counted)
    return built


@pytest.mark.parametrize("transport", ["local", "http"])
def test_parity_grid_across_the_move(transport, no_miner_built_here):
    """Every version's answer is the cold re-mine of its window, every
    feed body the reference payload, on both transports; after every
    step the owner's kept order is its family's payload order."""
    rng = random.Random(31 if transport == "local" else 32)
    with MiningServer(port=0, n_workers=1) as server:
        client = (LocalClient(server.service) if transport == "local"
                  else HttpClient(server.url, poll_interval_s=0.01))

        def fetch(path: str) -> str:
            """The body the transport under test is sent."""
            if transport == "local":
                status, text = dispatch(server.service, "GET", path, None)[:2]
            else:
                conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
                conn.request("GET", path)
                response = conn.getresponse()
                status, text = response.status, response.read().decode()
                conn.close()
            assert status == 200, text
            return text

        stream = random_rows(rng, 20)
        client.create_dataset("p", stream, max_window=MAX_WINDOW, max_age_s=AGE_S)
        #: version -> the window it held, noted whenever a version is seen
        windows = {1: list(stream)}
        since, replaced = 1, 0

        def seen(version, n):
            # a version is only ever seen current, before the next write
            windows.setdefault(version, list(stream[-n:]) if n else [])
            assert windows[version] == stream[len(stream) - n:], f"v{version}"

        def oracle(version):
            return fpgrowth(windows[version], SUPPORT)

        def kept_in_order():
            """The owner's kept order of each watched key is its family's
            payload order, at whatever version the owner has reached."""
            (shard,) = server.service.shards
            registry = shard.dataset_registry
            state = registry.owner.inspect(registry.get("p"))
            if state is not None:
                window = stream[len(stream) - state["n_transactions"]:]
                for key, order in state["kept"].items():
                    assert order == _in_payload_order(fpgrowth(window, key[0])), key

        def changes():
            nonlocal since
            text = fetch(f"/datasets/p/changes?since={since}&min_support={SUPPORT}")
            answer = json.loads(text)
            seen(answer["version"], answer["n_transactions"])
            if answer["reset"]:
                rows = {"family": _family_payload(oracle(answer["version"]))}
            else:
                rows = _diff_payload(FamilyDiff.between(oracle(since), oracle(answer["version"])))
            head = ("dataset_id", "since", "version", "n_transactions", "reset")
            assert text == json.dumps({**{k: answer[k] for k in head}, **rows})
            since = answer["version"]

        for step in range(40):
            op = rng.choice(["append"] * 4 + ["submit"] * 3 + ["changes"] * 3
                            + ["age"] + ["replace"] * (replaced < 2))
            if op == "append":
                rows = random_rows(rng, rng.randint(1, 6))
                stream.extend(rows)
                info = client.append_dataset("p", rows)
                seen(info["version"], info["n_transactions"])
            elif op == "age":  # everything older than AGE_S leaves
                time.sleep(AGE_S + 0.05)
                info = client.append_dataset("p", None, flush=True)
                seen(info["version"], info["n_transactions"])
                assert info["n_transactions"] == 1
            elif op == "replace":
                stream = random_rows(rng, 18)
                info = client.create_dataset("p", stream, replace=True, max_window=MAX_WINDOW,
                                             max_age_s=AGE_S)
                windows, since, replaced = {1: list(stream)}, 1, replaced + 1
                seen(info["version"], info["n_transactions"])
            elif op == "submit":
                job = client.submit(None, INC, dataset="p")
                final = client.wait(job["job_id"], 60.0)
                assert final["state"] == "done", final["error"]
                detail = client.result_detail(job["job_id"])
                seen(final["dataset_version"], detail["n_transactions"])
                assert client.result(job["job_id"]) == oracle(final["dataset_version"])
            else:
                changes()
            kept_in_order()
        changes()
        kept_in_order()
        assert replaced and len(windows) > 5
    assert no_miner_built_here == []  # no incremental miner was made in the server


# -- a full pipe --------------------------------------------------------------
def test_a_large_delta_beside_large_pushes_returns():
    """Receiving never waits on a sender.  Every itemset of a 14-item
    window moves on each version, so each push of a watched key's diff is
    far larger than a pipe's buffer; two small appends queue two such
    pushes and a third append sends a delta larger than the buffer while
    the owner is pushing.  The appends return and the feed answers."""
    items = tuple(f"i{n:02d}" for n in range(14))
    keys = (None, 13)  # two watched mining keys (max_length)
    with MiningService(n_workers=1) as service:
        service.create_dataset("big", [items] * 40)
        for max_length in keys:
            service.dataset_changes("big", since=1, min_support=0.5, max_length=max_length)
        large = [(*items, f"{n:03d}" + "x" * 16_000) for n in range(40)]
        versions = []

        def appends():
            for delta in ([items], [items], large):
                versions.append(service.append_dataset("big", delta)["version"])

        writer = threading.Thread(target=appends, daemon=True)
        writer.start()
        writer.join(60.0)
        assert not writer.is_alive() and versions == [2, 3, 4]
        for max_length in keys:
            answer = service.dataset_changes("big", since=3, min_support=0.5,
                                             max_length=max_length, timeout_s=30.0)
            assert answer["version"] == 4 and answer["reset"] is False
            # every itemset of the 14 items (the longest left out at 13) moved
            assert len(answer["changed"]) == 2 ** 14 - 1 - (max_length == 13)
            assert not answer["added"] and not answer["removed"]


# -- the owner's renderer, in process -----------------------------------------
class Pipe:
    """The owner's end of its pipe: keeps what the owner sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


#: per item type: the items rows are drawn from, and a new item that
#: arrives frequent (the miner re-encodes its window)
AWKWARD = {
    str: (["a%d", 'b"q', "c\\", "d\u00e9", "%%", "f%s", "g", "\u65e5"], "z%"),
    int: (list(range(9, 17)), 99),
}


class Driven:
    """A dataset's owner, driven in this process through its messages:
    a window of ``WINDOW`` rows slid ``len(delta)`` in and out per
    version, and each watched key checked at every version against the
    cold oracle and ``json.dumps`` of the list-shaped payloads."""

    WINDOW = 30

    def __init__(self, rows):
        self.pipe, self.stream, self.version = Pipe(), list(rows), 1
        self.owner = owner_module._Owner(self.pipe)
        self.families: dict = {}  # watched key -> its family at the last check
        self.load()

    @property
    def window(self) -> list:
        return self.stream[-self.WINDOW:]

    @property
    def owned(self):
        return self.owner.datasets[1]

    def load(self):
        """What the server sends a new (or respawned) owner."""
        self.owner.handle(("load", 1, self.window, self.version, 64))
        self.families = {}

    def watch(self, support: float):
        key = (support, None)
        self.owner.handle(("watch", 1, key))
        self.families[key] = fpgrowth(self.window, support)
        return key

    def ask(self, kind: str, *args):
        self.owner.handle((kind, 7, 1, *args))
        _, rid, ok, value = self.pipe.sent[-1]
        assert rid == 7 and ok, value
        return value

    def slide(self, delta: list) -> dict:
        """One version; returns the feed's steps by key."""
        self.stream.extend(delta)
        self.version += 1
        self.owner.handle(("advance", 1, delta, len(delta), self.version, []))
        feed, uid, version, n_rows, steps = self.pipe.sent[-1]
        assert (feed, uid, version, n_rows) == ("feed", 1, self.version, self.WINDOW)
        steps = {step[0]: step[1] for step in steps}
        for key, old in self.families.items():
            new = self.families[key] = fpgrowth(self.window, key[0])
            miner = self.owned.miners[key]
            assert miner.itemsets() == new
            assert self.owned.kept[key].order == _in_payload_order(new)
            diff = FamilyDiff.between(old, new)
            assert steps[key] == json.dumps(_diff_payload(diff))[1:-1]
            job = self.ask("job", self.WINDOW, key)
            assert job.itemsets.text == json.dumps(_family_payload(new))
            assert job.itemsets == new
            family = self.ask("family", key)
            assert family == json.dumps({"family": _family_payload(new)})[1:-1]
        return steps


@pytest.mark.parametrize("kind", [str, int])
def test_the_owners_memo_renders_the_bytes_of_json_dumps(kind):
    """The owner keeps each itemset's row template across versions; a
    diff, a job's answer and a reset's family filled from them are byte
    for byte ``json.dumps`` of the list-shaped payload — items holding
    ``%``, ``"``, ``\\`` and non-ASCII text included — also in the
    versions where itemsets it never saw arrive."""
    items = AWKWARD[kind][0]
    rng = random.Random(5)
    driven = Driven(random_rows(rng, 30, items))
    driven.watch(0.2)
    known = []
    for _ in range(12):
        driven.slide(random_rows(rng, 4, items))
        known.append(len(driven.owned.templates))
    assert known[0] < known[-1]  # itemsets it had not seen did arrive


@pytest.mark.parametrize("kind", [str, int])
def test_the_kept_order_follows_every_version(kind, monkeypatch):
    """A watched key's family is kept in payload order and edited by each
    version's diff: at every version it is the order of the miner's
    family, and every render is the oracle's bytes — across a full
    rebuild (a new frequent item), a watch started mid-stream, a respawn
    reload and the template memo emptying."""
    monkeypatch.setattr(owner_module, "TEMPLATE_LIMIT", 25)  # empties every few versions
    items, newcomer = AWKWARD[kind]
    rng = random.Random(17)
    driven = Driven(random_rows(rng, 30, items))
    first = driven.watch(0.3)
    for _ in range(3):
        driven.slide(random_rows(rng, 3, items))
    # a full rebuild: the miner's alphabet gains an item
    driven.slide([(newcomer, *row) for row in random_rows(rng, 12, items)])
    assert driven.owned.miners[first].last_update.full_rebuild
    second = driven.watch(0.5)  # mid-stream
    for _ in range(3):
        steps = driven.slide(random_rows(rng, 3, items))
        assert set(steps) == {first, second}
    # a respawned owner is sent the window again, and the watches again
    driven.load()
    driven.watch(0.3)
    driven.watch(0.5)
    for _ in range(3):
        driven.slide(random_rows(rng, 3, items))
    assert len(driven.owned.templates) <= owner_module.TEMPLATE_LIMIT
    assert driven.owned.renders == 2 * 3  # since the reload: two keys, three versions


def test_an_item_of_another_type_is_refused_and_nothing_moves():
    """A named dataset's items are all ``str`` or all ``int``, the type
    fixed by its first item: a delta holding an item of another type
    (``Fraction``, ``bool``, or ``str`` beside ``int``) is refused with a
    400 naming that type — appended or staged — and the window, the
    version, the buffer and the owner's kept order stay as they were; the
    next version's diff and job answer the cold oracle.  Empty rows fix no
    type, and a replace starts over."""
    rng = random.Random(3)
    items = list(range(8))
    stream = [(0, 1, *row) for row in random_rows(rng, 30, items[2:])]
    key = (0.2, None)
    with MiningService(n_workers=1) as service:
        service.create_dataset("f", stream, max_window=30)
        service.create_dataset("g", stream, flush_rows=100)
        service.dataset_changes("f", since=1, min_support=key[0])
        entry = service.dataset_registry.get("f")
        kept = service.dataset_registry.owner.inspect(entry)["kept"]
        for bad, named in (
            ((0, 1, Fraction(1, 2)), "Fraction among int items"),
            ((0, True), "True is bool"), ((0, "1"), "'1' is str"),
        ):
            for name in ("f", "g"):
                with pytest.raises(ApiError, match=named) as err:
                    service.append_dataset(name, [stream[0], bad])
                assert (err.value.status, err.value.code) == (400, "bad_request")
            assert entry.version == 1 and entry.transactions == stream
            assert service.dataset_info("g")["buffered"] == 0
            assert service.dataset_registry.owner.inspect(entry)["kept"] == kept
        delta = [(0, 1, *row) for row in random_rows(rng, 10, items[2:])]
        stream.extend(delta)
        assert service.append_dataset("f", delta)["version"] == 2
        assert entry.fingerprint == dataset_fingerprint(stream[-30:])
        answer = service.dataset_changes("f", since=1, min_support=key[0], timeout_s=10.0)
        assert answer["version"] == 2 and not answer["reset"]
        family = fpgrowth(stream[-30:], key[0])
        assert apply(fpgrowth(stream[-40:-10], key[0]), answer) == family
        job = service.submit(None, MiningConfig(min_support=key[0], incremental=True),
                             dataset_id="f")
        assert job.wait(30.0) and job.result.itemsets == family
        assert service.dataset_registry.owner.inspect(entry)["kept"][key] == (
            _in_payload_order(family))
        # the first item fixes the type: empty rows fix none ...
        service.create_dataset("e", [[]])
        service.append_dataset("e", [["a"]])
        with pytest.raises(ApiError, match="1 is int among str items"):
            service.append_dataset("e", [[1]])
        with pytest.raises(ApiError, match="is float"):
            service.create_dataset("e", [[2.5]], replace=True)
        # ... and a replace starts over
        assert service.create_dataset("e", [[1]], replace=True)["version"] == 1
        assert service.append_dataset("e", [[2]])["version"] == 2
