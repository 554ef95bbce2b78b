"""A served answer is held as the JSON it is sent as.

Where an answer is produced — a job worker, or the server's own
interpreter — its itemsets and its trace are rendered once and the
objects are dropped: ``job.result`` stays a ``MiningRunResult`` whose
``itemsets`` is a read-only mapping over that text
(``repro.serve.jobs.KeptItemsets``), decoded at most once, on the first
read in this process; whose ``trace`` is the chrome-trace text
``GET /jobs/{id}/trace`` sends (``KeptTrace``); and whose passes are the
rows ``total_seconds`` and ``summary()`` read (``KeptPass``).  The wire
never decodes either text (``test_repeat_memo.py`` holds the bytes).
"""

import gc
import json
import pickle
import random
import threading
import tracemalloc
from types import SimpleNamespace

import pytest

import repro.datasets as datasets
import repro.serve.jobs as jobs
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.core.results import IterationStats
from repro.engine.tracing import InstantEvent, Span, Tracer
from repro.serve import ApiError, HttpClient, LocalClient, MiningServer, MiningService
from repro.serve.jobs import KeptItemsets, KeptPass, KeptTrace
from tests.serve import _runners
from tests.serve.test_planner import GENERATORS, generator_rows


def trace_events(result, name: str | None = None) -> list:
    """The events of ``result``'s kept trace (those named ``name``)."""
    events = json.loads(result.trace.text)["traceEvents"]
    return [e for e in events if name is None or e["name"] == name]


@pytest.fixture(scope="module")
def svc():
    with MiningService(n_workers=1) as service:
        yield service


def done(job):
    job.wait(60.0)
    assert job.state.value == "done", job.error
    return job.result


@pytest.mark.parametrize("generator", GENERATORS)
def test_served_itemsets_are_the_one_shot_answer(svc, generator):
    rows, support = generator_rows(generator)
    config = MiningConfig(min_support=support)
    result = done(svc.submit(rows, config))
    assert isinstance(result.itemsets, KeptItemsets)
    assert result.itemsets == mine_frequent_itemsets(rows, config=config).itemsets


def test_the_mapping_reads_like_a_dict_and_decodes_once(svc, monkeypatch):
    rows = [["a", "b", "c"], ["a", "b"], ["b", "c"], ["a", "c"], ["a", "b", "c"]]
    itemsets = done(svc.submit(rows, MiningConfig(min_support=0.4))).itemsets
    oracle = mine_frequent_itemsets(rows, min_support=0.4).itemsets
    loads = []
    monkeypatch.setattr(
        jobs, "json", SimpleNamespace(loads=lambda text: loads.append(text) or json.loads(text))
    )
    assert len(itemsets) == len(oracle) and not itemsets.decoded  # len needs no decode
    assert ("a", "b") in itemsets and ("a", "d") not in itemsets
    assert itemsets[("a", "b")] == oracle[("a", "b")]
    with pytest.raises(KeyError):
        itemsets[("d",)]
    assert dict(itemsets.items()) == oracle and itemsets == oracle and oracle == itemsets
    assert sorted(itemsets) == sorted(oracle) and itemsets.get(("d",)) is None
    assert loads == [itemsets.text]
    with pytest.raises(TypeError):
        itemsets[("a",)] = 1  # read-only


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [1, 2], [2, 3], [1, 2, 3]],
        [["x", 'q"uote', "é"], ["x", "é"], ["x", 'q"uote', "é"]],
        [[0.5, 2.0, -1e-300], [0.5, 2.0], [0.5, -1e-300]],
        [[False, True], [True], [False, True]],
        [[(1, "a"), (2, ("b", 3.5))], [(1, "a")], [(1, "a"), (2, ("b", 3.5))]],
    ],
    ids=["int", "str", "float", "bool", "tuple"],
)
def test_items_come_back_exactly_as_mined(svc, rows):
    """int, str, float and bool items keep their value and their type;
    an item that is a tuple comes back a tuple, nested ones too."""
    itemsets = done(svc.submit(rows, MiningConfig(min_support=0.5))).itemsets
    oracle = mine_frequent_itemsets(rows, min_support=0.5).itemsets
    assert itemsets == oracle

    def typed(family) -> list:
        return sorted(repr([(type(item), item) for item in itemset]) for itemset in family)

    assert typed(itemsets) == typed(oracle)


@pytest.fixture
def in_server():
    """``kept_in_server`` is the one-shot call from a lambda: it cannot be
    pickled, so it runs in the server."""
    register_algorithm(
        "kept_in_server",
        lambda txns, cfg: mine_frequent_itemsets(txns, min_support=cfg.min_support),
        overwrite=True,
    )
    yield "kept_in_server"
    unregister_algorithm("kept_in_server")


@pytest.mark.parametrize("home", ["job-worker", "in-server"])
def test_an_item_json_cannot_carry_fails_the_job_naming_it(svc, in_server, home):
    """No client could be sent the answer, embedded or not: the job fails
    in whichever home produced it, and says which item."""
    rows = [[b"raw"], [b"raw"], [b"raw"]]
    algorithm = in_server if home == "in-server" else "yafim"
    shipped = svc.metrics()["job_workers"]["jobs_run"]
    job = svc.submit(rows, MiningConfig(min_support=0.5, algorithm=algorithm))
    job.wait(60.0)
    assert job.state.value == "failed" and job.result is None
    assert "JSON cannot carry" in job.error and "b'raw'" in job.error
    assert svc.metrics()["job_workers"]["jobs_run"] - shipped == (home == "job-worker")


@pytest.mark.parametrize("transport", ["local", "http"])
def test_a_served_trace_is_one_chrome_document_on_the_runs_timeline(transport):
    """The child's task spans and the server's ``job_worker`` crossing,
    one document, one clock: the crossing covers every task."""
    rows = datasets.mushroom_like(scale=0.02, seed=3).transactions
    with MiningServer(port=0, n_workers=1) as server:
        client = HttpClient(server.url) if transport == "http" else LocalClient(server.service)
        job_id = client.submit(rows, MiningConfig(min_support=0.5))["job_id"]
        assert client.wait(job_id, 60)["state"] == "done"
        document = client.trace(job_id)
        result = server.service.get(job_id).result
    assert isinstance(result.trace, KeptTrace)
    assert document == json.loads(result.trace.text)
    assert document["displayTimeUnit"] == "ms"
    assert {e["pid"] for e in document["traceEvents"]} == {0}
    (crossing,) = trace_events(result, "job_worker")
    tasks = [e for e in document["traceEvents"] if e.get("cat") == "task"]
    assert tasks and all(
        crossing["ts"] <= t["ts"] and t["ts"] + t["dur"] <= crossing["ts"] + crossing["dur"]
        for t in tasks
    )
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert result.trace.n_spans == len(spans)


@pytest.mark.parametrize("transport", ["local", "http"])
def test_a_trace_is_served_once_done_and_empty_for_a_run_that_kept_none(transport):
    gate = threading.Event()
    register_algorithm(
        "trace_gate", lambda txns, cfg: (gate.wait(30), _runners.fast(txns, cfg))[1],
        overwrite=True,
    )
    try:
        with MiningServer(port=0, n_workers=1) as server:
            client = HttpClient(server.url) if transport == "http" else LocalClient(server.service)
            job_id = client.submit([[1], [1, 2]], MiningConfig(
                min_support=0.5, algorithm="trace_gate"))["job_id"]
            with pytest.raises(ApiError) as refused:
                client.trace(job_id)
            assert (refused.value.status, refused.value.code) == (409, "not_done")
            gate.set()
            assert client.wait(job_id, 30)["state"] == "done"
            assert client.trace(job_id) == {"traceEvents": []}
    finally:
        gate.set()
        unregister_algorithm("trace_gate")


@pytest.mark.parametrize("tuple_key", [False, True], ids=["value", "key"])
@pytest.mark.parametrize("home", ["job-worker", "in-server"])
def test_a_span_argument_json_cannot_carry_is_its_repr(svc, home, tuple_key):
    """Unlike an item, it fails nothing: the job finishes and its trace
    carries the argument's ``repr``."""
    if home == "job-worker":
        register_algorithm("odd_trace", _runners.odd_trace, overwrite=True)
    else:
        register_algorithm("odd_trace", lambda t, c: _runners.odd_trace(t, c), overwrite=True)
    try:
        shipped = svc.metrics()["job_workers"]["jobs_run"]
        result = done(svc.submit([[1], [1]], MiningConfig(
            min_support=0.5, algorithm="odd_trace", options={"tuple_key": tuple_key})))
    finally:
        unregister_algorithm("odd_trace")
    assert svc.metrics()["job_workers"]["jobs_run"] - shipped == (home == "job-worker")
    (odd,) = trace_events(result, "odd")
    assert odd["args"] == {"items": "frozenset({1})"}
    if tuple_key:
        (keyed,) = trace_events(result, "keyed")
        assert keyed["args"] == {"by": "{(1, 2): 'pair'}"}
    # the server's own span still goes on after the run's
    assert trace_events(result, "job_worker") or home == "in-server"


def test_a_kept_result_pickles_and_reads_like_the_run(svc):
    rows = datasets.mushroom_like(scale=0.02, seed=3).transactions
    config = MiningConfig(min_support=0.5)
    result = done(svc.submit(rows, config))
    one_shot = mine_frequent_itemsets(rows, config=config)
    back = pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
    assert all(type(p) is KeptPass for p in back.iterations)
    assert [p[:1] + p[2:] for p in back.iterations] == [
        (it.k, it.n_candidates, it.n_frequent) for it in one_shot.iterations
    ]
    assert back.total_seconds == result.total_seconds == sum(p.seconds for p in result.iterations)
    assert back.summary() == result.summary()
    assert len(back.summary().splitlines()) == len(one_shot.summary().splitlines())
    assert (back.trace.text, back.trace.n_spans) == (result.trace.text, result.trace.n_spans)
    assert back.itemsets == result.itemsets == one_shot.itemsets


def test_a_shipped_answer_brings_no_span_home(svc):
    """The server unpickles strings and rows of numbers, not the run's
    ``Tracer``, its ``Span`` s or its ``IterationStats``."""
    run_objects = (Tracer, Span, InstantEvent, IterationStats)

    def held() -> int:
        gc.collect()
        return sum(type(obj) in run_objects for obj in gc.get_objects())

    rows = datasets.mushroom_like(scale=0.02, seed=4).transactions
    shipped = svc.metrics()["job_workers"]["jobs_run"]
    before = held()
    result = done(svc.submit(rows, MiningConfig(min_support=0.45)))
    assert held() <= before
    assert svc.metrics()["job_workers"]["jobs_run"] == shipped + 1
    assert result.trace.n_spans > 1 and result.iterations


#: what one kept answer of the ledger's ``serve_mix`` size (~1 250
#: mushroom rows, ~1 800 itemsets) retained when the service kept the
#: ``{itemset: count}`` dict: the test below, run on that tree
DICT_BYTES_PER_ANSWER = 284_000


def test_a_kept_answer_retains_about_a_fifth_of_the_dict():
    pool = datasets.mushroom_like(0.17, 7).transactions
    rows = random.Random(7).sample(pool, int(len(pool) * 0.9))

    def config(support):
        return MiningConfig(min_support=support, candidate_store="bitmap", num_partitions=1)

    n = 40
    with MiningService(n_workers=1) as service:
        # the job worker started, the rows resident, the imports done
        assert len(done(service.submit(rows, config(0.3995))).itemsets) > 1500
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                done(service.submit(rows, config(round(0.40 + 0.0005 * i, 6))))
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(service.results) == n + 1
    # 0.18 on a 2-core box (0.27 with the run's trace and passes kept as objects)
    assert retained <= 0.21 * DICT_BYTES_PER_ANSWER, f"{retained / 1024:.1f} KiB per answer"
