"""A served answer is held as the JSON it is sent as.

Where an answer is produced — a job worker, or the server's own
interpreter — its itemsets are rendered once and the dict is dropped:
``job.result`` stays a ``MiningRunResult`` whose ``itemsets`` is a
read-only mapping over that text (``repro.serve.jobs.KeptItemsets``),
decoded at most once, on the first read in this process.  The wire never
decodes it (``test_repeat_memo.py`` holds the bytes).
"""

import gc
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

import repro.datasets as datasets
import repro.serve.jobs as jobs
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.serve import MiningService
from repro.serve.jobs import KeptItemsets
from tests.serve.test_planner import GENERATORS, generator_rows


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


#: what one kept answer of the ledger's ``serve_mix`` size (~1 250
#: mushroom rows, ~1 800 itemsets) retained when the service kept the
#: ``{itemset: count}`` dict: the test below, run on that tree
DICT_BYTES_PER_ANSWER = 284_000


def test_a_kept_answer_retains_under_four_tenths_of_the_dict():
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
    assert retained <= 0.4 * DICT_BYTES_PER_ANSWER, f"{retained / 1024:.1f} KiB per answer"
