"""The perf ledger's hook table, exercised from tier-1.

``benchmarks/ledger`` instruments nothing under ``src/``: it patches a
fixed table of callables *by module attribute*.  A refactor that moves a
lookup (``make_store`` no longer resolved through ``repro.core.yafim``,
the counting kernel renamed) would silently zero a per-layer metric, and
one that changes how ``IncrementalMiner`` calls
``BitmapStore.count_partition`` would crash the ``stream_window`` traced
pass.  These tests fail first.
"""

import sys
from pathlib import Path

import pytest

from repro import MiningConfig, mine_frequent_itemsets

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"

ROWS = [
    ["a", "b", "c"],
    ["a", "b"],
    ["b", "c"],
    ["a", "c"],
    ["d"],
] * 6  # 30 rows


@pytest.fixture()
def ledger(monkeypatch):
    """``benchmarks/ledger`` importable as top-level modules, for one test."""
    monkeypatch.syspath_prepend(str(LEDGER))
    before = set(sys.modules)
    yield
    # its module names are generic (``stats``, ``spans``): unload them
    for name in set(sys.modules) - before:
        if str(LEDGER) in (getattr(sys.modules[name], "__file__", None) or ""):
            del sys.modules[name]


def test_every_batch_wrapper_records_a_span(ledger):
    import spans

    recorder = spans.Recorder()
    remove = spans.install(recorder)
    try:
        result = mine_frequent_itemsets(
            ROWS,
            config=MiningConfig(
                min_support=0.3, backend="serial", parallelism=2, num_partitions=2
            ),
        )
    finally:
        remove()
    assert max(len(i) for i in result.itemsets) >= 2  # Phase II ran
    recorded = {(s.layer, s.name) for s in recorder.spans}
    for module, path, layer, name, _kind in spans.BATCH_WRAPPERS:
        assert (layer, name) in recorded, f"{module}:{path} recorded no span"
    assert all(s.end >= s.start > 0.0 for s in recorder.spans)


def test_incremental_replay_runs_on_a_small_window(ledger):
    import layers

    deltas = [[["a", "b"], ["a", "b", "c"]], [["b", "c"], ["d"]], [["a", "c"]]]
    out = layers.incremental_replay(ROWS, deltas, 0.3)
    assert out["core.candidatestore.delta_calls"] >= len(deltas)
    assert out["core.candidatestore.delta_count_s"] > 0.0
    assert out["core.incremental.delta_candidates"] > 0
    assert out["core.incremental.full_rebuilds"] == 0


def test_traced_client_sees_the_serve_hooks(ledger):
    """The serve workloads' hooks: ``TracedClient`` overrides
    ``HttpClient._request`` / ``.status`` and keys on the literal paths
    ``"/jobs"`` and ``"/results/<id>"``; ``aggregate_metrics`` reads the
    routed ``/metrics`` shape by key."""
    import client as ledger_client

    from repro.serve import MiningServer

    config = MiningConfig(min_support=0.3, backend="serial")
    with MiningServer(port=0, shards=2, n_workers=1) as server:
        traced = ledger_client.TracedClient(server.url)
        record = ledger_client.run_job(
            traced, ledger_client.JobRecord("fresh", None), ROWS, config
        )
        assert record.ok and record.polls >= 1 and traced.polls >= 1
        assert record.itemsets == mine_frequent_itemsets(ROWS, config=config).itemsets
        paths = [path for path, _, _ in traced.exchanges]
        assert paths == ["/jobs", f"/results/{record.snapshot['job_id']}"]
        requests, responses = traced.wire_bytes()
        assert len(requests) == len(responses) == 1 and min(requests + responses) > 0
        totals = ledger_client.aggregate_metrics(traced.metrics())
    assert set(totals) == {
        "result_hits", "result_misses", "dataset_hits", "dataset_misses",
        "contexts_created", "contexts_reused", "retired_rows", "coalesced",
        "rejected", "spilled", "per_shard",
    }
    assert sum(totals["per_shard"]) == 1 and traced.errors == 0
