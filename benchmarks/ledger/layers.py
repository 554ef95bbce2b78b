"""Layers a client cannot see, timed by calling their public functions
directly, in the benchmark process, on the workload's own inputs."""

from __future__ import annotations

import json
import time

from stats import median

REPEATS = 15


def _p50(func, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def fingerprint_p50_s(transactions: list) -> float:
    """``dataset_fingerprint`` over the whole dataset (every raw submit,
    and every retire-time chain rebuild, pays this)."""
    from repro.serve.cache import dataset_fingerprint

    return _p50(lambda: dataset_fingerprint(transactions))


def chain_extend_p50_s(transactions: list, delta: list) -> float:
    """``FingerprintChain.extend`` of one small delta on a warm chain."""
    from repro.serve.cache import FingerprintChain

    chain = FingerprintChain(transactions)
    return _p50(lambda: chain.copy().extend(delta), repeats=4 * REPEATS)


def codec_p50_s(submit_payload: dict, result_payload: dict) -> float:
    """Encode + decode of one submit and one result, as the HTTP tier
    does it: JSON both ways, ``config_from_dict``, ``itemsets_from_payload``."""
    from repro.serve.http import config_from_dict, itemsets_from_payload

    def roundtrip():
        request = json.loads(json.dumps(submit_payload).encode("utf-8"))
        config_from_dict(request["config"])
        itemsets_from_payload(json.loads(json.dumps(result_payload).encode("utf-8")))

    return _p50(roundtrip)


def plan_p50_s(transactions: list, config) -> float:
    """``CostPlanner.plan`` on a dataset whose stats are already cached."""
    from repro.serve.cache import dataset_fingerprint
    from repro.serve.planner import CostPlanner

    planner = CostPlanner()
    fingerprint = dataset_fingerprint(transactions)
    return _p50(lambda: planner.plan(transactions, config, fingerprint=fingerprint))


def incremental_replay(initial: list, deltas: list[list], min_support: float) -> dict:
    """Replay the stream's exact delta sequence on an in-process
    ``IncrementalMiner``: append the delta, retire as many rows.

    Run twice — defaults, then ``track_family_diff=False`` — so the
    family-diff's share of an update is a measured number.
    """
    import repro.core.candidatestore as candidatestore
    from repro.core.incremental import IncrementalMiner

    count = {"s": 0.0, "calls": 0}
    original = candidatestore.BitmapStore.count_partition

    def timed_count(self, partition, weighted=False):
        t0 = time.perf_counter()
        try:
            return original(self, partition, weighted)
        finally:
            count["s"] += time.perf_counter() - t0
            count["calls"] += 1

    def replay(**options):
        t0 = time.perf_counter()
        miner = IncrementalMiner(initial, min_support, **options)
        build_s = time.perf_counter() - t0
        count["s"], count["calls"] = 0.0, 0  # delta passes only, not the build
        updates = []
        for delta in deltas:
            updates.append(miner.append(delta))
            updates.append(miner.retire(len(delta)))
        return miner, build_s, updates

    candidatestore.BitmapStore.count_partition = timed_count
    try:
        miner, build_s, updates = replay()
        delta_count = dict(count)
    finally:
        candidatestore.BitmapStore.count_partition = original
    _, _, bare = replay(track_family_diff=False)
    total = sum(u.seconds for u in updates)
    return {
        "core.incremental.build_s": build_s,
        "core.incremental.append_p50_s": median(
            [u.seconds for u in updates if u.kind == "append"]
        ),
        "core.incremental.retire_p50_s": median(
            [u.seconds for u in updates if u.kind == "retire"]
        ),
        "core.incremental.diff_share": 1.0 - sum(u.seconds for u in bare) / total,
        "core.incremental.levels_remined": sum(u.levels_remined for u in updates),
        "core.incremental.full_rebuilds": miner.full_rebuilds,
        "core.incremental.delta_candidates": sum(u.delta_candidates for u in updates),
        "core.candidatestore.delta_count_s": delta_count["s"],
        "core.candidatestore.delta_calls": delta_count["calls"],
    }
