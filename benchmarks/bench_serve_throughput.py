"""Extension bench — serving-layer throughput and memoization payoff.

The serving layer's claim is the YAFIM claim moved up one level: repeated
work over resident data beats re-doing the setup per request.  Two
measurements back it:

* jobs/sec under concurrent submission through the in-process client vs
  the same jobs run strictly one-shot (fresh context each time).  Mining
  is pure-Python CPU work, so GIL-bound worker threads cannot beat
  sequential wall-clock — the claim under test is *bounded overhead*:
  queueing + lifecycle + caching must cost little even in the worst case
  for threads;
* cold-vs-memoized latency for an identical resubmission — the result
  cache's whole value proposition, and where the >=5x acceptance bar sits.

On top sits the **sharded-router bench** (``main()`` /
``BENCH_serve_shards.json``; a ``--smoke`` run writes it under the
git-ignored ``benchmarks/out/``): a closed-loop multi-client workload of K
distinct datasets resubmitted round-robin, run against a 1-shard and an
N-shard :class:`~repro.serve.router.ShardRouter` with the *same total
worker count* and a per-shard result cache smaller than K.  One shard
must cycle K keys through its LRU (capacity misses -> re-mining); N
shards consistent-hash the keyspace so each holds its share resident —
cache *affinity*, the router's reason to exist.  The report records
jobs/s, p50/p95/p99 latency and reject rate per leg, plus an overload
leg (queue_limit=1) proving admission control answers 429 while queue
depth stays bounded.

What that 1-vs-N-shards speedup measures is result-cache hit rate, not
parallel mining.  The **cold-cache leg** measures the other thing:
closed-loop clients that only ever send fresh work — each its own
dataset, every request a never-seen support, so neither the result cache
nor coalescing can answer — against one 2-shard router, 1 client vs 2.  Fresh
mines run in per-worker job processes (``repro.serve.jobworker``), so on
two cores two clients get close to twice one client's jobs/s.  The
legs run as ``FRESH_PAIRS`` interleaved 1-client / 2-client pairs, the
order alternating, and :func:`check_floors` asserts the median pair's
ratio (host-independent: a ratio, and only where there are two cores to
run on) — one pair is within a shared box's run-to-run spread of the
floor.

The **repeat leg** is the wire path of a request the server has answered
before: one closed-loop client re-sending one completed request over
HTTP, each send once with the server's ``RepeatMemo`` emptied first (the
body is parsed, row-checked and fingerprinted) and once recognised (none
of that).  Both sends hit the result cache and fetch the text the result
keeps, so the ratio is the decode share of a repeat and nothing else;
:func:`check_floors` holds it under ``REPEAT_CEILING``.

The **kept-answer leg** is memory: the bytes one finished answer of the
ledger's ``serve_mix`` size leaves in the server (``tracemalloc``, job
record and result-cache entry included), held by :func:`check_floors`
under ``KEPT_CEILING`` x what it was when the service kept the
``{itemset: count}`` dict.  It reports the bytes part by part: the
itemsets, the trace and the passes, each unpickled alone, and the rest
(engine metrics, job record, cache entry).

Run standalone (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --shards 4
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import statistics
import sys
import threading
import time
import tracemalloc

from _envelope import envelope, report_path

from repro.bench.reporting import format_table
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig
from repro.datasets import mushroom_like
from repro.serve import (
    HttpClient,
    LocalClient,
    MiningServer,
    MiningService,
    RejectedError,
    ShardRouter,
)

REPORT = "BENCH_serve_shards.json"

#: distinct supports -> distinct jobs (no memoization inside the sweep)
SUPPORTS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)
N_WORKERS = 4


def _configs():
    return [MiningConfig(min_support=s, backend="serial") for s in SUPPORTS]


def _one_shot_baseline(txns) -> float:
    t0 = time.perf_counter()
    for cfg in _configs():
        mine_frequent_itemsets(txns, config=cfg)
    return time.perf_counter() - t0


def _served_concurrent(txns) -> tuple[float, dict]:
    with MiningService(n_workers=N_WORKERS) as svc:
        client = LocalClient(svc)
        results = {}

        def run_one(cfg):
            results[cfg.min_support] = client.mine(txns, cfg, timeout=300)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=run_one, args=(c,)) for c in _configs()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0

        # identical resubmission: result-cache hit.  Timed on the service,
        # where the memo's cost lives, then through the client, whose
        # fetch also renders and re-parses every itemset of the answer
        cfg = _configs()[0]
        t0 = time.perf_counter()
        job = svc.submit(txns, cfg)
        job.wait(300)
        memo_s = time.perf_counter() - t0
        assert job.via == "memoized" and job.result.itemsets == results[cfg.min_support]
        t0 = time.perf_counter()
        assert client.mine(txns, cfg, timeout=300) == results[cfg.min_support]
        memo_client_s = time.perf_counter() - t0
        stats = svc.metrics()
    return elapsed, {
        "memo_s": memo_s, "memo_client_s": memo_client_s, "results": results, "metrics": stats,
    }


def test_serve_throughput(benchmark):
    from conftest import write_report

    ds = mushroom_like(scale=0.05, seed=11)
    txns = ds.transactions

    def run():
        base_s = _one_shot_baseline(txns)
        served_s, extra = _served_concurrent(txns)
        return base_s, served_s, extra

    base_s, served_s, extra = benchmark.pedantic(run, rounds=1, iterations=1)

    n = len(SUPPORTS)
    cold_per_job = base_s / n
    memo_s = extra["memo_s"]
    rows = [
        ("one-shot sequential", n, base_s, n / base_s, ""),
        ("served, concurrent", n, served_s, n / served_s,
         f"{(served_s / base_s - 1) * 100:+.0f}% wall vs one-shot"),
        ("memoized resubmit", 1, memo_s, "",
         f"{cold_per_job / max(memo_s, 1e-9):.0f}x vs cold job"),
        ("memoized, via client", 1, extra["memo_client_s"], "",
         f"{cold_per_job / max(extra['memo_client_s'], 1e-9):.0f}x vs cold job"),
    ]
    table = format_table(
        ["mode", "jobs", "wall (s)", "jobs/s", "speedup"],
        rows,
        title=(
            f"Serving throughput [mushroom scale=0.05] "
            f"{N_WORKERS} workers, supports {SUPPORTS[0]:g}..{SUPPORTS[-1]:g}"
        ),
    )
    hit_rate = extra["metrics"]["result_cache"]["hit_rate"]
    table += f"\nresult-cache hit rate after resubmit: {hit_rate:.2f}"
    write_report("serve_throughput", table)

    # serving overhead stays bounded, and memoization must be >= 5x
    assert served_s < base_s * 1.5, "serving layer overhead exceeds 50%"
    assert cold_per_job / max(memo_s, 1e-9) >= 5.0, "memoized rerun < 5x faster"


# ---------------------------------------------------------------------------
# Sharded-router bench: cache affinity under a repeat-dataset workload
# ---------------------------------------------------------------------------

#: distinct datasets in the workload; must exceed RESULT_CACHE_ENTRIES so
#: a single shard's LRU thrashes while N shards' partitions each fit
K_DATASETS = 12
#: per-shard result-cache capacity (the thrash/fit pivot)
RESULT_CACHE_ENTRIES = 4
WORKERS_TOTAL = 8
N_CLIENTS = 6
#: N shards / 1 shard, jobs/s on the repeat-dataset workload (full size
#: only): what cache affinity must buy
SHARD_FLOOR = 2.0
SHARD_QUEUE_LIMIT = 64
SHARD_SUPPORT = 0.35


def _percentile(sorted_vals: list, q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


def _shard_datasets(smoke: bool) -> list:
    scale = 0.02 if smoke else 0.04
    return [
        mushroom_like(scale=scale, seed=100 + i).transactions
        for i in range(K_DATASETS)
    ]


def _closed_loop_leg(
    n_shards: int, datasets: list, jobs_per_client: int
) -> dict:
    """N closed-loop clients, each cycling the dataset list round-robin
    (offset by client id), against a router with ``n_shards`` shards and
    the same total worker count.  Returns throughput + latency stats."""
    cfg = MiningConfig(min_support=SHARD_SUPPORT, backend="serial")
    latencies: list[float] = []
    rejects = 0
    lock = threading.Lock()
    router = ShardRouter(
        n_shards=n_shards,
        n_workers=max(1, WORKERS_TOTAL // n_shards),
        queue_limit=SHARD_QUEUE_LIMIT,
        result_cache_entries=RESULT_CACHE_ENTRIES,
    )
    try:
        def run_client(cid: int):
            nonlocal rejects
            for j in range(jobs_per_client):
                txns = datasets[(cid + j) % len(datasets)]
                t0 = time.perf_counter()
                while True:
                    try:
                        job = router.submit(txns, cfg)
                        break
                    except RejectedError as err:
                        with lock:
                            rejects += 1
                        time.sleep(err.retry_after_s)
                # the Job in hand, not a lookup by id: each shard retains
                # only RESULT_CACHE_ENTRIES finished jobs, fewer than clients
                job.wait(300)
                with lock:
                    latencies.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=run_client, args=(i,)) for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        metrics = router.metrics()
    finally:
        router.shutdown()

    jobs = len(latencies)
    latencies.sort()
    hits = sum(
        s["service"]["result_cache"]["hits"] for s in metrics["shards"]
    )
    misses = sum(
        s["service"]["result_cache"]["misses"] for s in metrics["shards"]
    )
    return {
        "shards": n_shards,
        "workers_per_shard": max(1, WORKERS_TOTAL // n_shards),
        "jobs": jobs,
        "wall_seconds": round(wall, 4),
        "jobs_per_s": round(jobs / wall, 2),
        "p50_s": round(_percentile(latencies, 0.50), 5),
        "p95_s": round(_percentile(latencies, 0.95), 5),
        "p99_s": round(_percentile(latencies, 0.99), 5),
        "rejects": rejects,
        "reject_rate": round(rejects / max(1, jobs + rejects), 4),
        "result_cache_hit_rate": round(hits / max(1, hits + misses), 4),
        "jobs_spilled": metrics["router"]["jobs_spilled"],
    }


def _routing_determinism(datasets: list, n_shards: int) -> dict:
    """Same fingerprint -> same home shard, across router instances."""
    r1 = ShardRouter(n_shards=n_shards, n_workers=1)
    r2 = ShardRouter(n_shards=n_shards, n_workers=1)
    try:
        homes1 = [r1.home_shard(d) for d in datasets]
        homes2 = [r2.home_shard(d) for d in datasets]
        assert homes1 == homes2, "home-shard assignment is not deterministic"
        spread = {h: homes1.count(h) for h in set(homes1)}
    finally:
        r1.shutdown()
        r2.shutdown()
    return {"deterministic": True, "spread": spread}


def _overload_leg(datasets: list) -> dict:
    """queue_limit=1, 1 slow worker, a burst of distinct jobs: admission
    control must answer with rejections while queue depth stays bounded."""
    cfg = MiningConfig(min_support=0.2, backend="serial")
    router = ShardRouter(n_shards=1, n_workers=1, queue_limit=1)
    rejected = 0
    max_depth = 0
    accepted = []
    try:
        for txns in datasets:
            try:
                accepted.append(router.submit(txns, cfg))
            except RejectedError as err:
                rejected += 1
                assert err.retry_after_s > 0
            max_depth = max(max_depth, router.queue_depth())
        for job in accepted:
            router.wait(job.job_id, 300)
        jobs_rejected = router.metrics()["router"]["jobs_rejected"]
    finally:
        router.shutdown()
    assert rejected > 0, "overload produced no 429s"
    assert max_depth <= 1, f"queue depth {max_depth} exceeded queue_limit=1"
    return {
        "submitted": len(datasets),
        "accepted": len(accepted),
        "rejected": rejected,
        "router_jobs_rejected": jobs_rejected,
        "max_queue_depth": max_depth,
    }


# ---------------------------------------------------------------------------
# Cold-cache leg: fresh-only clients, 1 vs 2, on a 2-shard router
# ---------------------------------------------------------------------------

#: 2 fresh clients / 1 fresh client, jobs/s.  The reference box (2 cores)
#: reads 1.96-2.1x; mining on threads of the server's interpreter (the
#: parent of PR 20) read 1.08x.
FRESH_FLOOR = 1.5
FRESH_SHARDS = 2
#: 1-client / 2-client pairs the floor is the median of
FRESH_PAIRS = 3


def _fresh_datasets(router: ShardRouter, smoke: bool) -> list:
    """One dataset per shard (by home shard), so two clients never share
    a worker and affinity is not what is being measured — the same rows
    with the items relabelled, so every client's jobs cost the same."""
    base = mushroom_like(scale=0.06 if smoke else 0.08, seed=200).transactions
    homes: dict[str, list] = {}
    shift = 0
    while len(homes) < FRESH_SHARDS:
        txns = [[item + shift for item in row] for row in base]
        homes.setdefault(router.home_shard(txns), txns)
        shift += 1000
    return [homes[name] for name in sorted(homes)]


def _fresh_leg(n_clients: int, smoke: bool) -> dict:
    """``n_clients`` closed-loop clients, client ``i`` mining dataset ``i``
    at a support it has never asked for; returns jobs/s."""
    jobs_per_client = 8 if smoke else 20
    router = ShardRouter(n_shards=FRESH_SHARDS, n_workers=1, queue_limit=SHARD_QUEUE_LIMIT)
    try:
        datasets = _fresh_datasets(router, smoke)
        for txns in datasets:  # each worker has run once: imports done, rows resident
            router.submit(txns, MiningConfig(min_support=0.6, backend="serial")).wait(300)
        vias: list[str] = []

        def run_client(cid: int) -> None:
            for j in range(jobs_per_client):
                cfg = MiningConfig(min_support=0.35 + 0.002 * j, backend="serial")
                job = router.submit(datasets[cid], cfg)
                job.wait(300)
                assert job.state.value == "done", job.error
                vias.append(job.via)

        threads = [threading.Thread(target=run_client, args=(i,)) for i in range(n_clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        workers = [s["service"]["job_workers"] for s in router.metrics()["shards"]]
    finally:
        router.shutdown()
    assert set(vias) == {"run"}, f"the result cache answered a fresh request: {set(vias)}"
    jobs = n_clients * jobs_per_client
    return {
        "clients": n_clients,
        "jobs": jobs,
        "wall_seconds": round(wall, 4),
        "jobs_per_s": round(jobs / wall, 2),
        "jobs_in_job_workers": sum(w["jobs_run"] for w in workers),
    }


def run_fresh_bench(smoke: bool) -> dict:
    """``FRESH_PAIRS`` pairs of legs, 1 client then 2 and 2 then 1 in
    turn, so a drift in the box's speed lands on both sides."""
    pairs = []
    for i in range(FRESH_PAIRS):
        order = (1, 2) if i % 2 == 0 else (2, 1)
        legs = {str(n): _fresh_leg(n, smoke) for n in order}
        ratio = legs["2"]["jobs_per_s"] / max(legs["1"]["jobs_per_s"], 1e-9)
        pairs.append({**legs, "two_clients_vs_one": round(ratio, 2)})
    return {
        "shards": FRESH_SHARDS,
        "workers_per_shard": 1,
        "cpu_count": os.cpu_count(),
        "pairs": pairs,
        "two_clients_vs_one": statistics.median(p["two_clients_vs_one"] for p in pairs),
    }


# ---------------------------------------------------------------------------
# Repeat leg: one completed request re-sent over HTTP, recognised vs decoded
# ---------------------------------------------------------------------------

#: recognised repeat / the same repeat with the memo emptied first, p50.
#: The reference box reads 0.36 (6.9 ms / 19.5 ms on 1 219 rows and 1 949
#: itemsets; 0.40 at smoke size); what both sends share is three HTTP
#: round trips and the client's own encode and parse.
REPEAT_CEILING = 0.6


def run_repeat_bench(smoke: bool) -> dict:
    rows = mushroom_like(scale=0.1 if smoke else 0.15, seed=300).transactions
    cfg = MiningConfig(min_support=0.4, backend="serial")
    sends = 25 if smoke else 100
    laps: dict[str, list[float]] = {"decoded": [], "recognised": []}
    with MiningServer(port=0, shards=2, n_workers=1) as server:
        client = HttpClient(server.url)
        expected = client.mine(rows, cfg, timeout=300)
        for _ in range(sends):
            # a decoded send remembers the body again: the next is recognised
            for leg in ("decoded", "recognised"):
                if leg == "decoded":
                    server.memo.clear()
                t0 = time.perf_counter()
                answer = client.mine(rows, cfg, timeout=300)
                laps[leg].append(time.perf_counter() - t0)
                assert answer == expected
        counters = server.memo.stats()
    # every recognised send skipped the decode; every fetch (the first
    # answer's too) sent the text its result keeps
    assert counters["bodies_recognised"] == sends, counters
    assert counters["results_sent"] == 2 * sends + 1, counters
    p50 = {leg: statistics.median(values) for leg, values in laps.items()}
    return {
        "rows": len(rows),
        "itemsets": len(expected),
        "sends_per_leg": sends,
        "decoded_p50_s": round(p50["decoded"], 5),
        "recognised_p50_s": round(p50["recognised"], 5),
        "recognised_vs_decoded": round(p50["recognised"] / p50["decoded"], 3),
        "http": counters,
    }


# ---------------------------------------------------------------------------
# Kept-answer leg: the bytes a finished answer holds in the server
# ---------------------------------------------------------------------------

#: bytes one answer of the ledger's serve_mix size (~1 250 mushroom rows,
#: ~1 800 itemsets) retained by this leg when the service kept the
#: ``{itemset: count}`` dict rather than the JSON it is sent as
DICT_KEPT_BYTES = 284_000
#: retained bytes per answer / DICT_KEPT_BYTES; the reference box reads 0.18
#: (0.27 while the run's trace and passes were kept as objects)
KEPT_CEILING = 0.21
KEPT_ANSWERS = 40
#: the parts of a kept answer the leg sizes alone, by result attribute
KEPT_PARTS = {"itemsets": "itemsets", "trace": "trace", "passes": "iterations"}


def _unpickled_bytes(part) -> int:
    """What ``part`` holds once unpickled (``tracemalloc`` running)."""
    blob = pickle.dumps(part, pickle.HIGHEST_PROTOCOL)
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    back = pickle.loads(blob)
    size = tracemalloc.get_traced_memory()[0] - before
    del back
    return size


def run_kept_bench() -> dict:
    """``KEPT_ANSWERS`` distinct answers of serve_mix size (one dataset,
    one support each) in an in-process service: what each leaves in the
    server's memory (``tracemalloc``), job record and cache entry
    included, and the last answer's parts alone.  The same at smoke
    size: the figure is per answer."""
    pool = mushroom_like(scale=0.17, seed=7).transactions
    rows = random.Random(7).sample(pool, int(len(pool) * 0.9))

    def config(support: float) -> MiningConfig:
        return MiningConfig(min_support=support, candidate_store="bitmap", num_partitions=1)

    with MiningService(n_workers=1) as svc:
        warm = svc.submit(rows, config(0.3995))  # worker up, rows resident
        warm.wait(300)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(KEPT_ANSWERS):
                job = svc.submit(rows, config(round(0.40 + 0.0005 * i, 6)))
                job.wait(300)
                assert job.state.value == "done", job.error
            result = job.result
            del job
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / KEPT_ANSWERS
            parts = {
                name: _unpickled_bytes(getattr(result, attr))
                for name, attr in KEPT_PARTS.items()
            }
        finally:
            tracemalloc.stop()
    return {
        "rows": len(rows),
        "answers": KEPT_ANSWERS,
        "itemsets_last": result.num_itemsets,
        "retained_bytes_per_answer": round(retained),
        "bytes_per_part": {**parts, "record": round(retained) - sum(parts.values())},
        "dict_bytes_per_answer": DICT_KEPT_BYTES,
        "vs_dict": round(retained / DICT_KEPT_BYTES, 3),
    }


def check_floors(report: dict) -> None:
    """The gate over a report (a fresh run, or the checked-in file), all
    ratios: N shards must get ``SHARD_FLOOR`` x one shard's jobs/s at
    full size (at smoke size fixed overheads drown the cache effect, so
    the ratio is recorded, not gated); two fresh clients must get
    ``FRESH_FLOOR`` x one client's jobs/s with a cold result cache, in
    the median of the interleaved pairs, wherever the run had two cores
    to use; a recognised repeat must cost at most ``REPEAT_CEILING`` x
    the same repeat decoded in full, and a kept answer must hold at most
    ``KEPT_CEILING`` x the bytes a kept dict held."""
    if not report["smoke"]:
        assert report["throughput_speedup"] >= SHARD_FLOOR, (
            f"{max(report['legs'], key=int)}-shard throughput only "
            f"{report['throughput_speedup']}x of 1 shard (floor {SHARD_FLOOR}x)"
        )
    kept = report["kept_answer"]
    assert kept["vs_dict"] <= KEPT_CEILING, (
        f"a kept answer retains {kept['retained_bytes_per_answer']} bytes, "
        f"{kept['vs_dict']}x the dict's (ceiling {KEPT_CEILING}x): answers "
        "are held fatter than the JSON they are sent as"
    )
    repeat = report["repeat"]
    assert repeat["recognised_vs_decoded"] <= REPEAT_CEILING, (
        f"a recognised repeat costs {repeat['recognised_vs_decoded']}x a decoded one "
        f"(ceiling {REPEAT_CEILING}x): the wire path of a repeat is doing work "
        "whose outcome the server already holds"
    )
    fresh = report["cold_cache"]
    if (fresh["cpu_count"] or 1) >= 2:
        assert fresh["two_clients_vs_one"] >= FRESH_FLOOR, (
            f"2 fresh clients get {fresh['two_clients_vs_one']}x the jobs/s of 1 "
            f"(median of {[p['two_clients_vs_one'] for p in fresh['pairs']]}) "
            f"(floor {FRESH_FLOOR}x on {fresh['cpu_count']} cores): fresh mines "
            "are queueing for one interpreter again"
        )


def run_shard_bench(shards: int = 4, smoke: bool = False) -> dict:
    datasets = _shard_datasets(smoke)
    jobs_per_client = 6 if smoke else 24
    report = {
        **envelope("serve_shards", smoke),
        "k_datasets": K_DATASETS,
        "result_cache_entries_per_shard": RESULT_CACHE_ENTRIES,
        "workers_total": WORKERS_TOTAL,
        "clients": N_CLIENTS,
        "jobs_per_client": jobs_per_client,
        "routing": _routing_determinism(datasets, shards),
        "legs": {},
    }
    for n in (1, shards):
        report["legs"][str(n)] = _closed_loop_leg(n, datasets, jobs_per_client)
    one, many = report["legs"]["1"], report["legs"][str(shards)]
    report["throughput_speedup"] = round(
        many["jobs_per_s"] / max(one["jobs_per_s"], 1e-9), 2
    )
    report["overload"] = _overload_leg(datasets)
    report["cold_cache"] = run_fresh_bench(smoke)
    report["repeat"] = run_repeat_bench(smoke)
    report["kept_answer"] = run_kept_bench()
    report["notes"] = (
        "throughput_speedup (1 shard vs N at equal total workers) is result-cache "
        "hit rate — the per-shard LRU stops thrashing — not parallel mining; "
        "cold_cache.two_clients_vs_one is parallel mining: fresh-only clients, "
        "result cache useless; repeat.recognised_vs_decoded is the decode "
        "share of a repeat over HTTP: both sends are result-cache hits; "
        "kept_answer.vs_dict is the server memory one finished answer holds, "
        "against the dict it held before answers were kept as their JSON"
    )

    try:
        check_floors(report)
    except AssertionError:
        # a full-size run that misses a floor keeps its numbers, but not
        # at the root, where only a report that passes is checked in
        _write_report(report, report_path(REPORT, smoke=True))
        raise
    _write_report(report, report_path(REPORT, smoke))
    return report


def _write_report(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small datasets, fewer jobs; skips the >=2x gate",
    )
    args = parser.parse_args(argv)
    report = run_shard_bench(shards=args.shards, smoke=args.smoke)
    rows = [
        (
            leg["shards"], leg["jobs"], leg["wall_seconds"], leg["jobs_per_s"],
            leg["p50_s"], leg["p95_s"], leg["p99_s"],
            leg["reject_rate"], leg["result_cache_hit_rate"],
        )
        for leg in report["legs"].values()
    ]
    print(format_table(
        ["shards", "jobs", "wall (s)", "jobs/s", "p50 (s)", "p95 (s)",
         "p99 (s)", "rej rate", "hit rate"],
        rows,
        title=(
            f"Sharded serving [K={report['k_datasets']} datasets, "
            f"cache={report['result_cache_entries_per_shard']}/shard, "
            f"{report['workers_total']} workers total]"
        ),
    ))
    ov = report["overload"]
    print(
        f"throughput speedup: {report['throughput_speedup']}x   "
        f"overload: {ov['rejected']}/{ov['submitted']} rejected, "
        f"max queue depth {ov['max_queue_depth']}"
    )
    fresh = report["cold_cache"]
    pairs = "; ".join(
        f"{p['1']['jobs_per_s']} -> {p['2']['jobs_per_s']} jobs/s = {p['two_clients_vs_one']}x"
        for p in fresh["pairs"]
    )
    print(
        f"cold cache, fresh-only clients on {fresh['shards']} shards, 1 client -> 2 "
        f"per pair: {pairs}; median {fresh['two_clients_vs_one']}x "
        f"(floor {FRESH_FLOOR}x on >= 2 cores, {fresh['cpu_count']} here)"
    )
    repeat = report["repeat"]
    print(
        f"repeat over HTTP ({repeat['rows']} rows, {repeat['itemsets']} itemsets): "
        f"decoded {repeat['decoded_p50_s'] * 1e3:.2f} ms, recognised "
        f"{repeat['recognised_p50_s'] * 1e3:.2f} ms = {repeat['recognised_vs_decoded']}x "
        f"(ceiling {REPEAT_CEILING}x)"
    )
    kept = report["kept_answer"]
    parts = ", ".join(f"{k} {v / 1024:.1f}" for k, v in kept["bytes_per_part"].items())
    print(
        f"kept answer ({kept['rows']} rows, {kept['itemsets_last']} itemsets): "
        f"{kept['retained_bytes_per_answer'] / 1024:.1f} KiB retained ({parts} KiB) = "
        f"{kept['vs_dict']}x the dict's {DICT_KEPT_BYTES / 1024:.1f} KiB "
        f"(ceiling {KEPT_CEILING}x)"
    )
    print(f"serve shards ok: report -> {report_path(REPORT, args.smoke)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
