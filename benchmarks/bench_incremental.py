"""Incremental sliding-window mining vs full re-mining.

The incremental tier (``repro.core.incremental``) maintains per-level
frequent itemsets, exact counts, and each level's negative border, so an
append of d transactions costs one delta pass over d rows per affected
level — the border bounds where the frequent family can change, and only
a border crossing (or a dictionary shift) forces a level re-mine.  The
claim: at small append fractions (<= 1% of the window, the sliding-feed
regime the tier exists for) an incremental update is **>= 5x** faster
than re-mining the appended window from scratch, while producing results
*identical* to a cold re-mine — same itemsets, same exact counts.

The sweep runs mushroom at the paper's operating support (0.35): for
each append fraction it builds fresh incremental state over the base
window, times the append, times a cold build over the appended window
with the same store and code path, and checks equality.  Each append is
timed twice — with the family diff the update emits and with
``track_family_diff=False`` — so the diff's cost is a recorded ratio, not
a guess (PR 10 tripled the update pass by building the diff from two
full-family snapshots and nothing noticed).  A sliding leg (one fused
``slide``: append + retire of the same size) is recorded for the
steady-state window-slide cost.  ``--streaming`` adds the ingest-buffer
and window-policy legs and the *advance* leg, the perf ledger's
``stream_window`` feed through a dataset owner in process (a 3 000-row
window, 8 rows in and 8 out, one watched key): per advance, the slide,
the diff's text and the family's text, each gated as a ratio to a cold
build of the window — and the *watch-log* leg, the same feed through the serve
tier's change feed: what a read 64-entry change log retains against the
same log held as diffs, renders per version with four watchers, and a
63-version span's answer against composing the diffs, each gated — and
the *memory* leg, the same feed on a ``repro serve`` subprocess: ``Pss``
of the server and of the dataset's owner process, separately and summed.
``BENCH_incremental.json`` lands at the
repo root (a ``--smoke`` run: under the git-ignored ``benchmarks/out/``);
:func:`check_floors` is the gate over it (a fresh run, or the checked-in
file) and ``--check`` runs it.

Run standalone (CI uses ``--smoke --streaming --check``)::

    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke --streaming --check
    PYTHONPATH=src python benchmarks/bench_incremental.py --streaming --check

or under pytest-benchmark along with the other figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from _envelope import envelope, report_path

from repro.core.incremental import IncrementalMiner
from repro.datasets import mushroom_like

REPORT = "BENCH_incremental.json"

SUPPORT = 0.35
STORE = "bitmap"
SEED = 7
#: append sizes as fractions of the base window — all within the <= 1%
#: regime the >= 5x headline claim is scoped to
APPEND_FRACS = (0.002, 0.005, 0.01)
#: an update is a few milliseconds on a shared box: each timed update is
#: the fastest of this many, every one on freshly built state
REPEATS = 5

#: The gate.  Ratios, so the host cancels out; each floor is half of what
#: the reference box measures in that mode (smoke: +1 row 5.7x, slide
#: 2.6x — on an eighth of the window nearly every level re-mines, which
#: since PR 16 costs the candidates that crossed, not the level; full:
#: +12 rows 11-14x, slide 7.1x), except that the full-mode append floor
#: stays where PR 14 put it: a pure-delta append and a cold build both run
#: the same bitmap walk, both got faster, and the ratio did not move.  A
#: change that falls through a floor has made the update path twice as
#: slow relative to a re-mine.  The ceiling on what emitting the family
#: diff may add to the append updates is the same in both modes
#: (measured 1.1-1.15x smoke, 1.1-1.2x full; PR 10's two-snapshot diff
#: was 2.9x).
FLOORS = {
    True: {"smallest_append": 2.8, "slide": 1.3},
    False: {"smallest_append": 7.0, "slide": 3.6},
}
DIFF_COST_CEILING = 1.25
#: The advance leg's gate (``--streaming``): a cold build of the window
#: over each phase of one advance in the dataset owner.  The slide floors
#: are half of what the reference box measured since the sibling-grouped
#: intersector (smoke 2.8-3.0, full 9.9; now 2.2-2.8 and 7.5-8.9).  The
#: text floors are about half of what it measures since the owner keeps
#: each watched family in payload order with one row template per
#: itemset (diff / family text: smoke 18.6-22.3 / 20.6-25.6, full
#: 46-50 / 45-50, and 25 / 28 once on a loaded box).
ADVANCE_FLOORS = {
    True: {"slide": 1.4, "diff_text": 9.0, "family_text": 10.0},
    False: {"slide": 5.0, "diff_text": 20.0, "family_text": 20.0},
}


def _cold_build(window: list, **options) -> tuple[float, IncrementalMiner]:
    """Full re-mine of ``window`` through the same store and code path
    the update uses, so the comparison isolates delta-maintenance."""
    t0 = time.perf_counter()
    miner = IncrementalMiner(window, SUPPORT, candidate_store=STORE, **options)
    return time.perf_counter() - t0, miner


def _cold_remine(window: list) -> tuple[float, IncrementalMiner]:
    """The re-mine an update is measured against: fastest of three."""
    return min((_cold_build(window) for _ in range(3)), key=lambda run: run[0])


def _timed_update(base: list, apply, variants=({},)) -> list:
    """Per option set in ``variants``: ``(build wall, update wall, miner,
    update)`` of the fastest of ``REPEATS`` runs of ``apply(miner)`` on
    freshly built state whose family has been read once — what every
    consumer does with a build (a job returns it, a watch ships it), and
    what fills the miner's decode memo.  The variants take turns inside
    each round, so a slow stretch of the host lands on all of them.  The
    collector runs before the clock starts: a build leaves tens of
    thousands of young tuples behind, and whichever variant allocates
    enough to trigger a collection first (the one that builds a diff)
    would otherwise be charged for traversing them — a warm miner's state
    is old by the time it is updated."""
    best: list = [None] * len(variants)
    for _ in range(REPEATS):
        for i, options in enumerate(variants):
            build_wall, miner = _cold_build(base, **options)
            miner.itemsets()
            gc.collect()
            t0 = time.perf_counter()
            update = apply(miner)
            wall = time.perf_counter() - t0
            if best[i] is None or wall < best[i][1]:
                best[i] = (build_wall, wall, miner, update)
    return best


def _leg(base: list, delta: list) -> dict:
    """One append fraction: fresh state over base, timed append (with and
    without the family diff), timed cold re-mine of the appended window,
    equality check."""
    window = base + delta
    (build_wall, update_wall, miner, update), (_, bare_wall, _, _) = _timed_update(
        base, lambda m: m.append(delta), ({}, {"track_family_diff": False})
    )
    cold_wall, cold = _cold_remine(window)

    # correctness invariant, independent of timing: the delta-maintained
    # state equals a cold re-mine of the same window, counts included
    incremental_itemsets = miner.itemsets()
    cold_itemsets = cold.itemsets()
    assert incremental_itemsets == cold_itemsets, (
        f"append of {len(delta)} rows diverged from the cold re-mine: "
        f"{len(incremental_itemsets)} vs {len(cold_itemsets)} itemsets"
    )

    return {
        "n_delta": len(delta),
        "append_frac": round(len(delta) / len(base), 5),
        "build_wall_s": round(build_wall, 4),
        "update_wall_s": round(update_wall, 4),
        "update_wall_nodiff_s": round(bare_wall, 4),
        "diff_cost_ratio": round(update_wall / max(bare_wall, 1e-9), 3),
        "full_remine_wall_s": round(cold_wall, 4),
        "speedup_vs_remine": round(cold_wall / max(update_wall, 1e-9), 2),
        "full_rebuild": update.full_rebuild,
        "rebuild_reason": update.rebuild_reason,
        "levels_delta": update.levels_delta,
        "levels_remined": update.levels_remined,
        "delta_candidates": update.delta_candidates,
        "full_candidates": update.full_candidates,
        "n_itemsets": len(incremental_itemsets),
    }


def _slide_leg(base: list, delta: list) -> dict:
    """Steady-state slide: append d rows and retire the d oldest as one
    fused update, checked against a cold build of the slid window."""
    window = base[len(delta):] + delta
    [(_, slide_wall, miner, update)] = _timed_update(
        base, lambda m: m.slide(delta, len(delta))
    )
    cold_wall, cold = _cold_remine(window)
    assert miner.itemsets() == cold.itemsets(), (
        f"slide of {len(delta)} rows diverged from the cold re-mine"
    )
    return {
        "n_delta": len(delta),
        "slide_wall_s": round(slide_wall, 4),
        "full_remine_wall_s": round(cold_wall, 4),
        "speedup_vs_remine": round(cold_wall / max(slide_wall, 1e-9), 2),
        "levels_remined": update.levels_remined,
        "n_itemsets": len(cold.itemsets()),
    }


#: streaming leg: how many tiny appends the ingest buffer coalesces
K_APPENDS = 20
#: per-append delta size as a fraction of the base window
STREAM_FRAC = 0.001


def _streaming_leg(base: list, pool: list, smoke: bool) -> dict:
    """The ingest-buffer claim: folding K tiny appends into ONE delta
    update beats K individual update passes at the same final window.

    Each individual pass pays the per-update fixed cost (level walk,
    candidate regeneration, border bookkeeping) for a handful of rows;
    the coalesced pass pays it once for K times the rows.  Both paths
    must land on identical itemsets — coalescing is a latency/ingest
    trade, never a correctness one.
    """
    per = max(1, int(len(base) * STREAM_FRAC))
    deltas = [pool[i * per : (i + 1) * per] for i in range(K_APPENDS)]
    deltas = [d for d in deltas if d]
    flat = [txn for delta in deltas for txn in delta]

    _, individual = _cold_build(base)
    t0 = time.perf_counter()
    for delta in deltas:
        individual.append(delta)
    individual_wall = time.perf_counter() - t0

    _, coalesced = _cold_build(base)
    t0 = time.perf_counter()
    coalesced.append(flat)
    coalesced_wall = time.perf_counter() - t0

    assert individual.itemsets() == coalesced.itemsets(), (
        f"coalesced append of {len(flat)} rows diverged from "
        f"{len(deltas)} individual passes over the same rows"
    )
    speedup = round(individual_wall / max(coalesced_wall, 1e-9), 2)
    assert speedup > 1.0, (
        f"coalescing {len(deltas)} appends did not beat individual "
        f"passes ({speedup}x)"
    )
    if not smoke:
        assert speedup >= 5.0, (
            f"coalesced ingest {speedup}x < 5x over {len(deltas)} "
            f"individual update passes"
        )
    return {
        "k_appends": len(deltas),
        "rows_per_append": per,
        "individual_wall_s": round(individual_wall, 4),
        "coalesced_wall_s": round(coalesced_wall, 4),
        "coalesce_speedup": speedup,
        "n_itemsets": len(coalesced.itemsets()),
    }


def _policy_leg(base: list, pool: list) -> dict:
    """Window-policy invariant through the serving layer: a stream of
    appends under ``max_window`` never grows past the bound, and the
    final warm result equals a cold mine of the policy-trimmed tail."""
    from repro.core.registry import MiningConfig
    from repro.serve import MiningService

    max_window = len(base)
    per = max(1, int(len(base) * STREAM_FRAC) * 4)
    cfg = MiningConfig(
        min_support=SUPPORT, backend="serial", incremental=True,
        candidate_store=STORE,
    )
    with MiningService(n_workers=1, result_ttl_s=60.0) as svc:
        svc.create_dataset("stream", base, max_window=max_window)
        peak = len(base)
        for i in range(8):
            delta = pool[i * per : (i + 1) * per]
            if not delta:
                break
            info = svc.append_dataset("stream", delta)
            assert info["n_transactions"] <= max_window, (
                f"window {info['n_transactions']} exceeded "
                f"max_window={max_window}"
            )
            peak = max(peak, info["n_transactions"])
        job = svc.submit(None, cfg, dataset_id="stream")
        assert job.wait(600.0)
        entry = svc.dataset_registry.get("stream")
        window = list(entry.transactions)
        retired = entry.retires
    _, cold = _cold_build(window)
    assert job.result.itemsets == cold.itemsets(), (
        "post-retire warm result diverged from a cold mine of the "
        "trimmed window"
    )
    return {
        "max_window": max_window,
        "peak_window": peak,
        "retired_transactions": retired,
        "n_itemsets": len(cold.itemsets()),
    }


#: advance leg: the ledger's stream_window feed, in process — window rows,
#: rows in and out per advance, advances timed
ADVANCE_WINDOW = {True: 300, False: 3000}
ADVANCE_DELTA = 8
ADVANCES = {True: 16, False: 60}


def _advance_leg(base: list, pool: list, smoke: bool) -> dict:
    """What one window advance of a watched dataset costs its owner, per
    phase — driven through the owner's own messages in this process
    (``serve.owner._Owner``, its pipe a stand-in that keeps nothing):
    the slide (the miners and the watched key's kept order), the diff's
    text (the feed push) and the family's text (the warm job's answer,
    ``result()`` included) — medians over the advances, each also as a
    cold build of the same window over it, so the host cancels out."""
    from repro.core.candidatestore import get_store
    from repro.serve.owner import _Owner

    class Pipe:
        def send(self, message):
            pass

    window = list(base[: ADVANCE_WINDOW[smoke]])
    cold_wall, _ = _cold_remine(window)
    owner, key, store = _Owner(Pipe()), (SUPPORT, None, STORE), get_store(STORE)
    owner.handle(("load", 1, window, 1, 64))
    owner.handle(("watch", 1, key, store))
    owned = owner.datasets[1]
    phases: dict = {"slide": [], "diff_text": [], "family_text": []}
    clock = time.perf_counter
    for i in range(ADVANCES[smoke]):
        delta = pool[i * ADVANCE_DELTA : (i + 1) * ADVANCE_DELTA]
        t0 = clock()
        diffs = owned.advance(delta, len(delta), i + 2, [])
        t1 = clock()
        owner.push(1, owned, i + 2, diffs)
        t2 = clock()
        owner._job(owned, len(owned.window), key, store)
        t3 = clock()
        for phase, seconds in zip(phases, (t1 - t0, t2 - t1, t3 - t2)):
            phases[phase].append(seconds)
        window = window[len(delta):] + list(delta)
    _, cold = _cold_build(window)
    assert owned.miners[key].itemsets() == cold.itemsets(), (
        "the advances diverged from a cold build"
    )
    report = {
        "window": len(window),
        "n_delta": ADVANCE_DELTA,
        "advances": ADVANCES[smoke],
        "cold_build_ms": round(cold_wall * 1e3, 3),
    }
    for phase, samples in phases.items():
        median = statistics.median(samples)
        report[f"{phase}_ms"] = round(median * 1e3, 3)
        report[f"cold_over_{phase}"] = round(cold_wall / max(median, 1e-9), 2)
    return report


#: watch-log leg: the change log of one watch at its bound (the serve
#: tier's ``changelog_limit``), one entry per advance of the advance
#: leg's feed, read by this many watchers
LOG_ENTRIES = 64
WATCHERS = 4
#: its gate: a log read once per version holds its entries as the text
#: they are sent as (measured 0.24x), and a version is rendered once
#: however many watchers read it (1.0)
LOG_BYTES_CEILING = 0.35
RENDERS_PER_VERSION_CEILING = 1.25


def _watch_log_leg(pool: list) -> dict:
    """The perf ledger's feed (the full-size advance leg's: 3 000 window
    rows, 8 in and 8 out, in smoke mode too — the log's shape, not the
    host, sets the figures) through the serve tier's dataset registry,
    one watch on it, ``LOG_ENTRIES`` advances: what the log retains and
    what reading it costs.

    * the bytes the log retains once every version was read, against the
      same log left as the diffs a warm miner of the window logs, which
      share their itemsets with it (``tracemalloc``: what each form frees
      when dropped);
    * renders per version with ``WATCHERS`` watchers reading every
      version (the owner process renders; the server must not);
    * the answer to a reader ``LOG_ENTRIES - 1`` versions behind, against
      composing the log's diffs and rendering that, which is how the
      feed answered it while the log held diffs (fastest of 3 each).
    """
    import threading
    import tracemalloc

    import repro.serve.datasets as datasets
    from repro.core.incremental import FamilyDiff
    from repro.serve import DatasetCache, DatasetRegistry, ResultCache
    from repro.serve.owner import DatasetOwner

    window = mushroom_like(scale=0.8, seed=SEED).transactions[: ADVANCE_WINDOW[False]]
    deltas = [pool[i * ADVANCE_DELTA : (i + 1) * ADVANCE_DELTA] for i in range(LOG_ENTRIES)]
    key = datasets._mining_key(SUPPORT, None, STORE)

    def watched():
        registry = DatasetRegistry(DatasetCache(1 << 26), ResultCache(16, 60.0),
                                   DatasetOwner("bench"))
        registry.create_dataset("feed", window, max_window=len(window))
        registry.dataset_changes("feed", since=1, min_support=SUPPORT)
        return registry, registry.get("feed")

    # what the log retains, read once per version, and the diffs a warm
    # miner logs for the same advances (the builds are not traced:
    # nothing they allocate is freed below)
    registry, entry = watched()
    log = entry.watches[key].log
    _, miner = _cold_build(list(window), track_family_diff=True)
    tracemalloc.start()
    try:
        diffs = []
        for version, delta in enumerate(deltas, start=1):
            registry.append_dataset("feed", delta)
            registry.dataset_changes("feed", since=version, min_support=SUPPORT)
            diffs.append(miner.slide(delta, len(delta)).family_diff)
        assert len(log) == LOG_ENTRIES, "the log lost an entry"
        assert log[-1].text == datasets._rows_text(datasets._diff_rows(diffs[-1])), (
            "the log is not the miner's diffs"
        )
        retained = {}
        for name, held in (("text", log), ("diffs", diffs)):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            held.clear()
            gc.collect()
            retained[name] = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    registry.close()
    del registry, entry, log, diffs, miner

    # renders per version, every version read by every watcher
    registry, entry = watched()
    renders = []  # in this process, the server's: none
    render = datasets._diff_rows
    datasets._diff_rows = lambda diff: renders.append(1) or render(diff)
    read = threading.Barrier(WATCHERS + 1)

    def watcher():
        since = 1
        read.wait(30.0)
        while since <= LOG_ENTRIES:
            answer = registry.dataset_changes(
                "feed", since=since, min_support=SUPPORT, timeout_s=30.0
            )
            since = answer["version"]
            read.wait(30.0)

    threads = [threading.Thread(target=watcher) for _ in range(WATCHERS)]
    try:
        for t in threads:
            t.start()
        read.wait(30.0)
        for delta in deltas:
            registry.append_dataset("feed", delta)
            read.wait(30.0)
        for t in threads:
            t.join(30.0)
    finally:
        datasets._diff_rows = render
    assert not renders, "the server rendered a diff"
    owner_renders = registry.owner.inspect(entry)["renders"]
    diffs = [step.diff() for step in entry.watches[key].log]

    # a reader LOG_ENTRIES - 1 versions behind
    since = entry.version - (LOG_ENTRIES - 1)
    head = {"dataset_id": "feed", "since": since, "version": entry.version,
            "n_transactions": len(window), "reset": False}
    span_s, dict_span_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        answer = registry.dataset_changes("feed", since=since, min_support=SUPPORT)
        answer.text  # noqa: B018 - what the handler sends
        span_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        composed = FamilyDiff.compose(diffs[1:])
        json.dumps({**head, **render(composed)})
        dict_span_s.append(time.perf_counter() - t0)
    _, cold = _cold_build(list(entry.transactions))
    family = cold.itemsets()
    if answer["reset"]:
        assert answer["family"] == datasets._family_rows(family), "the reset is not the family"
    else:
        assert dict(answer) == {**head, **render(composed)}, "the span is not the composed diff"
    registry.close()
    return {
        "entries": LOG_ENTRIES,
        "text_bytes": retained["text"],
        "diff_bytes": retained["diffs"],
        "bytes_ratio": round(retained["text"] / retained["diffs"], 3),
        "watchers": WATCHERS,
        "renders": owner_renders,
        "renders_per_version": round(owner_renders / LOG_ENTRIES, 3),
        "span_versions": LOG_ENTRIES - 1,
        "span_reset": answer["reset"],
        "span_answer_ms": round(min(span_s) * 1e3, 3),
        "dict_span_answer_ms": round(min(dict_span_s) * 1e3, 3),
        "n_itemsets": len(family),
    }


#: memory leg: appends (each with a job on the window, a watcher reading
#: every version) before the processes' memory is read — the perf
#: ledger's ``RSS_AT_OP``
MEMORY_OPS = {True: 16, False: 64}


def _pss_kb(pid: int | None) -> int:
    """Proportional set size of ``pid`` (``/proc/<pid>/smaps_rollup``):
    pages shared by a server and the owner it forked count half to each,
    so the two figures sum to what both hold."""
    import re
    from pathlib import Path

    if pid is None:
        return 0
    rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
    return int(re.search(r"^Pss:\s+(\d+) kB", rollup, re.M).group(1))


def _memory_leg(pool: list, smoke: bool) -> dict:
    """A named dataset's memory over both processes that hold it: the
    ledger's feed (a 3 000-row window, 8 rows in and 8 out, an
    incremental job per advance, a watcher reading every version) on a
    ``repro serve`` subprocess, then ``Pss`` of the server and of the
    dataset's owner, separately and summed."""
    import os
    import re
    import subprocess
    import sys
    import threading
    from pathlib import Path

    from repro.core.registry import MiningConfig
    from repro.serve import HttpClient

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "2",
         "--workers", "1", "--quiet"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        url = re.search(r"http://\S+", server.stdout.readline()).group(0)
        client = HttpClient(url)
        window = mushroom_like(scale=0.8, seed=SEED).transactions[: ADVANCE_WINDOW[False]]
        client.create_dataset("feed", window, max_window=len(window))
        config = MiningConfig(min_support=SUPPORT, incremental=True)
        client.mine(None, config, timeout=600.0, dataset="feed")
        stop = threading.Event()

        def watcher():
            watching, since = HttpClient(url), 1
            while not stop.is_set():
                since = watching.dataset_changes(
                    "feed", since=since, min_support=SUPPORT, timeout_s=2.0
                )["version"]

        thread = threading.Thread(target=watcher)
        thread.start()
        try:
            for i in range(MEMORY_OPS[smoke]):
                client.append_dataset("feed", pool[i * ADVANCE_DELTA : (i + 1) * ADVANCE_DELTA])
                client.mine(None, config, timeout=600.0, dataset="feed")
            # the dataset's home shard; a server without owners reports none
            (home,) = [shard["service"] for shard in client.metrics()["shards"]
                       if shard["service"]["dataset_registry"]["datasets"]]
            owner_pid = home.get("dataset_owner", {}).get("pid")
            server_kb, owner_kb = _pss_kb(server.pid), _pss_kb(owner_pid)
        finally:
            stop.set()
            thread.join(30.0)
    finally:
        server.terminate()
        server.wait(30.0)
        server.stdout.close()
    return {
        "ops": MEMORY_OPS[smoke],
        "server_pss_kb": server_kb,
        "owner_pss_kb": owner_kb,
        "total_pss_kb": server_kb + owner_kb,
    }


def run_incremental_bench(smoke: bool = False, streaming: bool = False) -> dict:
    scale = 0.1 if smoke else 0.8
    base = mushroom_like(scale=scale, seed=SEED).transactions
    # deltas drawn i.i.d. from the same generator: genuinely new rows of
    # the same distribution, not replays of the base window
    pool = mushroom_like(scale=scale, seed=SEED + 4).transactions

    report = {
        **envelope("incremental", smoke),
        "dataset": "mushroom",
        "min_support": SUPPORT,
        "candidate_store": STORE,
        "n_transactions": len(base),
        "append_fracs": list(APPEND_FRACS),
        "appends": [],
    }
    for frac in APPEND_FRACS:
        n_delta = max(1, int(len(base) * frac))
        report["appends"].append(_leg(base, pool[:n_delta]))
    slide_rows = max(1, int(len(base) * APPEND_FRACS[-1]))
    report["slide"] = _slide_leg(base, pool[:slide_rows])
    if streaming:
        report["streaming"] = _streaming_leg(base, pool, smoke)
        report["streaming"]["policy"] = _policy_leg(base, pool)
        report["streaming"]["advance"] = _advance_leg(base, pool, smoke)
        report["streaming"]["watch_log"] = _watch_log_leg(pool)
        report["streaming"]["memory"] = _memory_leg(pool, smoke)

    best =max(leg["speedup_vs_remine"] for leg in report["appends"])
    report["best_append_speedup"] = best
    report["diff_cost_ratio"] = round(
        sum(leg["update_wall_s"] for leg in report["appends"])
        / sum(leg["update_wall_nodiff_s"] for leg in report["appends"]),
        3,
    )

    # Every leg already asserted incremental == cold re-mine above; the
    # timing gate is check_floors.  The >= 5x headline is only meaningful
    # on the full-size window, where the re-mine has real work to amortize.
    with open(report_path(REPORT, smoke), "w") as f:
        json.dump(report, f, indent=2)
    if not smoke:
        assert best >= 5.0, (
            f"incremental update {best}x < 5x over full re-mine on "
            f"mushroom at support {SUPPORT}"
        )
    return report


def check_floors(report: dict) -> None:
    """The timing gate over a report (a fresh run, or the checked-in
    file): update-vs-re-mine ratios above their floors, and the appends
    with their family diffs within the ceiling of the same appends
    without."""
    floors = FLOORS[report["smoke"]]
    smallest = report["appends"][0]
    assert smallest["speedup_vs_remine"] >= floors["smallest_append"], (
        f"+{smallest['n_delta']}-row update is {smallest['speedup_vs_remine']}x "
        f"a full re-mine, floor {floors['smallest_append']}x"
    )
    slide = report["slide"]
    assert slide["speedup_vs_remine"] >= floors["slide"], (
        f"slide is {slide['speedup_vs_remine']}x a full re-mine, "
        f"floor {floors['slide']}x"
    )
    assert report["diff_cost_ratio"] <= DIFF_COST_CEILING, (
        f"the family diff makes the append updates {report['diff_cost_ratio']}x "
        f"diff-less ones, ceiling {DIFF_COST_CEILING}x: "
        + ", ".join(
            f"+{leg['n_delta']} rows {leg['update_wall_s']}s vs "
            f"{leg['update_wall_nodiff_s']}s"
            for leg in report["appends"]
        )
    )
    if "streaming" in report:
        # coalescing K tiny appends into one update must beat K individual
        # passes, and the window policy must hold
        stream = report["streaming"]
        assert stream["coalesce_speedup"] > 1.0, stream
        policy = stream["policy"]
        assert policy["peak_window"] <= policy["max_window"], policy
        advance = stream["advance"]
        for phase, floor in ADVANCE_FLOORS[report["smoke"]].items():
            assert advance[f"cold_over_{phase}"] >= floor, (
                f"an advance's {phase} is {advance[f'{phase}_ms']} ms, a cold build "
                f"{advance['cold_build_ms']} ms: {advance[f'cold_over_{phase}']}x, "
                f"floor {floor}x"
            )
        log = stream["watch_log"]
        assert log["bytes_ratio"] <= LOG_BYTES_CEILING, (
            f"a read {log['entries']}-entry change log retains {log['text_bytes']} B, "
            f"{log['bytes_ratio']}x the {log['diff_bytes']} B of its diffs, "
            f"ceiling {LOG_BYTES_CEILING}x"
        )
        assert log["renders_per_version"] <= RENDERS_PER_VERSION_CEILING, (
            f"{log['watchers']} watchers rendered each version "
            f"{log['renders_per_version']} times, ceiling {RENDERS_PER_VERSION_CEILING}"
        )
        assert log["span_answer_ms"] <= log["dict_span_answer_ms"], (
            f"a {log['span_versions']}-version span took {log['span_answer_ms']} ms, "
            f"composing the diffs {log['dict_span_answer_ms']} ms"
        )


def test_incremental(benchmark):
    report = benchmark.pedantic(run_incremental_bench, rounds=1, iterations=1)
    check_floors(report)
    benchmark.extra_info["best_append_speedup"] = report["best_append_speedup"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small window; assert correctness invariants and exit",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="also run the streaming legs: coalesced vs individual appends, "
        "the max_window policy invariant, the per-phase cost of a window "
        "advance, and the change feed's watch log",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate the report just written with check_floors()",
    )
    args = parser.parse_args(argv)
    report = run_incremental_bench(smoke=args.smoke, streaming=args.streaming)
    print(
        f"mushroom @ sup={report['min_support']} "
        f"({report['n_transactions']} txns, store={report['candidate_store']}):"
    )
    for leg in report["appends"]:
        mode = (
            f"rebuild ({leg['rebuild_reason']})"
            if leg["full_rebuild"]
            else f"{leg['levels_delta']} delta / {leg['levels_remined']} re-mined"
        )
        print(
            f"  +{leg['n_delta']} rows ({leg['append_frac']:.1%}): update "
            f"{leg['update_wall_s']}s ({leg['diff_cost_ratio']}x diff-less) vs "
            f"re-mine {leg['full_remine_wall_s']}s "
            f"= {leg['speedup_vs_remine']}x  [{mode}]"
        )
    slide = report["slide"]
    print(
        f"  slide +/-{slide['n_delta']} rows: {slide['slide_wall_s']}s vs "
        f"re-mine {slide['full_remine_wall_s']}s = {slide['speedup_vs_remine']}x"
    )
    if "streaming" in report:
        stream = report["streaming"]
        print(
            f"  coalesce {stream['k_appends']}x{stream['rows_per_append']} rows: "
            f"{stream['coalesced_wall_s']}s vs {stream['individual_wall_s']}s "
            f"individual = {stream['coalesce_speedup']}x"
        )
        policy = stream["policy"]
        print(
            f"  policy max_window={policy['max_window']}: peak "
            f"{policy['peak_window']}, retired "
            f"{policy['retired_transactions']} (warm == cold re-mine)"
        )
        advance = stream["advance"]
        print(
            f"  advance +/-{advance['n_delta']} rows on {advance['window']}: slide "
            f"{advance['slide_ms']} ms, diff text {advance['diff_text_ms']} ms, "
            f"family text {advance['family_text_ms']} ms "
            f"(cold build {advance['cold_build_ms']} ms)"
        )
        log = stream["watch_log"]
        print(
            f"  watch log of {log['entries']}: read {log['text_bytes']} B vs "
            f"{log['diff_bytes']} B of diffs = {log['bytes_ratio']}x; "
            f"{log['renders_per_version']} renders/version with {log['watchers']} "
            f"watchers; {log['span_versions']}-version span {log['span_answer_ms']} ms "
            f"({'reset' if log['span_reset'] else 'composed'}) vs "
            f"{log['dict_span_answer_ms']} ms composing diffs"
        )
        memory = stream["memory"]
        print(
            f"  memory after {memory['ops']} ops: server {memory['server_pss_kb']} kB + "
            f"owner {memory['owner_pss_kb']} kB = {memory['total_pss_kb']} kB Pss"
        )
    print(
        f"best append speedup: {report['best_append_speedup']}x; family diff "
        f"costs {report['diff_cost_ratio']}x a diff-less update"
    )
    if args.check:
        check_floors(report)
    print(f"wrote {report_path(REPORT, args.smoke)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
