#!/usr/bin/env python3
"""A tour of the RDD engine YAFIM runs on.

Everything the paper's §II-B describes — lazy transformations, lineage,
in-memory caching, broadcast variables — demonstrated directly against
the engine's public API, plus the mini-DFS integration.

Run:  python examples/engine_tour.py
"""

from repro.engine import Context, StorageLevel, debug_string
from repro.hdfs import MiniDfs

with Context(backend="processes", parallelism=2) as ctx:
    # --- transformations are lazy, actions execute -----------------------
    words = ctx.parallelize(
        "the quick brown fox jumps over the lazy dog the end".split(), 4
    )
    counts = (
        words.map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .sort_by(lambda kv: -kv[1])
    )
    print("Word counts:", counts.take(4))

    # --- lineage: the DAG the scheduler cuts into stages -------------------
    print("\nLineage of the wordcount RDD:")
    print(debug_string(counts))

    # --- caching: compute once, reuse across actions (paper §IV-B) --------
    expensive = words.map(lambda w: (w, len(w) ** 2)).persist(StorageLevel.MEMORY_ONLY)
    expensive.count()  # materializes the cache
    expensive.collect()  # served from memory
    m = ctx.block_manager.metrics
    print(f"\nCache: {m.memory_hits} hits, {m.misses} misses after two actions")

    # --- broadcast: one copy per worker, not per task (paper §IV-C) -------
    stopwords = ctx.broadcast({"the", "over"})
    kept = words.filter(lambda w, b=stopwords: w not in b.value).distinct().collect()
    print(f"Broadcast filter kept: {sorted(kept)}")
    print(f"Broadcast transfers: {ctx.broadcast_manager.transfers} (<= 2 workers)")

    # --- accumulators ------------------------------------------------------
    chars = ctx.accumulator(0)
    words.foreach(lambda w, a=chars: a.add(len(w)))
    print(f"Accumulated character count: {chars.value}")

    # --- joins and cogroup ---------------------------------------------------
    prices = ctx.parallelize([("fox", 9.5), ("dog", 3.0)], 2)
    lengths = words.distinct().map(lambda w: (w, len(w)))
    print("Join:", sorted(lengths.join(prices).collect()))

    # --- fault tolerance: injected failures are retried transparently ------
    ctx.fault_injector.fail_task(stage_kind="result", times=2)
    assert words.count() == 11
    print(f"Survived {ctx.fault_injector.injected} injected task failures")

    # --- the mini-DFS round trip -------------------------------------------
    with MiniDfs(n_datanodes=3, block_size=64, replication=2) as dfs:
        counts.map(lambda kv: f"{kv[0]}\t{kv[1]}").save_as_text_file(dfs, "/out")
        back = ctx.text_file(dfs, "/out/part-00000").collect()
        print(f"\nRound-tripped through the mini-DFS: {back[:3]} ...")
        print(f"DFS stored {dfs.metrics.bytes_written} bytes across 3 datanodes")

    # --- every job left an audit trail ---------------------------------------
    log = ctx.event_log
    print(
        f"\nEvent log: {len(log.jobs)} jobs, {len(log.tasks)} tasks, "
        f"{log.total_task_seconds() * 1e3:.1f} ms of task time"
    )
