"""Extension bench — fault-tolerance overhead (§II-B's lineage claim).

The paper adopts Spark partly because "RDDs can achieve fault-tolerance
based on lineage information rather than replication".  This bench
quantifies both halves on a full YAFIM run:

* a healthy run vs a run with injected task failures (retry overhead),
* a run whose cached transaction partitions are repeatedly dropped
  (lineage-recomputation overhead) — the replication-free recovery path.

Results must be identical in every scenario.
"""

from __future__ import annotations

import time

from conftest import write_report
from repro.bench.reporting import format_table
from repro.core import Yafim
from repro.datasets import mushroom_like
from repro.engine import Context
from repro.engine.storage import BlockId

SUP = 0.35


def _timed_run(configure=None):
    ds = mushroom_like(scale=0.08, seed=7)
    with Context(backend="serial") as ctx:
        if configure:
            configure(ctx)
        t0 = time.perf_counter()
        result = Yafim(ctx, num_partitions=8).run(ds.transactions, SUP)
        wall = time.perf_counter() - t0
        injected = ctx.fault_injector.injected
        retried = sum(1 for t in ctx.event_log.tasks if t.kind.startswith("failed_"))
    return result, wall, injected, retried


class _CacheDropper(Yafim):
    """Drops every cached block before each phase-II iteration."""

    def _build_matcher(self, candidates):
        bm = self.ctx.block_manager
        for block in list(bm._mem):
            bm.drop_block(BlockId(block.rdd_id, block.partition))
        return super()._build_matcher(candidates)


def _timed_cache_loss_run():
    ds = mushroom_like(scale=0.08, seed=7)
    with Context(backend="serial") as ctx:
        t0 = time.perf_counter()
        result = _CacheDropper(ctx, num_partitions=8).run(ds.transactions, SUP)
        wall = time.perf_counter() - t0
    return result, wall


def test_fault_overhead(benchmark):
    def run_all():
        healthy = _timed_run()
        with_failures = _timed_run(
            lambda ctx: (
                # post-completion failures: the work runs, then is lost
                # (every default-dataflow pass is one result stage)
                ctx.fault_injector.fail_task(stage_kind="result", times=10, when="after"),
            )
        )
        cache_loss = _timed_cache_loss_run()
        return healthy, with_failures, cache_loss

    healthy, with_failures, cache_loss = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    (h_res, h_wall, _hi, _hr) = healthy
    (f_res, f_wall, f_injected, f_retried) = with_failures
    (c_res, c_wall) = cache_loss

    assert f_res.itemsets == h_res.itemsets, "failures must not change results"
    assert c_res.itemsets == h_res.itemsets, "cache loss must not change results"
    assert f_injected == 10 and f_retried == 10

    rows = [
        ("healthy", h_wall, 0, "—"),
        ("10 injected task failures", f_wall, f_retried, f"{f_wall / h_wall:.2f}x"),
        ("cache dropped every pass", c_wall, 0, f"{c_wall / h_wall:.2f}x"),
    ]
    table = format_table(
        ["scenario", "wall (s)", "retried tasks", "overhead"],
        rows,
        title="Fault-tolerance overhead [mushroom, sup=35%] — identical outputs",
    )
    write_report("fault_overhead", table)
    benchmark.extra_info["failure_overhead"] = round(f_wall / h_wall, 2)
    benchmark.extra_info["cache_loss_overhead"] = round(c_wall / h_wall, 2)

    # recovery is cheap relative to replication-style redundancy: even
    # losing 10 completed tasks or dropping the whole cache every pass
    # costs far less than a 2x replicated execution would
    assert f_wall > h_wall * 0.9  # failures genuinely waste work now
    assert c_wall < 3.0 * h_wall
    assert f_wall < 2.5 * h_wall