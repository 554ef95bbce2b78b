"""DistEclat — parallel Eclat on the RDD engine (related-work extension).

The paper's related work highlights Dist-Eclat (Moens et al., IEEE Big
Data 2013): distribute frequent *prefixes* over workers, then let each
worker mine its prefix's conditional database depth-first over vertical
tid-sets.  This module implements that scheme on the same engine YAFIM
runs on, giving the library a second parallel miner with a completely
different traversal (depth-first, candidate-free) — measured fastest on
small dense inputs (DESIGN.md choice 25) and yet another cross-check of
YAFIM's output.

Algorithm:

1. the driver, which already holds every canonical row, lays them out
   vertically with :func:`~repro.core.candidatestore.build_tid_bitmaps`
   (``item -> tid-bitmap``) and keeps the frequent items — Dist-Eclat's
   "find frequent singletons" step, by popcount,
2. frequent items become mining *prefixes*, hash-partitioned across the
   cluster; each prefix's job ships with the bitmaps of the items that
   can extend it (items greater in the total order),
3. each partition mines its prefixes depth-first by intersection,
   entirely locally — no shuffle at all (k-phase Apriori's per-level
   synchronisation is gone, which is the point of the design).

The vertical layout is the one :class:`~repro.core.candidatestore.BitmapStore`
counts Apriori-family passes over: a big-int tid-*bitmap* per item,
intersected with ``&`` and counted with ``int.bit_count()`` — the
RDD-Eclat speedup (PAPERS.md, arxiv 1912.06415).
:mod:`repro.algorithms.eclat` keeps plain tid-sets, as the independent
oracle.  The miner is candidate-free, so ``MiningConfig.candidate_store``
does not reach it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.common.errors import MiningError
from repro.common.itemset import canonical_transaction, min_support_count
from repro.core.candidatestore import build_tid_bitmaps
from repro.core.results import MiningRunResult, engine_iteration_stats
from repro.engine.context import Context
from repro.engine.tracing import collect_engine_metrics


class DistEclat:
    """Prefix-distributed parallel Eclat bound to an engine context.

    Parameters
    ----------
    ctx:
        Engine context (any backend).
    num_partitions:
        How many prefix groups to mine in parallel.
    """

    def __init__(self, ctx: Context, num_partitions: int | None = None):
        self.ctx = ctx
        self.num_partitions = num_partitions or ctx.default_parallelism

    def run(
        self,
        transactions: Iterable[Sequence],
        min_support: float,
        max_length: int | None = None,
    ) -> MiningRunResult:
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        txns = [canonical_transaction(t) for t in transactions]
        if not txns:
            raise MiningError("cannot mine an empty transaction database")
        n = len(txns)
        threshold = min_support_count(min_support, n)
        result = MiningRunResult(
            algorithm="dist_eclat", min_support=min_support, n_transactions=n
        )

        # ---- phase 1: vertical layout + frequent singletons (driver) ----
        t0 = time.perf_counter()
        bitmaps = {
            item: bm for item, bm in build_tid_bitmaps(txns).items()
            if bm.bit_count() >= threshold
        }
        singletons = {(item,): bm.bit_count() for item, bm in bitmaps.items()}
        result.itemsets.update(singletons)
        result.iterations.append(
            engine_iteration_stats(
                (),  # no engine task: the driver laid the rows out
                k=1,
                seconds=time.perf_counter() - t0,
                n_candidates=-1,
                n_frequent=len(singletons),
            )
        )
        if max_length is not None and max_length <= 1:
            self._attach_observability(result)
            return result

        # ---- phase 2: distribute prefixes, mine depth-first locally ------
        t0 = time.perf_counter()
        mark = self.ctx.event_log.mark()
        order = sorted(bitmaps)
        jobs = []
        for idx, item in enumerate(order):
            tail = order[idx + 1 :]
            if tail:
                jobs.append((item, tail))
        bc_bitmaps = self.ctx.broadcast(bitmaps)

        def mine_prefix(job, _bc=bc_bitmaps, _thr=threshold, _max=max_length):
            item, tail = job
            tids = _bc.value
            found: list[tuple] = []

            def extend(prefix, prefix_tids, tail_items):
                # intersection is a C-speed word-wise AND, support one popcount
                for j, nxt in enumerate(tail_items):
                    new_tids = prefix_tids & tids[nxt]
                    support = new_tids.bit_count()
                    if support < _thr:
                        continue
                    new_prefix = prefix + (nxt,)
                    found.append((new_prefix, support))
                    if _max is None or len(new_prefix) < _max:
                        extend(new_prefix, new_tids, tail_items[j + 1 :])

            extend((item,), tids[item], tail)
            return found

        mined = (
            self.ctx.parallelize(jobs, self.num_partitions)
            .flat_map(mine_prefix)
            .collect()
        )
        result.itemsets.update(dict(mined))
        result.iterations.append(
            engine_iteration_stats(
                self.ctx.event_log.tasks_since(mark),
                k=2,  # one parallel depth-first phase covers all levels >= 2
                seconds=time.perf_counter() - t0,
                n_candidates=len(jobs),
                n_frequent=len(mined),
                broadcast_bytes=bc_bitmaps.size_bytes,
            )
        )
        bc_bitmaps.destroy()
        self._attach_observability(result)
        return result

    def _attach_observability(self, result: MiningRunResult) -> None:
        result.trace = self.ctx.tracer
        result.engine_metrics = collect_engine_metrics(self.ctx)
