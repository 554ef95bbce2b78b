"""YAFIM — the paper's algorithm, on the RDD engine (paper §IV).

Phase I (Algorithm 2, Fig. 1)::

    input file --flatMap(getTransaction)--> Transactions (cached RDD)
               --flatMap(getItems)--> Items
               --map(item => (item, 1))--> pairs
               --reduceByKey(_ + _), filter >= minsup--> L1

Phase II (Algorithm 3, Fig. 2), for k = 2, 3, ... until L_k is empty::

    C_k  = apriori_gen(L_{k-1})            (driver)
    tree = HashTree(C_k); broadcast(tree)  (§IV-A / §IV-C)
    L_k  = Transactions.flatMap(t => tree.subset(t))
                       .map(c => (c, 1))
                       .reduceByKey(_ + _)
                       .filter(count >= minsup)

The transaction RDD is loaded once and cached (§IV-B); every iteration
re-scans it from cluster memory.  Three of the paper's design choices are
independently switchable for the ablation benchmarks: ``use_broadcast``
(A1), ``cache_transactions`` (A2) and the candidate structure (A3:
``candidate_store="linear"`` degrades the hash tree to a flat scan).

The listing above is the **paper dataflow**, kept runnable as the
structural-fidelity reference under ``paper_dataflow=True`` — the only
place a ``reduceByKey`` shuffle still runs.  By default the same two
phases run through the counting fast path instead, every pass of which
is **one shuffle-free engine job** (count distribution: local counts,
one global merge):

* Phase I is one ``run_job`` whose per-partition item counters merge on
  the driver; the same scan returns the ``(rows, items, bytes)`` summary
  the encode round reports as its "before";
* the transactions are re-encoded once over a broadcast item ->
  dense-int dictionary ordered by descending support
  (:class:`~repro.common.encoding.ItemDictionary`), infrequent items
  dropped and identical rows deduplicated into ``(txn, multiplicity)``;
* a store counts the partition layout its class declares
  (:attr:`~repro.core.candidatestore.CandidateStore.layout`), and the
  miner — the owner of the rows — lays them out once, in the round before
  the first pass the store counts: the row-wise stores read the weighted
  rows as they are, ``bitmap`` reads per-item tid-bitmaps, and either way
  that is the cached working RDD (resident in the workers' block stores
  on ``processes``);
* pass 2 over rows (``hashtree``, ``linear``) is R-Apriori's
  (:meth:`Yafim._pair_pass`): each row, projected onto L1, counts its own
  pairs, and no C2 is built, broadcast or walked;
* every other Phase II pass is one ``map_partitions`` kernel
  (:class:`~repro.core.counting.CandidateCounter`) that counts the whole
  partition inside the candidate store; one ``run_job`` brings each
  partition's int-keyed ``candidate_index -> partial_count`` dict back,
  and the driver sums the ≤ ``num_partitions`` dicts
  (:func:`~repro.core.counting.merge_counts`), thresholds and decodes
  (:meth:`Yafim._count_level`) — the same merge Phase I uses.  On a
  laid-out block that is the
  whole pass: nothing per row happens after the encode round;
* while the working RDD still holds rows, each pass is followed by a
  compaction round that drops transactions shorter than k+1 and projects
  out items in no frequent k-itemset, re-caching the shrunk RDD and
  unpersisting the old one — a row-layout optimisation, measured as a
  :class:`~repro.core.results.CompactionStats` on the pass it follows.

The candidate structure itself is pluggable: ``candidate_store``
selects any :mod:`repro.core.candidatestore` registration (hash tree by
default; ``bitmap`` is the vertical tid-bitmap kernel) — every store
yields identical itemsets by the at-most-once counting contract.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.common.encoding import ItemDictionary
from repro.common.errors import MiningError
from repro.common.itemset import canonical_transaction, min_support_count
from repro.common.sizeof import estimate_size
from repro.core.candidates import apriori_gen
from repro.core.candidatestore import get_store, make_store
from repro.core.counting import (
    CandidateCounter,
    CandidateEmitter,
    PairCounter,
    PartitionLayout,
    PartitionSummarizer,
    Phase1PartitionCounter,
    TransactionCompactor,
    TransactionEncoder,
    collect_partials,
    laid_out_summary,
    merge_counts,
)
from repro.core.results import (
    CompactionStats,
    IterationStats,
    MiningRunResult,
    engine_iteration_stats,
)
from repro.engine.context import Context
from repro.engine.rdd import RDD
from repro.engine.tracing import collect_engine_metrics


def load_transactions_rdd(ctx: Context, dfs, path: str, sep: str | None = None) -> RDD:
    """Paper Phase I entry: text file -> RDD of canonical transactions."""
    return ctx.text_file(dfs, path).map(
        lambda line: canonical_transaction(line.split(sep))
    ).filter(lambda t: len(t) > 0)


class Yafim:
    """Configured YAFIM miner bound to an engine :class:`Context`.

    Parameters
    ----------
    ctx:
        Engine context (any backend).
    num_partitions:
        Partitions for the transaction RDD and the paper dataflow's
        shuffles (default: the context's parallelism).
    use_broadcast:
        Ship candidates via a broadcast variable (paper behaviour).
        ``False`` captures them in every task closure (ablation A1).
    cache_transactions:
        Cache the transaction RDD in memory (paper behaviour).  ``False``
        recomputes/re-reads it every iteration (ablation A2); the fast
        path's working RDD — rows or laid-out block — is then never
        cached either.
    paper_dataflow:
        Run the paper's literal Fig. 1–2 dataflow — ``count()`` plus an
        item-count shuffle for Phase I, ``flatMap(subset).map((c, 1))
        .reduceByKey`` over the raw cached transactions for every
        Phase II pass — instead of the counting fast path (see module
        docstring).  The structural-fidelity reference; same itemsets.
    candidate_store:
        Name of a registered :mod:`repro.core.candidatestore` store
        (``hashtree``/``bitmap``/``linear``) for Phase II counting (a
        row-wise store's from pass 3 on the fast path); ``linear`` is
        ablation A3.  Unknown names fail fast on the driver.
    store_options:
        Keyword arguments for the store constructor (e.g. the hash
        tree's ``fanout``/``max_leaf_size``).
    """

    algorithm_name = "yafim"

    def __init__(
        self,
        ctx: Context,
        num_partitions: int | None = None,
        use_broadcast: bool = True,
        cache_transactions: bool = True,
        paper_dataflow: bool = False,
        candidate_store: str = "hashtree",
        store_options: dict | None = None,
    ):
        self.ctx = ctx
        self.num_partitions = num_partitions or ctx.default_parallelism
        self.use_broadcast = use_broadcast
        self.cache_transactions = cache_transactions
        self.paper_dataflow = paper_dataflow
        get_store(candidate_store)  # fail on the driver, not in a worker
        self.candidate_store = candidate_store
        self.store_options = dict(store_options or {})

    # -- public entry points -------------------------------------------------
    def run(
        self,
        transactions: Iterable[Sequence],
        min_support: float,
        max_length: int | None = None,
    ) -> MiningRunResult:
        """Mine an in-memory collection of transactions."""
        rdd = self.ctx.parallelize(
            [canonical_transaction(t) for t in transactions], self.num_partitions
        )
        return self.run_rdd(rdd, min_support, max_length=max_length)

    def run_text_file(
        self,
        dfs,
        path: str,
        min_support: float,
        sep: str | None = None,
        max_length: int | None = None,
    ) -> MiningRunResult:
        """Mine a transaction file stored in the mini-DFS (paper setup)."""
        return self.run_rdd(
            load_transactions_rdd(self.ctx, dfs, path, sep),
            min_support,
            max_length=max_length,
        )

    # -- the algorithm ---------------------------------------------------------
    def run_rdd(
        self,
        transactions: RDD,
        min_support: float,
        max_length: int | None = None,
    ) -> MiningRunResult:
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        result = MiningRunResult(
            algorithm=self.algorithm_name, min_support=min_support, n_transactions=0
        )

        if self.cache_transactions:
            transactions = transactions.cache()

        # ---- Phase I: frequent 1-itemsets -------------------------------
        t0 = time.perf_counter()
        mark = self.ctx.event_log.mark()
        ship_mark = self.ctx.executor.shipped_bytes_total()
        n, item_level, threshold, summary = self._phase_one(transactions, min_support)
        level = {(item,): c for item, c in item_level.items()}
        result.n_transactions = n
        result.iterations.append(
            self._iteration_stats(
                k=1,
                seconds=time.perf_counter() - t0,
                n_candidates=-1,  # pass 1 counts raw items, no candidate set
                n_frequent=len(level),
                mark=mark,
                broadcast_bytes=0,
                shipped_bytes=self.ctx.executor.shipped_bytes_total() - ship_mark,
            )
        )
        result.itemsets.update(level)
        # paper dataflow: a pass's shuffle output is dead once collected
        # (the default dataflow has none to clear)
        self.ctx.clear_shuffle_outputs()

        # ---- Phase II: iterate k-frequent -> (k+1)-frequent ---------------
        if level and (max_length is None or max_length >= 2):
            self._run_phase_two(
                transactions, level, item_level, threshold, max_length, result, summary
            )
        result.trace = self.ctx.tracer
        result.engine_metrics = collect_engine_metrics(self.ctx)
        self._fold_compaction_metrics(result)
        return result

    def _phase_one(self, transactions: RDD, min_support: float):
        """Count 1-items; returns ``(n_transactions, item -> count,
        threshold, summary)`` — ``summary`` is the raw RDD's ``(rows,
        items, est_bytes)`` (``None`` under the paper dataflow, which never
        encodes)."""
        if not self.paper_dataflow:
            # Fast path: one shuffle-free job returns each partition's
            # (summary, item counter); the driver merges and thresholds.
            parts = self.ctx.run_job(transactions, Phase1PartitionCounter())
            summary = tuple(map(sum, zip(*(part_summary for part_summary, _ in parts))))
            counts = merge_counts(item_counts for _, item_counts in parts)
            n = summary[0] if summary else 0
            if n == 0:
                raise MiningError("cannot mine an empty transaction database")
            threshold = min_support_count(min_support, n)
            frequent = {i: c for i, c in counts.items() if c >= threshold}
            return n, frequent, threshold, summary
        n = transactions.count()  # materializes the cache
        if n == 0:
            raise MiningError("cannot mine an empty transaction database")
        threshold = min_support_count(min_support, n)
        item_level = (
            transactions.flat_map(lambda t: t)
            .map(lambda item: (item, 1))
            .reduce_by_key(lambda a, b: a + b, self.num_partitions)
            .filter(lambda kv: kv[1] >= threshold)
            .collect_as_map()
        )
        return n, item_level, threshold, None

    def _run_phase_two(
        self, transactions, level, item_level, threshold, max_length, result, summary
    ) -> None:
        run_bcs: list = []  # broadcasts that must outlive working-RDD recomputes
        if self.paper_dataflow:
            # the raw cached RDD flows straight into Phase II
            working, dictionary, row_summary = transactions, None, None
            enc_level = level
        else:
            dictionary = ItemDictionary.from_counts(item_level)
            working, row_summary = self._working_round(
                "encode", 1, transactions, dictionary, summary, result, run_bcs
            )
            enc_level = {dictionary.encode_itemset(i): c for i, c in level.items()}
        k = 2
        while enc_level and (max_length is None or k <= max_length):
            t0 = time.perf_counter()
            mark = self.ctx.event_log.mark()
            ship_mark = self.ctx.executor.shipped_bytes_total()
            passed = self._level_pass(k, enc_level, working, threshold)
            if passed is None:
                break
            enc_level, n_candidates, bc, bc_bytes, closure_bytes = passed
            if dictionary is not None:
                result.itemsets.update(
                    {dictionary.decode_itemset(c): n for c, n in enc_level.items()}
                )
            else:
                result.itemsets.update(enc_level)
            result.iterations.append(
                self._iteration_stats(
                    k=k,
                    seconds=time.perf_counter() - t0,
                    n_candidates=n_candidates,
                    n_frequent=len(enc_level),
                    mark=mark,
                    broadcast_bytes=bc_bytes,
                    closure_bytes=closure_bytes,
                    shipped_bytes=self.ctx.executor.shipped_bytes_total() - ship_mark,
                )
            )
            if bc is not None:
                bc.destroy()
            self.ctx.clear_shuffle_outputs()
            # compaction is a rewrite of rows: the paper dataflow (never
            # encoded) and a laid-out block (a dead item's bitmap is
            # simply never read) have no row summary and nothing to compact
            if (
                row_summary is not None
                and enc_level
                and (max_length is None or k + 1 <= max_length)
            ):
                keep = frozenset(item for itemset in enc_level for item in itemset)
                working, row_summary = self._working_round(
                    "compact", k, working, keep, row_summary, result, run_bcs
                )
            k += 1
        for bc in run_bcs:
            bc.destroy()

    def _level_pass(self, k, enc_level, working, threshold):
        """Count one candidate level against the working RDD.

        Returns ``(L_k, n_candidates, bc, bc_bytes, closure_bytes)`` or
        ``None`` when ``apriori_gen`` produced no candidates.  A pass
        :meth:`_counts_pairs` claims goes to :meth:`_pair_pass` instead.
        """
        if self._counts_pairs(k):
            return self._pair_pass(enc_level, working, threshold)
        with self.ctx.tracer.span(f"apriori_gen k={k}", "driver", n_seed=len(enc_level)):
            candidates = apriori_gen(enc_level.keys())
        if not candidates:
            return None
        with self.ctx.tracer.span(
            f"store_build k={k}", "driver",
            n_candidates=len(candidates), store=self.candidate_store,
        ):
            matcher = make_store(self.candidate_store, candidates, **self.store_options)
        bc, direct, bc_bytes, closure_bytes = self._ship(matcher, working)
        if self.paper_dataflow:
            kernel = CandidateEmitter(bc=bc, matcher=direct)
        else:
            kernel = CandidateCounter(bc=bc, matcher=direct, weighted=True)
        new_level = self._count_level(working, kernel, threshold, decode=candidates)
        return new_level, len(candidates), bc, bc_bytes, closure_bytes

    def _counts_pairs(self, k) -> bool:
        """Whether pass ``k`` counts pairs off the rows: pass 2 of the
        fast path while the working set is rows, not a laid-out block."""
        return k == 2 and not self.paper_dataflow and get_store(self.candidate_store).layout is None

    def _pair_pass(self, enc_level, working, threshold):
        """Pass 2 with no candidate set (R-Apriori's): each row counts its
        own pairs.  The encoded rows are already projected onto L1, so
        nothing ships; raw rows (the paper dataflow) are filtered by the
        frequent-item set.  Reports the C(m, 2) ``apriori_gen`` would make.
        """
        m = len(enc_level)
        bc, keep, bc_bytes, closure_bytes = None, None, 0, 0
        if self.paper_dataflow:
            frequent = frozenset(item for (item,) in enc_level)
            bc, keep, bc_bytes, closure_bytes = self._ship(frequent, working)
        kernel = PairCounter(keep_bc=bc, keep=keep, weighted=not self.paper_dataflow)
        pairs = self._count_level(working, kernel, threshold)
        return pairs, m * (m - 1) // 2, bc, bc_bytes, closure_bytes

    def _ship(self, value, working) -> tuple:
        """``value`` for one pass's tasks: ``(bc, direct, bc_bytes, closure_bytes)``.
        Without ``use_broadcast`` it rides in EVERY task's closure, as Spark's
        default ships it, charged per map task for the A1 ablation (§IV-C)."""
        if self.use_broadcast:
            bc = self.ctx.broadcast(value)
            return bc, None, bc.size_bytes, 0
        return None, value, 0, estimate_size(value) * working.num_partitions

    def _count_level(self, working, kernel, threshold, decode=None) -> dict:
        """Run one counting ``kernel`` over ``working``; the frequent keys.

        Default dataflow: ONE shuffle-free job — each partition's
        ``(key, partial)`` records come back as a dict, the driver sums
        the dicts, thresholds, and maps int keys through ``decode`` (the
        ``apriori_gen`` list :class:`CandidateCounter` indexes into).
        Paper dataflow: Fig. 2's ``reduceByKey(_ + _).filter(>= minsup)``.
        """
        counted = working.map_partitions(kernel)
        if self.paper_dataflow:
            return (
                counted.reduce_by_key(lambda a, b: a + b, self.num_partitions)
                .filter(lambda kv: kv[1] >= threshold)
                .collect_as_map()
            )
        merged = merge_counts(self.ctx.run_job(counted, collect_partials))
        if decode is None:
            return {key: c for key, c in merged.items() if c >= threshold}
        return {decode[i]: c for i, c in merged.items() if c >= threshold}

    # -- working-set management ------------------------------------------------
    def _working_round(self, kind, k, source, shipped, before, result, run_bcs):
        """The working-set round after pass ``k``: rewrite the rows, and
        lay them out if the store that counts pass ``k + 1`` reads a
        layout of its own.

        ``kind="encode"`` (after Phase I) dict-encodes, projects and
        dedupes the raw transactions over ``shipped``, the item
        dictionary; ``kind="compact"`` drops the rows too short for a
        (k+1)-candidate and the items outside ``shipped``, the items of
        L_k.  Either way the result holds weighted ``(encoded_txn,
        multiplicity)`` rows — until a store-counted pass (one
        :meth:`_counts_pairs` leaves to the store) is next and the store
        class declares a layout: then the same tasks end in
        :class:`~repro.core.counting.PartitionLayout` and what is cached
        is the block, built once, which every later pass only counts.

        ``before`` is the ``(rows, items, est_bytes[, weight])`` summary
        of ``source``.  Returns ``(working_rdd, summary)``; ``summary``
        is ``None`` once the rows are laid out (nothing left to rewrite).
        """
        t0 = time.perf_counter()
        ship_bc = None
        if self.use_broadcast:
            ship_bc = self.ctx.broadcast(shipped)
            run_bcs.append(ship_bc)
        direct = shipped if ship_bc is None else None
        if kind == "encode":
            kernel = TransactionEncoder(bc=ship_bc, dictionary=direct)
        else:
            kernel = TransactionCompactor(keep_bc=ship_bc, keep=direct, min_len=k + 1)
        working = source.map_partitions(kernel)
        layout = get_store(self.candidate_store).layout
        laid_out = layout is not None and not self._counts_pairs(k + 1)
        if laid_out:
            working = working.map_partitions(PartitionLayout(layout))
        if self.cache_transactions:
            working = working.cache()
        # one job: the rows' summary, and the cache materialized
        summarize = laid_out_summary if laid_out else PartitionSummarizer()
        after = tuple(map(sum, zip(*self.ctx.run_job(working, summarize))))
        stats = CompactionStats(
            kind=kind,
            seconds=time.perf_counter() - t0,
            txns_before=before[0], txns_after=after[0],
            items_before=before[1], items_after=after[1],
            bytes_before=before[2], bytes_after=after[2],
            weight_after=after[3],
        )
        if kind == "encode":
            stats.dict_items = len(shipped)
            stats.dict_broadcast_bytes = ship_bc.size_bytes if ship_bc is not None else 0
        result.iterations[-1].compaction = stats
        self._record_compaction_span(stats, t0, label=f"{kind} k={k}")
        if self.cache_transactions:
            source.unpersist()  # superseded by the round's working set
        return working, None if laid_out else after

    def _record_compaction_span(self, stats: CompactionStats, t0: float, label: str):
        self.ctx.tracer.add_span(
            label, "compaction", t0, stats.seconds,
            txns_before=stats.txns_before, txns_after=stats.txns_after,
            items_before=stats.items_before, items_after=stats.items_after,
            bytes_before=stats.bytes_before, bytes_after=stats.bytes_after,
        )

    def _fold_compaction_metrics(self, result) -> None:
        metrics = result.engine_metrics
        if metrics is None:
            return
        rounds = [it.compaction for it in result.iterations if it.compaction is not None]
        metrics.compaction_rounds = len(rounds)
        metrics.compaction_txns_dropped = sum(c.txns_dropped for c in rounds)
        metrics.compaction_bytes_saved = sum(c.bytes_saved for c in rounds)

    # -- helpers ---------------------------------------------------------------
    def _iteration_stats(
        self, k: int, seconds: float, n_candidates: int, n_frequent: int,
        mark: int, broadcast_bytes: int, closure_bytes: int = 0,
        shipped_bytes: int = 0,
    ) -> IterationStats:
        """Fold this iteration's engine tasks into replayable stage records."""
        return engine_iteration_stats(
            self.ctx.event_log.tasks_since(mark),
            k=k,
            seconds=seconds,
            n_candidates=n_candidates,
            n_frequent=n_frequent,
            broadcast_bytes=broadcast_bytes,
            closure_bytes=closure_bytes,
            shipped_bytes=shipped_bytes,
        )
