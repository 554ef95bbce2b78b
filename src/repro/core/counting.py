"""Per-partition counting — the one home of every exact count.

Every miner's Phase II is "build a candidate store, count it against
every transaction, threshold"; this module owns the *count* step for all
of them.  The store contract (:class:`~repro.core.candidatestore.
CandidateStore`) supplies ``count_partition`` and declares the partition
layout it reads; everything here is a thin, picklable shell around those
two facts:

* :class:`TransactionEncoder` / :class:`TransactionCompactor` /
  :class:`PartitionLayout` — the working set: rows rewritten after
  Phase I and between passes, then laid out ONCE for a store class that
  declares a layout of its own, so the cached partition is the block
  every later pass counts;
* :class:`CandidateCounter` — YAFIM's ``map_partitions`` kernel, one
  ``(candidate_index, partial_count)`` record per distinct candidate per
  partition (int keys into the driver's ``apriori_gen`` order keep the
  partials small; the driver decodes after merging);
* :func:`collect_partials` / :func:`merge_counts` — a partition's
  ``(key, partial)`` records back to the driver as one dict, and the
  driver-side sum of those dicts (every miner's merge: no shuffle);
* :func:`count_exact` — the whole pass over arbitrary-length candidates,
  in-process, for Toivonen's miner.

Every class is a top-level callable so the process backend can
cloudpickle it inside a task closure.  Each of YAFIM's kernels resolves
its shipped state exactly once per partition — through a broadcast
variable when the miner runs with ``use_broadcast`` (the paper's §IV-C
behaviour), or a direct closure capture under the A1 ablation — then
streams the partition.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, combinations, repeat

from repro.common.sizeof import estimate_size
from repro.core.candidatestore import get_store, lay_out, make_store


def _resolve(bc, direct):
    """Broadcast value when shipped by broadcast, closure capture otherwise."""
    return bc.value if bc is not None else direct


def collect_partials(_task_ctx, partition) -> dict:
    """``run_job`` function: a counting kernel's ``(key, partial)`` records
    as this partition's ``key -> partial count`` dict."""
    return dict(partition)


def merge_counts(parts) -> dict:
    """Driver-side sum of per-partition ``key -> partial count`` dicts."""
    merged: dict = {}
    get = merged.get
    for counts in parts:
        for key, c in counts.items():
            merged[key] = get(key, 0) + c
    return merged


# -- Phase I ---------------------------------------------------------------
class Phase1PartitionCounter:
    """``run_job`` kernel: one scan yields ``(summary, item -> count)``.

    Replaces the paper dataflow's two jobs (``count()`` + item-count
    shuffle) with a single shuffle-free pass; the driver merges the
    per-partition counters (:func:`merge_counts`) and applies the support
    threshold itself.  ``summary`` is the partition's ``(rows, items,
    est_bytes)`` — the "before" side of the encode round's
    :class:`~repro.core.results.CompactionStats`, read off the scan that
    is happening anyway instead of a second job over the same rows.
    """

    def __call__(self, _task_ctx, partition):
        rows = list(partition)
        counts: dict = {}
        get = counts.get
        for txn in rows:
            for item in txn:
                counts[item] = get(item, 0) + 1
        summary = (len(rows), sum(counts.values()), estimate_size(rows))
        return summary, counts


# -- working-set preparation ----------------------------------------------
class TransactionEncoder:
    """Re-encode a transaction partition after Phase I.

    Items become dense int codes ordered by descending support
    (:class:`~repro.common.encoding.ItemDictionary`), infrequent items
    are dropped, and the partition's identical encoded transactions
    collapse into ``(txn, multiplicity)`` pairs.  Transactions left with
    fewer than two items can never support a k>=2 candidate and are
    dropped.
    """

    def __init__(self, *, bc=None, dictionary=None):
        self._bc = bc
        self._dictionary = dictionary

    def __call__(self, partition):
        encode = _resolve(self._bc, self._dictionary).encode_transaction
        counts: dict = {}
        get = counts.get
        for txn in partition:
            enc = encode(txn)
            if len(enc) >= 2:
                counts[enc] = get(enc, 0) + 1
        yield from counts.items()


class TransactionCompactor:
    """Between-pass shrink of a weighted working partition.

    Projects out items that appear in no frequent k-itemset, drops
    transactions now too short to contain a (k+1)-candidate, and re-merges
    duplicates (projection creates new collisions) summing multiplicities.
    """

    def __init__(self, *, keep_bc=None, keep=None, min_len: int = 2):
        self._keep_bc = keep_bc
        self._keep = keep
        self._min_len = min_len

    def __call__(self, partition):
        keep = _resolve(self._keep_bc, self._keep)
        min_len = self._min_len
        counts: dict = {}
        get = counts.get
        for txn, weight in partition:
            proj = tuple(i for i in txn if i in keep)
            if len(proj) >= min_len:
                counts[proj] = get(proj, 0) + weight
        yield from counts.items()


def summarize_rows(rows: list) -> tuple:
    """``(rows, items, est_bytes, weight)`` of a weighted working
    partition; ``weight`` is the logical transaction count the rows
    represent (the sum of their multiplicities).  Feeds
    :class:`~repro.core.results.CompactionStats`."""
    items = sum(len(txn) for txn, _w in rows)
    weight = sum(w for _txn, w in rows)
    return len(rows), items, estimate_size(rows), weight


class PartitionSummarizer:
    """``run_job`` kernel: :func:`summarize_rows` of a weighted working
    partition; running it against a freshly cached RDD also materializes
    the cache."""

    def __call__(self, _task_ctx, partition):
        return summarize_rows(list(partition))


class PartitionLayout:
    """The last step of a working-set round whose next pass is counted by
    a store class with a layout of its own: the partition becomes ONE
    record, ``(summary, block)`` — the rows' :func:`summarize_rows`,
    taken while they are still in hand, and ``layout(rows,
    weighted=True)``, which is what gets cached and what every later
    :class:`CandidateCounter` pass reads.  A partition left with no rows
    yields an empty block.
    """

    def __init__(self, layout):
        self._layout = layout

    def __call__(self, partition):
        rows = list(partition)
        yield summarize_rows(rows), self._layout(rows, True)


def laid_out_summary(_task_ctx, partition):
    """``run_job`` function: the summary a :class:`PartitionLayout`
    record carries (and, like :class:`PartitionSummarizer`, the job that
    materializes the cache)."""
    ((summary, _block),) = partition
    return summary


# -- Phase II --------------------------------------------------------------
class CandidateCounter:
    """YAFIM's counting kernel: ``(candidate_index, partial_count)``.

    The store's ``count_partition`` aggregates the whole partition into
    one counter — no match lists, no per-match pair tuples — and the
    kernel emits one record per distinct matched candidate.  Indexes
    refer to the store's insertion order (= the driver's ``apriori_gen``
    order), so the reduced map decodes driver-side via
    ``candidates[index]``.
    """

    def __init__(self, *, bc=None, matcher=None, weighted: bool = False):
        self._bc = bc
        self._matcher = matcher
        self._weighted = weighted

    def __call__(self, partition):
        store = _resolve(self._bc, self._matcher)
        if store.layout is not None:  # the one PartitionLayout record
            ((_summary, partition),) = partition
        counts = store.count_partition(partition, weighted=self._weighted)
        index = store.candidate_index()
        for cand, n in counts.items():
            yield index[cand], n


class CandidateEmitter:
    """Paper-dataflow kernel: one ``(candidate, 1)`` pair per match.

    Fig. 2's ``flatMap(subset).map((cand, 1))`` fused into one stage, so
    ``paper_dataflow=True`` still measures the materialize-then-shuffle
    cost the counting kernel above removes.
    """

    def __init__(self, *, bc=None, matcher=None):
        self._bc = bc
        self._matcher = matcher

    def __call__(self, partition):
        subset = _resolve(self._bc, self._matcher).subset
        for txn in partition:
            for cand in subset(txn):
                yield cand, 1


class PairCounter:
    """Pass 2 without candidates: a row projected onto L1 names its C2
    matches itself.  Weight-1 rows are counted by builtins in one
    ``Counter``, only the weighted rest in a loop; ``keep``/``keep_bc``
    filter raw rows (the paper dataflow) to the frequent-item set."""

    def __init__(self, *, keep_bc=None, keep=None, weighted: bool = False):
        self._keep_bc = keep_bc
        self._keep = keep
        self._weighted = weighted

    def __call__(self, partition):
        keep = _resolve(self._keep_bc, self._keep)
        if keep is not None:
            partition = ([i for i in txn if i in keep] for txn in partition)
        ones, heavy = partition, ()
        if self._weighted:
            ones, heavy = [], []
            for txn, weight in partition:
                if weight == 1:
                    ones.append(txn)
                else:
                    heavy.append((txn, weight))
        counts = Counter(chain.from_iterable(map(combinations, ones, repeat(2))))
        get = counts.get
        for txn, weight in heavy:
            for pair in combinations(txn, 2):
                counts[pair] = get(pair, 0) + weight
        yield from counts.items()


# -- several lengths, one pass -------------------------------------------------
def count_exact(
    rows, candidates, candidate_store: str = "hashtree",
    store_options: dict | None = None,
) -> dict:
    """Exact support of arbitrary-length ``candidates`` in ONE pass.

    A store holds same-length candidates, so the candidates are grouped
    by length into one ``candidate_store`` each; the rows are laid out
    once, in that store class's layout, and every store counts the same
    block.  Zero-filled: every candidate — seen or not — gets an entry.
    """
    candidates = list(candidates)
    by_len: dict[int, list] = defaultdict(list)
    for cand in candidates:
        by_len[len(cand)].append(cand)
    counts: dict = {}
    if by_len:
        rows = rows if isinstance(rows, list) else list(rows)
        block = lay_out(get_store(candidate_store), rows)
        for _, cands in sorted(by_len.items()):
            store = make_store(candidate_store, cands, **(store_options or {}))
            counts.update(store.count_partition(block))
    return {cand: counts.get(cand, 0) for cand in candidates}
