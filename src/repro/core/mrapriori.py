"""MRApriori — the paper's baseline: level-wise Apriori on MapReduce.

This is the PApriori algorithm of Li et al. (SNPD'12) / the SPC algorithm
of Lin et al. (ICUIMC'12), which the paper uses as its comparison point:
**every Apriori level is a separate MapReduce job** whose mappers count
candidate occurrences over the transaction file re-read from the DFS and
whose reducers sum and threshold the counts, writing L_k back to the DFS.
The per-iteration DFS round-trip (plus job startup) is the cost YAFIM's
cached RDDs eliminate.

The module also hosts the shared driver for the FPC and DPC variants
(Lin et al.): those combine several candidate *levels* into one job —
candidates for level k+1 are generated speculatively from the *candidate*
set C_k (a superset of L_k, so completeness is preserved), trading extra
candidate counting for fewer job startups.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable

from repro.cluster.simulation import StageRecord
from repro.common.errors import MiningError
from repro.common.itemset import Itemset, canonical_transaction, min_support_count
from repro.common.sizeof import estimate_size
from repro.core.candidates import apriori_gen, join_step, prune_step
from repro.core.candidatestore import get_store, make_store
from repro.core.results import IterationStats, MiningRunResult
from repro.mapreduce.job import JobSpec, Mapper, Reducer
from repro.mapreduce.runner import JobMetrics, JobRunner

_instances = itertools.count()

#: special key carrying the transaction count through the pass-1 job
_META_TXN_COUNT = ("__meta__", "n_transactions")


class ItemCountMapper(Mapper):
    """Pass 1 (paper Algorithm 2 analogue): one (item, 1) per occurrence,
    plus the transaction-count meta key."""

    def __init__(self, sep: str | None = None):
        self._sep = sep

    def map(self, key, value, emit):
        txn = canonical_transaction(value.split(self._sep))
        if not txn:
            return
        emit(_META_TXN_COUNT, 1)
        for item in txn:
            emit((item,), 1)


class CandidateCountMapper(Mapper):
    """Pass k >= 2 (paper Algorithm 3 analogue): ``C_t = subset(C_k, t)``
    against the candidate structure shipped via the distributed cache."""

    def __init__(self, sep: str | None = None):
        self._sep = sep
        self._matcher = None

    def setup(self, config):
        self._matcher = config["__cache__"]["matcher"]

    def map(self, key, value, emit):
        txn = canonical_transaction(value.split(self._sep))
        for cand in self._matcher.subset(txn):
            emit(cand, 1)


class SumCombiner(Reducer):
    def reduce(self, key, values, emit):
        emit(key, sum(values))


class SumReducer(Reducer):
    """Sums counts; prunes below ``threshold`` when one is configured
    (pass 1 cannot prune in-job because N is only known afterwards)."""

    def __init__(self):
        self._threshold: int | None = None

    def setup(self, config):
        self._threshold = config.get("threshold")

    def reduce(self, key, values, emit):
        total = sum(values)
        if key == _META_TXN_COUNT or self._threshold is None or total >= self._threshold:
            emit(key, total)


def _format_itemset_line(key, value) -> str:
    if key == _META_TXN_COUNT:
        return f"__N__\t{value}"
    return " ".join(str(i) for i in key) + f"\t{value}"


def _parse_itemset_lines(lines: list[str]) -> tuple[dict[Itemset, int], int | None]:
    itemsets: dict[Itemset, int] = {}
    n_txn: int | None = None
    for line in lines:
        key_text, count_text = line.rsplit("\t", 1)
        if key_text == "__N__":
            n_txn = int(count_text)
        else:
            itemsets[tuple(key_text.split(" "))] = int(count_text)
    return itemsets, n_txn


#: strategy signature: (next level k, current frequent level) -> how many
#: candidate levels to combine into the next job (>= 1)
CombineStrategy = Callable[[int, dict], int]


def spc_strategy(_k: int, _level: dict) -> int:
    """Single Pass Counting: one level per job (MRApriori behaviour)."""
    return 1


def fpc_strategy(n: int = 3) -> CombineStrategy:
    """Fixed Passes Combined-counting: always combine ``n`` levels."""

    def strategy(_k: int, _level: dict) -> int:
        return n

    return strategy


def dpc_strategy(candidate_budget: int = 50_000) -> CombineStrategy:
    """Dynamic Passes Combined-counting: combine levels while the
    *projected* total candidate count stays under a budget (Lin et al. use
    the previous pass's elapsed time; a candidate budget is the
    deterministic equivalent)."""

    def strategy(_k: int, level: dict) -> int:
        # Project |C| growth from the current level size; each speculative
        # level roughly squares the branching at worst, so be conservative.
        projected = max(1, len(level))
        n = 1
        while n < 8:
            projected = projected * max(1, min(len(level), 16))
            if projected > candidate_budget:
                break
            n += 1
        return n

    return strategy


class MRApriori:
    """Driver for level-wise Apriori over the MapReduce runtime.

    Parameters
    ----------
    runner:
        :class:`~repro.mapreduce.runner.JobRunner` bound to the mini-DFS
        holding the transaction file.
    num_reducers:
        Reducers per job.
    candidate_store:
        Name of a registered :mod:`repro.core.candidatestore` store; one
        store per combined candidate level rides the distributed cache.
        The default ships a hash tree (the paper baseline's
        hash-tree-in-DistributedCache idiom); ``linear`` a flat list.
    combine_strategy:
        SPC (default), FPC or DPC level-combining policy.
    work_dir:
        DFS directory receiving per-level outputs.
    """

    algorithm_name = "mrapriori"

    def __init__(
        self,
        runner: JobRunner,
        num_reducers: int = 2,
        combine_strategy: CombineStrategy = spc_strategy,
        work_dir: str = "/mrapriori",
        sep: str | None = None,
        candidate_store: str = "hashtree",
    ):
        self.runner = runner
        self.num_reducers = num_reducers
        get_store(candidate_store)  # fail in the driver, not a map task
        self.candidate_store = candidate_store
        self.combine_strategy = combine_strategy
        self.work_dir = work_dir.rstrip("/")
        self.sep = sep
        self._run_seq = 0
        # distinct instances over one DFS must not collide on output dirs
        self._instance = next(_instances)

    # -- public ----------------------------------------------------------------
    def run(
        self,
        input_path: str,
        min_support: float,
        max_length: int | None = None,
    ) -> MiningRunResult:
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        result = MiningRunResult(
            algorithm=self.algorithm_name, min_support=min_support, n_transactions=0
        )
        result.trace = self.runner.tracer
        self._run_seq += 1
        out_base = f"{self.work_dir}/i{self._instance}r{self._run_seq}"

        # ---- pass 1: one MR job over the raw transaction file ----------
        t0 = time.perf_counter()
        job = JobSpec(
            name="apriori-pass1",
            input_paths=[input_path],
            output_path=f"{out_base}/L1",
            mapper_factory=lambda: ItemCountMapper(self.sep),
            reducer_factory=SumReducer,
            combiner_factory=SumCombiner,
            num_reducers=self.num_reducers,
            output_formatter=_format_itemset_line,
        )
        job_result = self.runner.run(job)
        raw, n_txn = _parse_itemset_lines(self._read_output(job.output_path))
        if n_txn is None or n_txn == 0:
            raise MiningError("pass 1 found no transactions")
        threshold = min_support_count(min_support, n_txn)
        level = {iset: c for iset, c in raw.items() if c >= threshold}
        result.n_transactions = n_txn
        result.itemsets.update(level)
        result.iterations.append(
            self._iteration_stats(1, time.perf_counter() - t0, -1, len(level), [job_result.metrics])
        )

        # ---- passes k >= 2 -------------------------------------------------
        k = 2
        while level and (max_length is None or k <= max_length):
            t0 = time.perf_counter()
            n_levels = max(1, self.combine_strategy(k, level))
            with self.runner.tracer.span(f"apriori_gen k={k}", "driver", n_seed=len(level)):
                candidate_levels = self._generate_candidate_levels(level, n_levels)
            candidates = [c for lvl in candidate_levels for c in lvl]
            if not candidates:
                break
            with self.runner.tracer.span(
                f"store_build k={k}", "driver",
                n_candidates=len(candidates), store=self.candidate_store,
            ):
                matcher = _MultiLevelStore(candidate_levels, self.candidate_store)
            cache_bytes = estimate_size(matcher)
            job = JobSpec(
                name=f"apriori-pass{k}",
                input_paths=[input_path],
                output_path=f"{out_base}/L{k}",
                mapper_factory=lambda: CandidateCountMapper(self.sep),
                reducer_factory=SumReducer,
                combiner_factory=SumCombiner,
                num_reducers=self.num_reducers,
                config={"threshold": threshold},
                distributed_cache={"matcher": matcher},
                output_formatter=_format_itemset_line,
            )
            job_result = self.runner.run(job)
            counted, _ = _parse_itemset_lines(self._read_output(job.output_path))
            # split combined output back into per-length levels
            new_levels: dict[int, dict] = {}
            for iset, count in counted.items():
                new_levels.setdefault(len(iset), {})[iset] = count
            seconds = time.perf_counter() - t0
            n_counted_levels = len(candidate_levels)
            for offset in range(n_counted_levels):
                lvl_k = k + offset
                lvl = new_levels.get(lvl_k, {})
                result.itemsets.update(lvl)
                result.iterations.append(
                    self._iteration_stats(
                        lvl_k,
                        seconds / n_counted_levels,  # job time amortized per level
                        len(candidate_levels[offset]),
                        len(lvl),
                        [job_result.metrics] if offset == 0 else [],
                        # the distributed cache ships the candidate structure
                        # once per node, the MapReduce analogue of broadcast
                        broadcast_bytes=cache_bytes if offset == 0 else 0,
                    )
                )
                level = lvl
                if max_length is not None and lvl_k >= max_length:
                    level = {}
                    break
                if not lvl:
                    break
            k += n_counted_levels
        return result

    # -- internals --------------------------------------------------------------
    def _generate_candidate_levels(self, level: dict, n_levels: int) -> list[list[Itemset]]:
        """C_k from L_{k-1}, then speculative C_{k+1} from C_k, ...

        Speculative levels prune against the previous *candidate* set, a
        superset of the true frequent set, so no frequent itemset is lost.
        """
        levels: list[list[Itemset]] = []
        current: list[Itemset] = apriori_gen(level.keys())
        while current and len(levels) < n_levels:
            levels.append(current)
            prev_set = set(current)
            current = sorted(set(prune_step(join_step(current), prev_set)))
        return levels

    def _read_output(self, path: str) -> list[str]:
        from repro.mapreduce.runner import read_job_output

        return read_job_output(self.runner.dfs, path)

    def _iteration_stats(
        self, k: int, seconds: float, n_candidates: int, n_frequent: int,
        job_metrics: list[JobMetrics], broadcast_bytes: int = 0,
    ) -> IterationStats:
        records = []
        read = written = shuffled = 0
        durations: list[float] = []
        for m in job_metrics:
            records.append(
                StageRecord(
                    label=f"pass{k}/map",
                    task_durations=m.map_task_durations,
                    input_bytes=m.hdfs_read_bytes,
                    shuffle_bytes=m.shuffle_bytes,
                )
            )
            records.append(
                StageRecord(
                    label=f"pass{k}/reduce",
                    task_durations=m.reduce_task_durations,
                    output_bytes=m.hdfs_write_bytes,
                )
            )
            read += m.hdfs_read_bytes
            written += m.hdfs_write_bytes
            shuffled += m.shuffle_bytes
            durations.extend(m.map_task_durations)
            durations.extend(m.reduce_task_durations)
        mean = sum(durations) / len(durations) if durations else 0.0
        return IterationStats(
            k=k,
            seconds=seconds,
            n_candidates=n_candidates,
            n_frequent=n_frequent,
            stage_records=records,
            broadcast_bytes=broadcast_bytes,
            hdfs_read_bytes=read,
            hdfs_write_bytes=written,
            shuffle_bytes=shuffled,
            # no RDD cache on MapReduce: every pass re-reads the DFS, which
            # is exactly the cost YAFIM's §IV-B caching removes
            cache_hit_rate=0.0,
            straggler_ratio=max(durations) / mean if durations and mean > 0 else 0.0,
        )


class _MultiLevelStore:
    """One candidate store per candidate length, queried in sequence.

    Combined-counting jobs (FPC/DPC) ship candidates of several lengths
    in one distributed-cache payload; stores hold same-length itemsets,
    so each level gets its own store built through the pluggable
    :func:`repro.core.candidatestore.make_store` factory.
    """

    def __init__(self, candidate_levels: list[list[Itemset]], store: str = "hashtree"):
        self.stores = [make_store(store, lvl) for lvl in candidate_levels if lvl]

    def subset(self, txn) -> list[Itemset]:
        out: list[Itemset] = []
        for store in self.stores:
            out.extend(store.subset(txn))
        return out
