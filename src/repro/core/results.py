"""Result types shared by every parallel miner.

Both runtimes return a :class:`MiningRunResult` carrying the mined
itemsets **and** the measured per-iteration facts (wall time, candidate
counts, byte counters, replay records) that the evaluation harness plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.simulation import StageRecord
from repro.common.itemset import Itemset


@dataclass
class CompactionStats:
    """Working-set shrink measured around one encode/compact step.

    ``kind`` is ``"encode"`` for the post-Phase-I dictionary
    encode/dedupe and ``"compact"`` for a between-pass projection.
    ``txns`` counts *physical* rows (deduplicated when weighted);
    ``weight`` is the logical transaction count those rows represent.
    Byte figures use the engine's :func:`~repro.common.sizeof.estimate_size`
    — the same estimator the block manager budgets with.
    """

    kind: str
    seconds: float = 0.0
    txns_before: int = 0
    txns_after: int = 0
    items_before: int = 0
    items_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    weight_after: int = 0
    dict_items: int = 0  # dictionary alphabet size (encode rounds only)
    dict_broadcast_bytes: int = 0  # dictionary shipping cost (not pass-1 bytes)

    @property
    def txns_dropped(self) -> int:
        return self.txns_before - self.txns_after

    @property
    def bytes_saved(self) -> int:
        return self.bytes_before - self.bytes_after


@dataclass
class IterationStats:
    """Measured facts about one Apriori level (pass k)."""

    k: int
    seconds: float
    n_candidates: int
    n_frequent: int
    # replay inputs: one StageRecord per stage executed during this level
    stage_records: list[StageRecord] = field(default_factory=list)
    broadcast_bytes: int = 0  # driver -> per-node candidate shipping
    closure_bytes: int = 0  # candidate bytes shipped per task when not broadcast
    hdfs_read_bytes: int = 0
    hdfs_write_bytes: int = 0
    shuffle_bytes: int = 0
    # engine observability counters (uniform across all parallel miners)
    cache_hit_rate: float = 0.0  # block-manager hits / (hits + misses); 0.0 when uncached
    straggler_ratio: float = 0.0  # max task duration / mean task duration (>= 1.0)
    shipped_bytes: int = 0  # bytes physically serialized driver->workers this pass
    # counting observability: the shuffle counters are true shuffle
    # counters (0 on the default dataflow, which merges on the driver)
    shuffle_records: int = 0  # records written to shuffle buckets (post map-side combine)
    counting_records: int = 0  # records entering the shuffle-map combine ("allocated pairs")
    result_records: int = 0  # records result tasks returned to the driver (the partials)
    result_bytes: int = 0  # estimated bytes of those results (what the replay charges)
    compaction: CompactionStats | None = None  # working-set shrink applied after this pass
    # incremental-update observability (repro.core.incremental): how this
    # level's counts were brought current on the last append/retire
    delta_rows: int = 0  # physical (deduplicated) delta rows counted
    delta_candidates: int = 0  # candidates maintained by a delta-only pass
    full_candidates: int = 0  # candidates re-counted over the full window
    candidates_added: int = 0  # candidates that entered the level's tracked set
    candidates_dropped: int = 0  # candidates that left it (lost a frequent subset)


def engine_iteration_stats(
    tasks,
    *,
    k: int,
    seconds: float,
    n_candidates: int,
    n_frequent: int,
    broadcast_bytes: int = 0,
    closure_bytes: int = 0,
    shipped_bytes: int = 0,
    label: str | None = None,
) -> IterationStats:
    """Fold one iteration's engine task records into an :class:`IterationStats`.

    ``tasks`` is the slice of :class:`~repro.engine.metrics.TaskMetrics`
    the iteration executed (``event_log.tasks_since(mark)``); every
    engine-backed miner routes its per-pass accounting through here so
    shuffle bytes, cache hit rate and straggler ratio are reported
    uniformly.
    """
    label = label or f"pass{k}"
    by_stage: dict[int, list] = {}
    for t in tasks:
        by_stage.setdefault(t.stage_id, []).append(t)
    records = []
    shuffle_total = 0
    for stage_id in sorted(by_stage):
        ts = by_stage[stage_id]
        write = sum(t.shuffle_write_bytes for t in ts)
        records.append(
            StageRecord(
                label=f"{label}/stage{stage_id}",
                task_durations=[t.duration_s for t in ts],
                input_bytes=sum(t.input_bytes for t in ts),
                shuffle_bytes=write,
                result_bytes=sum(t.result_bytes for t in ts),
            )
        )
        shuffle_total += write
    completed = [t for t in tasks if not t.kind.startswith("failed")]
    hits = sum(t.cache_hits for t in completed)
    misses = sum(t.cache_misses for t in completed)
    durations = [t.duration_s for t in completed]
    mean = sum(durations) / len(durations) if durations else 0.0
    return IterationStats(
        k=k,
        seconds=seconds,
        n_candidates=n_candidates,
        n_frequent=n_frequent,
        stage_records=records,
        broadcast_bytes=broadcast_bytes,
        closure_bytes=closure_bytes,
        hdfs_read_bytes=sum(t.input_bytes for t in tasks),
        shuffle_bytes=shuffle_total,
        cache_hit_rate=hits / (hits + misses) if (hits + misses) else 0.0,
        straggler_ratio=max(durations) / mean if durations and mean > 0 else 0.0,
        shipped_bytes=shipped_bytes,
        shuffle_records=sum(t.records_out for t in tasks if t.kind == "shuffle_map"),
        counting_records=sum(
            t.combine_records_in for t in tasks if t.kind == "shuffle_map"
        ),
        result_records=sum(t.records_out for t in tasks if t.kind == "result"),
        result_bytes=sum(t.result_bytes for t in tasks),
    )


@dataclass
class MiningRunResult:
    """Frequent itemsets plus the per-iteration measurement trail."""

    algorithm: str
    min_support: float
    n_transactions: int
    itemsets: dict = field(default_factory=dict)  # Itemset -> count
    iterations: list[IterationStats] = field(default_factory=list)
    # observability: the run's Tracer and aggregate EngineMetrics (typed
    # loosely to keep results importable without the engine package)
    trace: object | None = field(default=None, repr=False)
    engine_metrics: object | None = field(default=None, repr=False)

    @property
    def num_itemsets(self) -> int:
        return len(self.itemsets)

    @property
    def total_seconds(self) -> float:
        return sum(it.seconds for it in self.iterations)

    @property
    def max_level(self) -> int:
        return max((len(i) for i in self.itemsets), default=0)

    def level(self, k: int) -> dict:
        return {i: c for i, c in self.itemsets.items() if len(i) == k}

    def per_iteration_seconds(self) -> list[tuple[int, float]]:
        return [(it.k, it.seconds) for it in self.iterations]

    def support(self, itemset: Itemset) -> float:
        """Relative support of a mined itemset (0.0 when not frequent)."""
        count = self.itemsets.get(tuple(sorted(itemset)), 0)
        return count / self.n_transactions if self.n_transactions else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.algorithm}: {self.num_itemsets} frequent itemsets "
            f"(minsup={self.min_support:g}, |D|={self.n_transactions}, "
            f"max level={self.max_level}, {self.total_seconds:.3f}s)"
        ]
        for it in self.iterations:
            lines.append(
                f"  pass {it.k}: {it.seconds:.4f}s  "
                f"candidates={it.n_candidates}  frequent={it.n_frequent}"
            )
        return "\n".join(lines)
