"""Benchmark harness: paired runs, cluster replays, text reporting."""

from repro.bench.harness import (
    ComparisonRun,
    replay_mr,
    replay_mr_per_pass,
    replay_yafim,
    replay_yafim_per_pass,
    run_comparison,
    sizeup_series,
    speedup_series,
)
from repro.bench.reporting import format_table, sparkline
from repro.bench.sweeps import SweepPoint, partition_sweep, support_sweep

__all__ = [
    "ComparisonRun",
    "SweepPoint",
    "format_table",
    "replay_mr",
    "replay_mr_per_pass",
    "replay_yafim",
    "replay_yafim_per_pass",
    "run_comparison",
    "sizeup_series",
    "partition_sweep",
    "sparkline",
    "speedup_series",
    "support_sweep",
]
