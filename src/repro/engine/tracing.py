"""Hierarchical run tracing and aggregate engine metrics.

The paper's evaluation (Figs. 3-6) is an argument about *where time goes
per iteration* — cached re-scans vs. shuffle vs. broadcast.  This module
is the observability layer that makes those mechanisms visible: every
:class:`~repro.engine.context.Context` owns a :class:`Tracer` that the
scheduler, shuffle manager, broadcast manager and block manager feed with
hierarchical spans (job -> stage -> task, plus driver-side spans such as
``apriori_gen`` and ``store_build`` emitted by the miners).

Exporters:

* :meth:`Tracer.to_chrome_trace` / :func:`export_chrome_trace` — the
  ``chrome://tracing`` (Trace Event Format) JSON; load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the timeline.
* :meth:`Tracer.to_text` — an indented plain-text rendering for
  terminals and log files.

:func:`collect_engine_metrics` folds a context's counters into one
:class:`EngineMetrics` snapshot that rides on
:class:`~repro.core.results.MiningRunResult.engine_metrics`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class Span:
    """One timed interval on one track (thread/worker lane)."""

    name: str
    category: str  # "job" | "stage" | "task" | "driver" | "broadcast" | "shuffle" | "cache" | "ship"
    start_s: float  # perf_counter timestamp
    duration_s: float
    track: str = "driver"
    args: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class InstantEvent:
    """A zero-duration marker (e.g. a task failure)."""

    name: str
    category: str
    ts_s: float
    track: str = "driver"
    args: dict = field(default_factory=dict)


class Tracer:
    """Thread-safe span collector with Chrome-trace and text exporters.

    Recording is cheap (one dataclass append under a lock); a disabled
    tracer records nothing, so instrumented code never needs to guard.
    """

    def __init__(self, enabled: bool = True, label: str = "repro"):
        self.enabled = enabled
        self.label = label
        self.origin_s = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []

    # A tracer crosses process boundaries on the result it belongs to (a
    # job worker's MiningRunResult): everything but the lock travels.
    def __getstate__(self) -> dict:
        with self._lock:
            state = self.__dict__.copy()
            state["spans"], state["instants"] = list(self.spans), list(self.instants)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def add_span(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: str = "driver",
        **args,
    ) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.spans.append(Span(name, category, start_s, duration_s, track, args))

    @contextmanager
    def span(self, name: str, category: str, track: str = "driver", **args):
        """Record the wrapped block as one span (measured on exit)."""
        if not self.enabled:
            yield self
            return
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_span(name, category, t0, time.perf_counter() - t0, track, **args)

    def instant(self, name: str, category: str, track: str = "driver", **args) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.instants.append(
                InstantEvent(name, category, time.perf_counter(), track, args)
            )

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.instants.clear()

    # -- queries -----------------------------------------------------------
    def spans_in(self, category: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.category == category]

    def categories(self) -> set[str]:
        with self._lock:
            return {s.category for s in self.spans} | {i.category for i in self.instants}

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans) + len(self.instants)

    # -- exporters ---------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """This tracer alone as a Trace Event Format document."""
        return chrome_trace_document([self])

    def to_text(self) -> str:
        """Indented per-track rendering of the recorded spans."""
        with self._lock:
            spans = list(self.spans)
        if not spans:
            return "(no spans recorded)"
        lines: list[str] = []
        for track in sorted({s.track for s in spans}):
            lines.append(f"[{track}]")
            stack: list[float] = []  # end timestamps of open ancestors
            ordered = sorted(
                (s for s in spans if s.track == track),
                key=lambda s: (s.start_s, -s.duration_s),
            )
            for s in ordered:
                while stack and s.start_s >= stack[-1] - 1e-9:
                    stack.pop()
                indent = "  " * (len(stack) + 1)
                at = (s.start_s - self.origin_s) * 1e3
                lines.append(
                    f"{indent}{s.name}  [{s.category}]  "
                    f"+{at:.3f}ms  {s.duration_s * 1e3:.3f}ms"
                )
                stack.append(s.end_s)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------
def chrome_trace_document(tracers: Iterable["Tracer"]) -> dict:
    """Merge tracers into one ``chrome://tracing`` JSON document.

    Each tracer becomes one ``pid`` (named after its label); each track
    becomes one ``tid`` within it.  Timestamps are microseconds relative
    to the earliest tracer origin, so merged documents stay aligned.
    """
    tracers = [t for t in tracers if t is not None]
    origin = min((t.origin_s for t in tracers), default=0.0)
    events: list[dict] = []
    for pid, tracer in enumerate(tracers):
        with tracer._lock:
            spans = list(tracer.spans)
            instants = list(tracer.instants)
        tracks = sorted({s.track for s in spans} | {i.track for i in instants})
        tids = {track: tid for tid, track in enumerate(tracks)}
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": tracer.label}}
        )
        for track, tid in tids.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": track}}
            )
        for s in spans:
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": (s.start_s - origin) * 1e6,
                    "dur": s.duration_s * 1e6,
                    "pid": pid,
                    "tid": tids[s.track],
                    "args": s.args,
                }
            )
        for i in instants:
            events.append(
                {
                    "name": i.name,
                    "cat": i.category,
                    "ph": "i",
                    "s": "t",
                    "ts": (i.ts_s - origin) * 1e6,
                    "pid": pid,
                    "tid": tids[i.track],
                    "args": i.args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(tracers: Iterable["Tracer"], path: str) -> str:
    """Write the merged trace of ``tracers`` to ``path``; returns ``path``."""
    document = chrome_trace_document(tracers)
    with open(path, "w") as f:
        json.dump(document, f)
    return path


def export_text_trace(tracer: "Tracer", path: str) -> str:
    with open(path, "w") as f:
        f.write(tracer.to_text() + "\n")
    return path


# ---------------------------------------------------------------------------
# Aggregate engine metrics
# ---------------------------------------------------------------------------
@dataclass
class EngineMetrics:
    """One engine run's counters, folded from every driver-side service."""

    n_jobs: int = 0
    n_stages: int = 0
    n_tasks: int = 0
    total_task_seconds: float = 0.0
    shuffle_bytes_written: int = 0
    shuffle_bytes_fetched: int = 0
    broadcast_transfers: int = 0
    broadcast_bytes: int = 0
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_spills: int = 0
    # task-shipping economics (process backend; zero on serial)
    shipped_task_bytes: int = 0
    shipped_block_bytes_pushed: int = 0
    shipped_block_bytes_pulled: int = 0
    blocks_pushed: int = 0
    blocks_pulled: int = 0
    broadcast_blocks_shipped: int = 0
    broadcast_bytes_shipped: int = 0
    ship_dedup_hits: int = 0
    ship_ref_requests: int = 0
    worker_store_evictions: int = 0
    # counting fast-path working-set shrink (filled by the miner from its
    # per-pass CompactionStats; zero when the fast path is off)
    compaction_rounds: int = 0
    compaction_txns_dropped: int = 0
    compaction_bytes_saved: int = 0

    @property
    def cache_hit_rate(self) -> float:
        hits = self.cache_memory_hits + self.cache_disk_hits
        total = hits + self.cache_misses
        return hits / total if total else 0.0

    @property
    def total_shipped_bytes(self) -> int:
        return (
            self.shipped_task_bytes
            + self.shipped_block_bytes_pushed
            + self.shipped_block_bytes_pulled
        )

    @property
    def ship_dedup_hit_rate(self) -> float:
        """Fraction of block references served from a worker-resident
        cache instead of being shipped (broadcast/block dedup)."""
        return self.ship_dedup_hits / self.ship_ref_requests if self.ship_ref_requests else 0.0

    def summary(self) -> str:
        return (
            f"jobs={self.n_jobs} stages={self.n_stages} tasks={self.n_tasks} "
            f"task_seconds={self.total_task_seconds:.3f} "
            f"shuffle_written={self.shuffle_bytes_written}B "
            f"shuffle_fetched={self.shuffle_bytes_fetched}B "
            f"broadcast={self.broadcast_transfers}x/{self.broadcast_bytes}B "
            f"cache_hit_rate={self.cache_hit_rate:.2f} "
            f"shipped={self.total_shipped_bytes}B "
            f"ship_dedup={self.ship_dedup_hit_rate:.2f}"
        ) + (
            f" compaction={self.compaction_rounds}x/"
            f"-{self.compaction_txns_dropped}txn/-{self.compaction_bytes_saved}B"
            if self.compaction_rounds else ""
        )


def collect_engine_metrics(ctx) -> EngineMetrics:
    """Snapshot a :class:`~repro.engine.context.Context`'s counters."""
    log = ctx.event_log
    shuffle = ctx.shuffle_manager.metrics
    storage = ctx.block_manager.metrics
    broadcast = ctx.broadcast_manager
    ship = getattr(ctx.executor, "shipping_metrics", None)
    ship_fields = {}
    if ship is not None:
        ship_fields = dict(
            shipped_task_bytes=ship.task_bytes,
            shipped_block_bytes_pushed=ship.block_bytes_pushed,
            shipped_block_bytes_pulled=ship.block_bytes_pulled,
            blocks_pushed=ship.blocks_pushed,
            blocks_pulled=ship.blocks_pulled,
            broadcast_blocks_shipped=ship.broadcast_blocks_shipped,
            broadcast_bytes_shipped=ship.broadcast_bytes_shipped,
            ship_dedup_hits=ship.dedup_hits,
            ship_ref_requests=ship.ref_requests,
            worker_store_evictions=ship.worker_store_evictions,
        )
    return EngineMetrics(
        n_jobs=len(log.jobs),
        n_stages=len(log.stages),
        n_tasks=len(log.tasks),
        total_task_seconds=log.total_task_seconds(),
        shuffle_bytes_written=shuffle.bytes_written,
        shuffle_bytes_fetched=shuffle.bytes_fetched,
        broadcast_transfers=broadcast.transfers,
        broadcast_bytes=broadcast.transfer_bytes,
        cache_memory_hits=storage.memory_hits,
        cache_disk_hits=storage.disk_hits,
        cache_misses=storage.misses,
        cache_evictions=storage.evictions,
        cache_spills=storage.spills,
        **ship_fields,
    )
