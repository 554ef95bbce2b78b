"""Benchmark-owned spans: recorder, call wrappers, self time, chrome trace.

Nothing under ``src/`` is instrumented.  A traced pass installs timing
wrappers *by module attribute* on a fixed table of public callables,
records one span per call (name, layer, start, end, parent, shared op
id) in memory, and removes the wrappers before the next timed section.
A layer's self time is its spans' duration minus the part their child
spans cover, so the self times of one op add up to the op's wall with no
interval counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Recorder.spans
    op: str | None = None  # shared by every span of one op / job
    thread: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink; nesting is tracked per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, op: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(name, layer, 0.0, parent=parent, op=op,
                    thread=threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, layer: str, start: float, end: float,
            op: str | None = None, parent: int | None = None) -> int:
        """Record an interval timed by the caller (no cost inside the op)."""
        span = Span(name, layer, start, end, parent, op,
                    threading.current_thread().name)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    # -- queries -----------------------------------------------------------
    def children_of(self, root: int) -> list[int]:
        """Indexes of ``root`` and every span below it."""
        keep = {root}
        for i, span in enumerate(self.spans):
            if span.parent in keep:
                keep.add(i)
        return sorted(keep)

    def self_times(self, indexes) -> dict[tuple[str, str], float]:
        """``(layer, name) -> self seconds`` over the spans at ``indexes``."""
        chosen = set(indexes)
        covered: dict[int, float] = {}
        for i in chosen:
            parent = self.spans[i].parent
            if parent in chosen:
                covered[parent] = covered.get(parent, 0.0) + self.spans[i].duration
        out: dict[tuple[str, str], float] = {}
        for i in chosen:
            span = self.spans[i]
            key = (span.layer, span.name)
            out[key] = out.get(key, 0.0) + span.duration - covered.get(i, 0.0)
        return out

    def totals(self, indexes) -> dict[tuple[str, str], float]:
        """``(layer, name) -> total seconds`` (children included)."""
        out: dict[tuple[str, str], float] = {}
        for i in indexes:
            span = self.spans[i]
            key = (span.layer, span.name)
            out[key] = out.get(key, 0.0) + span.duration
        return out

    def write_chrome_trace(self, path: str, label: str) -> None:
        """Export through the engine's own chrome-trace writer; each
        event's args carry the span's id, parent id and shared op id."""
        from repro.engine.tracing import Tracer, export_chrome_trace

        tracer = Tracer(label=label)
        tracer.origin_s = min((s.start for s in self.spans), default=tracer.origin_s)
        for i, s in enumerate(self.spans):
            tracer.add_span(s.name, s.layer, s.start, s.duration, track=s.thread,
                            id=i, parent=s.parent, op=s.op)
        export_chrome_trace([tracer], path)


# ---------------------------------------------------------------------------
# Wrappers installed by module attribute
# ---------------------------------------------------------------------------
#: (module, attribute path, layer, span name, kind) — the public callables
#: a traced batch pass times.  ``apriori_gen`` / ``make_store`` are patched
#: where :mod:`repro.core.yafim` looks them up.  ``gen`` marks a generator
#: function: its span runs from the call to its first yield (the counting
#: kernel does all its work before emitting), so per-record emission stays
#: unwrapped and costs nothing.
BATCH_WRAPPERS = (
    ("repro.engine.context", "Context.__init__", "engine.context", "start", "call"),
    ("repro.engine.context", "Context.stop", "engine.context", "stop", "call"),
    ("repro.engine.context", "Context.run_job", "engine.dag", "run_job", "call"),
    ("repro.engine.context", "Context.broadcast", "engine.broadcast", "broadcast", "call"),
    ("repro.core.yafim", "Yafim.run", "core.yafim", "run", "call"),
    ("repro.core.yafim", "apriori_gen", "core.candidates", "apriori_gen", "call"),
    ("repro.core.yafim", "make_store", "core.candidatestore", "build", "call"),
    ("repro.core.counting", "CandidateCounter.__call__", "core.candidatestore", "count", "gen"),
)


_EXHAUSTED = object()


def _wrap_call(recorder: Recorder, func, layer: str, name: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _wrap_gen(recorder: Recorder, func, layer: str, name: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer)
        try:
            inner = func(*args, **kwargs)
            first = next(inner, _EXHAUSTED)
        finally:
            recorder.close(index)
        if first is _EXHAUSTED:
            return
        yield first
        yield from inner

    return wrapper


def install(recorder: Recorder, table=BATCH_WRAPPERS):
    """Patch every entry of ``table``; returns the undo callable."""
    undo = []
    for module_name, path, layer, name, kind in table:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrap = _wrap_gen if kind == "gen" else _wrap_call
        setattr(owner, attr, wrap(recorder, original, layer, name))
        undo.append((owner, attr, original))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove
