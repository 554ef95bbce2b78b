"""Task context — the per-attempt execution environment.

A :class:`TaskContext` is installed in a thread-local while a task runs so
that broadcast accounting and metric counters can find "the current task"
without threading it through every user function, mirroring Spark's
``TaskContext.get()``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import TaskMetrics

_local = threading.local()


class TaskContext:
    def __init__(self, metrics: "TaskMetrics", worker_id: str = "driver"):
        self.metrics = metrics
        self.worker_id = worker_id
        # Inputs resolved by the scheduler before shipping (process backend):
        self.preloaded_blocks: dict[tuple[int, int], list] = {}  # (rdd_id, part) -> data
        self.preloaded_shuffle: dict[tuple[int, int], list] = {}  # (shuffle_id, part) -> buckets
        # Outputs a worker computed for a cached RDD, returned for the
        # driver's block manager to store:
        self.cache_back: dict[tuple[int, int], list] = {}

    def __enter__(self) -> "TaskContext":
        push_task_context(self)
        return self

    def __exit__(self, *exc) -> None:
        pop_task_context()


def push_task_context(ctx: TaskContext) -> None:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(ctx)


def pop_task_context() -> None:
    _local.stack.pop()


def current_task_context() -> TaskContext | None:
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def current_worker_id() -> str:
    ctx = current_task_context()
    return ctx.worker_id if ctx is not None else "driver"
