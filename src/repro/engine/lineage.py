"""Lineage introspection: a debug string and a stage count.

Fault tolerance in the engine is lineage-based (lost cached partitions are
recomputed from ancestors), and these helpers make the lineage inspectable
— the tour prints it, and the YAFIM lineage tests count its stages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.dependencies import NarrowDependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


def debug_string(rdd: "RDD") -> str:
    """Spark-style indented lineage dump (children above parents)."""
    lines: list[str] = []

    def visit(node: "RDD", depth: int) -> None:
        marker = " [cached]" if node.storage_level is not None else ""
        lines.append(
            f"{'  ' * depth}({node.num_partitions}) {type(node).__name__}[{node.id}]{marker}"
        )
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                lines.append(f"{'  ' * (depth + 1)}+- shuffle {dep.shuffle_id}")
                visit(dep.rdd, depth + 2)
            else:
                assert isinstance(dep, NarrowDependency)
                visit(dep.rdd, depth + 1)

    visit(rdd, 0)
    return "\n".join(lines)


def stage_count(rdd: "RDD") -> int:
    """Number of stages a job on ``rdd`` would run (shuffles + 1)."""
    shuffles = 0
    seen: set[int] = set()
    pending = [rdd]
    while pending:
        node = pending.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for dep in node.dependencies:
            shuffles += isinstance(dep, ShuffleDependency)
            pending.append(dep.rdd)
    return shuffles + 1
