"""Lineage introspection: debug strings and networkx export.

Fault tolerance in the engine is lineage-based (lost cached partitions are
recomputed from ancestors), and these helpers make the lineage inspectable
— both for tests and for the docs' Fig.-1/Fig.-2-style diagrams of the
YAFIM dataflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.dependencies import NarrowDependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.engine.rdd import RDD


def to_networkx(rdd: "RDD") -> nx.DiGraph:
    """Directed lineage graph: edges point parent -> child."""
    import networkx as nx  # only this export needs it; the engine does not

    g = nx.DiGraph()

    def visit(node: "RDD") -> None:
        if g.has_node(node.id):
            return
        g.add_node(
            node.id,
            type=type(node).__name__,
            partitions=node.num_partitions,
            cached=node.storage_level is not None,
        )
        for dep in node.dependencies:
            visit(dep.rdd)
            kind = "shuffle" if isinstance(dep, ShuffleDependency) else "narrow"
            g.add_edge(dep.rdd.id, node.id, kind=kind)

    visit(rdd)
    return g


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
    g = to_networkx(rdd)
    shuffles = sum(1 for _u, _v, d in g.edges(data=True) if d["kind"] == "shuffle")
    return shuffles + 1


def explain(rdd: "RDD") -> str:
    """Execution-plan preview: the stages a job on ``rdd`` would run.

    Walks the lineage exactly like the DAG scheduler does — cutting at
    shuffle dependencies — and prints one block per stage with the RDDs
    pipelined into it, in execution order (parents before children).

    >>> # doctest-style sketch:
    >>> # Stage 0 (shuffle-map, 4 tasks): ParallelCollectionRDD[0] -> ...
    >>> # Stage 1 (result, 2 tasks): ShuffledRDD[2]
    """
    from repro.engine.dependencies import ShuffleDependency

    stages: list[tuple[str, list[str], int]] = []
    seen_shuffles: set[int] = set()

    def pipeline_of(node: "RDD") -> list[str]:
        """RDDs pipelined into the stage ending at ``node`` (post-order)."""
        names: list[str] = []

        def visit(r: "RDD") -> None:
            for dep in r.dependencies:
                if isinstance(dep, ShuffleDependency):
                    schedule_parent(dep)
                else:
                    visit(dep.rdd)
            names.append(f"{type(r).__name__}[{r.id}]")

        visit(node)
        return names

    def schedule_parent(dep) -> None:
        if dep.shuffle_id in seen_shuffles:
            return
        seen_shuffles.add(dep.shuffle_id)
        names = pipeline_of(dep.rdd)
        stages.append(
            (f"shuffle-map (shuffle {dep.shuffle_id})", names, dep.rdd.num_partitions)
        )

    final_names = pipeline_of(rdd)
    stages.append(("result", final_names, rdd.num_partitions))
    lines = []
    for i, (kind, names, n_tasks) in enumerate(stages):
        lines.append(f"Stage {i} [{kind}, {n_tasks} task(s)]:")
        lines.append("  " + " -> ".join(names))
    return "\n".join(lines)
