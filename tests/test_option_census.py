"""Option census: how many independently settable values each public
surface has, against a pinned table.

Every on/off option doubles the configurations tests and benchmarks must
cover, so "no option added" is a number here, not a reviewer's grep: a PR
that adds (or removes) one edits ``PINNED`` in its own diff.  CI prints
the table after the net-LOC report (``python -m tests.test_option_census``).

Counted: a dataclass's fields; a callable's named parameters (``self``
aside; a ``**kwargs`` that only forwards is counted where it lands —
``ShardRouter`` / ``MiningServer`` forward theirs to ``MiningService``);
a CLI subcommand's flags and positionals (``--help`` aside).
"""

import argparse
import dataclasses
import inspect

from repro.cli import build_parser
from repro.core.registry import MiningConfig, run_algorithm
from repro.engine.context import Context
from repro.mapreduce.runner import JobRunner
from repro.serve import CostPlanner, MiningServer, MiningService, ShardRouter
from repro.serve.jobworker import JobWorker

PINNED = {
    "MiningConfig": 9,
    "MiningService": 8,
    "ShardRouter": 8,
    "MiningServer": 7,
    "CostPlanner": 0,
    "Context": 6,
    "JobWorker": 2,
    "JobRunner": 2,  # the MapReduce runner: dfs, tracer
    "run_algorithm": 2,
    "repro mine": 17,
    "repro generate": 4,
    "repro compare": 9,
    "repro serve": 11,
    "repro submit": 28,
    "repro watch": 9,
}


def _parameters(func) -> int:
    named = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    params = inspect.signature(func).parameters.values()
    return sum(p.kind in named and p.name != "self" for p in params)


def census() -> dict[str, int]:
    counts = {"MiningConfig": len(dataclasses.fields(MiningConfig))}
    surfaces = (MiningService, ShardRouter, MiningServer, CostPlanner, Context, JobWorker, JobRunner)
    for cls in surfaces:
        counts[cls.__name__] = _parameters(cls.__init__)
    counts["run_algorithm"] = _parameters(run_algorithm)
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in commands.choices.items():
        counts[f"repro {name}"] = sum(
            not isinstance(a, argparse._HelpAction) for a in sub._actions
        )
    return counts


def test_no_option_was_added_or_removed_without_editing_the_table():
    assert census() == PINNED


if __name__ == "__main__":
    counted = census()
    for surface, n in counted.items():
        print(f"{surface:16s} {n:3d}" + ("" if PINNED.get(surface) == n else "  != pinned"))
    print(f"{'total':16s} {sum(counted.values()):3d}")
