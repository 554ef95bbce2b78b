"""The envelope every hand-rolled ``BENCH_*.json`` writer opens its report
with — which benchmark, at which size, of which commit, on what — and
where the report goes."""

from __future__ import annotations

import os
import platform
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: where a ``--smoke`` report goes (git-ignored): only a full-size run
#: writes the report checked in at the repo root
SMOKE_DIR = os.path.join(REPO_ROOT, "benchmarks", "out")


def report_path(filename: str, smoke: bool) -> str:
    """Where a run of this size writes ``filename`` (``BENCH_<name>.json``);
    the directory exists on return."""
    directory = SMOKE_DIR if smoke else REPO_ROOT
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, filename)


def git_sha() -> str | None:
    """The checkout's commit, ``-dirty`` when the tree has uncommitted
    changes (a report regenerated for a PR is measured before its commit
    exists); ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def envelope(benchmark: str, smoke: bool) -> dict:
    return {
        "benchmark": benchmark,
        "smoke": smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
