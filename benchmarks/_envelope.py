"""The envelope every hand-rolled ``BENCH_*.json`` writer opens its report
with: which benchmark, at which size, of which commit, on what."""

from __future__ import annotations

import os
import platform
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
