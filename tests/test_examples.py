"""The shipped examples run: each is a script a reader copies first, so a
renamed or deleted public name must fail here, not in their hands.

``retail_market_basket`` and ``scalability_study`` are left out: each
takes about 30 s, which is a benchmark's budget, not a unit test's.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
RUN = ["quickstart", "engine_tour", "condensed_patterns", "medical_application"]
EXCLUDED = {
    "retail_market_basket": "about 30 s per run",
    "scalability_study": "about 30 s per run",
}


def test_every_example_is_run_or_excluded_by_name():
    assert {p.stem for p in EXAMPLES.glob("*.py")} == set(RUN) | set(EXCLUDED)


@pytest.mark.parametrize("name", RUN)
def test_example_exits_cleanly(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
