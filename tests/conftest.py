"""Session-wide checks."""

import multiprocessing
import time

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_child_process_outlives_the_session():
    """A leaked job worker or engine worker is a failed run, not a
    surprise: when the session ends, the pytest process has no live
    ``multiprocessing`` child left (each owner — ``MiningService``,
    ``Context`` — stops its own)."""
    yield
    deadline = time.monotonic() + 2.0
    while (alive := multiprocessing.active_children()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive, f"child processes outlived the test session: {alive}"
