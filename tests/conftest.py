"""Session-wide checks."""

import multiprocessing
import time

import pytest

import tests.plugin_stores  # noqa: F401 - registers the suite's third-party stores


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


@pytest.fixture()
def tid_bitmap_builds(monkeypatch):
    """Rows per ``build_tid_bitmaps`` call made while the fixture lives —
    what "laid out once" is measured in (in-process callers only)."""
    from repro.core import candidatestore, incremental

    calls: list = []
    real = candidatestore.build_tid_bitmaps

    def counted(rows, *args, **kwargs):
        calls.append(len(rows))
        return real(rows, *args, **kwargs)

    for module in (candidatestore, incremental):
        monkeypatch.setattr(module, "build_tid_bitmaps", counted)
    return calls
