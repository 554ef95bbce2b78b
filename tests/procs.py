"""Process bookkeeping for the tests that assert nothing outlives its
parent (Linux ``/proc``), or that fork / spawn was chosen as it should."""

import threading
import time
from pathlib import Path


def pid_alive(pid: int) -> bool:
    """True while ``pid`` is a running process (a zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, children first."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(k) for k in task.read_text().split()]
            except (FileNotFoundError, ProcessLookupError):
                continue
            found += kids
            frontier += kids
    return found


def gone_within(pids, seconds: float) -> list[int]:
    """The subset of ``pids`` still alive after waiting up to ``seconds``
    for all of them to go."""
    deadline = time.monotonic() + seconds
    while True:
        alive = [pid for pid in pids if pid_alive(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.02)


def wait_until_single_threaded(seconds: float = 20.0) -> None:
    """A worker is forked only while its driver has one thread: wait out
    whatever an earlier test left running (a gate algorithm's abandoned
    attempt lives until its gate times out)."""
    deadline = time.monotonic() + seconds
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == 1, threading.enumerate()
