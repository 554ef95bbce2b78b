"""Wall-clock instrumentation."""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic timestamp used for event-log ordering."""
    return time.perf_counter()
