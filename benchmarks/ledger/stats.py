"""Order statistics shared by every workload and by ``--compare``.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, the same call the acceptance driver uses, so a spread computed
here is the spread the driver computes.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(q1, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of the observed samples."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


#: consecutive ops averaged into one sample where one op's latency is a
#: mixture of modes (README "Why some medians are taken over blocks")
BLOCK = 8


def block_means(values: list[float]) -> list[float]:
    """Mean of each full block of ``BLOCK`` consecutive values (a
    series shorter than one block is one short block)."""
    if 0 < len(values) < BLOCK:
        return [sum(values) / len(values)]
    return [
        sum(values[i:i + BLOCK]) / BLOCK
        for i in range(0, len(values) - BLOCK + 1, BLOCK)
    ]


def summary(values) -> dict:
    """Sample count, quartiles and extremes of one timing series."""
    if not values:
        return {"n": 0}
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": float(min(values)),
        "q1": q1,
        "p50": median(values),
        "q3": q3,
        "max": float(max(values)),
    }


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0
