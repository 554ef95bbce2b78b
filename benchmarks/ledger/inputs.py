"""Seeded inputs for the four workloads.

Each workload draws its rows from a *pinned pool*: the generator's shape
(attribute skews, Quest pattern pool) comes from ``POOL_SEED`` and never
changes, and ``--seed`` picks which nine tenths of the pool a run sees
and in which order.  Two seeds therefore give different transactions —
different supports near the threshold, different partitions, different
hash-tree layouts — but the same kind of lattice, so a timing compared
across seeds compares the program and not the luck of the generator
(``mushroom_like(0.8, seed)`` alone swings from 1 967 to 4 473 frequent
itemsets between seeds 3 and 4).  ``stream_window`` pins more than the
pool (see :class:`StreamRows`).  The program only ever sees the rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SEED = 7
#: share of the pool one run draws
DRAW = 0.9
#: length of the repeat client's list
REPEAT_DRAWS = 4096


def draw(pool: list, seed, n: int | None = None) -> list:
    """``n`` rows (default nine tenths) of ``pool``, in seeded order."""
    n = int(len(pool) * DRAW) if n is None else n
    return random.Random(f"ledger-{seed}").sample(pool, n)


@dataclass(frozen=True)
class BatchSize:
    generator: str  # name in repro.datasets
    pool_scale: float
    min_support: float


@dataclass(frozen=True)
class ServeMixSize:
    pool_scale: float
    n_datasets: int = 6
    n_supports: int = 40
    support_lo: float = 0.40
    support_step: float = 0.0005
    planner_fresh: int = 12


@dataclass(frozen=True)
class StreamSize:
    pool_scale: float
    window: int
    #: rows of the pinned set that are outside the window at any moment
    reserve: int = 64
    min_support: float = 0.35
    delta: int = 8
    verify_every: int = 20
    replay_deltas: int = 40


#: full sizes fit the driver's run budget on the 2-core reference box
#: (see README "Sizing"); smoke divides the scale by ten
SIZES = {
    False: {
        "batch_dense": BatchSize("mushroom_like", 0.45, 0.35),
        "batch_sparse": BatchSize("t10i4d100k_like", 0.0334, 0.006),
        "serve_mix": ServeMixSize(0.17),
        "stream_window": StreamSize(0.8, 3000),
    },
    True: {
        "batch_dense": BatchSize("mushroom_like", 0.045, 0.35),
        "batch_sparse": BatchSize("t10i4d100k_like", 0.00334, 0.03),
        "serve_mix": ServeMixSize(0.03, planner_fresh=3),
        "stream_window": StreamSize(0.08, 300, replay_deltas=8),
    },
}


def batch_rows(size: BatchSize, seed) -> list:
    import repro.datasets as datasets

    pool = getattr(datasets, size.generator)(size.pool_scale, POOL_SEED).transactions
    return draw(pool, seed)


def serve_mix_datasets(size: ServeMixSize, seed) -> tuple[list[list], list]:
    """The datasets the schedule indexes, and one more for the warm-up job."""
    from repro.datasets import mushroom_like

    pool = mushroom_like(size.pool_scale, POOL_SEED).transactions
    datasets = [draw(pool, f"{seed}-ds{i}") for i in range(size.n_datasets)]
    return datasets, draw(pool, f"{seed}-warm-up")


@dataclass(frozen=True)
class Request:
    dataset: int
    min_support: float


def serve_mix_schedule(size: ServeMixSize, seed) -> tuple[list[Request], list[float]]:
    """The two clients' lists, fully materialised before the timed section.

    The *fresh* client sends each dataset x support pair at most once, in
    seeded order.  The *repeat* client re-sends, byte for byte, a request
    that has already completed: entry ``j`` of the second list is a draw
    in [0, 1) that picks among the requests completed by then.  Both
    lists are longer than any run can consume: the timed section stops
    at its deadline, not at the end of a list.
    """
    supports = [
        round(size.support_lo + i * size.support_step, 6) for i in range(size.n_supports)
    ]
    fresh = [Request(d, s) for d in range(size.n_datasets) for s in supports]
    random.Random(f"ledger-fresh-{seed}").shuffle(fresh)
    rng = random.Random(f"ledger-repeat-{seed}")
    return fresh, [rng.random() for _ in range(REPEAT_DRAWS)]


class StreamRows:
    """The feed: an initial window, then ``delta`` rows per append.

    The feed cycles through a *pinned* set of ``window + reserve`` rows in
    seeded order, so it never runs dry, and the window is always that set
    less a sliding gap of ``reserve`` rows: every append changes every
    count, itemsets cross the threshold both ways all the time, but the
    lattice stays the same kind of lattice at every version and every
    seed.  (A window drawn from the whole pool does not: with a 3-count
    threshold step per append, the itemsets sitting at the threshold decide
    how many levels each update re-mines, and two draws differed by 2x in
    re-mined candidates and 18 % in op time.)  The window a version pinned
    is recomputable from the append count alone.
    """

    def __init__(self, size: StreamSize, seed):
        from repro.datasets import mushroom_like

        pool = mushroom_like(size.pool_scale, POOL_SEED).transactions
        pinned = draw(pool, POOL_SEED, size.window + size.reserve)
        self._rows = draw(pinned, seed, len(pinned))
        self.window = size.window
        self.delta = size.delta

    def _slice(self, start: int, stop: int) -> list:
        n = len(self._rows)
        return [self._rows[i % n] for i in range(start, stop)]

    def initial(self) -> list:
        return self._slice(0, self.window)

    def delta_rows(self, i: int) -> list:
        """Rows of the ``i``-th append (0-based)."""
        start = self.window + i * self.delta
        return self._slice(start, start + self.delta)

    def window_after(self, n_appends: int) -> list:
        """The ``max_window`` rows the dataset holds after ``n_appends``."""
        end = self.window + n_appends * self.delta
        return self._slice(end - self.window, end)
