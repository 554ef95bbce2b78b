"""Machine-speed probe: what lets two runs on a shared box be compared.

The reference box is a shared 2-core VM whose speed drifts: whole
minutes run 1.3-1.9x slow, and every timing taken then reads 1.3-1.9x
high (README "Noise floor").  Between ops — never inside one — the
workloads time a fixed pure-Python spin.  The median of the spins taken
right around an op against ``REFERENCE_SPIN_S`` says how fast the
machine was when that op ran, and the op's time is reported at reference
speed: ``measured seconds x around(mark)``.  Around the op and not over
the run, because a slow stretch starts and ends where it likes: a run
whose last third was slow has a normal median spin and slow ops.  The
spin is benchmark code, so a change to the program cannot move it; a
program that gets 30 % slower still reads 30 % slower.  Raw measured
values are printed beside the adjusted ones.
"""

from __future__ import annotations

import time

from stats import median

SPIN_ITERATIONS = 75_000
#: median in-run spin on the quiet reference box (2-core VM, CPython 3.11.7)
REFERENCE_SPIN_S = 0.0048


class SpeedProbe:
    def __init__(self):
        self.spins: list[float] = []

    def spin(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            acc = 0
            for i in range(SPIN_ITERATIONS):
                acc += i * i % 7
            self.spins.append(time.perf_counter() - t0)

    def mark(self) -> int:
        """Where the series stands: taken when an op starts, it names the
        spins around that op."""
        return len(self.spins)

    def around(self, mark: int, reach: int) -> float:
        """Reference speed over the machine's speed (< 1 on a slow
        machine) in the ``reach`` spins before and after ``mark``."""
        return REFERENCE_SPIN_S / median(self.spins[max(0, mark - reach):mark + reach])

    def factor(self) -> float:
        """The same over every spin taken: the whole run's speed."""
        return REFERENCE_SPIN_S / median(self.spins)
