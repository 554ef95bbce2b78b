"""Seeded random-number helpers.

Every stochastic component (dataset generators, fault injection, shuffle
sampling) takes an explicit seed and derives child generators through
:func:`spawn`, so whole experiments are reproducible bit-for-bit while
sub-components stay statistically independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# numpy loads inside the two functions that need it: every engine and
# serving module imports this one for ``stable_hash`` alone, and mining
# never draws a random number.


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, passing Generators through."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators."""
    import numpy as np

    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def stable_hash(value: object, salt: int = 0) -> int:
    """Deterministic hash, stable across processes and Python runs.

    Python's builtin ``hash`` is randomised per process for ``str`` — unusable
    for shuffle partitioning that must agree between the driver and
    process-pool executors.  CRC32 over the repr (C-speed, well mixed for
    partitioning purposes) keeps this off the profile; it showed up hot
    when implemented as pure-Python FNV-1a.
    """
    import zlib

    data = repr(value).encode("utf-8", "surrogatepass")
    return zlib.crc32(data, salt & 0xFFFFFFFF)
