"""Shippable test algorithms.

Module-level functions: stdlib ``pickle`` names them by import path, so
a job that uses one runs in a job-worker process (a closure or lambda —
every gate algorithm of the neighbouring test modules — cannot be named
to another process and stays in the server).  Knobs arrive through
``MiningConfig.options``; the answer says which process produced it.
"""

import os
import time

from repro.core.results import MiningRunResult


def fast(txns, config) -> MiningRunResult:
    """Returns at once: ``{(1,): |D|, ("pid", <this process>): 1}``."""
    out = MiningRunResult(
        algorithm=config.algorithm, min_support=config.min_support, n_transactions=len(txns)
    )
    out.itemsets = {(1,): len(txns), ("pid", os.getpid()): 1}
    return out


def ran_in(result) -> int:
    """The pid that ran :func:`fast` (or a runner ending in it)."""
    return next(k[1] for k in result.itemsets if k[0] == "pid")


def _first_call(config) -> bool:
    """True on the first call per ``options["marker"]`` file (created
    here); always True without a marker."""
    marker = config.options.get("marker")
    if marker is None:
        return True
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def sleepy(txns, config) -> MiningRunResult:
    """Sleeps ``options["seconds"]`` (on the first call per marker file
    only, when one is given — the file also says the sleep has begun)."""
    if _first_call(config):
        time.sleep(config.options["seconds"])
    return fast(txns, config)


def spin(txns, config) -> MiningRunResult:
    """Burns CPU for ``options["seconds"]``."""
    _first_call(config)
    deadline = time.monotonic() + config.options["seconds"]
    while time.monotonic() < deadline:
        sum(range(1000))
    return fast(txns, config)


def die_once(txns, config) -> MiningRunResult:
    """``os._exit(1)`` on the first call per marker file."""
    if _first_call(config):
        os._exit(1)
    return fast(txns, config)


def churn(txns, config) -> MiningRunResult:
    """Adds directories to this process's ``tempfile`` directory until
    that fails (the directory is gone); the marker file is written after
    the first."""
    import tempfile

    tempfile.mkdtemp()
    _first_call(config)
    while True:
        tempfile.mkdtemp()


def engine_sleepy(ctx, txns, config) -> MiningRunResult:
    """:func:`sleepy` inside an engine run: its context is live (spill
    directory and all) while it sleeps.  Register with ``needs_engine``."""
    assert ctx.parallelize(txns, 2).cache().count() == len(txns)
    return sleepy(txns, config)


def engine_leftovers(txns, config) -> MiningRunResult:
    """What earlier engine runs left behind in this process: contexts
    not stopped, cached RDD blocks still held (``{("contexts_alive",):
    n, ("cached_blocks",): n}`` beside :func:`fast`'s answer)."""
    import gc

    from repro.engine.context import Context

    contexts = [obj for obj in gc.get_objects() if isinstance(obj, Context)]
    out = fast(txns, config)
    out.itemsets[("contexts_alive",)] = sum(not ctx._stopped for ctx in contexts)
    out.itemsets[("cached_blocks",)] = sum(
        ctx.block_manager.cached_block_count for ctx in contexts
    )
    return out


def odd_trace(txns, config) -> MiningRunResult:
    """:func:`fast` with a trace whose span arguments JSON cannot carry
    as given: a ``frozenset``, and under ``options["tuple_key"]`` a dict
    keyed by a tuple."""
    from repro.engine.tracing import Tracer

    out = fast(txns, config)
    out.trace = Tracer(label="odd")
    out.trace.add_span("odd", "driver", out.trace.origin_s, 0.001, items=frozenset({1}))
    if config.options.get("tuple_key"):
        out.trace.instant("keyed", "driver", by={(1, 2): "pair"})
    return out
