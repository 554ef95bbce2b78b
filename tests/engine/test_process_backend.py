"""Process-pool executor specifics: cloudpickled tasks, preloaded inputs.

The process backend runs tasks in worker processes that cannot see the
driver's block/shuffle/broadcast managers; the scheduler must resolve all
driver-resident inputs into the shipped task.  These tests exercise each
resolution path.
"""

import pytest

from repro.engine import Context
from repro.hdfs import MiniDfs


@pytest.fixture()
def pctx():
    with Context(backend="processes", parallelism=2) as c:
        yield c


class TestProcessBackend:
    def test_text_file(self, pctx, tmp_path):
        with MiniDfs(root_dir=str(tmp_path), n_datanodes=2, block_size=32) as dfs:
            lines = [f"line-{i}" for i in range(20)]
            dfs.write_lines("/f", lines)
            assert pctx.text_file(dfs, "/f").collect() == lines

    def test_shuffle_input_preloaded(self, pctx):
        got = (
            pctx.parallelize([(i % 3, 1) for i in range(30)], 4)
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        assert got == {0: 10, 1: 10, 2: 10}

    def test_chained_shuffles(self, pctx):
        got = (
            pctx.parallelize([(i % 3, i) for i in range(30)], 4)
            .group_by_key()
            .map_values(len)
            .map(lambda kv: (kv[1], 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        assert got == {10: 3}

    def test_broadcast_value_ships(self, pctx):
        bc = pctx.broadcast({"mult": 5})
        got = pctx.parallelize([1, 2, 3], 3).map(lambda x, b=bc: x * b.value["mult"]).collect()
        assert got == [5, 10, 15]

    def test_cached_block_preloaded_on_second_job(self, pctx):
        rdd = pctx.parallelize(range(20), 4).map(lambda x: x * 2).cache()
        assert rdd.sum() == 380  # computes + caches back to driver
        assert pctx.block_manager.cached_block_count == 4
        assert rdd.sum() == 380  # served from preloaded driver blocks

    def test_cogroup_preloads_both_sides(self, pctx):
        a = pctx.parallelize([(1, "x"), (2, "y")], 2)
        b = pctx.parallelize([(1, "z")], 2)
        got = sorted(a.join(b).collect())
        assert got == [(1, ("x", "z"))]

    def test_cartesian(self, pctx):
        got = sorted(
            pctx.parallelize([1, 2], 2).cartesian(pctx.parallelize("ab", 1)).collect()
        )
        assert got == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]

    def test_fault_retry(self, pctx):
        pctx.fault_injector.fail_task(stage_kind="result", partition=0, times=1)
        assert pctx.parallelize(range(10), 2).count() == 10

    def test_union_of_sources(self, pctx):
        a = pctx.parallelize([1, 2], 2)
        b = pctx.parallelize([3], 1)
        assert a.union(b).collect() == [1, 2, 3]

    def test_sort_by(self, pctx):
        data = [5, 1, 4, 2, 3]
        assert pctx.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)


DRIVER_THAT_KILLS_ITSELF = """
import multiprocessing, os, signal
from repro.engine import Context

if __name__ == "__main__":
    ctx = Context(backend="processes", parallelism=2)
    assert ctx.parallelize(range(8), 4).map(lambda x: x + 1).collect() == list(range(1, 9))
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)  # no atexit, no finally, no stop()
"""


def test_workers_do_not_outlive_a_killed_driver(tmp_path):
    """A forked worker holds the parent end of its own pipe, so EOF never
    tells it the driver is gone; the parent's sentinel does."""
    import os
    import subprocess
    import sys

    import repro
    from tests.procs import gone_within, pid_alive

    script = tmp_path / "driver.py"
    script.write_text(DRIVER_THAT_KILLS_ITSELF)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    driver = subprocess.run(
        [sys.executable, str(script)], stdout=subprocess.PIPE, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert driver.returncode == -9
    workers = [int(pid) for pid in driver.stdout.split()]
    assert len(workers) == 2
    try:
        assert gone_within(workers, 2.0) == []
    finally:
        for pid in workers:
            if pid_alive(pid):
                os.kill(pid, 9)
