"""The two execution homes of a served job, and the kill.

A job that can leave the server's interpreter runs in its worker
thread's job-worker process (rows pulled once per fingerprint, killed on
timeout or cancel, a dead worker is a transient fault); one that cannot
— an incremental job on a named dataset, a ``backend="processes"`` engine
job, a runner that exists only in this interpreter — runs on an attempt
thread here.  The
shippable runners live in :mod:`tests.serve._runners`.
"""

import glob
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.algorithms import apriori
from repro.core.api import mine_frequent_itemsets
from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.datasets import mushroom_like
from repro.engine.storage import BlockManager
from repro.hdfs import MiniDfs
from repro.serve import ApiError, HttpClient, JobState, LocalClient, MiningServer, MiningService
from repro.serve.jobworker import _remove_dir
from repro.serve.runner import shipping_request
from tests.procs import descendants, gone_within, pid_alive, wait_until_single_threaded
from tests.serve import _runners

ROWS = [[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]]
OTHER = [[4, 5], [4, 5, 6], [5, 6]]


@pytest.fixture(scope="module", autouse=True)
def shippable():
    names = ("fast", "sleepy", "spin", "die_once", "engine_sleepy", "engine_leftovers")
    for name in names:
        register_algorithm(
            f"ship_{name}", getattr(_runners, name), overwrite=True,
            needs_engine=name == "engine_sleepy",
        )
    yield
    for name in names:
        unregister_algorithm(f"ship_{name}")


def forked_service(**kwargs) -> MiningService:
    """A service whose job workers are up before its first job: they are
    forked only while this process has one thread."""
    wait_until_single_threaded()
    service = MiningService(**kwargs)
    assert all(w.pid is not None for w in service._job_workers)
    return service


@pytest.fixture
def svc():
    with forked_service(n_workers=1, result_ttl_s=60.0) as service:
        yield service


def cfg(name="fast", **options) -> MiningConfig:
    return MiningConfig(min_support=0.4, algorithm=f"ship_{name}", options=options)


def done(job, timeout=30.0):
    assert job.wait(timeout), f"{job.job_id} still {job.state}"
    assert job.state is JobState.DONE, job.error
    return job.result


def workers(service) -> dict:
    return service.metrics()["job_workers"]


def wait_for(path, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.005)


# -- (a) what ships, what stays ---------------------------------------------
class TestWhatShips:
    def test_a_built_in_job_runs_in_the_worker_and_answers_like_the_one_shot_api(self, svc):
        txns = mushroom_like(scale=0.02, seed=3).transactions
        config = MiningConfig(min_support=0.5, backend="serial")
        result = done(svc.submit(txns, config))
        one_shot = mine_frequent_itemsets(txns, config=config)
        assert result.itemsets == one_shot.itemsets
        assert result.engine_metrics.n_jobs == one_shot.engine_metrics.n_jobs > 0
        assert workers(svc) | {"ship_bytes": 0} == {
            "alive": 1, "started": 1, "restarts": 0, "killed": 0, "jobs_run": 1,
            "rows_shipped": len(txns), "ship_bytes": 0, "datasets_resident": 1,
        }
        # the crossing is one span of the job's own trace
        (span,) = [s for s in result.trace.spans if s.name == "job_worker"]
        assert span.category == "ship" and span.args["pid"] == svc._job_workers[0].pid
        assert span.args["rows_shipped"] == len(txns)
        assert 0 < span.args["worker_s"] <= span.duration_s

    def test_rows_cross_once_per_fingerprint_and_again_after_the_lru_let_go(self):
        big = [[i, i + 1, i + 2] for i in range(400)]
        # the worker's LRU gets the shard's own dataset budget: ROWS fits
        # beside nothing of big's size (the newest block always stays)
        with forked_service(n_workers=1, dataset_cache_bytes=2048) as svc:
            done(svc.submit(ROWS, cfg()))
            assert workers(svc)["rows_shipped"] == len(ROWS)
            done(svc.submit(ROWS, cfg(tag="same rows, another job")))
            assert workers(svc)["rows_shipped"] == len(ROWS)  # 0 rows shipped
            assert workers(svc)["jobs_run"] == 2
            done(svc.submit(big, cfg()))
            assert workers(svc)["datasets_resident"] == 1  # ROWS evicted
            done(svc.submit(ROWS, cfg(tag="pulled again")))
            assert workers(svc)["rows_shipped"] == 2 * len(ROWS) + len(big)

    def test_a_module_level_runner_ships_and_the_oracles_do(self, svc):
        assert _runners.ran_in(done(svc.submit(ROWS, cfg()))) == svc._job_workers[0].pid
        oracle = MiningConfig(min_support=0.4, algorithm="fpgrowth")
        assert done(svc.submit(ROWS, oracle)).itemsets == mine_frequent_itemsets(
            ROWS, config=oracle
        ).itemsets
        assert workers(svc)["jobs_run"] == 2

    def test_a_runner_of_this_interpreter_only_stays(self, svc):
        seen = []
        register_algorithm(
            "ship_closure", lambda t, c: (seen.append(os.getpid()), _runners.fast(t, c))[1],
            overwrite=True,
        )
        try:
            result = done(svc.submit(ROWS, MiningConfig(min_support=0.4, algorithm="ship_closure")))
        finally:
            unregister_algorithm("ship_closure")
        assert seen == [os.getpid()] and _runners.ran_in(result) == os.getpid()
        assert workers(svc)["jobs_run"] == 0

    def test_an_option_of_this_interpreter_only_stays(self, svc):
        gate = threading.Event()  # does not pickle
        gate.set()
        result = done(svc.submit(ROWS, cfg(gate=gate)))
        assert _runners.ran_in(result) == os.getpid()

    def test_an_incremental_job_stays(self, svc):
        """... on a named dataset: its warm miner lives in the server."""
        config = MiningConfig(min_support=0.4, incremental=True)
        svc.create_dataset("feed", ROWS)
        result = done(svc.submit(None, config, dataset_id="feed"))
        assert result.itemsets == mine_frequent_itemsets(ROWS, config=config).itemsets
        assert workers(svc)["jobs_run"] == 0

    def test_an_incremental_job_on_raw_rows_ships(self, svc):
        """Nothing warm to stay for: a cold build, out of the server's GIL."""
        txns = mushroom_like(scale=0.02, seed=3).transactions
        config = MiningConfig(min_support=0.5, incremental=True)
        result = done(svc.submit(txns, config))
        assert result.itemsets == apriori(txns, 0.5)
        (span,) = [s for s in result.trace.spans if s.name == "job_worker"]
        assert span.args["pid"] == svc._job_workers[0].pid
        assert span.args["rows_shipped"] == len(txns)
        assert workers(svc)["jobs_run"] == 1
        assert result.engine_metrics is None  # no engine context, there either

    def test_a_process_backend_engine_job_keeps_its_context_in_the_server(self, svc):
        """A job worker is a daemonic child and may not have children."""
        config = MiningConfig(min_support=0.4, backend="processes", parallelism=2)
        result = done(svc.submit(ROWS, config), 120.0)
        assert result.itemsets == mine_frequent_itemsets(
            ROWS, config=MiningConfig(min_support=0.4, backend="serial")
        ).itemsets
        assert workers(svc)["jobs_run"] == 0 and result.engine_metrics.n_jobs > 0
        assert not any(s.name == "job_worker" for s in result.trace.spans)
        # ... and for an oracle the field is inert: it ships
        oracle = MiningConfig(min_support=0.4, algorithm="eclat", backend="processes")
        done(svc.submit(ROWS, oracle))
        assert workers(svc)["jobs_run"] == 1

    def test_a_service_made_beside_live_threads_spawns_at_the_first_job_that_ships(self):
        """Forking is for a single-threaded process; the 0.4 s spawn is
        left to the first job that needs the worker."""
        parked = threading.Event()
        bystander = threading.Thread(target=parked.wait, daemon=True)
        bystander.start()
        try:
            with MiningService(n_workers=2) as svc:
                assert workers(svc) | {"jobs_run": 0} == dict.fromkeys(workers(svc), 0)
                svc.create_dataset("feed", ROWS)
                stays = MiningConfig(min_support=0.4, incremental=True)
                done(svc.submit(None, stays, dataset_id="feed"))
                assert workers(svc)["started"] == 0  # a job that stays starts nothing
                assert _runners.ran_in(done(svc.submit(ROWS, cfg()))) != os.getpid()
                assert workers(svc)["started"] == workers(svc)["alive"] == 1
        finally:
            parked.set()
            bystander.join(5.0)

    def test_the_decision_reads_the_config_as_planned(self, svc):
        job = svc.submit(ROWS, MiningConfig(min_support=0.4))
        done(job)
        planned = MiningConfig(min_support=0.4, backend="processes")
        assert shipping_request(job, job.request.config) is not None
        assert shipping_request(job, planned) is None

    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_every_home_answers_like_the_one_shot_api_on_both_transports(self, transport):
        txns = mushroom_like(scale=0.02, seed=5).transactions
        with MiningServer(port=0, n_workers=1) as server:
            client = HttpClient(server.url) if transport == "http" else LocalClient(server.service)
            for config in (
                MiningConfig(min_support=0.5),  # ships
                MiningConfig(min_support=0.5, algorithm="apriori"),  # ships
                MiningConfig(min_support=0.5, incremental=True),  # ships: raw rows
            ):
                assert client.mine(txns, config, timeout=60) == mine_frequent_itemsets(
                    txns, config=config
                ).itemsets
            bitmap = MiningConfig(min_support=0.5, candidate_store="bitmap")  # ships
            snapshot = client.submit(txns, bitmap)
            assert client.wait(snapshot["job_id"], timeout=60)["state"] == "done"
            ran = server.service.metrics()["shards"][0]["service"]["job_workers"]["jobs_run"]
            assert ran == 4


# -- (a') either home runs the one-shot call ----------------------------------
class TestServedIsOneShot:
    """``run_algorithm(rows, config)``, context built and stopped per job,
    in the job worker and in the server: same answer, same engine jobs,
    and nothing of the engine left behind for the next job."""

    PROCESSES = {"backend": "processes", "parallelism": 2}  # stays in the server

    @pytest.mark.parametrize("home", [{"backend": "serial"}, PROCESSES], ids=["ships", "stays"])
    @pytest.mark.parametrize(
        "knobs",
        [{"algorithm": name} for name in ("yafim", "rapriori", "dist_eclat")],
        ids=["yafim", "rapriori", "dist_eclat"],
    )
    def test_equals_one_shot(self, svc, knobs, home):
        """Shipped or kept in the server: the one-shot API's itemsets, its
        engine job count, its trace label."""
        txns = mushroom_like(scale=0.02, seed=3).transactions
        config = MiningConfig(min_support=0.5, **knobs, **home)
        served = done(svc.submit(txns, config), 120.0)
        one_shot = mine_frequent_itemsets(txns, config=config)
        assert served.itemsets == one_shot.itemsets
        assert served.engine_metrics.n_jobs == one_shot.engine_metrics.n_jobs > 0
        assert served.trace.label == one_shot.trace.label == "engine"
        assert workers(svc)["jobs_run"] == (home is not self.PROCESSES)

    def test_job_worker_keeps_no_context_and_no_block(self, svc):
        """Three jobs on one process leave nothing of the engine in it."""
        for support in (0.3, 0.4, 0.5):  # distinct: each really runs
            done(svc.submit(ROWS, MiningConfig(min_support=support)))
            assert os.listdir(svc._job_workers[0]._tmp) == []  # no spill directory either
        left = done(svc.submit(ROWS, cfg("engine_leftovers"))).itemsets
        assert (left[("contexts_alive",)], left[("cached_blocks",)]) == (0, 0)
        assert workers(svc) | {"ship_bytes": 0, "rows_shipped": 0} == {
            "alive": 1, "started": 1, "restarts": 0, "killed": 0, "jobs_run": 4,
            "rows_shipped": 0, "ship_bytes": 0, "datasets_resident": 1,
        }  # one process ran all four

    def test_in_server_jobs_leave_no_engine_child(self, svc):
        """A ``processes`` job's pool of engine workers ends with the job."""
        ours = set(descendants(os.getpid()))  # the job worker
        for support in (0.3, 0.4, 0.5):
            done(svc.submit(ROWS, MiningConfig(min_support=support, **self.PROCESSES)), 120.0)
            assert gone_within(set(descendants(os.getpid())) - ours, 2.0) == []
        assert workers(svc)["jobs_run"] == 0

    @pytest.mark.parametrize("end", ["timed_out", "cancelled"])
    def test_abandoned_job_stops_its_pool(self, svc, end):
        """... once its attempt thread finishes: it cannot be killed."""
        pool_up, gate = threading.Event(), threading.Event()

        def runner(ctx, txns, config):
            assert ctx.parallelize(range(4), 2).sum() == 6
            pool_up.set()
            gate.wait(30.0)
            return _runners.fast(txns, config)

        register_algorithm("engine_gate", runner, needs_engine=True, overwrite=True)
        try:
            ours = set(descendants(os.getpid()))
            config = MiningConfig(min_support=0.4, algorithm="engine_gate", **self.PROCESSES)
            if end == "timed_out":
                job = svc.submit(ROWS, config, timeout_s=0.1)
            else:
                job = svc.submit(ROWS, config)
                assert pool_up.wait(60.0) and svc.cancel(job.job_id)
            assert job.wait(10.0) and job.state.value == end
            # abandoned, not killed: the attempt thread still holds its pool
            assert pool_up.wait(60.0)
            pool = set(descendants(os.getpid())) - ours
            assert len(pool) == 2
            gate.set()
            assert gone_within(pool, 5.0) == []
        finally:
            gate.set()
            unregister_algorithm("engine_gate")
        assert done(svc.submit(ROWS, MiningConfig(min_support=0.4, **self.PROCESSES)), 120.0)


# -- (b) timeouts and cancels that kill ---------------------------------------
class TestKill:
    def test_a_timed_out_shipped_job_is_killed_and_the_next_runs_on_a_new_pid(self, svc):
        old = svc._job_workers[0].pid
        t0 = time.monotonic()
        job = svc.submit(ROWS, cfg("sleepy", seconds=30.0), timeout_s=0.3)
        assert job.wait(5.0) and job.state is JobState.TIMED_OUT
        assert time.monotonic() - t0 < 0.3 + 0.5
        assert not pid_alive(old)  # not abandoned: gone
        result = done(svc.submit(ROWS, cfg()))
        new = _runners.ran_in(result)
        assert new == svc._job_workers[0].pid != old
        assert workers(svc) | {"ship_bytes": 0} == {
            "alive": 1, "started": 2, "restarts": 1, "killed": 1, "jobs_run": 1,
            "rows_shipped": 2 * len(ROWS), "ship_bytes": 0, "datasets_resident": 1,
        }

    def test_a_cancelled_shipped_job_stops_consuming_cpu(self, svc, tmp_path):
        old = svc._job_workers[0].pid
        marker = str(tmp_path / "spinning")
        job = svc.submit(ROWS, cfg("spin", seconds=30.0, marker=marker))
        wait_for(marker)
        t0 = time.monotonic()
        assert svc.cancel(job.job_id)
        assert job.wait(5.0) and job.state is JobState.CANCELLED
        assert time.monotonic() - t0 < 0.5
        assert not pid_alive(old)
        assert _runners.ran_in(done(svc.submit(ROWS, cfg()))) not in (old, os.getpid())

    def test_a_kill_keeps_the_context_counters_and_leaves_no_temporary_file(self, svc, tmp_path):
        """A finished job's context removes its own spill directory; a job
        killed inside its engine run cannot, and the worker's
        ``tempfile.tempdir`` goes with the process instead.  The
        ``context_pool`` block counts nothing, before or after."""
        tmp = svc._job_workers[0]._tmp
        done(svc.submit(ROWS, MiningConfig(min_support=0.4, backend="serial")))
        assert os.listdir(tmp) == []
        marker = str(tmp_path / "sleeping")
        job = svc.submit(ROWS, cfg("engine_sleepy", seconds=30.0, marker=marker))
        wait_for(marker)
        assert any(name.startswith("blockmgr_") for name in os.listdir(tmp))  # its live context's
        assert svc.cancel(job.job_id)
        assert job.wait(5.0) and job.state is JobState.CANCELLED
        assert not os.path.exists(tmp)
        done(svc.submit(OTHER, MiningConfig(min_support=0.4, backend="serial")))
        assert os.listdir(svc._job_workers[0]._tmp) == []
        assert svc.metrics()["context_pool"] == {"idle": 0, "created": 0, "reused": 0}


# -- (c) followers ------------------------------------------------------------
class TestFollowersOfAShippedPrimary:
    def promoted(self, svc, primary, follower, state):
        assert follower.via == "coalesced"
        assert primary.wait(10.0) and primary.state is state, primary.error
        # promoted to a run of its own, exactly as beside an in-thread primary
        result = done(follower)
        assert follower.via == "run" and follower.coalesced_with is None
        assert _runners.ran_in(result) == svc._job_workers[0].pid

    def test_timed_out(self, svc, tmp_path):
        config = cfg("sleepy", seconds=30.0, marker=str(tmp_path / "m"))
        primary = svc.submit(ROWS, config, timeout_s=0.3)
        self.promoted(svc, primary, svc.submit(ROWS, config), JobState.TIMED_OUT)

    def test_cancelled(self, svc, tmp_path):
        marker = str(tmp_path / "m")
        config = cfg("sleepy", seconds=30.0, marker=marker)
        primary, follower = svc.submit(ROWS, config), svc.submit(ROWS, config)
        wait_for(marker)
        assert svc.cancel(primary.job_id)
        self.promoted(svc, primary, follower, JobState.CANCELLED)

    def test_worker_died(self, svc, tmp_path):
        config = cfg("die_once", marker=str(tmp_path / "m"))
        primary, follower = svc.submit(ROWS, config), svc.submit(ROWS, config)
        self.promoted(svc, primary, follower, JobState.FAILED)
        assert "transient failure after 1 attempt(s)" in primary.error


# -- fault drills -------------------------------------------------------------
class TestFaultDrills:
    def kill_nine_mid_job(self, svc, tmp_path, **request):
        marker = str(tmp_path / "sleeping")
        config = cfg("sleepy", seconds=30.0, marker=marker)
        job = svc.submit(ROWS, config, **request)
        wait_for(marker)
        os.kill(svc._job_workers[0].pid, signal.SIGKILL)
        assert job.wait(10.0)
        return job, config

    def test_kill_nine_with_a_retry_left_is_done_on_the_second_attempt(self, svc, tmp_path):
        job, _ = self.kill_nine_mid_job(svc, tmp_path, max_retries=1, retry_backoff_s=0.01)
        assert job.state is JobState.DONE and job.attempts == 2
        assert svc.jobs_by_state() == {
            "pending": 0, "running": 0, "done": 1, "failed": 0, "cancelled": 0, "timed_out": 0,
        }
        assert workers(svc)["restarts"] == 1 and workers(svc)["killed"] == 0

    def test_kill_nine_without_a_retry_fails_and_caches_nothing(self, svc, tmp_path):
        job, config = self.kill_nine_mid_job(svc, tmp_path)
        assert job.state is JobState.FAILED and job.result is None
        assert "transient failure after 1 attempt(s)" in job.error
        assert "died mid-job" in job.error
        assert svc.jobs_by_state()["failed"] == 1 and svc.jobs_by_state()["running"] == 0
        assert len(svc.results) == 0  # no stale result
        again = svc.submit(ROWS, config)  # not memoized: runs, on the new worker
        assert again.via == "run" and done(again)

    def test_a_worker_that_died_idle_costs_the_next_job_nothing(self, svc):
        done(svc.submit(ROWS, cfg()))
        worker = svc._job_workers[0]
        old = worker.pid
        os.kill(old, signal.SIGKILL)
        deadline = time.monotonic() + 2.0
        while worker.stats()["alive"]:  # (what /metrics reads: waitpid, not /proc)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        job = svc.submit(OTHER, cfg())
        assert _runners.ran_in(done(job)) != old and job.attempts == 1

    def test_shutdown_drains_a_shipped_job_wakes_its_waiter_and_leaves_no_child(self, tmp_path):
        svc = forked_service(n_workers=2)
        pids = [w.pid for w in svc._job_workers]
        marker = str(tmp_path / "sleeping")
        job = svc.submit(ROWS, cfg("sleepy", seconds=0.5, marker=marker))
        # shipped before the shutdown: a job still queued then is cancelled
        # (under load the worker thread may not have taken it yet)
        wait_for(marker)
        seen = []
        waiter = threading.Thread(target=lambda: seen.append(svc.wait(job.job_id, 20.0).state))
        waiter.start()
        t0 = time.monotonic()
        svc.shutdown()
        assert time.monotonic() - t0 < 10.0  # the drain's own bound
        waiter.join(5.0)
        assert seen == [JobState.DONE]
        assert gone_within(pids, 2.0) == []

    def test_shutdown_without_waiting_abandons_the_shipped_job_and_leaves_no_child(self, tmp_path):
        svc = forked_service(n_workers=1)
        pids = [w.pid for w in svc._job_workers]
        marker = str(tmp_path / "sleeping")
        job = svc.submit(ROWS, cfg("sleepy", seconds=30.0, marker=marker))
        wait_for(marker)
        seen = []
        waiter = threading.Thread(target=lambda: seen.append(svc.wait(job.job_id, 20.0).state))
        waiter.start()
        t0 = time.monotonic()
        svc.shutdown(wait=False)
        assert time.monotonic() - t0 < 2.0
        waiter.join(5.0)
        assert seen == [JobState.FAILED] and "stopped" in job.error
        assert gone_within(pids, 2.0) == []


    def test_a_worker_stopped_or_killed_mid_job_leaves_no_temporary_directory(
        self, tmp_path, monkeypatch
    ):
        """Each job worker's temporary files live in a directory of its own
        under the server's ``tempfile.tempdir``.  One worker stopped and
        one SIGKILLed while their engine runs hold a spill directory there
        leave nothing behind; nor does the replacement, at shutdown."""
        shared = tmp_path / "tmp"
        shared.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(shared))

        def worker_dirs() -> list:
            return sorted(glob.glob(str(shared / "repro-job-worker-*")))

        svc = forked_service(n_workers=2)
        try:
            markers = [str(tmp_path / f"sleeping-{i}") for i in range(2)]
            jobs = [
                svc.submit(ROWS, cfg("engine_sleepy", seconds=30.0, marker=m)) for m in markers
            ]
            for marker in markers:
                wait_for(marker)
            dirs = worker_dirs()
            assert len(dirs) == 2
            assert all(
                any(n.startswith("blockmgr_") for n in os.listdir(d)) for d in dirs
            )  # both engine runs are live
            stopped, killed = svc._job_workers
            stopped.stop()
            os.kill(killed.pid, signal.SIGKILL)
            for job in jobs:
                assert job.wait(10.0) and job.state is JobState.FAILED
            assert [d for d in worker_dirs() if d in dirs] == []
        finally:
            svc.shutdown()
        assert os.listdir(shared) == []


    @pytest.mark.parametrize("how", ["exit", "sigkill"])
    def test_a_worker_outliving_its_server_mid_job_removes_all_its_directory(
        self, tmp_path, how
    ):
        """The server process goes while its job worker's job keeps adding
        directories to the worker's own temporary directory: the worker,
        following its parent out, still removes the whole of it."""
        marker = tmp_path / "churning"
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        server = (
            "import os, signal, sys, time\n"
            "from repro.core.registry import MiningConfig, register_algorithm\n"
            "from repro.serve import MiningService\n"
            "from tests.serve import _runners\n"
            "register_algorithm('ship_churn', _runners.churn)\n"
            "svc = MiningService(n_workers=1)\n"
            "svc.submit([[1, 2]], MiningConfig(min_support=0.5, algorithm='ship_churn',\n"
            "           options={'marker': sys.argv[1]}))\n"
            "deadline = time.monotonic() + 30.0\n"
            "while not os.path.exists(sys.argv[1]) and time.monotonic() < deadline:\n"
            "    time.sleep(0.005)\n"
            "time.sleep(0.05)\n"
            "if sys.argv[2] == 'sigkill':\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os._exit(0)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(
            os.environ, TMPDIR=str(tmp),
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        done = subprocess.run(
            [sys.executable, "-c", server, str(marker), how], env=env, timeout=60
        )
        assert marker.exists(), done
        deadline = time.monotonic() + 10.0
        while glob.glob(str(tmp / "repro-job-worker-*")):
            assert time.monotonic() < deadline, os.listdir(tmp)
            time.sleep(0.05)

    @pytest.mark.parametrize("make, refused", [
        (BlockManager, None),
        (MiniDfs, FileNotFoundError),  # its datanodes have no root left to live in
    ], ids=["BlockManager", "MiniDfs"])
    def test_a_directory_removed_right_after_mkdtemp_is_not_made_again(
        self, tmp_path, monkeypatch, make, refused
    ):
        """A job's engine context or mini-DFS makes its directory inside
        the worker's own, which the worker's parent-watch thread may
        remove (``_remove_dir``: rename, then delete) at any moment.  Here
        the removal lands in the one window between ``mkdtemp`` and the
        next line: the old name must stay gone."""
        made = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp_then_removed(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            made.append(path)
            _remove_dir(path)
            return path

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp_then_removed)
        if refused is None:
            made_by = make()
            assert os.listdir(tmp_path) == []
            made_by.close()
        else:
            with pytest.raises(refused):
                make()
        assert len(made) == 1
        assert os.listdir(tmp_path) == []


class TestAnEngineWorkerDiesUnderAServedJob:
    """A ``backend="processes"`` job builds its context — and that context's
    pool of engine workers — in the server: the pool's own death rule
    (replace, fail the batch as retryable) is what the job sees."""

    CONFIG = {"min_support": 0.4, "backend": "processes", "parallelism": 2}

    @pytest.fixture(autouse=True)
    def engine_kill(self):
        """yafim, after one job in which the task of partition 1 SIGKILLs
        the engine worker it runs in — ``options["kills"]`` times."""
        from repro.core.registry import _run_yafim

        def runner(ctx, txns, config):
            marker, kills = config.options["marker"], config.options["kills"]

            def die(x):
                for n in range(kills if x == 1 else 0):
                    try:
                        os.close(os.open(f"{marker}.{n}", os.O_CREAT | os.O_EXCL))
                    except FileExistsError:
                        continue
                    os.kill(os.getpid(), signal.SIGKILL)
                return x

            assert ctx.parallelize(range(4), 2).map(die).sum() == 6
            return _run_yafim(ctx, txns, MiningConfig(**self.CONFIG))

        register_algorithm("engine_kill", runner, needs_engine=True, overwrite=True)
        yield
        unregister_algorithm("engine_kill")

    def submit(self, svc, tmp_path, kills, **request):
        config = MiningConfig(
            **self.CONFIG, algorithm="engine_kill",
            options={"marker": str(tmp_path / "kill"), "kills": kills},
        )
        job = svc.submit(ROWS, config, **request)
        assert job.wait(60.0), f"{job.job_id} hangs in {job.state}"
        return job

    def the_next_job_runs_and_is_right(self, svc):
        """... on a context and a pool of its own: nothing of the job
        before it is there to be inherited."""
        result = done(svc.submit(ROWS, MiningConfig(**self.CONFIG)), 60.0)
        assert result.itemsets == apriori(ROWS, 0.4)
        assert workers(svc)["jobs_run"] == 0  # all of it stayed in the server

    def test_once_is_retried_by_the_engine_and_the_job_is_done(self, svc, tmp_path):
        job = self.submit(svc, tmp_path, kills=1)
        assert job.state is JobState.DONE and job.attempts == 1, job.error
        assert job.result.itemsets == apriori(ROWS, 0.4)
        self.the_next_job_runs_and_is_right(svc)
        assert svc.jobs_by_state() | {"done": 0} == dict.fromkeys(svc.jobs_by_state(), 0)

    def test_past_the_task_retry_budget_the_job_fails_with_a_code(self, svc, tmp_path):
        job = self.submit(svc, tmp_path, kills=4)  # Context's max_task_failures
        assert job.state is JobState.FAILED and job.result is None
        assert "transient failure after 1 attempt(s)" in job.error and "died mid-job" in job.error
        with pytest.raises(ApiError) as refused:
            LocalClient(svc).result(job.job_id)
        assert (refused.value.status, refused.value.code) == (409, "not_done")
        assert len(svc.results) == 0  # no stale result
        self.the_next_job_runs_and_is_right(svc)
        assert svc.jobs_by_state()["failed"] == 1 and svc.jobs_by_state()["running"] == 0

    def test_a_serve_level_retry_outlives_it(self, svc, tmp_path):
        job = self.submit(svc, tmp_path, kills=4, max_retries=1, retry_backoff_s=0.01)
        assert job.state is JobState.DONE and job.attempts == 2, job.error
        assert job.result.itemsets == apriori(ROWS, 0.4)
