"""JobRunner: one RUNNING job to its outcome, against fake collaborators.

No ``MiningService`` is constructed here: the runner gets a dataset
cache, a dataset registry that records what was asked of it, and a
hand-built RUNNING :class:`Job`.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.core.results import MiningRunResult
from repro.engine.faults import InjectedTaskFailure
from repro.serve import DatasetCache, Job, JobRequest, JobRunner, JobState
from repro.serve.jobs import KeptItemsets

ROWS = [[1, 2, 3], [1, 2], [2, 3]]


def _result(txns, config) -> MiningRunResult:
    out = MiningRunResult(
        algorithm=config.algorithm, min_support=config.min_support, n_transactions=len(txns)
    )
    out.itemsets = {(1,): len(txns)}
    return out


class FakeRegistry:
    def __init__(self, answer=None):
        self.answer, self.asked = answer, []

    def warm_result(self, entry, version, n_rows, config, abandoned=None):
        self.asked.append((entry, version, n_rows))
        return self.answer


@pytest.fixture
def algo():
    registered = []

    def _register(runner, name, **kwargs):
        register_algorithm(name, runner, overwrite=True, **kwargs)
        registered.append(name)
        return name

    yield _register
    for name in registered:
        unregister_algorithm(name)


@pytest.fixture
def rig():
    datasets = DatasetCache(1 << 20)
    datasets.add(ROWS, "fp")
    registry = FakeRegistry()
    return SimpleNamespace(
        runner=JobRunner(datasets, registry), datasets=datasets, registry=registry
    )


def running_job(config, **request) -> Job:
    job = Job(
        request=JobRequest(config=config, **request),
        dataset_fingerprint="fp", job_id="job-1", _txns=ROWS,
    )
    job.state, job.started_s = JobState.RUNNING, time.monotonic()
    return job


def test_done(rig, algo):
    job = running_job(MiningConfig(min_support=0.4, algorithm=algo(_result, "run_ok")))
    state, result, error = rig.runner.run(job)
    assert (state, error) == (JobState.DONE, None)
    assert result.itemsets == {(1,): 3} and job.attempts == 1
    assert job.state is JobState.RUNNING  # recording the outcome is the service's job


def test_permanent_failure_is_not_retried(rig, algo):
    calls = []

    def broken(txns, config):
        calls.append(1)
        raise ValueError("programming error")

    job = running_job(
        MiningConfig(min_support=0.4, algorithm=algo(broken, "run_broken")), max_retries=3
    )
    state, result, error = rig.runner.run(job)
    assert state is JobState.FAILED and result is None
    assert "permanent failure after 1 attempt(s)" in error and len(calls) == 1


def test_transient_then_success_within_budget(rig, algo):
    calls = []

    def flaky(txns, config):
        calls.append(1)
        if len(calls) < 3:
            raise InjectedTaskFailure("flaky")
        return _result(txns, config)

    job = running_job(
        MiningConfig(min_support=0.4, algorithm=algo(flaky, "run_flaky")),
        max_retries=3, retry_backoff_s=0.001,
    )
    state, result, _ = rig.runner.run(job)
    assert state is JobState.DONE and job.attempts == 3 and result.itemsets


def test_retry_budget_exhausted(rig, algo):
    def faulty(txns, config):
        raise InjectedTaskFailure("always")

    job = running_job(
        MiningConfig(min_support=0.4, algorithm=algo(faulty, "run_faulty")),
        max_retries=2, retry_backoff_s=0.001,
    )
    state, _, error = rig.runner.run(job)
    assert state is JobState.FAILED and job.attempts == 3
    assert "transient failure after 3 attempt(s)" in error


def test_cancel_during_backoff(rig, algo):
    def faulty(txns, config):
        raise InjectedTaskFailure("always")

    job = running_job(
        MiningConfig(min_support=0.4, algorithm=algo(faulty, "run_backoff")),
        max_retries=5, retry_backoff_s=30.0,  # parks in the first backoff
    )
    threading.Timer(0.05, job.cancel_event.set).start()
    t0 = time.monotonic()
    state, _, error = rig.runner.run(job)
    assert (state, error) == (JobState.CANCELLED, "cancelled by client")
    assert job.attempts == 1 and time.monotonic() - t0 < 5.0


def test_deadline_during_an_attempt(rig, algo):
    release = threading.Event()
    name = algo(lambda t, c: (release.wait(10.0), _result(t, c))[1], "run_slow")
    try:
        job = running_job(MiningConfig(min_support=0.4, algorithm=name), timeout_s=0.1)
        t0 = time.monotonic()
        state, result, error = rig.runner.run(job)
        assert state is JobState.TIMED_OUT and result is None
        assert error == "timed out after 0.1s" and time.monotonic() - t0 < 5.0
    finally:
        release.set()


def test_deadline_cuts_a_backoff_short(rig, algo):
    def faulty(txns, config):
        raise InjectedTaskFailure("always")

    job = running_job(
        MiningConfig(min_support=0.4, algorithm=algo(faulty, "run_late")),
        max_retries=5, retry_backoff_s=30.0, timeout_s=0.1,
    )
    state, _, _ = rig.runner.run(job)
    assert state is JobState.TIMED_OUT and job.attempts == 1


def test_dataset_evicted_while_queued_runs_from_the_pin(rig, algo):
    rig.datasets.remove("fp")
    job = running_job(MiningConfig(min_support=0.4, algorithm=algo(_result, "run_pin")))
    state, result, _ = rig.runner.run(job)
    assert state is JobState.DONE and result.itemsets == {(1,): 3}
    assert rig.datasets.get("fp") is ROWS  # the run re-warmed the cache


def test_dataset_gone_and_no_pin_is_a_failure_not_a_crash(rig, algo):
    rig.datasets.remove("fp")
    job = running_job(MiningConfig(min_support=0.4, algorithm=algo(_result, "run_lost")))
    job._txns = None
    state, _, error = rig.runner.run(job)
    assert state is JobState.FAILED and "lost before run" in error


def test_engine_job_runs_as_planned_on_a_checked_out_context(rig, algo):
    """Keyed as asked, run as planned: the planner's knobs reach the
    algorithm and the context built for this run; the job's own config is
    untouched."""
    seen = {}

    def engine_algo(ctx, txns, config):
        seen.update(backend=config.backend, partitions=config.num_partitions, ctx=ctx)
        return _result(txns, config)

    name = algo(engine_algo, "run_engine", needs_engine=True)
    asked = MiningConfig(min_support=0.4, algorithm=name)
    job = running_job(asked)
    job.decision = SimpleNamespace(chosen={"backend": "processes", "num_partitions": 1})
    state, _, _ = rig.runner.run(job)
    assert state is JobState.DONE
    assert (seen["backend"], seen["partitions"]) == ("processes", 1)
    assert seen["ctx"].backend == "processes" and seen["ctx"]._stopped
    assert job.request.config is asked and asked.backend == "serial"


def test_incremental_job_takes_the_warm_answer_and_no_context(rig):
    warm = _result(ROWS, MiningConfig(min_support=0.4))
    rig.registry.answer = warm
    job = running_job(MiningConfig(min_support=0.4, incremental=True))
    job._dataset_entry, job.dataset_version = "entry", 7
    state, result, _ = rig.runner.run(job)
    assert state is JobState.DONE and result is warm
    # rendered here, once, as a job worker renders its answer
    assert isinstance(result.itemsets, KeptItemsets) and result.itemsets.text == "[[[1], 3]]"
    assert rig.registry.asked == [("entry", 7, len(ROWS))]


def test_incremental_job_mines_cold_when_warm_state_cannot_answer(rig):
    job = running_job(MiningConfig(min_support=0.4, incremental=True))
    job._dataset_entry, job.dataset_version = "entry", 7
    state, result, _ = rig.runner.run(job)  # FakeRegistry answers None
    assert state is JobState.DONE and result.num_itemsets > 0
    assert result.engine_metrics is None  # a cold build in this thread, no engine
