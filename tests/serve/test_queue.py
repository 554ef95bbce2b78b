"""TenantQueue: the job tier's queue as a plain data structure.

No service, no threads, no clock: stand-in jobs carry only what the
queue reads (``request.tenant`` / ``request.priority``).  The last two
tests drive the same behaviour through :class:`MiningService`.
"""

import threading
import time
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import MiningConfig, register_algorithm, unregister_algorithm
from repro.core.results import MiningRunResult
from repro.serve import JobState, MiningService, TenantQueue


def job(tenant="default", priority=0, tag=None):
    return SimpleNamespace(request=SimpleNamespace(tenant=tenant, priority=priority), tag=tag)


def drain_order(queue):
    out = []
    while (popped := queue.pop()) is not None:
        out.append(popped)
    return out


def heap_entries(queue) -> int:
    return sum(len(lane.heap) for lane in queue._lanes.values())


# -- deficit round-robin -------------------------------------------------------
def test_equal_weights_alternate_and_late_tenant_is_not_starved():
    queue = TenantQueue()
    for i in range(4):
        queue.push(job("a", tag=f"a{i}"))
    for i in range(4):
        queue.push(job("b", tag=f"b{i}"))
    assert [j.tag for j in drain_order(queue)] == ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"]


def test_weight_two_drains_two_per_round():
    queue = TenantQueue({"a": 2.0})
    for tenant in "ab":
        for i in range(4):
            queue.push(job(tenant, tag=f"{tenant}{i}"))
    assert [j.tag[0] for j in drain_order(queue)][:6] == ["a", "a", "b", "a", "a", "b"]


backlogs = st.lists(
    st.tuples(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]), st.integers(1, 12)),
    min_size=2, max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(backlogs)
def test_each_tenants_share_of_a_full_round_is_its_weight(backlog):
    """While every tenant stays backlogged the pops come in rounds — the
    tenants in rotation order, each taking its weight ±1 job (with
    weights >= 1 nobody sits a round out, so the rounds parse exactly)."""
    weights = {f"t{i}": w for i, (w, _) in enumerate(backlog)}
    left = {f"t{i}": n for i, (_, n) in enumerate(backlog)}
    queue = TenantQueue(weights)
    for tenant, n in left.items():
        for _ in range(n):
            queue.push(job(tenant))
    popped = [j.request.tenant for j in drain_order(queue)]
    assert len(popped) == sum(n for _, n in backlog) and len(queue) == 0

    cursor = 0
    while True:
        round_counts = {}
        for tenant in weights:  # rotation order = first-push order
            taken = 0
            while cursor < len(popped) and popped[cursor] == tenant:
                taken, cursor = taken + 1, cursor + 1
            round_counts[tenant] = taken
            left[tenant] -= taken
        if min(left.values()) <= 0:
            break  # somebody ran dry in this round: no longer a full one
        for tenant, taken in round_counts.items():
            assert abs(taken - weights[tenant]) <= 1.0, (tenant, round_counts, popped)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.25, 4.0), st.integers(1, 20)), min_size=2, max_size=4))
def test_service_per_unit_weight_stays_level(backlog):
    """Any weights, fractional and below one included: while two tenants
    are both backlogged, jobs served per unit of weight never differ by
    more than one round's worth."""
    weights = {f"t{i}": w for i, (w, _) in enumerate(backlog)}
    left = {f"t{i}": n for i, (_, n) in enumerate(backlog)}
    queue = TenantQueue(weights)
    for tenant, n in left.items():
        for _ in range(n):
            queue.push(job(tenant))
    served = dict.fromkeys(weights, 0)
    while min(left.values()) > 0:
        tenant = queue.pop().request.tenant
        served[tenant] += 1
        left[tenant] -= 1
        for a in weights:
            for b in weights:
                gap = served[a] / weights[a] - served[b] / weights[b]
                assert gap <= 1.0 + 1.0 / weights[b] + 1e-9, (a, b, served, weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), max_size=30))
def test_priority_then_fifo_within_a_tenant(pushes):
    queue = TenantQueue()
    jobs = [job(tenant, priority, tag=i) for i, (tenant, priority) in enumerate(pushes)]
    for j in jobs:
        queue.push(j)
    popped = drain_order(queue)
    assert sorted(j.tag for j in popped) == list(range(len(jobs)))
    for tenant in "abc":
        mine = [(j.request.priority, j.tag) for j in popped if j.request.tenant == tenant]
        assert mine == sorted(mine)


# -- discard, len, pending -----------------------------------------------------
def test_discard_of_queued_popped_and_unknown_jobs():
    queue = TenantQueue()
    first, second, stranger = job("a", tag=1), job("a", tag=2), job("a", tag=3)
    queue.push(first)
    queue.push(second)
    assert queue.discard(first) is True and len(queue) == 1
    assert queue.discard(first) is False  # already out
    assert queue.discard(stranger) is False  # never pushed
    assert queue.pop() is second
    assert queue.discard(second) is False  # popped
    assert queue.pop() is None and len(queue) == 0 and queue.pending() == {}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(-2, 2), st.booleans()), max_size=40))
def test_len_and_pending_are_exact_under_lazy_removal(pushes):
    queue = TenantQueue()
    kept = []
    for tenant, priority, cancel in pushes:
        j = job(tenant, priority)
        queue.push(j)
        if cancel:
            assert queue.discard(j)
        else:
            kept.append(j)
        assert len(queue) == len(kept)
        assert heap_entries(queue) <= 2 * len(queue)
    expected = {}
    for j in kept:
        expected[j.request.tenant] = expected.get(j.request.tenant, 0) + 1
    assert queue.pending() == expected
    popped = drain_order(queue)
    assert len(popped) == len(kept) and {id(j) for j in popped} == {id(j) for j in kept}


def test_drain_returns_the_waiting_jobs_in_submission_order():
    queue = TenantQueue()
    jobs = [job("b", 5, tag=0), job("a", 0, tag=1), job("b", -1, tag=2), job("a", 0, tag=3)]
    for j in jobs:
        queue.push(j)
    queue.discard(jobs[1])
    assert [j.tag for j in queue.drain()] == [0, 2, 3]
    assert len(queue) == 0 and queue.pop() is None and queue.pending() == {}


# -- bounded: idle tenants leave, dead entries are collected ---------------------
def test_a_tenant_with_nothing_queued_is_not_in_the_rotation():
    queue = TenantQueue()
    for i in range(20_000):  # 20 000 tenants seen once each
        queue.push(job(f"tenant-{i}"))
        assert queue.pop() is not None
    assert not queue._lanes and not queue._tickets

    def pop_cost(q, rounds=2_000):
        t0 = time.perf_counter()
        for _ in range(rounds):
            q.push(job("steady"))
            q.pop()
        return time.perf_counter() - t0

    fresh = min(pop_cost(TenantQueue()) for _ in range(3))
    seasoned = min(pop_cost(queue) for _ in range(3))
    # at the parent every pop stepped over all 20 000 empty heaps (40x);
    # 3x leaves room for a noisy host
    assert seasoned < 3 * fresh + 0.005, (fresh, seasoned)


def test_cancelled_jobs_deep_in_a_heap_do_not_pile_up():
    queue = TenantQueue()
    resident = job("a", priority=-1)
    queue.push(resident)  # keeps the tenant's heap alive; never at risk of a pop
    for _ in range(5_000):  # submit-and-cancel, nothing ever popped
        j = job("a", priority=5)
        queue.push(j)
        queue.discard(j)
        assert heap_entries(queue) <= 2 * len(queue)
    assert len(queue) == 1 and queue.pop() is resident


# -- the same, through the service ----------------------------------------------
def _trivial(txns, config):
    out = MiningRunResult(
        algorithm=config.algorithm, min_support=config.min_support, n_transactions=len(txns)
    )
    out.itemsets = {(1,): 1}
    return out


def test_service_forgets_idle_tenants_and_cancelled_entries():
    release = threading.Event()
    register_algorithm("queue_trivial", _trivial, overwrite=True)
    register_algorithm(
        "queue_gate", lambda t, c: (release.wait(15.0), _trivial(t, c))[1], overwrite=True
    )
    try:
        with MiningService(n_workers=1) as svc:
            jobs = [
                svc.submit([[i]], MiningConfig(min_support=0.5, algorithm="queue_trivial"),
                           tenant=f"tenant-{i}")
                for i in range(300)
            ]
            assert all(j.wait(30.0) and j.state is JobState.DONE for j in jobs)
            assert not svc._queue._lanes  # 300 tenants seen, none in the rotation

            gate = svc.submit([[0]], MiningConfig(min_support=0.5, algorithm="queue_gate"))
            deadline = time.monotonic() + 10.0
            while gate.state is not JobState.RUNNING:  # the worker's pop is done
                assert time.monotonic() < deadline, gate.state
                time.sleep(0.005)
            for i in range(300):  # worker busy: submit-and-cancel piles nothing up
                queued = svc.submit(
                    [[i, i]], MiningConfig(min_support=0.5, algorithm="queue_trivial"),
                    tenant=f"churn-{i % 7}",
                )
                assert svc.cancel(queued.job_id) is True
                assert heap_entries(svc._queue) <= 2 * len(svc._queue)
            assert svc.queue_depth() == 0 and not svc._queue._lanes
            stats = svc.tenant_stats()
            assert stats["churn-0"]["pending"] == 0 and stats["churn-0"]["cancelled"] >= 42
            release.set()
            assert gate.wait(30.0)
    finally:
        release.set()
        unregister_algorithm("queue_trivial")
        unregister_algorithm("queue_gate")
