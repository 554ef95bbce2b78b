"""Shard-routing front-end: N mining services behind one submit surface.

``ShardRouter`` is the "millions of users" story for ``repro.serve``:
instead of one process-wide queue and worker pool, jobs spread across N
in-process :class:`~repro.serve.service.MiningService` shards.

* **Cache affinity.**  Jobs route by consistent-hashed
  ``dataset_fingerprint`` (:class:`~repro.serve.shard.HashRing`, virtual
  nodes), so every dataset has one *home shard* that keeps its
  ``DatasetCache`` / ``ResultCache`` warm — the ~110x memoization win
  only exists when repeat traffic for a dataset lands on the same
  shard.  Routing is deterministic: same fingerprint, same home shard,
  across restarts.
* **Spill.**  When the home shard's queue is full, the job walks the
  ring (next distinct shards in ring order) and runs cold on the first
  shard with room — latency over rejection, but affinity first.
* **Admission control.**  Every shard queue is bounded
  (``queue_limit``); when the whole preference chain is saturated the
  router raises :class:`~repro.serve.jobs.RejectedError`, which the
  HTTP front-end maps to ``429`` + ``Retry-After``.  Queue depth — and
  therefore memory — stays bounded under any overload.
* **Load shedding.**  Above ``shed_at`` global queue utilization,
  low-priority jobs (``priority > shed_priority``) are rejected
  immediately, preserving the remaining slots for important traffic.
* **Planning.**  An optional :class:`~repro.serve.planner.CostPlanner`
  is handed to every shard; the shard that accepts a job plans it
  (``{"candidate_store": "bitmap", "num_partitions": 1}`` for knobs the
  caller left alone).

The router is what :class:`~repro.serve.http.MiningServer` always
fronts (an unsharded server is ``n_shards=1``).  It implements placement
(``submit``) and the fan-out answers (``healthz`` / ``metrics``) itself;
every other operation of :data:`repro.serve.api.OPERATIONS` is forwarded,
arguments untouched, to the shard the row's routing rule names — the
signatures live on :class:`~repro.serve.service.MiningService` (job
rows) and :class:`~repro.serve.datasets.DatasetRegistry` (dataset rows)
only.

The router keeps **no per-job state**: a job's record lives in the table
of the shard that accepted it, and its id (``job-<shard>-<n>``) names
that shard, so ``wait`` / ``result`` / ``cancel`` reach it from the id
alone.  What the router holds is fixed at construction (``shards`` — the
:class:`MiningService` instances themselves — and the ring) plus its
counters: four totals and, per shard, how many jobs it accepted as their
home (``jobs_home``) and for a saturated neighbour (``jobs_spilled_in``).
``ShardRouter._lock`` guards the counters and the shutdown flag and is
never held across a call into a shard.
"""

from __future__ import annotations

import threading

from repro.core.registry import MiningConfig
from repro.serve.api import BY_DATASET, BY_JOB, OPERATIONS
from repro.serve.cache import dataset_fingerprint
from repro.serve.jobs import ApiError, Job, RejectedError, ServeError, parse_job_id
from repro.serve.planner import CostPlanner
from repro.serve.service import MiningService
from repro.serve.shard import HashRing


class ShardRouter:
    """Consistent-hash router over N in-process mining-service shards.

    Parameters
    ----------
    n_shards:
        Number of :class:`MiningService` shards to create (each with its
        own queue, workers, and caches).
    n_workers:
        Workers *per shard* (a thread and its job-worker process each).
        Every shard's processes are forked here, before any shard has
        started a thread — a shard starts its threads with its first
        queued job — so build the router before anything multi-threaded.
    queue_limit:
        Bounded queue length per shard (admission control).  ``None``
        disables rejection — the router then never spills either, since
        no shard ever reports itself full.
    planner:
        A :class:`CostPlanner` (or ``None``).  When set, every shard
        plans with it: unpinned knobs are filled per submit.
    replicas:
        Virtual nodes per shard on the hash ring.
    spill:
        Walk the ring past a saturated home shard (default) instead of
        rejecting immediately.
    shed_priority / shed_at:
        Router-level load shedding: when global queue utilization is at
        least ``shed_at`` (a fraction of total queue capacity), jobs
        with ``priority > shed_priority`` are rejected without trying
        any shard.  ``shed_priority=None`` disables shedding.
    service_kwargs:
        Forwarded to every shard's :class:`MiningService` (cache budgets,
        TTLs, timeouts, ``tenant_weights``...).
    """

    def __init__(
        self,
        n_shards: int = 2,
        *,
        n_workers: int = 2,
        queue_limit: int | None = 32,
        planner: CostPlanner | None = None,
        replicas: int = 64,
        spill: bool = True,
        shed_priority: int | None = None,
        shed_at: float = 0.8,
        **service_kwargs,
    ):
        if n_shards < 1:
            raise ServeError(f"n_shards must be >= 1, got {n_shards}")
        if not 0.0 < shed_at <= 1.0:
            raise ServeError(f"shed_at must be in (0, 1], got {shed_at}")
        self.planner = planner
        self.spill = spill
        self.shed_priority = shed_priority
        self.shed_at = shed_at
        self.queue_limit = queue_limit
        self.shards = [
            MiningService(
                n_workers=n_workers,
                queue_limit=queue_limit,
                name=f"shard-{i}",
                **service_kwargs,
            )
            for i in range(n_shards)
        ]
        for shard in self.shards:
            shard.planner = planner
        self._by_name = {s.name: s for s in self.shards}
        self.ring = HashRing(list(self._by_name), replicas=replicas)
        self._lock = threading.Lock()
        self._shutdown = False
        self.jobs_routed = 0
        self.jobs_spilled = 0
        self.jobs_rejected = 0
        self.jobs_shed = 0
        #: per shard name: accepted as the fingerprint's home shard /
        #: accepted for a saturated neighbour
        self.jobs_home = dict.fromkeys(self._by_name, 0)
        self.jobs_spilled_in = dict.fromkeys(self._by_name, 0)

    # -- routing -----------------------------------------------------------
    def home_shard(self, transactions_or_fingerprint) -> str:
        """Deterministic home-shard name for a dataset (or fingerprint)."""
        fp = (
            transactions_or_fingerprint
            if isinstance(transactions_or_fingerprint, str)
            else dataset_fingerprint(transactions_or_fingerprint)
        )
        return self.ring.node_for(fp)

    def dataset_home(self, dataset_id: str) -> str:
        """Home-shard name for a *named* dataset.

        Keyed on the stable name (``dataset:<id>``), **not** the version
        fingerprint — an append changes the fingerprint every time, and
        hashing on it would re-home the dataset away from its warm
        incremental-miner state on every update.
        """
        return self.ring.node_for(f"dataset:{dataset_id}")

    def _dataset_shard(self, dataset_id: str) -> MiningService:
        return self._by_name[self.dataset_home(dataset_id)]

    def _global_utilization(self) -> float:
        if not self.queue_limit:
            return 0.0
        depth = sum(s.queue_depth() for s in self.shards)
        return depth / (self.queue_limit * len(self.shards))

    def submit(
        self,
        transactions,
        config: MiningConfig,
        *,
        priority: int = 0,
        dataset_id: str | None = None,
        **job_kwargs,
    ) -> Job:
        """Route one job: shed, try home shard, spill along the ring.

        The router reads ``priority`` (shedding) and ``dataset_id``
        (placement); every other keyword is
        :meth:`MiningService.submit`'s and reaches the shard untouched.

        ``dataset_id`` submits against a registered named dataset: the
        job goes to the dataset's home shard (where the window, registry
        entry, and warm incremental state live) and never spills — cold
        state on a neighbour would defeat the point of the append tier.

        ``fingerprint=`` with ``transactions=None`` is
        :meth:`MiningService.submit`'s "the rows you already hold": the
        job is shed, placed and spilled by that fingerprint exactly as if
        the rows had come along; a shard that needs them and does not hold
        them raises :class:`~repro.serve.jobs.RowsNotResident` through.

        Raises :class:`RejectedError` when shedding fires or every shard
        in the preference chain refused admission; the error carries the
        smallest ``retry_after_s`` any shard suggested.
        """
        with self._lock:
            if self._shutdown:
                raise ServeError("router is shut down")
        txns = transactions
        fp = job_kwargs.get("fingerprint") if txns is None else None
        if dataset_id is not None or (txns is None and fp is None):
            # the home shard or nobody: no shedding, no spill (a submit
            # with neither source lands here too — the shard refuses it)
            preference = [self.dataset_home(dataset_id)]
            job_kwargs["dataset_id"] = dataset_id
        else:
            # placed by its rows' fingerprint: computed here, or — with no
            # rows — the one a submit of the same request was placed by
            if txns is not None:
                txns = txns if isinstance(txns, list) else list(txns)
                fp = job_kwargs["fingerprint"] = dataset_fingerprint(txns)
            if (
                self.shed_priority is not None
                and priority > self.shed_priority
                and self._global_utilization() >= self.shed_at
            ):
                with self._lock:
                    self.jobs_shed += 1
                raise RejectedError(
                    f"load shed: priority {priority} > {self.shed_priority} while "
                    f"queues are {self._global_utilization():.0%} full",
                    retry_after_s=1.0,
                    scope="router",
                )
            preference = self.ring.preference(fp)
            if not self.spill:
                preference = preference[:1]

        rejections: list[RejectedError] = []
        for rank, name in enumerate(preference):
            try:
                job = self._by_name[name].submit(
                    txns, config, priority=priority, **job_kwargs
                )
            except RejectedError as err:
                rejections.append(err)
                continue
            with self._lock:
                self.jobs_routed += 1
                if rank == 0:
                    self.jobs_home[name] += 1
                else:
                    self.jobs_spilled += 1
                    self.jobs_spilled_in[name] += 1
            return job

        with self._lock:
            self.jobs_rejected += 1
        if dataset_id is not None:
            raise rejections[0]  # the home shard's own answer
        retry_after = min((r.retry_after_s for r in rejections), default=1.0)
        raise RejectedError(
            f"all {len(preference)} shard(s) are saturated",
            retry_after_s=retry_after,
            scope="router",
            queue_depth=sum(s.queue_depth() for s in self.shards),
            queue_limit=(self.queue_limit or 0) * len(self.shards),
        )

    # -- queries -----------------------------------------------------------
    def _shard_for_job(self, job_id: str) -> MiningService:
        """The shard the id names; whether that shard still holds, ever
        minted, or has let go of the job is its own answer."""
        shard = self._by_name.get(parse_job_id(job_id)[0])
        if shard is None:
            raise ApiError(f"unknown job {job_id!r}", status=404, code="unknown_job")
        return shard

    def queue_depth(self) -> int:
        return sum(s.queue_depth() for s in self.shards)

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "shards": len(self.shards),
            "workers": sum(len(s._workers) for s in self.shards),
        }

    def metrics(self) -> dict:
        """Router counters + ring + per-shard service metrics."""
        with self._lock:
            out = {
                "router": {
                    "shards": len(self.shards),
                    "queue_limit_per_shard": self.queue_limit,
                    "jobs_routed": self.jobs_routed,
                    "jobs_spilled": self.jobs_spilled,
                    "jobs_rejected": self.jobs_rejected,
                    "jobs_shed": self.jobs_shed,
                    "spill": self.spill,
                    "shed_priority": self.shed_priority,
                    "shed_at": self.shed_at,
                },
                "ring": {"nodes": self.ring.nodes, "replicas": self.ring.replicas},
            }
            home, spilled_in = dict(self.jobs_home), dict(self.jobs_spilled_in)
        # per-shard reads happen outside the router lock: it is never
        # held across a call into a shard
        out["router"]["queue_depth"] = self.queue_depth()
        out["shards"] = [
            {
                "name": s.name,
                "jobs_home": home[s.name],
                "jobs_spilled_in": spilled_in[s.name],
                "jobs_rejected": s.jobs_rejected,  # its own admission refusals
                "queue_depth": s.queue_depth(),
                "queue_limit": s.queue_limit,
                "service": s.metrics(),
            }
            for s in self.shards
        ]
        if self.planner is not None:
            out["planner"] = self.planner.stats()
        return out

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for shard in self.shards:
            shard.shutdown(wait=wait)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _forwarder(op):
    def forward(self, *args, **kwargs):
        key = args[0] if args else kwargs.get(op.path_names[0])
        shard = self._shard_for_job(key) if op.route == BY_JOB else self._dataset_shard(key)
        return getattr(shard, op.call)(*args, **kwargs)

    forward.__name__ = op.call
    forward.__doc__ = f"``MiningService.{op.call}`` on the shard that owns the {op.route}."
    return forward


for _op in OPERATIONS:
    if _op.route in (BY_JOB, BY_DATASET):
        setattr(ShardRouter, _op.call, _forwarder(_op))


__all__ = ["ShardRouter"]
