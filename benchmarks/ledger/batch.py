"""``batch_dense`` / ``batch_sparse``: the one-shot API on an in-memory list.

Op = one ``mine_frequent_itemsets(rows, config=...)`` with a fresh engine
``Context`` per call — what the one-shot API costs a user.  The config
pins what describes the machine (backend, parallelism, partitions) and
nothing that describes the algorithm's internals, so a later change of a
default shows up as a gain instead of being masked by a pin.
"""

from __future__ import annotations

import resource
import time
from typing import NamedTuple

import spans
from inputs import BatchSize, batch_rows
from speed import SpeedProbe
from stats import median, percentile, summary

PARALLELISM = 2
NUM_PARTITIONS = 6
#: the timed pass's calls take turns, so both series sample the whole run
#: and a slow stretch of a few seconds costs each median a call or two of
#: its seven, not half of one series
TURNS = ("processes", "serial")
MIN_CALLS = 2
#: spins before each call (calls are long and few), and after the last
SPINS = 3


class Call(NamedTuple):
    seconds: float
    result: object  # MiningRunResult
    root: int | None  # index of the call's root span in a traced pass
    mark: int = 0  # where the speed probe stood when the call began


def _peak_rss_mb() -> float:
    """This interpreter's high-water RSS plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _medians(rows: list[dict]) -> dict:
    return {key: median([row[key] for row in rows]) for key in rows[0]}


class BatchWorkload:
    aliases = {"op_p50_s": "mine_p50_s", "alt_p50_s": "mine_serial_p50_s"}

    def __init__(self, size: BatchSize, seed):
        self.size = size
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.measured: dict = {}  # raw readings of the speed-adjusted values
        self.speed = SpeedProbe()
        self._answers: list[dict] = []  # every returned itemset map

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        t0 = time.perf_counter()
        self.rows = batch_rows(self.size, self.seed)
        self.gen_s = time.perf_counter() - t0
        self._mine("processes")  # warm-up: lazy imports, pool machinery

    def close(self) -> None:
        pass

    # -- the op ------------------------------------------------------------
    def _mine(self, backend: str, recorder: spans.Recorder | None = None) -> Call | None:
        """One call; ``None`` when it raised (counted as a failed op)."""
        from repro import MiningConfig, mine_frequent_itemsets

        config = MiningConfig(
            min_support=self.size.min_support, backend=backend,
            parallelism=PARALLELISM, num_partitions=NUM_PARTITIONS,
        )
        self.attempted += 1
        root = None
        if recorder is not None:
            root = recorder.open("mine", "core.api", op=f"call-{self.attempted}")
        t0 = time.perf_counter()
        try:
            result = mine_frequent_itemsets(self.rows, config=config)
        except Exception as err:  # noqa: BLE001 - an op that raised is a failed op
            self.failed += 1
            print(f"op failed: {err!r}")
            return None
        finally:
            seconds = time.perf_counter() - t0
            if root is not None:
                recorder.close(root)
        self._answers.append(result.itemsets)
        return Call(seconds, result, root)

    def _calls(self, turns: tuple, budget_s: float, recorder=None) -> dict[str, list[Call]]:
        """Back-to-back calls, backends in the order of ``turns`` over and
        over, until ``budget_s`` is spent (at least two of each)."""
        done = {backend: [] for backend in turns}
        tried = 0
        deadline = time.perf_counter() + budget_s
        while tried < MIN_CALLS * len(turns) or time.perf_counter() < deadline:
            backend = turns[tried % len(turns)]
            tried += 1
            self.speed.spin(SPINS)
            mark = self.speed.mark()
            call = self._mine(backend, recorder)
            if call is not None:
                done[backend].append(call._replace(mark=mark))
        self.speed.spin(SPINS)
        for backend, calls in done.items():
            if not calls:
                raise RuntimeError(f"no {backend} call succeeded")
        return done

    # -- timed pass --------------------------------------------------------
    def timed(self, seconds: float) -> dict:
        calls = self._calls(TURNS, seconds)
        rss = _peak_rss_mb()
        series = {"op_p50_s": calls["processes"], "alt_p50_s": calls["serial"]}
        self.samples = {
            name: summary([c.seconds for c in calls]) for name, calls in series.items()
        }
        self.measured = {name: s["p50"] for name, s in self.samples.items()}
        # each call at reference machine speed, by the spins on either side of it
        values = {
            name: median([c.seconds * self.speed.around(c.mark, SPINS) for c in calls])
            for name, calls in series.items()
        }
        values["peak_rss_mb"] = rss
        return values

    def verify(self) -> None:
        """Every answer against FP-Growth on the same rows and support."""
        from repro.algorithms import fpgrowth

        oracle = fpgrowth(self.rows, self.size.min_support)
        self.failed += sum(1 for answer in self._answers if answer != oracle)

    # -- traced pass -------------------------------------------------------
    def layers(self, seconds: float, trace_out: str | None) -> dict:
        """Untraced then traced calls of the same inputs, per backend.

        The serial traced calls see every wrapped call in-process and
        give the layer split; the ``processes`` traced calls add what
        only exists there (pool start/stop, bytes shipped, stragglers).
        """
        quarter = seconds / 4
        plain_serial = median(
            [c.seconds for c in self._calls(("serial",), quarter)["serial"]]
        )
        t0 = time.perf_counter()
        processes = [
            c.seconds for c in self._calls(("processes",), quarter)["processes"]
        ]
        processes_wall = time.perf_counter() - t0
        plain_processes = median(processes)
        recorder = spans.Recorder()
        remove = spans.install(recorder)
        try:
            traced_serial = self._calls(("serial",), quarter, recorder)["serial"]
            traced_processes = self._calls(("processes",), quarter, recorder)["processes"]
        finally:
            remove()
        if trace_out:
            recorder.write_chrome_trace(trace_out, "batch")

        out = _medians([_serial_layers(recorder, call) for call in traced_serial])
        out.update(_medians([_processes_layers(recorder, c) for c in traced_processes]))
        traced_p50 = median([c.seconds for c in traced_serial])
        out["engine.executors.parallel_efficiency"] = plain_serial / (
            PARALLELISM * plain_processes
        )
        out["bench.op_p90_s"] = percentile(processes, 0.9)
        out["bench.throughput_per_s"] = len(self.rows) * len(processes) / processes_wall
        out["bench.traced_op_s"] = traced_p50
        out["bench.trace_overhead_ratio"] = traced_p50 / plain_serial
        out["datasets.gen_s"] = self.gen_s
        self.samples = {"bench.traced_op_s": summary([c.seconds for c in traced_serial])}
        return out


def _processes_layers(recorder: spans.Recorder, call: Call) -> dict:
    """What only a ``processes`` call has: pool start/stop, shipping."""
    totals = recorder.totals(recorder.children_of(call.root))
    stragglers = [it.straggler_ratio for it in call.result.iterations if it.k >= 2]
    return {
        "engine.context.start_s": totals[("engine.context", "start")],
        "engine.context.stop_s": totals[("engine.context", "stop")],
        "engine.executors.ship_bytes": call.result.engine_metrics.total_shipped_bytes,
        "engine.dag.straggler_ratio": median(stragglers) if stragglers else 0.0,
    }


def _serial_layers(recorder: spans.Recorder, call: Call) -> dict:
    """Layer times and counts of one traced ``serial`` call.

    Times come from the benchmark's spans; counts from what the program
    already returns (``result.iterations``, ``result.engine_metrics``).
    """
    indexes = recorder.children_of(call.root)
    self_s = recorder.self_times(indexes)
    total_s = recorder.totals(indexes)
    iterations = call.result.iterations
    metrics = call.result.engine_metrics
    level_passes = [it for it in iterations if it.k >= 2]
    generated = sum(it.n_candidates for it in level_passes)
    rounds = [it.compaction for it in iterations if it.compaction is not None]
    encode = [c for c in rounds if c.kind == "encode"]
    # pass k counts the working set that the round after pass k-1 left
    rows_counted = sum(
        it.compaction.txns_after for it in iterations[:-1] if it.compaction is not None
    )
    job_s = total_s[("engine.dag", "run_job")]
    count_s = total_s.get(("core.candidatestore", "count"), 0.0)
    return {
        "core.api.dispatch_self_s": self_s[("core.api", "mine")],
        "core.yafim.driver_self_s": self_s[("core.yafim", "run")],
        "core.yafim.passes": len(iterations),
        "core.yafim.phase1_s": iterations[0].seconds,
        "core.yafim.phase2_s": sum(it.seconds for it in level_passes),
        "core.yafim.pass2_s": next((it.seconds for it in iterations if it.k == 2), 0.0),
        "engine.dag.jobs": metrics.n_jobs,
        "engine.dag.stages": metrics.n_stages,
        "engine.dag.tasks": metrics.n_tasks,
        "engine.dag.job_s": job_s,
        "engine.dag.task_s": metrics.total_task_seconds,
        "engine.dag.sched_self_s": job_s - metrics.total_task_seconds,
        "engine.shuffle.bytes": sum(it.shuffle_bytes for it in iterations),
        "engine.shuffle.records": sum(it.shuffle_records for it in iterations),
        "engine.broadcast.s": total_s.get(("engine.broadcast", "broadcast"), 0.0),
        "engine.broadcast.bytes": metrics.broadcast_bytes,
        "engine.storage.cache_hit_ratio": metrics.cache_hit_rate,
        "core.counting.encode_s": sum(c.seconds for c in encode),
        "core.counting.compact_s": sum(c.seconds for c in rounds if c.kind == "compact"),
        "core.counting.rows_after_encode": sum(c.txns_after for c in encode),
        "core.counting.bytes_saved": metrics.compaction_bytes_saved,
        "core.candidates.gen_s": total_s.get(("core.candidates", "apriori_gen"), 0.0),
        "core.candidates.generated": generated,
        "core.candidates.useful_ratio": (
            sum(it.n_frequent for it in level_passes) / generated if generated else 0.0
        ),
        "core.candidatestore.build_s": total_s.get(("core.candidatestore", "build"), 0.0),
        "core.candidatestore.count_s": count_s,
        "core.candidatestore.count_rows_per_s": rows_counted / count_s if count_s else 0.0,
        "core.candidatestore.store_bytes": max(
            (it.broadcast_bytes for it in level_passes), default=0
        ),
    }
