"""``serve_mix``: two closed-loop clients, one fresh, one repeating.

Mining is small here, so the HTTP codec, fingerprinting, queueing, the
50 ms status poll and result serialisation are a visible share of a
fresh job and the whole cost of a repeat.  One client only ever sends
requests never sent before; the other only re-sends, byte for byte,
requests that have already completed — so a repeat is always answered
beside a running mine, and no two fresh jobs ever overlap (README
"Sizing" says why the classes are not mixed on each client).  The class
is a property of the *request*, not of how the server answered it.  Jobs
carry ``MiningConfig(min_support=s)`` and nothing else.
"""

from __future__ import annotations

import threading
import time

import layers
import spans
from client import (
    JobRecord, TracedClient, aggregate_metrics, ratio, run_job,
)
from inputs import Request, ServeMixSize, serve_mix_datasets, serve_mix_schedule
from server import Server
from speed import SpeedProbe
from stats import block_means, median, percentile, summary


#: an op is put at reference machine speed by this many of the fresh
#: client's spins either side of it
REACH = 4


class ServeMixWorkload:
    aliases = {"op_p50_s": "job_fresh_p50_s", "alt_p50_s": "job_repeat_block_p50_s"}

    def __init__(self, size: ServeMixSize, seed):
        self.size = size
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.measured: dict = {}  # raw readings of the speed-adjusted values
        self.speed = SpeedProbe()
        self.server: Server | None = None
        self._records: list[JobRecord] = []  # every op of every pass

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        t0 = time.perf_counter()
        self.datasets, warm_up = serve_mix_datasets(self.size, self.seed)
        self.fresh, self.repeat_draws = serve_mix_schedule(self.size, self.seed)
        # the warm-up job's request is the first one a repeat can re-send
        self.warm_up = Request(len(self.datasets), self.size.support_lo)
        self.datasets.append(warm_up)
        self.gen_s = time.perf_counter() - t0
        self._start_server()

    def _start_server(self, *flags: str) -> None:
        """A fresh server that has run one job (lazy imports done)."""
        from repro.serve.client import HttpClient

        self.close()
        self.server = Server(*flags)
        record = self._send(HttpClient(self.server.url), "warm-up", self.warm_up)
        if not record.ok:
            raise RuntimeError("warm-up job failed")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def _send(self, client, kind: str, request: Request, recorder=None) -> JobRecord:
        from repro import MiningConfig

        return run_job(
            client, JobRecord(kind, request), self.datasets[request.dataset],
            MiningConfig(min_support=request.min_support), recorder,
        )

    # -- one pass of the schedule --------------------------------------------
    def _run_pass(self, seconds: float, max_fresh: int | None = None,
                  recorder: spans.Recorder | None = None):
        """Both clients run down their lists until the deadline (or until
        ``max_fresh`` fresh requests are done); returns ``(fresh records,
        repeat records, wall, clients)``."""
        from repro.serve.client import HttpClient

        make = TracedClient if recorder is not None else HttpClient
        clients = [make(self.server.url), make(self.server.url)]
        fresh: list[JobRecord] = []
        repeat: list[JobRecord] = []
        completed = [self.warm_up]
        fresh_done = threading.Event()
        deadline = time.perf_counter() + seconds

        def fresh_loop():
            for request in self.fresh[:max_fresh]:
                if time.perf_counter() >= deadline:
                    break
                self.speed.spin()
                mark = self.speed.mark()
                fresh.append(self._send(clients[0], "fresh", request, recorder))
                fresh[-1].mark = mark
                if fresh[-1].ok:
                    completed.append(request)
            fresh_done.set()

        def repeat_loop():
            for draw in self.repeat_draws:
                if fresh_done.is_set():
                    break
                request = completed[int(draw * len(completed))]
                mark = self.speed.mark()  # the fresh client's spins, by position
                repeat.append(self._send(clients[1], "repeat", request, recorder))
                repeat[-1].mark = mark

        threads = [
            threading.Thread(target=fresh_loop, name="client-fresh"),
            threading.Thread(target=repeat_loop, name="client-repeat"),
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        self.attempted += len(fresh) + len(repeat)
        self.failed += sum(1 for r in fresh + repeat if not r.ok)
        self._records += fresh + repeat
        return fresh, repeat, wall, clients

    # -- timed pass --------------------------------------------------------
    def timed(self, seconds: float) -> dict:
        fresh, repeat, _, _ = self._run_pass(seconds)
        # A repeat answered while the fresh job mines waits for the GIL
        # (~130 ms); one answered between two fresh jobs does not (~35 ms);
        # the two come about half and half, so the plain median sits in the
        # gap between the modes.  Blocks of consecutive repeats span both.
        at_speed = {
            "op_p50_s": [r.latency_s * self.speed.around(r.mark, REACH) for r in fresh],
            "alt_p50_s": block_means(
                [r.latency_s * self.speed.around(r.mark, REACH) for r in repeat]
            ),
        }
        self.samples = {
            "op_p50_s": summary([r.latency_s for r in fresh]),
            "alt_p50_s": summary(block_means([r.latency_s for r in repeat])),
        }
        self.measured = {name: s["p50"] for name, s in self.samples.items()}
        values = {name: median(series) for name, series in at_speed.items()}
        values["peak_rss_mb"] = self.server.peak_rss_mb()
        return values

    def verify(self) -> None:
        """Every answer against FP-Growth on the same rows and support:
        one oracle run per dataset at the lowest support asked of it,
        thresholded per request."""
        from repro.algorithms import fpgrowth
        from repro.common.itemset import min_support_count

        answered = [r for r in self._records if r.ok]
        lowest: dict[int, float] = {}
        for record in answered:
            request = record.key
            lowest[request.dataset] = min(
                request.min_support, lowest.get(request.dataset, 1.0)
            )
        oracle = {d: fpgrowth(self.datasets[d], s) for d, s in lowest.items()}
        for record in answered:
            request = record.key
            rows = self.datasets[request.dataset]
            threshold = min_support_count(request.min_support, len(rows))
            expected = {
                k: c for k, c in oracle[request.dataset].items() if c >= threshold
            }
            if record.itemsets != expected:
                self.failed += 1

    # -- traced pass -------------------------------------------------------
    def layers(self, seconds: float, trace_out: str | None) -> dict:
        """An untraced and a traced pass of the same schedule, each on
        its own fresh server; then a short pass against a ``--planner``
        server; then the direct-call timings."""
        from repro import MiningConfig

        plain_fresh, plain_repeat, plain_wall, _ = self._run_pass(seconds / 2)
        self._start_server()
        recorder = spans.Recorder()
        before = aggregate_metrics(TracedClient(self.server.url).metrics())
        fresh, repeat, _, clients = self._run_pass(seconds / 2, recorder=recorder)
        after = aggregate_metrics(TracedClient(self.server.url).metrics())
        if trace_out:
            recorder.write_chrome_trace(trace_out, "serve_mix")

        fresh = [r for r in fresh if r.ok]
        repeat = [r for r in repeat if r.ok]
        records = fresh + repeat
        ran = [r for r in fresh if r.snapshot["via"] == "run"]
        delta = {k: after[k] - before[k] for k in after if k != "per_shard"}
        per_shard = [a - b for a, b in zip(after["per_shard"], before["per_shard"])]
        requests, responses = [], []
        for client in clients:
            sent, received = client.wire_bytes()
            requests += sent
            responses += received
        submit_payload, result_payload = _median_exchange(clients)

        out = {
            "datasets.gen_s": self.gen_s,
            "serve.client.submit_rtt_p50_s": median([r.submit_s for r in records]),
            "serve.client.fetch_rtt_p50_s": median([r.fetch_s for r in records]),
            "serve.client.polls_per_job": sum(r.polls for r in records) / len(records),
            "serve.client.poll_overhead_p50_s": median([
                r.wait_s - r.snapshot["queued_seconds"] - r.snapshot["run_seconds"]
                for r in ran
            ]),
            "serve.client.request_bytes_p50": median(requests),
            "serve.client.response_bytes_p50": median(responses),
            "serve.http.codec_p50_s": layers.codec_p50_s(submit_payload, result_payload),
            "serve.http.errors": sum(c.errors for c in clients),
            "serve.cache.fingerprint_p50_s": layers.fingerprint_p50_s(self.datasets[0]),
            "serve.cache.chain_extend_p50_s": layers.chain_extend_p50_s(
                self.datasets[0], self.datasets[1][:8]
            ),
            "serve.cache.result_hit_ratio": ratio(
                delta["result_hits"], delta["result_misses"]
            ),
            "serve.cache.repeat_memo_ratio": _memo_ratio(repeat),
            "serve.cache.dataset_hit_ratio": ratio(
                delta["dataset_hits"], delta["dataset_misses"]
            ),
            "serve.cache.context_reuse_ratio": ratio(
                delta["contexts_reused"], delta["contexts_created"]
            ),
            "serve.service.queue_wait_p50_s": median(
                [r.snapshot["queued_seconds"] for r in ran]
            ),
            "serve.service.queue_wait_p95_s": percentile(
                [r.snapshot["queued_seconds"] for r in ran], 0.95
            ),
            "serve.service.run_p50_s": median([r.snapshot["run_seconds"] for r in ran]),
            "serve.service.overhead_p50_s": median(
                [r.latency_s - r.snapshot["run_seconds"] for r in ran]
            ),
            "serve.service.coalesced": delta["coalesced"],
            "serve.service.rejected": delta["rejected"],
            "serve.service.retries": sum(r.snapshot["attempts"] - 1 for r in ran),
            "serve.router.spilled": delta["spilled"],
            "serve.router.shard_skew": (
                max(per_shard) * len(per_shard) / sum(per_shard) if sum(per_shard) else 0.0
            ),
            "serve.planner.plan_p50_s": layers.plan_p50_s(
                self.datasets[0], MiningConfig(min_support=self.size.support_lo)
            ),
            "bench.op_p90_s": percentile([r.latency_s for r in plain_fresh], 0.9),
            "bench.throughput_per_s": (
                sum(1 for r in plain_fresh + plain_repeat if r.ok) / plain_wall
            ),
            "bench.traced_op_s": median([r.latency_s for r in fresh]),
            "bench.trace_overhead_ratio": median([r.latency_s for r in fresh]) / median(
                [r.latency_s for r in plain_fresh]
            ),
        }
        self.samples = {"bench.traced_op_s": summary([r.latency_s for r in fresh])}

        self._start_server("--planner")
        _, planned_repeat, _, _ = self._run_pass(seconds, max_fresh=self.size.planner_fresh)
        out["serve.planner.repeat_memo_ratio"] = _memo_ratio(
            [r for r in planned_repeat if r.ok]
        )
        return out


def _memo_ratio(repeats: list[JobRecord]) -> float:
    """Repeat requests the server answered without running them."""
    if not repeats:
        return 0.0
    spared = sum(1 for r in repeats if r.snapshot["via"] in ("memoized", "coalesced"))
    return spared / len(repeats)


def _median_exchange(clients: list[TracedClient]) -> tuple[dict, dict]:
    """The median-sized submit payload and result payload seen."""
    exchanges = [e for c in clients for e in c.exchanges]
    submits = sorted((p for path, p, _ in exchanges if path == "/jobs"),
                     key=lambda p: len(p["transactions"]))
    results = sorted((r for path, _, r in exchanges if path != "/jobs"),
                     key=lambda r: len(r["itemsets"]))
    return submits[len(submits) // 2], results[len(results) // 2]
