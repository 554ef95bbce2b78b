"""``stream_window``: a sliding window fed eight rows at a time.

Writes beside reads on layers the other workloads only read:
``serve.datasets``, ``serve.cache`` (fingerprint chain),
``core.incremental``, and ``core.candidatestore`` called thousands of
times on 8-row deltas — per-call overhead, not scan throughput.  Every
append also retires as many rows.  Op = append call start -> updated
family in hand; a watcher long-polls the change feed throughout.

One op's latency is not one number but a mixture: the job is done before
the client's first status check or 50 ms later (a race, ~45/55), and the
update re-mines between zero and six levels.  The median of such a
series sits in a gap between modes and jumps with the mix, so the timed
pass reports the median over blocks of ``stats.BLOCK`` consecutive ops of
the block's mean latency: still a median over the run, of samples that
are no longer multimodal.
"""

from __future__ import annotations

import threading
import time

import layers
import spans
from client import JobRecord, TracedClient, aggregate_metrics, run_job
from inputs import StreamRows, StreamSize
from server import Server
from speed import SpeedProbe
from stats import BLOCK, block_means, median, percentile, summary

DATASET = "feed"
WATCH_TIMEOUT_S = 2.0
#: an op is put at reference machine speed by this many spins either side
REACH = 4
MIN_OPS = 2 * BLOCK
#: the server keeps every finished job, so its memory grows with the ops
#: served; reading the high-water mark at a fixed op count compares runs
#: at equal work whatever their speed
RSS_AT_OP = 64


class Watcher(threading.Thread):
    """Long-polls ``dataset_changes`` and notes when each version showed."""

    def __init__(self, client, min_support: float, since: int):
        super().__init__(name="watcher")
        self.client = client
        self.min_support = min_support
        self.version = since
        self.seen_at: dict[int, float] = {}  # version -> perf_counter
        self.resets = 0
        self.error: Exception | None = None
        self.ready = threading.Event()
        self._halt = threading.Event()

    def run(self) -> None:
        from repro.serve.jobs import ServeError

        timeout_s = 0.0  # the first call only establishes the watch
        while not self._halt.is_set():
            try:
                changes = self.client.dataset_changes(
                    DATASET, since=self.version, min_support=self.min_support,
                    timeout_s=timeout_s,
                )
            except ServeError as err:
                self.error = err
                self.ready.set()
                return
            now = time.perf_counter()
            if timeout_s and changes["reset"]:
                self.resets += 1
            for version in range(self.version + 1, changes["version"] + 1):
                self.seen_at[version] = now
            self.version = changes["version"]
            self.ready.set()
            timeout_s = WATCH_TIMEOUT_S

    def halt(self) -> None:
        """Ask the loop to end; it notices when its current poll returns."""
        self._halt.set()


class StreamWindowWorkload:
    aliases = {"op_p50_s": "append_visible_block_p50_s",
               "alt_p50_s": "change_feed_block_p50_s"}

    def __init__(self, size: StreamSize, seed):
        self.size = size
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}
        self.measured: dict = {}  # raw readings of the speed-adjusted values
        self.speed = SpeedProbe()
        self.server: Server | None = None
        self.watcher: Watcher | None = None
        self._checked: list[tuple[int, dict]] = []  # (appends so far, answer)

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        t0 = time.perf_counter()
        self.rows = StreamRows(self.size, self.seed)
        self.gen_s = time.perf_counter() - t0
        self._start_server()

    def _start_server(self) -> None:
        """Fresh server, registered window, warm miner, parked watcher."""
        from repro import MiningConfig
        from repro.serve.client import HttpClient

        self.close()
        self.server = Server()
        self.config = MiningConfig(min_support=self.size.min_support, incremental=True)
        client = HttpClient(self.server.url)
        t0 = time.perf_counter()
        info = client.create_dataset(
            DATASET, self.rows.initial(), max_window=self.size.window
        )
        self.create_s = time.perf_counter() - t0
        warm = run_job(client, JobRecord("warm-up", None), None, self.config,
                       dataset=DATASET)
        if not warm.ok:
            raise RuntimeError("warm-up job failed")
        self.base_version = info["version"]
        self.watcher = Watcher(
            HttpClient(self.server.url), self.size.min_support, self.base_version
        )
        self.watcher.start()
        if not self.watcher.ready.wait(timeout=30.0) or self.watcher.error:
            raise RuntimeError(f"watcher did not start: {self.watcher.error!r}")

    def close(self) -> None:
        """Stop the server first: that ends the watcher's parked poll
        at once instead of after its long-poll timeout."""
        if self.watcher is not None:
            self.watcher.halt()
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.watcher is not None:
            self.watcher.join(timeout=WATCH_TIMEOUT_S + 5.0)
            self.watcher = None

    # -- one pass ----------------------------------------------------------
    def _run_pass(self, seconds: float, recorder: spans.Recorder | None = None):
        """Append -> submit -> result, one writer, until the deadline.

        Returns ``(records, append RTTs, append (start, end, speed mark)
        by version, wall, client)``.
        """
        from repro.serve.client import HttpClient
        from repro.serve.jobs import ServeError

        client = (TracedClient if recorder is not None else HttpClient)(self.server.url)
        records: list[JobRecord] = []
        append_rtts: list[float] = []
        appended_at: dict[int, tuple[float, float, int]] = {}
        deadline = time.perf_counter() + seconds
        t_pass = time.perf_counter()
        last_answer = None
        i = 0
        while i < MIN_OPS or time.perf_counter() < deadline:
            i += 1  # ops are numbered by the appends made so far
            self.speed.spin()
            record = JobRecord("stream", i, mark=self.speed.mark())
            records.append(record)
            last_answer = None
            t0 = time.perf_counter()
            try:
                info = client.append_dataset(DATASET, self.rows.delta_rows(i - 1))
            except ServeError as err:
                print(f"op failed: {err!r}")
                continue
            t1 = time.perf_counter()
            append_rtts.append(t1 - t0)
            appended_at[info["version"]] = (t0, t1, record.mark)
            if recorder is not None:
                recorder.add("append", "serve.datasets", t0, t1, op=f"v{info['version']}")
            run_job(client, record, None, self.config, recorder, t0=t0, dataset=DATASET)
            if record.ok and record.snapshot["dataset_version"] != info["version"]:
                record.ok = False  # answered for another version than it wrote
            if i == RSS_AT_OP:
                self.peak_rss_mb = self.server.peak_rss_mb()
            if record.ok:
                last_answer = record.itemsets
                record.itemsets = None  # only the answers to check are kept
                if i % self.size.verify_every == 0:
                    self._checked.append((i, last_answer))
        wall = time.perf_counter() - t_pass
        if i < RSS_AT_OP:
            self.peak_rss_mb = self.server.peak_rss_mb()
        if last_answer is not None and i % self.size.verify_every:
            self._checked.append((i, last_answer))
        self.attempted += len(records)
        self.failed += sum(1 for r in records if not r.ok)
        return records, append_rtts, appended_at, wall, client

    # -- timed pass --------------------------------------------------------
    def timed(self, seconds: float) -> dict:
        records, _, appended_at, _, _ = self._run_pass(seconds)
        seen_at = dict(self.watcher.seen_at)
        series = {
            "op_p50_s": [(r.latency_s, r.mark) for r in records],
            "alt_p50_s": [
                (seen_at[v] - start, mark)
                for v, (start, _, mark) in appended_at.items() if v in seen_at
            ],
        }
        self.samples = {
            name: summary(block_means([s for s, _ in ops])) for name, ops in series.items()
        }
        self.measured = {name: s["p50"] for name, s in self.samples.items()}
        values = {
            name: median(block_means(
                [s * self.speed.around(mark, REACH) for s, mark in ops]
            ))
            for name, ops in series.items()
        }
        values["peak_rss_mb"] = self.peak_rss_mb
        return values

    def verify(self) -> None:
        """Every ``verify_every``-th answer and the last, against
        FP-Growth on the window that version pinned."""
        from repro.algorithms import fpgrowth

        for n_appends, answer in self._checked:
            window = self.rows.window_after(n_appends)
            if answer != fpgrowth(window, self.size.min_support):
                self.failed += 1

    # -- traced pass -------------------------------------------------------
    def layers(self, seconds: float, trace_out: str | None) -> dict:
        """An untraced and a traced pass of the same feed, each on its
        own fresh server; then the in-process replay and direct calls."""
        plain, _, _, plain_wall, _ = self._run_pass(seconds / 2)
        self._start_server()
        recorder = spans.Recorder()
        before = aggregate_metrics(TracedClient(self.server.url).metrics())
        traced, append_rtts, appended_at, _, client = self._run_pass(
            seconds / 2, recorder
        )
        after = aggregate_metrics(TracedClient(self.server.url).metrics())
        seen_at = dict(self.watcher.seen_at)
        if trace_out:
            recorder.write_chrome_trace(trace_out, "stream_window")

        records = [r for r in traced if r.ok]
        requests, responses = client.wire_bytes()
        n = min(len(plain), len(traced))
        window = self.rows.initial()
        deltas = [self.rows.delta_rows(i) for i in range(self.size.replay_deltas)]
        out = {
            "datasets.gen_s": self.gen_s,
            "serve.datasets.create_s": self.create_s,
            "serve.datasets.append_rtt_p50_s": median(append_rtts),
            "serve.datasets.append_rtt_p95_s": percentile(append_rtts, 0.95),
            "serve.datasets.changes_lag_p50_s": median([
                seen_at[v] - end for v, (_, end, _) in appended_at.items() if v in seen_at
            ]),
            "serve.datasets.retired_rows": after["retired_rows"] - before["retired_rows"],
            "serve.datasets.versions": max(appended_at) - self.base_version,
            "serve.datasets.watch_resets": self.watcher.resets,
            "serve.client.submit_rtt_p50_s": median([r.submit_s for r in records]),
            "serve.client.fetch_rtt_p50_s": median([r.fetch_s for r in records]),
            "serve.client.polls_per_job": sum(r.polls for r in records) / len(records),
            "serve.client.poll_overhead_p50_s": median([
                r.wait_s - r.snapshot["queued_seconds"] - r.snapshot["run_seconds"]
                for r in records
            ]),
            "serve.client.request_bytes_p50": median(requests),
            "serve.client.response_bytes_p50": median(responses),
            "serve.http.errors": client.errors,
            "serve.service.run_p50_s": median(
                [r.snapshot["run_seconds"] for r in records]
            ),
            "serve.cache.fingerprint_p50_s": layers.fingerprint_p50_s(window),
            "serve.cache.chain_extend_p50_s": layers.chain_extend_p50_s(window, deltas[0]),
            "bench.op_p90_s": percentile([r.latency_s for r in plain], 0.9),
            "bench.throughput_per_s": (
                self.size.delta * sum(1 for r in plain if r.ok) / plain_wall
            ),
            "bench.traced_op_s": median([r.latency_s for r in traced]),
            "bench.trace_overhead_ratio": (
                sum(r.latency_s for r in traced[:n]) / sum(r.latency_s for r in plain[:n])
            ),
        }
        out.update(layers.incremental_replay(window, deltas, self.size.min_support))
        self.samples = {"bench.traced_op_s": summary([r.latency_s for r in traced])}
        return out
