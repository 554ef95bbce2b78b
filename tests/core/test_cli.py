"""CLI tests (`python -m repro ...`)."""

import contextlib
import glob
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_requires_support(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--dataset", "chess"])

    def test_mine_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--dataset", "chess", "--support", "0.5", "--algorithm", "nope"]
            )

    def test_mine_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--dataset", "chess", "--support", "0.5",
                 "--backend", "thraeds"]
            )

    def test_backend_choices_come_from_engine(self):
        from repro.engine.executors import BACKENDS

        for backend in BACKENDS:
            args = build_parser().parse_args(
                ["mine", "--dataset", "chess", "--support", "0.5",
                 "--backend", backend]
            )
            assert args.backend == backend

    def test_mine_rejects_unknown_candidate_store(self):
        # unknown store names die at argparse time, not mid-run
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--dataset", "chess", "--support", "0.5",
                 "--candidate-store", "btree"]
            )

    def test_candidate_store_choices_come_from_registry(self):
        from repro.core.candidatestore import store_names

        for cmd in (["mine", "--dataset", "chess", "--support", "0.5"],
                    ["compare", "--dataset", "chess", "--support", "0.5"]):
            for name in store_names():
                args = build_parser().parse_args(cmd + ["--candidate-store", name])
                assert args.candidate_store == name

    @pytest.mark.parametrize("command", ["mine", "submit"])
    def test_mining_flag_defaults_are_the_dataclass_s(self, command):
        """Spelled once, in ``MiningConfig``: no flags, the default config."""
        from repro.cli import _config_from_args
        from repro.core.registry import MiningConfig

        args = build_parser().parse_args([command, "--support", "0.5"])
        assert _config_from_args(args) == MiningConfig(min_support=0.5)

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0 and args.workers == 4
        assert args.func.__name__ == "cmd_serve"

    def test_submit_parser(self):
        args = build_parser().parse_args(
            ["submit", "--url", "http://127.0.0.1:9", "--dataset", "chess",
             "--support", "0.85", "--no-wait"]
        )
        assert args.url == "http://127.0.0.1:9" and args.no_wait
        assert args.func.__name__ == "cmd_submit"

    def test_submit_unreachable_server_is_clean_error(self, capsys):
        rc = main(
            ["submit", "--url", "http://127.0.0.1:1", "--dataset", "chess",
             "--scale", "0.02", "--support", "0.85"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_round_trip_against_live_server(self, capsys):
        from repro.serve import MiningServer

        with MiningServer(port=0, n_workers=1) as server:
            rc = main(
                ["submit", "--url", server.url, "--dataset", "medical",
                 "--scale", "0.05", "--support", "0.2", "--backend", "serial",
                 "--top", "3"]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "submitted job-" in out
            assert "frequent itemsets" in out

    def test_algorithm_choices_come_from_registry(self):
        from repro.core.registry import algorithm_names, register_algorithm, unregister_algorithm

        register_algorithm("parser_probe", lambda txns, cfg: None)
        try:
            args = build_parser().parse_args(
                ["mine", "--dataset", "chess", "--support", "0.5",
                 "--algorithm", "parser_probe"]
            )
            assert args.algorithm == "parser_probe"
            assert "parser_probe" in algorithm_names()
        finally:
            unregister_algorithm("parser_probe")


class TestServe:
    @pytest.mark.parametrize("how", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"])
    def test_no_descendant_outlives_a_server_stopped_mid_job(self, how):
        """``repro serve`` catches no signal: its job workers (and whatever
        they started) must notice the parent is gone on their own, also in
        the middle of a mine — the perf ledger's ``Server.close()`` is a
        SIGTERM, and a survivor holding its stderr hangs the harness."""
        from repro.core.registry import MiningConfig
        from repro.datasets import mushroom_like
        from repro.serve import HttpClient
        from tests.procs import descendants, gone_within

        def worker_dirs() -> set:
            return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-job-worker-*")))

        before = worker_dirs()
        with _cli_server("--workers", "2") as (proc, url):
            client = HttpClient(url)
            txns = mushroom_like(scale=0.5, seed=2).transactions
            job = client.submit(txns, MiningConfig(min_support=0.25, backend="serial"))
            deadline = time.monotonic() + 30.0
            while client.status(job["job_id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            kids = descendants(proc.pid)
            assert len(kids) >= 2  # one job worker per service worker
            proc.send_signal(how)
            proc.wait(timeout=10)
            assert proc.returncode == -how
            assert gone_within(kids, 2.0) == []
            assert worker_dirs() <= before  # each worker took its temporary files along

    def test_cli_server_announces_its_url_serves_and_stops_on_sigterm(self):
        """The path every ``repro serve`` user runs, and the banner the
        perf ledger's ``server.py`` parses: the CLI server as a
        subprocess with default sharding announces its bound URL, mines
        over HTTP what the direct call mines, and exits promptly on
        SIGTERM."""
        from repro.core.api import mine_frequent_itemsets
        from repro.core.registry import MiningConfig
        from repro.datasets import mushroom_like
        from repro.serve import HttpClient

        txns = mushroom_like(scale=0.05, seed=1).transactions
        config = MiningConfig(min_support=0.35, backend="serial")
        with _cli_server() as (proc, url):
            client = HttpClient(url)
            assert client.healthz() == {"status": "ok", "shards": 1, "workers": 4}
            served = client.mine(txns, config, timeout=120)
            assert served == mine_frequent_itemsets(txns, config=config).itemsets
            metrics = client.metrics()
            assert metrics["router"]["jobs_routed"] == 1
            # it ran in one of the four job workers forked before the bind
            workers = metrics["shards"][0]["service"]["job_workers"]
            assert (workers["alive"], workers["started"], workers["jobs_run"]) == (4, 4, 1)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGTERM


@contextlib.contextmanager
def _cli_server(*flags):
    """``python -m repro serve --port 0 --quiet`` as a subprocess; yields
    ``(process, url)`` and leaves nothing running."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet", *flags],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        banner = proc.stdout.readline()
        url = re.search(r"http://\S+", banner)
        assert url is not None, f"no URL in the banner: {banner!r}"
        yield proc, url.group(0)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


class TestMine:
    def test_mine_generated_dataset(self, capsys):
        rc = main(
            [
                "mine",
                "--dataset", "medical",
                "--scale", "0.05",
                "--support", "0.2",
                "--backend", "serial",
                "--top", "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "frequent itemsets" in out

    def test_mine_input_file(self, tmp_path, capsys):
        data = tmp_path / "t.dat"
        data.write_text("a b\na b c\nb c\n")
        rc = main(
            ["mine", "--input", str(data), "--support", "0.5", "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "b" in out

    def test_mine_with_rules(self, tmp_path, capsys):
        data = tmp_path / "t.dat"
        data.write_text("a b\na b\na b\nb\n")
        rc = main(
            [
                "mine", "--input", str(data), "--support", "0.5",
                "--backend", "serial", "--rules", "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "=>" in out

    def test_mine_num_partitions(self, tmp_path, capsys):
        data = tmp_path / "t.dat"
        data.write_text("a b\na b c\nb c\na b\n")
        rc = main(
            [
                "mine", "--input", str(data), "--support", "0.5",
                "--backend", "serial", "--num-partitions", "3",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_mine_incremental_is_the_oracle_on_every_backend(
        self, tmp_path, capsys, backend
    ):
        from repro.algorithms import apriori

        rows = [["a", "b"], ["a", "b", "c"], ["b", "c"], ["a", "b"]]
        data = tmp_path / "t.dat"
        data.write_text("".join(" ".join(row) + "\n" for row in rows))
        rc = main(
            [
                "mine", "--input", str(data), "--support", "0.5",
                "--incremental", "--backend", backend, "--top", "50",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("incremental:")
        listing = [line.split() for line in out.splitlines() if "pass" not in line][1:]
        assert {tuple(items): int(n) for *items, n in listing} == apriori(rows, 0.5)

    def test_mine_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        data = tmp_path / "t.dat"
        # reaches pass 3: pass 2 counts pairs off the rows and builds no store
        data.write_text("a b c\na b c\nb c\na b\n")
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "mine", "--input", str(data), "--support", "0.5",
                "--backend", "serial", "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        assert "wrote chrome://tracing JSON" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert any(n.startswith("job-") for n in names)
        assert any(n.startswith("broadcast_publish") for n in names)
        assert "store_build k=3" in names
        assert "store_build k=2" not in names

    def test_mine_without_source_exits(self):
        with pytest.raises(SystemExit):
            main(["mine", "--support", "0.5"])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["mine", "--dataset", "nope", "--support", "0.5"])


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "chess.dat"
        rc = main(
            ["generate", "--dataset", "chess", "--scale", "0.07", "--out", str(out_file)]
        )
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) >= 200
        assert all(line.strip() for line in lines)

    def test_generated_file_is_minable(self, tmp_path, capsys):
        out_file = tmp_path / "m.dat"
        main(["generate", "--dataset", "mushroom", "--scale", "0.03", "--out", str(out_file)])
        rc = main(
            [
                "mine", "--input", str(out_file), "--support", "0.6",
                "--algorithm", "fpgrowth",
            ]
        )
        assert rc == 0


class TestCompare:
    def test_compare_prints_table(self, capsys):
        rc = main(
            [
                "compare", "--dataset", "medical", "--scale", "0.05",
                "--support", "0.15", "--max-length", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out
        assert "outputs identical: True" in out

    def test_compare_trace_out_holds_both_systems(self, tmp_path, capsys):
        trace = tmp_path / "both.json"
        rc = main(
            [
                "compare", "--dataset", "medical", "--scale", "0.05",
                "--support", "0.15", "--max-length", "2",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 2  # one trace process per system
