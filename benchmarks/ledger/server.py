"""The server under test: ``python -m repro serve`` as a subprocess."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.serve.client import HttpClient

SRC = Path(__file__).resolve().parents[2] / "src"

#: flags that describe the machine, fixed for every serve workload; the
#: timed server runs without ``--planner`` (README "Findings")
SERVER_FLAGS = ("--shards", "2", "--workers", "1", "--queue-limit", "32", "--quiet")


class Server:
    """One server process; ``close()`` stops it and waits for it to end."""

    def __init__(self, *extra_flags: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *SERVER_FLAGS, *extra_flags],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"http://\S+", banner)
            if match is None:
                raise RuntimeError(f"server did not announce a URL: {banner!r}")
            self.url = match.group(0)
            # the socket is bound before the banner; the client's own
            # connect retry covers the rest of the start-up
            HttpClient(self.url).healthz()
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
