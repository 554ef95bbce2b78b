#!/usr/bin/env python3
"""Perf ledger: one benchmark, four workloads, end-to-end and per-layer.

Three ways in (README.md has the details):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload in this interpreter.  ``--trace 0`` is the
    timed pass (every end-to-end metric); ``--trace 1`` is the traced
    pass (every per-layer metric).  The last stdout line is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``run.py [--smoke] [--trace] [--runs R] [--out report.json]``
    All four workloads, each pass in a fresh interpreter; prints every
    metric by name and writes one JSON report.
``run.py --compare A.json B.json``
    The noise gate over two reports.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts this interpreter's imports

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from speed import SpeedProbe
from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CATALOGUE = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 7
#: set-ups per timed run (this interpreter's own plus fresh-interpreter
#: probes); ``setup_s`` is their median
SETUPS = 3
DETAIL_PREFIX = "#detail "


def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text())


def make_workload(name: str, smoke: bool, seed):
    from inputs import SIZES

    if name in ("batch_dense", "batch_sparse"):
        from batch import BatchWorkload as cls
    elif name == "serve_mix":
        from serve_mix import ServeMixWorkload as cls
    else:
        from stream_window import StreamWindowWorkload as cls
    return cls(SIZES[smoke][name], seed)


# ---------------------------------------------------------------------------
# one pass of one workload, in this interpreter
# ---------------------------------------------------------------------------
def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter that sets up and stops."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    catalogue = load_catalogue()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[section]}
    workload = make_workload(args.workload, args.smoke, args.seed)
    try:
        workload.setup()
        measured_setup_s = time.perf_counter() - T_START
        setup_speed = SpeedProbe()
        setup_speed.spin(15)
        setup_s = measured_setup_s * setup_speed.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "measured_s": measured_setup_s}))
            return 0
        if args.trace:
            values = workload.layers(args.seconds, args.trace_out)
        else:
            values = workload.timed(args.seconds)
    finally:
        workload.close()
    factor = workload.speed.factor()
    # end-to-end times come back at reference machine speed (speed.py), op
    # by op; the workload keeps the raw readings
    measured = {**values, **workload.measured}
    if args.trace:
        values["bench.machine_speed"] = factor
    else:
        # probes run after the timed pass so that they neither disturb it
        # nor count as this interpreter's "largest child"
        probes = [] if args.smoke else [setup_probe(args) for _ in range(SETUPS - 1)]
        setups = [setup_s] + probes
        values["setup_s"] = median(setups)
        measured["setup_s"] = measured_setup_s
        workload.samples["setup_s"] = {
            "n": len(setups), "min": min(setups), "max": max(setups),
        }
    workload.verify()

    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    detail = {
        name: {"value": value, "unit": units[name], "measured": measured.get(name),
               "alias": workload.aliases.get(name),
               "samples": workload.samples.get(name)}
        for name, value in values.items()
    }
    print_table(args.workload, detail)
    print(f"machine speed {factor:.3f} of reference (median of "
          f"{len(workload.speed.spins)} spins)")
    failed = workload.failed
    print(f"ops attempted {workload.attempted}, failed {failed}, "
          f"fail_rate {failed / workload.attempted:.4f}")
    print(DETAIL_PREFIX + json.dumps(detail))
    # a layer metric this workload does not exercise reads 0
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({
        "correct": failed == 0, "attempted": workload.attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def print_table(workload: str, detail: dict) -> None:
    """``value`` is what the driver's line carries; ``measured`` the raw
    reading where the two differ; ``samples`` describes the measured series."""
    print(f"== {workload}")
    print(f"{'metric':<44} {'unit':<6} {'value':>12} {'measured':>12}  samples")
    for name, entry in detail.items():
        label = f"{name} ({entry['alias']})" if entry.get("alias") else name
        samples = entry.get("samples")
        spread = ""
        if samples:
            spread = "n={n}".format(**samples) + "".join(
                f" {key}={samples[key]:.4g}" for key in ("min", "q1", "q3", "max")
                if key in samples
            )
        raw = entry.get("measured")
        raw = "" if raw is None or raw == entry["value"] else f"{raw:.6g}"
        print(f"{label:<44} {entry['unit']:<6} {entry['value']:>12.6g} {raw:>12}  {spread}")


# ---------------------------------------------------------------------------
# the whole ledger: every workload, each pass in a fresh interpreter
# ---------------------------------------------------------------------------
def child_pass(args, workload: str, trace: int) -> tuple[dict, dict]:
    """Run one pass in a fresh interpreter; returns (result line, detail)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace and args.trace_out:
        cmd += ["--trace-out", str(Path(args.trace_out).with_suffix(f".{workload}.json"))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines:
        if not line.startswith(DETAIL_PREFIX) and not line.startswith('{"correct"'):
            print(line)
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        raise SystemExit(f"error: {workload} pass ended without a result "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_ledger(args) -> int:
    catalogue = load_catalogue()
    report = {
        "schema": "perf-ledger/1",
        "smoke": args.smoke,
        "envelope": {
            "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
            "setups_per_run": 1 if args.smoke else SETUPS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "wall_s": {},
        },
        "workloads": {},
    }
    failed_anywhere = False
    for spec in catalogue["workloads"]:
        name = spec["name"]
        t0 = time.perf_counter()
        entry = {"why": spec["why"], "attempted": 0, "failed": 0, "end_to_end": {}}
        for _ in range(args.runs):
            result, detail = child_pass(args, name, trace=0)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, item in detail.items():
                slot = entry["end_to_end"].setdefault(
                    metric, {"unit": item["unit"], "alias": item["alias"],
                             "values": [], "measured": [], "samples": []},
                )
                slot["values"].append(item["value"])
                slot["measured"].append(item["measured"])
                slot["samples"].append(item["samples"])
        if args.trace:
            result, detail = child_pass(args, name, trace=1)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["per_layer"] = {
                metric: {k: item[k] for k in ("value", "unit", "samples")}
                for metric, item in detail.items()
            }
        entry["fail_rate"] = entry["failed"] / entry["attempted"]
        failed_anywhere |= entry["failed"] > 0
        report["envelope"]["wall_s"][name] = time.perf_counter() - t0
        report["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report written to {out}")
    for name, entry in report["workloads"].items():
        print(f"{name}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"fail_rate {entry['fail_rate']:.4f}")
    return 1 if failed_anywhere else 0


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one pass (default: run_seconds "
                        "of BENCHMARK.json; 2 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="traced per-layer pass (after the timed runs, "
                        "when running the whole ledger)")
    parser.add_argument("--trace-out", help="write the traced pass's spans as "
                        "chrome-trace JSON (one file per workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: exercises the schema and the oracle checks")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed runs per workload (default 3; 1 with --smoke)")
    parser.add_argument("--out", default=str(HERE / "out" / "report.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, load_catalogue())
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark runs the program "
              "from the checkout's source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(catalogue["run_seconds"])
    if args.runs is None:
        args.runs = 1 if args.smoke else 3
    if args.workload is None:
        return run_ledger(args)
    if args.workload not in {w["name"] for w in catalogue["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    # the engine's block manager spills under tempfile.gettempdir(): keep
    # that, like everything else a pass writes, inside the checkout
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        os.environ["TMPDIR"] = scratch
        return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
