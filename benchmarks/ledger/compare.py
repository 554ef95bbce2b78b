"""The noise gate: do two ledger reports agree within the bounds?"""

from __future__ import annotations

import json

from stats import median, spread


def compare(path_a: str, path_b: str, catalogue: dict) -> int:
    """Print, per workload x end-to-end metric, both medians, how much
    worse B is than A, and the bound; non-zero when any pair disagrees
    by more than its bound.  A pair whose quartile spread is wider than
    the bound is *unresolved*, not unchanged."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for path, report in ((path_a, a), (path_b, b)):
        if report.get("smoke"):
            print(f"error: {path} is a smoke report; smoke sizes measure nothing")
            return 2
    print(f"{'workload':<14} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'B worse by':>11} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    differs = 0
    for spec in catalogue["workloads"]:
        name = spec["name"]
        for metric in catalogue["end_to_end"]:
            values_a = a["workloads"][name]["end_to_end"][metric["name"]]["values"]
            values_b = b["workloads"][name]["end_to_end"][metric["name"]]["values"]
            mid_a, mid_b = median(values_a), median(values_b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mid_b - mid_a) / mid_a
            spreads = spread(values_a), spread(values_b)
            if abs(worse) > metric["bound"]:
                verdict = "DIFFERS"
                differs += 1
            elif max(spreads) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "agrees"
            print(f"{name:<14} {metric['name']:<18} {mid_a:>12.5g} {mid_b:>12.5g} "
                  f"{worse:>+10.1%} {metric['bound']:>6.0%} "
                  f"{spreads[0]:>9.1%} {spreads[1]:>9.1%}  {verdict}")
    for name in (s["name"] for s in catalogue["workloads"]):
        for label, report in (("A", a), ("B", b)):
            entry = report["workloads"][name]
            if entry["failed"]:
                print(f"{name}: {label} failed {entry['failed']} of {entry['attempted']} ops")
                differs += 1
    return 1 if differs else 0
