"""Every ``BENCH_*.json`` checked in at the repo root is a full-size run in
the envelope ``benchmarks/_envelope.py`` writes: a ``--smoke`` run goes to
the git-ignored ``benchmarks/out/`` and never overwrites one."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
REPORTS = sorted(ROOT.glob("BENCH_*.json"))


def _envelope_module():
    spec = importlib.util.spec_from_file_location("_envelope", ROOT / "benchmarks" / "_envelope.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENVELOPE = _envelope_module()


def test_the_root_holds_reports():
    assert REPORTS


@pytest.mark.parametrize("path", REPORTS, ids=[p.name for p in REPORTS])
def test_a_root_report_is_a_full_size_run_in_its_envelope(path):
    report = json.loads(path.read_text())
    keys = ENVELOPE.envelope("any", smoke=False).keys()
    assert keys <= report.keys(), f"{path.name} lacks {sorted(keys - report.keys())}"
    assert report["smoke"] is False
    assert all(report[key] is not None for key in keys)


def test_only_a_full_size_run_writes_the_root(tmp_path, monkeypatch):
    monkeypatch.setattr(ENVELOPE, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(ENVELOPE, "SMOKE_DIR", str(tmp_path / "benchmarks" / "out"))
    assert ENVELOPE.report_path("BENCH_x.json", smoke=False) == str(tmp_path / "BENCH_x.json")
    smoke = ENVELOPE.report_path("BENCH_x.json", smoke=True)
    assert smoke == str(tmp_path / "benchmarks" / "out" / "BENCH_x.json")
    assert (tmp_path / "benchmarks" / "out").is_dir()
