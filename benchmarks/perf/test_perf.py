"""Self-test of the whole-run benchmark on truncated traces.

Run from the repository root with ``pytest benchmarks/perf``; the
tier-1 suite collects ``tests/`` only.  Every trace is cut to 20k
accesses, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
LIMIT = "20000"


def bench(tmp_path: Path, *args: str):
    """Run the benchmark on truncated traces; returns the exit code, the
    printed ``(workload, metric) -> (value, unit)`` rows, the last-line
    result and the ``--out`` document."""
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--limit", LIMIT, "--seconds", "1",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        rows[(workload, metric)] = (float(value), unit)
    doc = json.loads(out.read_text()) if out.exists() else None
    return proc.returncode, rows, json.loads(lines[-1]), doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, tmp_path):
    code, rows, result, plain = bench(tmp_path, "--workload", workload)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert rows[(workload, "fail_frac")] == (0.0, "ratio")
    for metric in SPEC["end_to_end"]:
        assert rows[(workload, metric["name"])][1] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    code, rows, result, traced = bench(tmp_path, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert rows[(workload, metric["name"])][1] == metric["unit"]
    # The traced run checked traced == untraced == oracle internally;
    # across invocations the untraced digests must agree as well.
    assert traced["workloads"][workload]["digests"] == plain["workloads"][workload]["digests"]


def test_corrupted_pinned_digest_raises_fail_frac(tmp_path):
    expected = tmp_path / "expected.json"
    pin = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--limit", LIMIT, "--workload", "kv-rw",
         "--pin", "--expected", str(expected)],
        capture_output=True, text=True, timeout=600,
    )
    assert pin.returncode == 0, pin.stderr
    code, rows, result, doc = bench(tmp_path, "--workload", "kv-rw", "--expected", str(expected))
    assert code == 0 and doc["workloads"]["kv-rw"]["pinned"]
    assert rows[("kv-rw", "fail_frac")][0] == 0.0

    pins = json.loads(expected.read_text())
    pins["kv-rw"][f"7@{LIMIT}"]["kv-cache"] = "0" * 64
    expected.write_text(json.dumps(pins))
    code, rows, result, _doc = bench(tmp_path, "--workload", "kv-rw", "--expected", str(expected))
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert rows[("kv-rw", "fail_frac")][0] > 0.0
