"""The table-driven CI throughput gate (``benchmarks/gate.py``), run the way
CI runs it — as a script, on a synthetic merged artifact."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "gate.py"


def recovery_row(steps: int, rate: float, speedup: float = 10.0, replayed: int = 5) -> dict:
    return {
        "steps": steps,
        "recoveries_per_s_bounded": rate,
        "speedup": speedup,
        "bounded_replay_plans": replayed,
        "checkpoint_interval": 25,
    }


def run_gate(tmp_path, name: str, document: dict, *extra: str):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(document))
    done = subprocess.run(
        [sys.executable, str(GATE), name, "--artifact", str(artifact), *extra],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout


def recovery_artifact(*fresh: dict) -> dict:
    return {
        "recovery_latency": {"rows": [recovery_row(400, 500.0)]},
        "smoke": {"rows": list(fresh)},
    }


def test_within_threshold_passes(tmp_path):
    code, out = run_gate(tmp_path, "recovery", recovery_artifact(recovery_row(400, 400.0)))
    assert code == 0
    assert "steps=400 bounded recoveries/s: fresh 400.0 vs committed 500.0 (x0.80) — ok" in out
    assert "steps=400: same-run full-over-bounded speedup x10.00 (committed sweep x10.00)" in out


def test_regression_past_threshold_fails(tmp_path):
    document = recovery_artifact(recovery_row(400, 300.0))
    code, out = run_gate(tmp_path, "recovery", document)
    assert code == 1 and "(x0.60) — REGRESSION" in out
    # The same rows pass a looser --threshold.
    assert run_gate(tmp_path, "recovery", document, "--threshold", "0.5")[0] == 0


def test_collapsed_speedup_and_row_bound_fail_even_when_throughput_passes(tmp_path):
    row = recovery_row(400, 600.0, speedup=0.9, replayed=40)
    code, out = run_gate(tmp_path, "recovery", recovery_artifact(row))
    assert code == 1
    assert "— ok" in out
    assert "REGRESSION — bounded recovery is no faster than full" in out
    assert "REGRESSION — bounded recovery replayed 40 plans, more than the checkpoint interval (25)" in out


def test_missing_section_exits_one(tmp_path):
    code, out = run_gate(tmp_path, "recovery", {"recovery_latency": {"rows": [recovery_row(400, 1.0)]}})
    assert code == 1 and "no fresh smoke section" in out
    code, out = run_gate(tmp_path, "recovery", {"smoke": {"rows": [recovery_row(400, 1.0)]}})
    assert code == 1 and "no committed recovery_latency section" in out


def test_fresh_row_without_committed_point_is_skipped(tmp_path):
    document = recovery_artifact(recovery_row(1600, 1.0), recovery_row(400, 500.0))
    code, out = run_gate(tmp_path, "recovery", document)
    assert code == 0 and "steps=1600: no committed baseline row, skipping" in out


def test_multi_key_gate_reports_speedup_only_where_the_table_says(tmp_path):
    point = {"depth": 1024, "sources": 16, "columnar_plans_per_s": 100.0}
    document = {
        "planner_scalability": {"rows": [point]},
        "smoke": {"rows": [point, {**point, "depth": 7}]},
    }
    code, out = run_gate(tmp_path, "plan", document)
    assert code == 0
    assert "depth=1024 sources=16 columnar plans/s: fresh 100.0 vs committed 100.0 (x1.00) — ok" in out
    assert "depth×sources=(7, 16): no committed baseline row, skipping" in out
    assert "speedup" not in out


@pytest.mark.parametrize("argv", [[], ["elastic"]])
def test_unknown_gate_name_is_a_usage_error(argv):
    done = subprocess.run(
        [sys.executable, str(GATE), *argv], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and "usage: gate.py {sched,plan,assembly,recovery}" in done.stdout
