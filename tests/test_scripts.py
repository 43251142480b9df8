"""Smoke tests of the experiment scripts in scripts/, run as subprocesses
against the package in src/ (see conftest.py)."""

import subprocess
import sys
from pathlib import Path

import pytest

from entcharge.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_random_orthogonal_audit_passes():
    proc = run_script("random_orthogonal_audit.py", "--samples", "20")
    assert proc.returncode == 0, proc.stderr
    assert "audit ok" in proc.stdout


def test_rotated_family_scan_rejects_nan_gate_cost(tmp_path):
    out = tmp_path / "points.json"
    proc = run_script("rotated_family_scan.py", "--steps", "3", "--gate-cost", "nan", "--json-out", str(out))
    assert proc.returncode != 0
    assert "gate cost nan is not finite" in proc.stderr
    assert not out.exists()


def test_rotated_family_scan_csv_equals_cli_sweep(tmp_path):
    scan = tmp_path / "scan.csv"
    proc = run_script("rotated_family_scan.py", "--steps", "5", "-o", str(scan))
    assert proc.returncode == 0, proc.stderr
    sweep = tmp_path / "sweep.csv"
    argv = ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5707963267948966", "--steps", "5"]
    assert main([*argv, "-o", str(sweep)]) == 0
    assert scan.read_bytes() == sweep.read_bytes()


@pytest.mark.parametrize(
    "script, args, diagnostic",
    [
        ("rotated_family_scan.py", ["--probs", "0.5,0.5"], "error: expected 4 probabilities, got 2"),
        ("rotated_family_scan.py", ["--probs", "a,b"], "error: cannot parse --probs 'a,b'"),
        ("rotated_family_scan.py", ["--steps", "0"], "error: the scan needs at least one step, got 0"),
        ("rotated_family_scan.py", ["--steps", "2", "--theta-max", "3"], "error: theta 3.0 outside [0, pi/2]"),
        ("random_orthogonal_audit.py", ["--dims", "9"], "error: joint dimension 81 exceeds the cap 64"),
        ("random_orthogonal_audit.py", ["--dims", "2", "1"], "error: --dims entries must be >= 2, got 1"),
        ("random_orthogonal_audit.py", ["--seed", "-1"], "error: --seed must be >= 0, got -1"),
        ("random_orthogonal_audit.py", ["--samples", "0"], "error: --samples must be >= 1, got 0"),
    ],
)
def test_scripts_report_bad_input_as_one_error_line(script, args, diagnostic):
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(diagnostic)
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_rotated_family_scan_reports_unwritable_output(tmp_path):
    proc = run_script("rotated_family_scan.py", "--steps", "2", "-o", str(tmp_path / "missing" / "scan.csv"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in proc.stderr
