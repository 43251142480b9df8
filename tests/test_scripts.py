"""Smoke tests of the experiment scripts in scripts/, run as subprocesses
against the package in src/ (see conftest.py)."""

import subprocess
import sys
from pathlib import Path

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
