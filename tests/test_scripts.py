"""Smoke tests of the experiment scripts in scripts/, run as subprocesses
against the package in src/ (see conftest.py)."""

import subprocess
import sys
from pathlib import Path

import pytest

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


AUDIT_BAD_INPUT = [
    (["--dims", "9"], "error: joint dimension 81 exceeds the cap 64"),
    (["--dims", "2", "1"], "error: --dims entries must be >= 2, got 1"),
    (["--seed", "-1"], "error: --seed must be >= 0, got -1"),
    (["--samples", "0"], "error: --samples must be >= 1, got 0"),
]


# The ids start at args4 so that they match the ids that earlier runs of
# this suite recorded for these cases.
@pytest.mark.parametrize(
    "args, diagnostic",
    AUDIT_BAD_INPUT,
    ids=[f"random_orthogonal_audit.py-args{k}-{diagnostic}" for k, (_, diagnostic) in enumerate(AUDIT_BAD_INPUT, 4)],
)
def test_scripts_report_bad_input_as_one_error_line(args, diagnostic):
    proc = run_script("random_orthogonal_audit.py", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(diagnostic)
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
