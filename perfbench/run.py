"""entcharge benchmark: one command per workload run.

    python3 perfbench/run.py --workload analyze_corpus --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; entcharge is imported from its ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the line before it is the environment and
run record. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze_corpus", "family_sweep", "accessible_search")
# Fresh interpreters per untraced run; setup_s is the median of all seven
# set-up times, divided by the measuring run's slowdown like the other
# timings. Three start before the measuring one and three after it, so that
# a slow spell of the shared machine does not cover every sample.
SETUPS_BEFORE, SETUPS_AFTER = 3, 3
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def deadline_s(seconds: float) -> float:
    """Time allowed for the whole command: the measuring process needs
    ``seconds`` plus up to one more pass, and each interpreter its set-up."""
    return 2 * seconds + 60.0


class BenchError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def run_child(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start one workload process; return its set-up time (spawn to READY) and,
    for the main role, its RESULT."""
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    env = {**os.environ, **PINNED}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{role} process exited with code {code} (timed out or failed)", max(code, 1))
    if role == "setup":
        return setup_s, None
    results = [line[7:] for line in rest.splitlines() if line.startswith("RESULT ")]
    if not results:
        raise BenchError("main process printed no RESULT line", 1)
    return setup_s, json.loads(results[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + deadline_s(args.seconds)
    roles = ["main"] if args.trace else ["setup"] * SETUPS_BEFORE + ["main"] + ["setup"] * SETUPS_AFTER
    setups, result = [], None
    try:
        for role in roles:
            setup_s, child_result = run_child(args, role, deadline)
            setups.append(setup_s)
            result = child_result or result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code

    metrics = result["metrics"]
    if not args.trace:
        setup_s = statistics.median(setups) / result["extra"]["slowdown"]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    record = {
        **result["record"],
        "setup_runs_s": setups,
        "failed_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        **result["extra"],
    }
    for message in result["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    if record.get("unsteady"):
        print(f"warning: passes differed by {record['pass_ratio']:.2f}x; the machine's speed changed during the run", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
