"""One workload process: set-up, the timed closed loop, the checks, the metrics.

Started by run.py with the BLAS/OpenMP thread variables pinned to 1. It
prints ``READY`` once set-up (import, input generation, one warm-up op) is
done; with ``--role setup`` it then exits, with ``--role main`` it goes on to
measure and ends with one ``RESULT {json}`` line.

Untraced (``--trace 0``): one client runs ops back to back for ``--seconds``,
stopping at the end of a whole pass over the inputs, with the reference kernel
timed between ops to put the timings at one machine speed. Traced (``--trace 1``):
the first half of the time runs untraced, then the tracer is installed and the
same ops run again, so ``trace.overhead_frac`` compares identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

from reference import Reference
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPAN_BUDGET = 200_000  # the traced phase stops at a pass boundary past this many spans
FAILURES_SHOWN = 5
UNSTEADY_RATIO = 2.0  # slowest / fastest pass above which a run is flagged unsteady

clock = time.perf_counter


class OpError:
    """An op that raised; compares equal to nothing, so it always fails."""

    def __init__(self, text: str) -> None:
        self.text = text


class Checker:
    """Checks outputs as they arrive while keeping one output per distinct input.

    The first output for each key is kept and goes through the oracles after
    the timed loop. Every later output for the same key is compared with it
    right after its op, outside the op's timed interval, and only the verdict
    is kept. So the memory held does not grow with the number of ops, and the
    comparison covers warm-up vs. timed and traced vs. untraced ops.
    """

    def __init__(self, w) -> None:
        self.w = w
        self.first: dict = {}  # key -> (op, output, phase)
        self.same: dict = {}  # key -> later ops whose output equals the first
        self.differing = 0
        self.messages: list[str] = []

    def _note(self, message: str) -> None:
        if len(self.messages) < FAILURES_SHOWN:
            self.messages.append(message)

    def add(self, i: int, out, phase: str) -> None:
        key = self.w.key(i)
        if key not in self.first:
            self.first[key] = (i, out, phase)
            self.same[key] = 0
        elif not isinstance(out, OpError) and self.first[key][1] == out:
            self.same[key] += 1
        else:
            self.differing += 1
            self._note(f"{phase} op {i}: " + (out.text if isinstance(out, OpError) else "output differs from an earlier op on the same input"))

    def first_outputs(self) -> dict:
        """{op: output} of the first op on each key that did not raise."""
        return {i: out for i, out, _ in self.first.values() if not isinstance(out, OpError)}

    def finish(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, first messages). A first output that fails an
        oracle fails every op that repeated it."""
        extra = self.w.run_checks(self.first_outputs())
        failed = self.differing
        for key, (i, out, phase) in self.first.items():
            msg = out.text if isinstance(out, OpError) else self.w.check(i, out) or extra.get(i)
            if msg:
                failed += 1 + self.same[key]
                self._note(f"{phase} op {i}: {msg}")
        attempted = len(self.first) + sum(self.same.values()) + self.differing
        return attempted, failed, self.messages


def run_ops(w, seconds: float, checker: Checker, phase: str, limit: int | None = None, tracer=None, reference=None):
    """Closed loop over ``w.run_op``, stopping at a pass boundary; returns
    (op durations, wall time of each pass). Each output goes to ``checker``
    once its op's clock has stopped; ``reference`` samples the machine's
    speed between ops."""
    durations, passes = array("d"), []
    start = mark = clock()
    i = 0
    while True:
        if i and i % len(w.items) == 0:
            now = clock()
            passes.append(now - mark)
            mark = now
            if now - start >= seconds or (limit is not None and i >= limit):
                break
            if tracer is not None and len(tracer.spans) >= SPAN_BUDGET:
                break
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = w.run_op(i)
        except Exception:
            out = OpError(traceback.format_exc())
        durations.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
        checker.add(i, out, phase)
        if reference is not None:
            reference.sample()
        i += 1
    return durations, passes


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: value for var, value in sorted(os.environ.items()) if var.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "clients": "one closed-loop client in one process",
        "queueing": "none: with one client no layer has a queue, so no wait time is reported",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_input_latencies(w, durations) -> list[float]:
    """Each distinct input's mean latency over its repeats in the timed loop
    (see README.md)."""
    repeats: dict = {}
    for i, d in enumerate(durations):
        repeats.setdefault(w.key(i), []).append(d)
    return sorted(statistics.fmean(r) for r in repeats.values())


def latency_metrics(w, durations, passes: list[float], reference: Reference) -> tuple[dict, dict]:
    """End-to-end metrics of the timed loop, and for the record the figures
    before they are put at the nominal machine speed. Called as the loop
    ends, before the oracles run, so ``peak_rss_mb`` holds set-up, the ops
    and what the checker keeps per distinct input (plus 8 bytes per op
    duration and per reference rep)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = per_input_latencies(w, durations)
    slowdown = reference.slowdown()
    lat = [x / slowdown for x in raw]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    plain = {
        "inputs": len(lat),
        "slowdown": slowdown,
        "reference_reps": len(reference.durations),
        "measured_ops_per_s": len(raw) / sum(raw),
        "measured_op_p50_ms": statistics.median(raw) * 1e3,
        "wall_ops_per_s": len(durations) / sum(passes),
        "all_ops_p50_ms": statistics.median(durations) * 1e3,
    }
    return metrics, plain


LAYER_NAMES = LAYERS + ("numpy",)
FUNCTION_CALLS = (
    "states.pairwise_orthogonal",
    "ensembles.average_state",
    "ensembles.reduced_ensemble",
    "entropy.von_neumann_entropy",
    "linalg.partial_trace",
    "states.density_of",
    "numpy.eigh",
    "numpy.eigvalsh",
    "numpy.svd",
)
FUNCTION_SELF = (
    "states.pairwise_orthogonal",
    "accessible.estimate_accessible_info",
    "fileio.parse_ensemble",
    "fileio.dumps_canonical",
    "cli.main",
)


def layer_metrics(summary: dict, n_ops: int, eig_n3: int, quality: dict, op_ms: float, overhead: float) -> dict:
    """Per-op calls and self time per layer and for the functions the open
    items target (see README.md for which end-to-end metric each should move)."""
    metrics = {}
    for layer in LAYER_NAMES:
        rows = [v for k, v in summary.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows) / n_ops, "count/op")
        metrics[f"{layer}.self_ms"] = (sum(r["self_s"] for r in rows) * 1e3 / n_ops, "ms/op")
    empty = {"calls": 0, "self_s": 0.0}
    for name in FUNCTION_CALLS:
        metrics[f"{name}.calls"] = (summary.get(name, empty)["calls"] / n_ops, "count/op")
    for name in FUNCTION_SELF:
        metrics[f"{name}.self_ms"] = (summary.get(name, empty)["self_s"] * 1e3 / n_ops, "ms/op")
    metrics["numpy.eig_n3"] = (eig_n3 / n_ops, "computed_n3/op")
    metrics["accessible.capped_restarts"] = (quality.get("capped_restarts", 0.0), "count/op")
    metrics["accessible.info_lo_bits"] = (quality.get("info_lo_bits", 0.0), "bits")
    metrics["trace.op_ms"] = (op_ms, "ms/op")
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics


def machine_load():
    """(steal ticks, busy ticks of all CPUs, own CPU seconds), read-only from
    /proc/stat; None where it cannot be read."""
    own = os.times()
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal ...
    return ticks[7], sum(ticks[:3]) + sum(ticks[5:8]), own.user + own.system


def steadiness(passes: list[float], before, after) -> dict:
    """How steady the machine was during the timed loop: the slowest over the
    fastest pass, CPU time stolen by the hypervisor, and the busy share of all
    CPUs spent outside this process. ``unsteady`` flags a run whose passes
    differ by more than UNSTEADY_RATIO; its timings mix fast and slow spells."""
    ratio = max(passes) / min(passes)
    out = {"pass_ratio": ratio, "unsteady": ratio > UNSTEADY_RATIO}
    if before and after:
        hz, wall = os.sysconf("SC_CLK_TCK"), sum(passes)
        out["steal_s"] = (after[0] - before[0]) / hz
        other = (after[1] - before[1]) / hz - (after[2] - before[2])
        out["other_busy_frac"] = max(0.0, other) / (wall * (os.cpu_count() or 1))
    return out


def measure(w, args, checker: Checker) -> dict:
    if not args.trace:
        before = machine_load()
        reference = Reference()
        durations, passes = run_ops(w, args.seconds, checker, "timed", reference=reference)
        after = machine_load()
        metrics, plain = latency_metrics(w, durations, passes, reference)
        attempted, failed, messages = checker.finish()
        quality = w.quality(checker.first_outputs())
        extra = {"ops": len(durations), "passes": len(passes), **plain, "pass_s": passes, **steadiness(passes, before, after), **quality}
    else:
        d1, _ = run_ops(w, args.seconds / 2, checker, "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            d2, _ = run_ops(w, args.seconds / 2, checker, "traced", limit=len(d1), tracer=tracer)
        finally:
            tracer.remove()
        attempted, failed, messages = checker.finish()
        n = len(d2)
        overhead = sum(d2) / sum(d1[:n]) - 1.0
        quality = w.quality(checker.first_outputs())
        metrics = layer_metrics(tracer.summary(), n, tracer.eig_n3, quality, sum(d2) * 1e3 / n, overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "ops": n})
        extra = {"untraced_ops": len(d1), "traced_ops": n, "spans": len(tracer.spans), "span_file": str(spans_path.relative_to(ROOT))}
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    args = parser.parse_args(argv)

    if not (SRC / "entcharge" / "__init__.py").is_file():
        print(f"error: no entcharge sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entcharge

    if Path(entcharge.__file__).resolve().parent != (SRC / "entcharge").resolve():
        print(f"error: imported entcharge from {entcharge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        w.setup()
        checker = Checker(w)
        try:
            checker.add(0, w.run_op(0), "warm-up")
        except Exception:
            checker.add(0, OpError(traceback.format_exc()), "warm-up")
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        result = measure(w, args, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["record"] = environment(args)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
