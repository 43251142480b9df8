"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import entcharge  # noqa: E402
import entcharge.accessible  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SEED = 1


def _namespaces():
    mods = [m for name, m in sys.modules.items() if name == "entcharge" or name.startswith("entcharge.")]
    return mods + [np.linalg]


def _snapshot():
    return {(m.__name__, k): v for m in _namespaces() for k, v in vars(m).items()}


def _traced_ops(w, ops):
    tracer = Tracer()
    tracer.install()
    try:
        outputs = {}
        for i in ops:
            tracer.begin_op(i)
            outputs[i] = w.run_op(i)
            tracer.end_op()
    finally:
        tracer.remove()
    return tracer, outputs


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    w = workloads.AnalyzeCorpus(SEED, tmp_path_factory.mktemp("corpus"))
    w.setup()
    return w


@pytest.fixture(scope="module")
def sweep():
    w = workloads.FamilySweep(SEED, None)
    w.setup()
    return w


@pytest.fixture(scope="module")
def search():
    w = workloads.AccessibleSearch(SEED, None)
    w.setup()
    return w


def test_traced_outputs_identical_and_names_restored(corpus, sweep, search):
    before = _snapshot()
    cases = [(corpus, range(len(corpus.items) + 2)), (sweep, range(0, len(sweep.items), 16)), (search, [2])]
    for w, ops in cases:
        untraced = {i: w.run_op(i) for i in ops}
        tracer, traced = _traced_ops(w, ops)
        assert traced == untraced, w.name
        assert tracer.spans and all(span is not None for span in tracer.spans)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), [k for k in before if after[k] is not before[k]]


def test_install_replaces_every_reference():
    tracer = Tracer()
    originals = {name: getattr(entcharge.states, name) for name in ("pairwise_orthogonal", "density_of")}
    tracer.install()
    try:
        for name, fn in originals.items():
            for module in _namespaces():
                if getattr(module, name, None) is not None and module is not np.linalg:
                    assert getattr(module, name) is not fn, (module.__name__, name)
                    assert getattr(module, name).__wrapped__ is fn
        assert np.linalg.eigh.__wrapped__ is not None
        assert any(module is np.linalg for module, _, _ in tracer.patches)
        assert {f"entcharge.{layer}" for layer in LAYERS} <= {m.__name__ for m, _, _ in tracer.patches}
    finally:
        tracer.remove()
    assert all(getattr(entcharge.states, name) is fn for name, fn in originals.items())


def test_call_counts_repeat_and_gbell_orthogonality_checked_four_times(corpus):
    ops = range(len(corpus.items))
    counts = []
    for _ in range(2):
        tracer, _ = _traced_ops(corpus, ops)
        per_op: dict = {}
        for nid, _, _, _, op in tracer.spans:
            key = (op, tracer.names[nid])
            per_op[key] = per_op.get(key, 0) + 1
        counts.append(per_op)
    assert counts[0] == counts[1]
    gbell = [i for i in ops if "gbell" in Path(corpus.items[i][0]).name]
    assert len(gbell) == 7
    assert all(counts[0][(i, "states.pairwise_orthogonal")] == 4 for i in gbell)


def _check(w, outputs: dict):
    checker = harness.Checker(w)
    for i, out in outputs.items():
        checker.add(i, out, "t")
    return checker.finish()


def test_planted_wrong_output_is_counted(corpus):
    outputs = {i: corpus.run_op(i) for i in range(2)}
    assert _check(corpus, outputs)[:2] == (2, 0)
    code, text, err = outputs[0]  # gbell d=2, text format
    assert "exact value (bits):" in text
    lines = [line if not line.startswith("exact value") else "exact value (bits): 0.123456789" for line in text.splitlines()]
    outputs[0] = (code, "\n".join(lines) + "\n", err)
    attempted, failed, messages = _check(corpus, outputs)
    assert (attempted, failed) == (2, 1)
    assert "oracle H(X) - log2 d" in messages[0]


def test_planted_wrong_program_result_is_counted(search, monkeypatch):
    def too_low(e, cfg=None, tol=None):
        chi = min(workloads.shannon(e.probs), workloads.entropy_of(sum(p * np.outer(s.vector, s.vector.conj()) for p, s in e.members)))
        return entcharge.accessible.InfoInterval(0.0, chi, "")

    monkeypatch.setattr(entcharge.accessible, "estimate_accessible_info", too_low)
    checker = harness.Checker(search)
    harness.run_ops(search, 0.0, checker, "t")
    attempted, failed, messages = checker.finish()
    assert (attempted, failed) == (3, 3)
    assert all("below the closed-form / pretty-good floor" in m for m in messages)


def test_identical_input_with_different_output_is_counted(sweep):
    outputs = {0: sweep.run_op(0), len(sweep.items): sweep.run_op(0)}
    row, interval = outputs[len(sweep.items)]
    outputs[len(sweep.items)] = (row, (interval[0], interval[1] + 1e-3))
    assert _check(sweep, outputs)[:2] == (2, 1)


def test_repeat_of_a_wrong_output_is_counted(corpus):
    code, text, err = corpus.run_op(0)
    wrong = (code, text.replace("exact value (bits):", "exact value (bits): 9"), err)
    assert _check(corpus, {0: wrong, 2 * len(corpus.items): wrong})[:2] == (2, 2)


def test_checker_keeps_one_output_per_input(corpus):
    checker = harness.Checker(corpus)
    for phase in ("first pass", "second pass"):
        durations, passes = harness.run_ops(corpus, 0.0, checker, phase)
        assert len(durations) == len(corpus.items) and len(passes) == 1
    assert len(checker.first) == len(corpus.items)
    assert checker.finish()[:2] == (2 * len(corpus.items), 0)


def test_latencies_are_per_input_means_at_nominal_speed(corpus):
    n = len(corpus.items)
    reference = Reference()
    reference.durations.extend([NOMINAL_S, 3 * NOMINAL_S])
    durations = [0.001 * (k % n + 1) for k in range(4 * n)]  # input j takes j+1 ms
    durations[-1] += 0.004 * n  # the last input's fourth op is slower
    metrics, plain = harness.latency_metrics(corpus, durations, [1.0] * 4, reference)
    assert (plain["inputs"], plain["slowdown"]) == (2 * n, 2.0)  # a key is a file and a format
    assert plain["measured_ops_per_s"] == pytest.approx(2 * n / (2 * sum(range(1, n + 1)) * 1e-3 + 0.002 * n))
    assert metrics["ops_per_s"][0] == pytest.approx(2 * plain["measured_ops_per_s"])
    assert metrics["op_p50_ms"][0] == pytest.approx(plain["measured_op_p50_ms"] / 2)
    assert metrics["op_p90_ms"][0] > metrics["op_p50_ms"][0]
    assert plain["all_ops_p50_ms"] == pytest.approx((n + 1) / 2)


def _run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _run_bench(ROOT, "family_sweep", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["threads"]["OPENBLAS_NUM_THREADS"] == "1" and record["seed"] == SEED


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "analyze_corpus", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
