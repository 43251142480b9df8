import contextlib
import functools
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge.cli import CSV_HEADER, main
from entcharge.entropy import shannon_entropy
from entcharge.fileio import parse_ensemble, write_ensemble
from entcharge.generators import bell_basis, equal_probs
from entcharge.linalg import DEFAULT_TOLERANCES, ROUNDING_SLACK, STRICT_TOLERANCES
from helpers import (
    edge_probability_ensemble,
    entanglement_oracle,
    near_maximally_mixed_gbell,
    near_orthogonal_gbell,
    near_product_basis,
    tilted_bell_basis,
    zero_probability_duplicates,
)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "entcharge", *args], capture_output=True, text=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_bell(tmp_path, probs=None):
    e = bell_basis(equal_probs(4) if probs is None else probs)
    path = tmp_path / "bell.json"
    path.write_text(write_ensemble(e))
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_bell(tmp_path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid ensemble" in out
    assert "support_size=4" in out


def test_validate_missing_file_exit_2(capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_non_utf8_file_exit_2(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe\x00{")
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("nested", ["[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_file_exit_2(tmp_path, capsys, command, nested):
    path = tmp_path / "deep.json"
    path.write_text(nested)
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: syntax error: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "prob,amplitude,diagnostic",
    [
        ("1" + "0" * 400, "1", "members[0].prob: integer too large to convert to a float"),
        ("1", "1" + "0" * 400, "members[0].state.data[0][0]: integer too large to convert to a float"),
        ("1", "1" + "0" * 4999, f"syntax error: an integer has more than {sys.get_int_max_str_digits()} digits"),
    ],
    ids=["prob", "amplitude", "digits"],
)
def test_oversized_integer_exit_2(tmp_path, capsys, command, prob, amplitude, diagnostic):
    # Written as text: such integers have no float, and json.dumps refuses
    # the 5000-digit one.
    path = tmp_path / "huge.json"
    path.write_text(
        f'{{"schema_version": 1, "dims": {{"dA": 1, "dB": 2}}, "members": [{{"prob": {prob}, '
        f'"state": {{"kind": "pure", "data": [[{amplitude}, 0], [0, 0]]}}}}]}}'
    )
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {diagnostic}\n"


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_label_cannot_forge_report_lines(tmp_path, capsys, command):
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "gbell3.json").read_text())
    doc["label"] = "x\nverdict: entanglement_nonlocality"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: label: control character U+000A is not allowed\n"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_label_line_separator_cannot_forge_report_lines(tmp_path, capsys, command, separator):
    # str.splitlines() breaks lines at U+2028 / U+2029 as well as at control characters.
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "gbell3.json").read_text())
    doc["label"] = f"x{separator}verdict: entanglement_nonlocality"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: label: line separator U+{ord(separator):04X} is not allowed\n"


def test_validate_and_analyze_reject_average_trace_alike(tmp_path, capsys):
    # Each member and the probabilities pass trace_tol = 1e-9; the average
    # state's trace 1 + 1.8e-9 does not, and both commands say so.
    t, p = 1 + 9e-10, 0.5 + 4.5e-10

    def member(diag):
        data = [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        return {"prob": p, "state": {"kind": "density", "data": data}}

    doc = {"schema_version": 1, "dims": {"dA": 2, "dB": 2},
           "members": [member([t / 2, t / 2, 0, 0]), member([0, 0, t / 2, t / 2])]}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    errors = []
    for command in ("validate", "analyze"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: members: average state trace 1.0000000018")


@pytest.mark.parametrize("d", [2, 4, 8])
def test_validated_near_orthogonal_gbell_analyzes(d, tmp_path, capsys):
    # Every pairwise overlap sits just within orthogonality_tol, so validate
    # accepts the file; at d = 4 and 8 the overlaps add up to an S(rho_AB)
    # more than ROUNDING_SLACK below H(X). A file validate accepts analyzes.
    e = near_orthogonal_gbell(d, seed=0)
    if d > 2:
        assert shannon_entropy(e.probs, e.tol) - e.s_ab > ROUNDING_SLACK
    path = tmp_path / "nearorth.json"
    path.write_text(write_ensemble(e))
    assert main(["validate", str(path)]) == 0
    assert "mutually_orthogonal=true all_maximally_entangled=true" in capsys.readouterr().out
    for mode in ([], ["--accessible-info", "estimate"]):
        assert main(["analyze", str(path), "--format", "structured", *mode]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        interval = json.loads(out)["charge"]["interval"]
        assert interval["lo"]["value"] <= interval["hi"]["value"]


def _in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _validated_file_analyzes(e, profile: str) -> None:
    """If validate accepts e's file under profile, analyze exits 0 in default
    and estimate mode, and its interval has lo <= hi."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "adversary.json")
        Path(path).write_text(write_ensemble(e))
        if _in_process(["--tolerance-profile", profile, "validate", path])[0] != 0:
            return
        for mode in ([], ["--accessible-info", "estimate", "--restarts", "2"]):
            code, out = _in_process(["--tolerance-profile", profile, "analyze", path, "--format", "structured", *mode])
            assert code == 0, mode
            interval = json.loads(out)["charge"]["interval"]
            assert interval["lo"]["value"] <= interval["hi"]["value"], mode


PROFILES = {"default": DEFAULT_TOLERANCES, "strict": STRICT_TOLERANCES}
# Each adversary with the tolerance whose edge it sits at.
ADVERSARIES = {
    "tilted-bell": (tilted_bell_basis, "orthogonality_tol"),
    "edge-probability": (edge_probability_ensemble, "eigenvalue_clamp"),
    "near-product": (near_product_basis, "orthogonality_tol"),
    "near-maximally-mixed-d2": (functools.partial(near_maximally_mixed_gbell, 2), "orthogonality_tol"),
    "near-maximally-mixed-d3": (functools.partial(near_maximally_mixed_gbell, 3), "orthogonality_tol"),
    "zero-probability-duplicates": (zero_probability_duplicates, "eigenvalue_clamp"),
}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("adversary", ADVERSARIES)
# The edge at 0, or at the tolerance times 10**x for x in [-1, 1]: one decade
# on each side of it.
@given(factor=st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0).map(lambda x: 10**x),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_validated_tolerance_edge_adversaries_analyze(adversary, profile, factor, seed):
    build, edge = ADVERSARIES[adversary]
    tol = PROFILES[profile]
    _validated_file_analyzes(build(getattr(tol, edge) * factor, seed), profile)


@pytest.mark.parametrize("p", [1e-200, 1e-300, 5e-324])
def test_estimate_mode_analyzes_a_member_of_tiny_probability(p, tmp_path, capsys):
    # p(x) p(y) of the tiny member can underflow to 0 beside a subnormal
    # p(x, y) > 0; the search must count that cell as unseen, not divide by 0.
    path = tmp_path / "edge.json"
    path.write_text(write_ensemble(edge_probability_ensemble(p, 0)))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), "--accessible-info", "estimate", "--restarts", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_analyze_bell_text(tmp_path, capsys):
    path = write_bell(tmp_path)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exact value (bits): 1.000000000" in out
    assert "verdict: information_nonlocality" in out


def test_analyze_single_bell(tmp_path, capsys):
    path = write_bell(tmp_path, [1, 0, 0, 0])
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exact value (bits): -1.000000000" in out
    assert "verdict: entanglement_nonlocality" in out


def test_analyze_product_basis_annotation(tmp_path, capsys):
    assert main(["generate", "product", "--da", "2", "--db", "2", "-o", str(tmp_path / "p.json")]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "p.json")]) == 0
    out = capsys.readouterr().out
    assert "interval (bits): [0.000000000, 1.000000000]" in out
    assert "known value (bits): 0.000000000" in out


def test_analyze_structured_is_json(tmp_path, capsys):
    path = write_bell(tmp_path)
    assert main(["analyze", str(path), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["charge"]["verdict"] == "information_nonlocality"
    assert doc["charge"]["exact_value"]["unit"] == "bits"
    assert doc["charge"]["exact_value"]["provenance"] == "computed"


def test_generate_bell_support_summary(tmp_path, capsys):
    out_path = tmp_path / "b.json"
    assert main(["generate", "bell", "--probs", "1,0,0,0", "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "support_size=1" in out
    parse_ensemble(out_path.read_text())


def test_generate_rotated_entanglement(tmp_path, capsys):
    theta = np.pi / 6
    out_path = tmp_path / "r.json"
    assert main(["generate", "rotated", "--theta", f"{theta:.17g}", "-o", str(out_path)]) == 0
    capsys.readouterr()
    e = parse_ensemble(out_path.read_text())
    from entcharge import binary_entropy

    for s in e.states:
        assert entanglement_oracle(s) == pytest.approx(binary_entropy(0.75), abs=1e-9)


def test_generate_gbell(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    assert main(["generate", "gbell", "--d", "3", "-o", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "members=9" in out
    assert "all_maximally_entangled=true" in out


def test_generate_missing_params_exit_2(tmp_path, capsys):
    assert main(["generate", "gbell", "-o", str(tmp_path / "x.json")]) == 2
    assert "--d" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, n",
    [(["gbell", "--d", "100000"], 10**10), (["product", "--da", "1000000", "--db", "1000000"], 10**12)],
    ids=["gbell", "product"],
)
def test_generate_checks_the_cap_before_the_default_probs(args, n, tmp_path, capsys, monkeypatch):
    import entcharge.generators

    def small_equal_probs(k):
        # Stands in for generators.equal_probs, so no huge array is asked for.
        assert k <= 64, f"default probabilities for {k} members built before the cap check"
        return np.full(k, 1.0 / k)

    monkeypatch.setattr(entcharge.generators, "equal_probs", small_equal_probs)
    assert main(["generate", *args, "-o", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == f"error: joint dimension {n} exceeds the cap 64\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["gbell", "--d", "0"], "generalized Bell basis needs d >= 2, got 0"),
        (["gbell", "--d", "-9"], "generalized Bell basis needs d >= 2, got -9"),
        (["product", "--da", "0", "--db", "3"], "local dims must be >= 1, got 0x3"),
        (["product", "--da", "-2", "--db", "3"], "local dims must be >= 1, got -2x3"),
    ],
    ids=["gbell-0", "gbell-negative", "product-0", "product-negative"],
)
def test_generate_rejects_bad_dimensions(args, message, tmp_path, capsys):
    # The generator checks its dimensions before it builds the equal default.
    assert main(["generate", *args, "-o", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x.json").exists()


def test_sweep_two_point(tmp_path, capsys):
    assert (
        main(
            [
                "sweep",
                "rotated",
                "--theta-min", "0",
                "--theta-max", f"{np.pi / 4:.17g}",
                "--steps", "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    assert [float(x) for x in first[:5]] == pytest.approx([0.0, 0.0, 1.0, 2.0, 0.0], abs=1e-9)
    second = lines[2].split(",")
    assert [float(x) for x in second[:5]] == pytest.approx(
        [np.pi / 4, 1.0, 1.0, 1.0, 1.0], abs=1e-9
    )
    assert second[5] == "information_nonlocality"


def test_sweep_single_step_matches_analyze(tmp_path, capsys):
    theta = 0.37
    assert (
        main(
            [
                "sweep",
                "rotated",
                "--theta-min", f"{theta:.17g}",
                "--theta-max", f"{theta:.17g}",
                "--steps", "1",
            ]
        )
        == 0
    )
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    from entcharge import analyze, equal_probs, rotated_basis

    report = analyze(rotated_basis(theta, equal_probs(4)))
    assert float(row[2]) == pytest.approx(
        min(report.upper_bounds["merging_AtoB"], report.upper_bounds["merging_BtoA"]), abs=1e-12
    )
    assert float(row[4]) == pytest.approx(report.interval[0], abs=1e-12)
    assert row[5] == report.verdict


def test_sweep_degenerate_probs_lower_column(capsys):
    assert (
        main(
            [
                "sweep",
                "rotated",
                "--theta-min", "0",
                "--theta-max", "1.2",
                "--steps", "5",
                "--probs", "1,0,0,0",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    from entcharge import binary_entropy, equal_probs, lower_bound_pure, rotated_basis

    for line in lines:
        cols = line.split(",")
        theta = float(cols[0])
        expected = lower_bound_pure(rotated_basis(theta, [1, 0, 0, 0]))
        assert float(cols[4]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-binary_entropy(np.cos(theta) ** 2), abs=1e-9)


def test_sweep_rows_rederivable_by_analyze(tmp_path, capsys):
    # spot-check 10 random rows against a fresh generate + analyze run
    assert (
        main(
            [
                "sweep",
                "rotated",
                "--theta-min", "0",
                "--theta-max", f"{np.pi / 2:.17g}",
                "--steps", "40",
            ]
        )
        == 0
    )
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    rng = np.random.default_rng(17)
    for idx in rng.choice(len(rows), size=10, replace=False):
        cols = rows[idx].split(",")
        theta = float(cols[0])
        out_path = tmp_path / f"point{idx}.json"
        assert main(["generate", "rotated", "--theta", f"{theta:.17g}", "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out_path), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        uppers = doc["charge"]["upper_bounds"]
        theorem1 = min(uppers["merging_AtoB"]["value"], uppers["merging_BtoA"]["value"])
        assert float(cols[2]) == theorem1
        assert float(cols[4]) == doc["charge"]["lower_bound"]["value"]
        assert cols[5] == doc["charge"]["verdict"]
        from entcharge import binary_entropy

        assert float(cols[1]) == pytest.approx(binary_entropy(np.cos(theta) ** 2), abs=1e-9)


def test_analyze_negative_seed_exit_2(tmp_path, capsys):
    path = write_bell(tmp_path)
    assert main(["analyze", str(path), "--accessible-info", "estimate", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "flags, diagnostic",
    [(["--restarts", "0"], "error: restarts must be >= 1\n"), (["--seed", "-5"], "error: seed must be >= 0, got -5\n")],
)
def test_analyze_rejects_bad_optimizer_options_without_estimate(tmp_path, capsys, flags, diagnostic):
    path = write_bell(tmp_path)
    assert main(["analyze", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == diagnostic


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "bell"],
        ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1", "--steps", "3"],
    ],
)
def test_write_to_unwritable_path_exit_2(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "out.txt"
    assert main([*argv, "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_sweep_empty_range_exit_2(capsys):
    assert main(["sweep", "rotated", "--theta-min", "0", "--theta-max", "1", "--steps", "0"]) == 2
    assert "step" in capsys.readouterr().err


def test_sweep_out_of_range_exit_2(capsys):
    assert main(["sweep", "rotated", "--theta-min", "0", "--theta-max", "3", "--steps", "2"]) == 2


SWEEP = ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5707963267948966", "--steps", "3"]


@pytest.mark.parametrize(
    "flags, diagnostic",
    [
        (["--probs", "0.5,0.5"], "error: expected 4 probabilities, got 2"),
        (["--probs", "a,b"], "error: cannot parse --probs 'a,b'"),
    ],
)
def test_sweep_reports_bad_probs_as_one_error_line(capsys, flags, diagnostic):
    assert main([*SWEEP, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(diagnostic)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, diagnostic",
    [
        (["--steps", "0"], "error: sweep needs at least one step, got 0\n"),
        (["--theta-max", "3"], "error: sweep range [0.0, 3.0] must lie inside [0, pi/2]\n"),
    ],
    ids=["steps-0", "theta-3"],
)
def test_sweep_reports_bad_range_as_one_error_line(capsys, flags, diagnostic):
    assert main([*SWEEP, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == diagnostic


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@pytest.mark.parametrize(
    "gate_cost, diagnostic",
    [
        ("nan", "error: supplied gate cost nan is not finite\n"),
        # 0.5 passes at theta = 0 (lower bound 0) and lies below the lower
        # bound 1 at pi/4, so nothing is written although one point succeeded.
        ("0.5", "error: supplied gate cost 0.5 lies below the certified lower bound "),
    ],
    ids=["nan", "below-lower-bound"],
)
def test_sweep_rejects_bad_gate_cost_and_writes_nothing(tmp_path, capsys, gate_cost, diagnostic, fmt):
    target = tmp_path / "points.out"
    assert main([*SWEEP, "--gate-cost", gate_cost, "--format", fmt, "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(diagnostic)
    assert err.count("\n") == 1
    assert not target.exists()


def test_cli_byte_identical_reruns(tmp_path):
    path = write_bell(tmp_path)
    args = ["analyze", str(path), "--format", "structured"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2

    sweep_args = ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5", "--steps", "7"]
    _, sweep1, _ = run_cli(sweep_args)
    _, sweep2, _ = run_cli(sweep_args)
    assert sweep1 == sweep2


def test_cli_accessible_info_deterministic(tmp_path):
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [
        {"prob": 0.5, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}},
        {"prob": 0.5, "state": {"kind": "pure", "data": [[0.92387953251128674, 0], [0.38268343236508978, 0]]}}
     ]}
    """
    path = tmp_path / "pair.json"
    path.write_text(text)
    args = ["analyze", str(path), "--accessible-info", "estimate", "--restarts", "2", "--seed", "7"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert b"accessible info" in out1


def test_tolerance_profile_strict_flag(tmp_path, capsys):
    # a pure state off-normalized by 1e-10 passes default but fails strict
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [{"prob": 1, "state": {"kind": "pure", "data": [[1.0000000001, 0], [0, 0]]}}]}
    """
    path = tmp_path / "s.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["--tolerance-profile", "strict", "validate", str(path)]) == 2
    assert "trace_tol" in capsys.readouterr().err
