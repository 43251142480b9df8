"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them)."""

import subprocess
import sys
import time

import numpy as np
import pytest

from entcharge import (
    VERDICT_ENTANGLEMENT,
    VERDICT_INFORMATION,
    VERDICT_NEITHER,
    analyze,
    average_state,
    bell_basis,
    binary_entropy,
    equal_probs,
    estimate_accessible_info,
    generalized_bell_basis,
    partial_trace,
    product_basis,
    rotated_basis,
    rotated_family_report,
    shannon_entropy,
    upper_bound_merging,
    von_neumann_entropy,
)
from entcharge.entropy import _entropy_bits
from entcharge.fileio import parse_ensemble, write_ensemble
from helpers import (
    charpoly_eigenvalues,
    clamp_oracle,
    holevo_oracle,
    lower_bound_pure,
    partial_trace_loop,
    random_density,
    random_orthogonal_pure_ensemble,
)
from test_accessible import grid_best_projective, two_state_ensemble


class criterion:
    """Context manager that prints one ACCEPTANCE line and enforces a runtime cap."""

    def __init__(self, number: int, name: str, seconds: float | None = None):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        if exc_type is None and self.seconds is not None and elapsed > self.seconds:
            status = "FAIL"
            print(f"ACCEPTANCE {self.number} ({self.name}): {status} [{elapsed:.2f}s]")
            raise AssertionError(f"runtime {elapsed:.2f}s exceeded the {self.seconds}s cap")
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} [{elapsed:.2f}s]")
        return False


def test_criterion_1_bell_exact_charges():
    with criterion(1, "Bell-ensemble exact charges", seconds=1.0):
        r = analyze(bell_basis(equal_probs(4)))
        assert r.exact_value == pytest.approx(1.0, abs=1e-9)
        assert r.verdict == VERDICT_INFORMATION
        r = analyze(bell_basis([1, 0, 0, 0]))
        assert r.exact_value == pytest.approx(-1.0, abs=1e-9)
        assert r.verdict == VERDICT_ENTANGLEMENT
        r = analyze(bell_basis([0.5, 0.5, 0, 0]))
        assert r.exact_value == pytest.approx(0.0, abs=1e-9)
        assert r.verdict == VERDICT_NEITHER


def test_criterion_2_generalized_bell_scaling():
    with criterion(2, "generalized-Bell scaling", seconds=5.0):
        for d in (2, 3, 4):
            e = generalized_bell_basis(d, equal_probs(d * d))
            exact = analyze(e).exact_value
            assert exact == pytest.approx(shannon_entropy(e.probs, e.tol) - np.log2(d), abs=1e-9)
            assert exact == pytest.approx(np.log2(d), abs=1e-9)
            rho = average_state(e)
            s_ab = von_neumann_entropy(rho)
            s_b = von_neumann_entropy(partial_trace(rho, d, d, "A"))
            assert s_ab - s_b == pytest.approx(exact, abs=1e-9)


def test_criterion_3_rotated_family_bounds():
    with criterion(3, "rotated-family bounds", seconds=2.0):
        for theta in (np.pi / 12, np.pi / 8, np.pi / 6, np.pi / 4):
            ent = binary_entropy(float(np.cos(theta)) ** 2)
            fam = rotated_family_report(theta, equal_probs(4))
            assert fam.entanglement_per_state == pytest.approx(ent, abs=1e-9)
            assert fam.theorem1_bound == pytest.approx(1.0, abs=1e-9)
            assert fam.lower_bound == pytest.approx(ent, abs=1e-9)
            assert fam.refined_bound == pytest.approx(2.0 - ent, abs=1e-9)
        fam = rotated_family_report(np.pi / 4, equal_probs(4))
        assert fam.charge.exact_value == pytest.approx(1.0, abs=1e-9)


def test_criterion_4_sandwich_property_suite():
    with criterion(4, "sandwich property suite", seconds=60.0):
        rng = np.random.default_rng(20260811)
        checked = 0
        for d in (2, 3):
            for _ in range(250):
                e = random_orthogonal_pure_ensemble(rng, d)
                lower = lower_bound_pure(e)
                uppers = upper_bound_merging(e)
                assert lower <= min(uppers) + 1e-9
                assert (uppers[0] - e.chi_a) == pytest.approx(uppers[1] - e.chi_b, abs=1e-9)
                checked += 1
        assert checked >= 500


def test_criterion_5_entropy_oracle_equivalence():
    with criterion(5, "entropy oracle equivalence", seconds=60.0):
        rng = np.random.default_rng(7)
        dims_cycle = (2, 3, 4)
        for k in range(200):
            dim = dims_cycle[k % 3]
            rho = random_density(rng, dim)
            oracle_evals = clamp_oracle(charpoly_eigenvalues(rho))
            assert von_neumann_entropy(rho) == pytest.approx(_entropy_bits(oracle_evals), abs=1e-8)
        for _ in range(50):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            for dA, dB in ((2, 3), (3, 2)):
                for party in ("A", "B"):
                    diff = partial_trace(m, dA, dB, party) - partial_trace_loop(m, dA, dB, party)
                    assert np.max(np.abs(diff)) <= 1e-12


def test_criterion_6_accessible_information_bracketing():
    with criterion(6, "accessible-information bracketing", seconds=120.0):
        gamma = np.pi / 8
        e = two_state_ensemble(gamma)
        info = estimate_accessible_info(e)
        best = grid_best_projective(e, points=10_000)
        assert abs(info.lo - best) <= 1e-3
        assert info.lo <= info.hi + 1e-9
        from entcharge import density_of

        cap = min(shannon_entropy(e.probs, e.tol), holevo_oracle([0.5, 0.5], [density_of(s) for s in e.states]))
        assert info.hi == pytest.approx(cap, abs=1e-12)
        orthogonal_cases = [
            bell_basis(equal_probs(4)),
            bell_basis([0.5, 0.25, 0.125, 0.125]),
            generalized_bell_basis(3, equal_probs(9)),
            product_basis(2, 2, equal_probs(4)),
            rotated_basis(np.pi / 6, equal_probs(4)),
        ]
        rng = np.random.default_rng(42)
        orthogonal_cases += [random_orthogonal_pure_ensemble(rng, 2) for _ in range(20)]
        for oe in orthogonal_cases:
            oinfo = estimate_accessible_info(oe)
            hx = shannon_entropy(oe.probs, oe.tol)
            assert oinfo.lo == pytest.approx(hx, abs=1e-12)
            assert oinfo.hi == pytest.approx(hx, abs=1e-12)


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "entcharge", *args], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_7_cli_reproducibility(tmp_path):
    with criterion(7, "CLI reproducibility", seconds=120.0):
        bell_path = tmp_path / "bell.json"
        bell_path.write_text(write_ensemble(bell_basis(equal_probs(4))))
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(write_ensemble(two_state_ensemble(np.pi / 8)))

        for args in (
            ["analyze", str(bell_path), "--format", "structured"],
            ["analyze", str(pair_path), "--accessible-info", "estimate", "--restarts", "2", "--seed", "3"],
            ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5", "--steps", "6"],
        ):
            code1, out1, _ = _run_cli(args)
            code2, out2, _ = _run_cli(args)
            assert code1 == code2 == 0
            assert out1 == out2

        generator_outputs = [
            bell_basis(equal_probs(4)),
            bell_basis([1, 0, 0, 0]),
            generalized_bell_basis(2, equal_probs(4)),
            generalized_bell_basis(3, equal_probs(9)),
            generalized_bell_basis(4, equal_probs(16)),
            product_basis(2, 2, equal_probs(4)),
            product_basis(3, 2, equal_probs(6)),
            rotated_basis(0.0, equal_probs(4)),
            rotated_basis(np.pi / 8, equal_probs(4)),
            rotated_basis(np.pi / 4, equal_probs(4)),
            rotated_basis(np.pi / 2, equal_probs(4)),
        ]
        for e in generator_outputs:
            text = write_ensemble(e)
            assert write_ensemble(parse_ensemble(text)) == text


def test_criterion_8_validation_hardening(tmp_path):
    with criterion(8, "validation hardening", seconds=30.0):
        negative_eig = """
        {"schema_version": 1, "dims": {"dA": 2, "dB": 2},
         "members": [{"prob": 1, "state": {"kind": "density",
           "data": [[[0.6, 0], [0, 0], [0, 0], [0, 0]],
                    [[0, 0], [0.6, 0], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [-0.1, 0], [0, 0]],
                    [[0, 0], [0, 0], [0, 0], [-0.1, 0]]]}}]}
        """
        bad_probs = """
        {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
         "members": [
            {"prob": 0.5, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}},
            {"prob": 0.4, "state": {"kind": "pure", "data": [[0, 0], [1, 0]]}}
         ]}
        """
        dims_mismatch = """
        {"schema_version": 1, "dims": {"dA": 2, "dB": 3},
         "members": [{"prob": 1, "state": {"kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}}]}
        """
        cases = [
            ("negative_eig.json", negative_eig, b"negative eigenvalue"),
            ("bad_probs.json", bad_probs, b"trace_tol"),
            ("dims_mismatch.json", dims_mismatch, b"dims"),
        ]
        for name, text, needle in cases:
            path = tmp_path / name
            path.write_text(text)
            code, _, err = _run_cli(["analyze", str(path)])
            assert code == 2
            assert needle in err
