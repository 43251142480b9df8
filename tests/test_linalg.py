import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    DEFAULT_TOLERANCES,
    ShapeError,
    Tolerances,
    ValidationError,
    hermitian_eigenvalues,
    partial_trace,
)
from helpers import charpoly_eigenvalues, partial_trace_loop, random_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_tolerances_must_be_positive():
    with pytest.raises(ValidationError):
        Tolerances(hermiticity_tol=0.0)
    with pytest.raises(ValidationError):
        Tolerances(trace_tol=-1e-9)


def test_partial_trace_bell_reduces_to_maximally_mixed():
    s = 1 / np.sqrt(2)
    v = np.array([s, 0, 0, s], dtype=complex)
    rho = np.outer(v, v.conj())
    red = partial_trace(rho, 2, 2, "B")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_factorizes_products(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, 2, 3, "A"), np.trace(a) * b, atol=1e-12)
    assert np.allclose(partial_trace(joint, 2, 3, "B"), np.trace(b) * a, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_partial_trace_matches_index_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for party in ("A", "B"):
        assert np.allclose(partial_trace(m, 2, 2, party), partial_trace_loop(m, 2, 2, party), atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for dA, dB in ((2, 3), (3, 2), (1, 6), (6, 1)):
        for party in ("A", "B"):
            red = partial_trace(m, dA, dB, party)
            assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_trace_shape_error():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(4), 2, 3, "A")


def test_hermitian_eigenvalues_diagonal():
    got = hermitian_eigenvalues(np.diag([0.75, 0.25]))
    assert np.allclose(got, [0.25, 0.75], atol=0)


def test_hermitian_eigenvalues_sigma_x():
    assert np.allclose(hermitian_eigenvalues(SX), [-1.0, 1.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="Hermitian"):
        hermitian_eigenvalues(m)


def test_hermitian_eigenvalues_rejects_nan():
    with pytest.raises(ValidationError, match="finite"):
        hermitian_eigenvalues(np.array([[np.nan, 0], [0, 1.0]]))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_eigenvalues_match_charpoly_oracle(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    assert np.allclose(hermitian_eigenvalues(h), charpoly_eigenvalues(h), atol=1e-8)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_psd_eigenvalues_above_negative_clamp(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    w = hermitian_eigenvalues(rho)
    assert w.min() >= -DEFAULT_TOLERANCES.eigenvalue_clamp
