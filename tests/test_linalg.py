import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    DEFAULT_TOLERANCES,
    Tolerances,
    ValidationError,
)
from entcharge.linalg import density_spectra, vector_partial_traces
from helpers import charpoly_eigenvalues, partial_trace_einsum, partial_trace_loop, random_density

def test_tolerances_must_be_positive():
    with pytest.raises(ValidationError):
        Tolerances(hermiticity_tol=0.0)
    with pytest.raises(ValidationError):
        Tolerances(trace_tol=-1e-9)


def test_partial_trace_bell_reduces_to_maximally_mixed():
    s = 1 / np.sqrt(2)
    v = np.array([[s, 0, 0, s]], dtype=complex)
    for party in ("A", "B"):
        assert np.allclose(vector_partial_traces(v, 2, 2, party)[0], np.eye(2) / 2, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_factorizes_products(seed):
    # Tr_A |u x w><u x w| = <u|u> |w><w|, and Tr_B alike, for unnormalized u, w.
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    joint = np.kron(u, w)[None]
    assert np.allclose(vector_partial_traces(joint, 2, 3, "A")[0], np.vdot(u, u) * np.outer(w, w.conj()), atol=1e-12)
    assert np.allclose(vector_partial_traces(joint, 2, 3, "B")[0], np.vdot(w, w) * np.outer(u, u.conj()), atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_partial_trace_matches_index_loop_oracle(seed):
    # A stack of vectors is reduced with the bits of the in-order einsum of
    # each joint matrix, and agrees with the index-loop oracle.
    rng = np.random.default_rng(seed)
    for dA, dB in ((2, 2), (2, 3), (3, 2), (1, 4), (4, 1)):
        v = rng.standard_normal((3, dA * dB)) + 1j * rng.standard_normal((3, dA * dB))
        for party in ("A", "B"):
            got = vector_partial_traces(v, dA, dB, party)
            for x, rho in zip(v, got):
                joint = np.outer(x, x.conj())
                assert np.array_equal(rho, partial_trace_einsum(joint, dA, dB, party))
                assert np.allclose(rho, partial_trace_loop(joint, dA, dB, party), atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    for dA, dB in ((2, 3), (3, 2), (1, 6), (6, 1)):
        for party in ("A", "B"):
            traces = np.trace(vector_partial_traces(v, dA, dB, party), axis1=1, axis2=2)
            assert np.abs(traces - (np.abs(v) ** 2).sum(axis=1)).max() < 1e-12


def test_partial_trace_rejects_an_unknown_party():
    with pytest.raises(ValidationError, match="traced_party must be 'A' or 'B'"):
        vector_partial_traces(np.ones((1, 4), dtype=complex), 2, 2, "C")


def test_density_spectra_diagonal():
    got = density_spectra(np.diag([0.75, 0.25]).astype(complex)[None])[0]
    assert np.allclose(got, [0.25, 0.75], atol=0)


def test_density_spectra_rejects_non_hermitian():
    m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="Hermitian"):
        density_spectra(m[None])


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_eigenvalues_match_charpoly_oracle(seed, dim):
    rho = random_density(np.random.default_rng(seed), dim)
    assert np.allclose(density_spectra(rho[None])[0], charpoly_eigenvalues(rho), atol=1e-8)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_psd_eigenvalues_above_negative_clamp(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    w = density_spectra(rho[None])[0]
    assert w.min() >= -DEFAULT_TOLERANCES.eigenvalue_clamp
