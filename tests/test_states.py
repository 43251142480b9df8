import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    BipartiteDims,
    ShapeError,
    ValidationError,
    density_of,
    make_ensemble,
    pairwise_orthogonal,
    partial_trace,
    reduced_ensemble,
    validate_state,
    von_neumann_entropy,
)
from entcharge.linalg import density_spectra
from helpers import entanglement_oracle, random_pure_vector, schmidt_oracle

D22 = BipartiteDims(2, 2)


def rotated_pair_state(theta: float) -> np.ndarray:
    return np.array([np.cos(theta), 0, 0, -1j * np.sin(theta)])


def test_dims_validation():
    with pytest.raises(ValidationError):
        BipartiteDims(0, 2)
    with pytest.raises(ValidationError):
        BipartiteDims(9, 8)  # joint 72 > cap
    assert BipartiteDims(1, 2).joint == 2


def test_validate_pure_state():
    s = validate_state(D22, [1, 0, 0, 0])
    assert s.is_pure
    assert np.array_equal(s.vector, [1, 0, 0, 0])


def test_validate_density_maximally_mixed():
    s = validate_state(D22, np.eye(4) / 4)
    assert not s.is_pure
    assert np.allclose(s.matrix, np.eye(4) / 4)


def test_validate_density_rejects_nan():
    with pytest.raises(ValidationError, match="finite"):
        validate_state(BipartiteDims(1, 2), np.array([[np.nan, 0], [0, 1.0]]))


def test_validate_rejects_negative_eigenvalue_density():
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        validate_state(D22, np.diag([0.6, 0.6, -0.1, -0.1]))


def test_validate_rejects_bad_trace():
    with pytest.raises(ValidationError, match="trace_tol"):
        validate_state(D22, np.eye(4) / 5)


def test_validate_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.2
    with pytest.raises(ValidationError, match="Hermitian"):
        validate_state(D22, m)


def test_validate_rejects_bad_norm_and_renormalizes_small_deviation():
    with pytest.raises(ValidationError, match="norm"):
        validate_state(D22, [1, 1, 0, 0])
    v = np.array([1.0 + 5e-10, 0, 0, 0])
    s = validate_state(D22, v)
    assert abs(np.linalg.norm(s.vector) - 1) < 1e-15


def test_validate_rejects_wrong_length():
    with pytest.raises(ShapeError, match="dims"):
        validate_state(BipartiteDims(2, 3), [1, 0, 0, 0])


def test_density_of_basis_state():
    s = validate_state(D22, [1, 0, 0, 0])
    assert np.array_equal(density_of(s), np.diag([1, 0, 0, 0]).astype(complex))


def test_density_of_bell_projector_corners():
    s = validate_state(D22, np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = density_of(s)
    for idx in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert rho[idx] == pytest.approx(0.5, abs=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    # density input is passed through unchanged
    d = validate_state(D22, rho)
    assert density_of(d) is d.matrix


def test_schmidt_product_state():
    s = validate_state(D22, [1, 0, 0, 0])
    assert np.allclose(schmidt_oracle(s), [1.0, 0.0], atol=1e-12)
    e = make_ensemble([(1.0, s)])
    assert e.flags.all_product
    assert e.entropies_a[0] == 0.0


def test_schmidt_rotated_state_at_pi_over_6():
    theta = np.pi / 6
    s = validate_state(D22, rotated_pair_state(theta))
    assert np.allclose(schmidt_oracle(s), [np.cos(theta), np.sin(theta)], atol=1e-12)
    e = make_ensemble([(1.0, s)])
    assert np.allclose(np.sort(density_spectra(e.reduced_a)[0])[::-1], schmidt_oracle(s) ** 2, atol=1e-12)
    assert not e.flags.all_product


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_schmidt_squares_match_reduced_eigenvalues(seed):
    # The reduced states of a pure member carry its Schmidt spectrum on both
    # sides: the library's reduced stacks against numpy's SVD.
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(3, 3)
    s = validate_state(dims, random_pure_vector(rng, 9))
    coeffs = schmidt_oracle(s)
    assert coeffs.sum() >= 0 and abs((coeffs**2).sum() - 1) < 1e-9
    e = make_ensemble([(1.0, s)])
    for reduced in (e.reduced_a, reduced_ensemble(e, "B")):
        evals = np.sort(density_spectra(reduced)[0])[::-1]
        assert np.allclose(coeffs**2, evals, atol=1e-9)


def is_maximally_entangled(s) -> bool:
    return make_ensemble([(1.0, s)]).flags.all_maximally_entangled


def test_is_maximally_entangled_examples():
    bell = validate_state(D22, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert is_maximally_entangled(bell)
    assert not is_maximally_entangled(validate_state(D22, [1, 0, 0, 0]))
    # rotated state at theta=pi/4: reduced state equals I/2 by the trace oracle
    s = validate_state(D22, rotated_pair_state(np.pi / 4))
    red = partial_trace(density_of(s), 2, 2, "B")
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)
    assert is_maximally_entangled(s)


def test_pairwise_orthogonal_bell_states():
    from helpers import bell_vectors

    states = [validate_state(D22, v) for v in bell_vectors()]
    ok, witness = pairwise_orthogonal(states)
    assert ok and witness is None


def test_pairwise_orthogonal_duplicate_witness():
    s = validate_state(D22, [1, 0, 0, 0])
    ok, witness = pairwise_orthogonal([s, s])
    assert not ok
    i, j, overlap = witness
    assert (i, j) == (0, 1)
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", np.linspace(0, np.pi / 2, 7))
def test_pairwise_orthogonal_rotated_pair_all_theta(theta):
    a = validate_state(D22, np.array([np.cos(theta), 0, 0, -1j * np.sin(theta)]))
    b = validate_state(D22, np.array([0, np.cos(theta), -1j * np.sin(theta), 0]))
    # direct inner-product oracle
    assert abs(np.vdot(a.vector, b.vector)) < 1e-15
    ok, _ = pairwise_orthogonal([a, b])
    assert ok


def test_pairwise_orthogonal_mixed_dims_rejected():
    a = validate_state(D22, [1, 0, 0, 0])
    b = validate_state(BipartiteDims(1, 2), [1, 0])
    with pytest.raises(ShapeError):
        pairwise_orthogonal([a, b])


def is_product(s) -> bool:
    return make_ensemble([(1.0, s)]).flags.all_product


def test_is_product_examples():
    assert is_product(validate_state(D22, [0, 1, 0, 0]))  # |01>
    bell = validate_state(D22, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert not is_product(bell)
    nearly = validate_state(D22, rotated_pair_state(0.01))
    assert not is_product(nearly)
    # A product density member is not a product pure member.
    assert not is_product(validate_state(D22, np.diag([1.0, 0, 0, 0])))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_entanglement_entropy_cross_module_consistency(seed):
    rng = np.random.default_rng(seed)
    s = validate_state(D22, random_pure_vector(rng, 4))
    via_schmidt = entanglement_oracle(s)
    via_reduced = von_neumann_entropy(partial_trace(density_of(s), 2, 2, "B"))
    e = make_ensemble([(1.0, s)])
    assert via_schmidt == pytest.approx(via_reduced, abs=1e-9)
    assert via_schmidt == pytest.approx(e.entropies_a[0], abs=1e-9)
    assert via_schmidt == pytest.approx(von_neumann_entropy(reduced_ensemble(e, "B")[0]), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_pairwise_orthogonal_permutation_symmetric(seed):
    rng = np.random.default_rng(seed)
    states = [validate_state(D22, random_pure_vector(rng, 4)) for _ in range(3)]
    perm = list(rng.permutation(3))
    ok1, _ = pairwise_orthogonal(states)
    ok2, _ = pairwise_orthogonal([states[i] for i in perm])
    assert ok1 == ok2


def test_maximally_entangled_implies_not_product():
    for theta in (np.pi / 4,):
        s = validate_state(D22, rotated_pair_state(theta))
        assert is_maximally_entangled(s)
        assert not is_product(s)


def _direct_overlaps(states) -> np.ndarray:
    """Tr(rho_i rho_j) by one matrix product per pair, independent of the
    library's overlap matrix."""
    mats = [np.outer(s.vector, s.vector.conj()) if s.is_pure else s.matrix for s in states]
    out = np.zeros((len(mats), len(mats)))
    for i in range(len(mats)):
        for j in range(len(mats)):
            out[i, j] = np.real(np.trace(mats[i] @ mats[j]))
    return out


@st.composite
def overlap_ensembles(draw):
    """Members built from a few columns of one random unitary, so that equal
    or shared columns overlap and disjoint ones are orthogonal, plus
    generic random members. kind picks all-pure, all-density or a mix."""
    dA, dB = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["pure", "density", "mixed"]))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = BipartiteDims(dA, dB)
    n = dims.joint
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    states = []
    for k in range(count):
        pure = kind == "pure" or (kind == "mixed" and draw(st.booleans()))
        generic = draw(st.integers(0, 4)) == 0
        if pure:
            vec = random_pure_vector(rng, n) if generic else u[:, draw(st.integers(0, n - 1))]
            states.append(validate_state(dims, vec))
            continue
        if generic:
            cols = u
        else:
            start = draw(st.integers(0, n - 1))
            cols = u[:, start:start + draw(st.integers(1, 2))]
        weights = rng.uniform(0.1, 1.0, cols.shape[1])
        rho = (cols * (weights / weights.sum())) @ cols.conj().T
        states.append(validate_state(dims, (rho + rho.conj().T) / 2))
    return states


@given(overlap_ensembles())
@settings(max_examples=200, deadline=None)
def test_overlap_matrix_matches_direct_pairwise_traces(states):
    from entcharge.linalg import DEFAULT_TOLERANCES
    from entcharge.states import overlap_matrix

    direct = _direct_overlaps(states)
    assert np.max(np.abs(overlap_matrix(states) - direct), initial=0.0) <= 1e-12
    expected = None
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if expected is None and direct[i, j] > DEFAULT_TOLERANCES.orthogonality_tol:
                expected = (i, j, direct[i, j])
    ok, witness = pairwise_orthogonal(states)
    assert ok == (expected is None)
    if expected is not None:
        assert witness[:2] == expected[:2]
        assert witness[2] == pytest.approx(expected[2], abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 17, 33, 64])
def test_batched_norms_have_the_bits_of_numpy_norm(n):
    # validate_pure_states takes one norm per row of a stack; each must be
    # np.linalg.norm of that vector alone, and each state the vector, divided
    # by that norm when it is off 1 by more than _RENORM_FLOOR.
    from entcharge.states import _RENORM_FLOOR, _row_norms, validate_pure_states

    rng = np.random.default_rng(n)
    a = rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n))
    a[1] = a[1].real
    a[2, : n // 2] = 0.0
    a = a / np.linalg.norm(a, axis=1)[:, None] * (1 + rng.uniform(-2e-9, 2e-9, (12, 1)))
    a[3] = a[3] / np.linalg.norm(a[3])
    norms = [np.linalg.norm(v) for v in a]
    assert [x.hex() for x in _row_norms(a)] == [x.hex() for x in norms]
    ok = [k for k in range(12) if abs(norms[k] - 1.0) <= 1e-9]
    states = validate_pure_states(BipartiteDims(1, n), a[ok])
    for s, k in zip(states, ok, strict=True):
        want = a[k] / norms[k] if abs(norms[k] - 1.0) > _RENORM_FLOOR else a[k]
        assert s.vector.tobytes() == want.tobytes()
        assert not s.vector.flags.writeable
    bad = next(k for k in range(12) if abs(norms[k] - 1.0) > 1e-9)
    with pytest.raises(ValidationError, match=f"^pure state norm {re.escape(repr(float(norms[bad])))} "):
        validate_pure_states(BipartiteDims(1, n), np.concatenate([a[ok], a[bad:]]))
