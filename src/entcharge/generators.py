"""Canonical ensemble constructors: Bell basis, generalized Bell bases,
computational product bases and the rotated product-basis family."""

from __future__ import annotations

import numpy as np

from .ensembles import Ensemble, make_ensemble
from .errors import ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .states import BipartiteDims, validate_pure_states

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_XX = np.kron(_SIGMA_X, _SIGMA_X)

PRODUCT_BASIS_NOTE = (
    "canonical computational product basis is LOCC distinguishable; "
    "its charge is 0 (cited known value, not computed here)"
)


def equal_probs(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _check_probs_length(probs, n: int) -> np.ndarray:
    """probs as an array of the n members' weights; None means n equal ones.
    Each generator calls this after checking its dimensions, so n is valid."""
    if probs is None:
        return equal_probs(n)
    arr = np.asarray(probs, dtype=float).ravel()
    if arr.size != n:
        raise ValidationError(f"expected {n} probabilities, got {arr.size}")
    return arr


def bell_basis(probs, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """The four Bell states in fixed order Phi+, Phi-, Psi+, Psi-."""
    p = _check_probs_length(probs, 4)
    dims = BipartiteDims(2, 2)
    s = 1.0 / np.sqrt(2.0)
    vectors = [
        [s, 0, 0, s],
        [s, 0, 0, -s],
        [0, s, s, 0],
        [0, s, -s, 0],
    ]
    return make_ensemble(zip(p, validate_pure_states(dims, vectors, tol)), label="bell", tol=tol)


def generalized_bell_basis(d: int, probs, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """d^2 maximally entangled orthogonal states via shift/phase operators.

    Member (a, b), in lexicographic order, is
    (1/sqrt(d)) sum_k exp(2 pi i b k / d) |k>|k+a mod d>.
    For d=2 this coincides with the Bell basis up to global phases.
    """
    if d < 2:
        raise ValidationError(f"generalized Bell basis needs d >= 2, got {d}")
    dims = BipartiteDims(d, d)  # enforces the joint-dimension cap
    p = _check_probs_length(probs, d * d)
    vectors = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for k in range(d):
                vectors[a * d + b, k * d + (k + a) % d] = np.exp(2j * np.pi * b * k / d) / np.sqrt(d)
    return make_ensemble(zip(p, validate_pure_states(dims, vectors, tol)), label=f"gbell-d{d}", tol=tol)


def product_basis(dA: int, dB: int, probs, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """Computational product basis |i>|j> in row-major order."""
    dims = BipartiteDims(dA, dB)
    p = _check_probs_length(probs, dims.joint)
    states = validate_pure_states(dims, np.eye(dims.joint, dtype=complex), tol)
    return make_ensemble(zip(p, states), label=f"product-{dA}x{dB}", tol=tol)


def rotated_basis(theta: float, probs, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """The computational basis rotated by U(-theta) = cos(theta) I - i sin(theta) XX.

    Every member has entanglement entropy H(cos^2 theta); the family
    interpolates from the product basis (theta=0) to four maximally
    entangled states (theta=pi/4).
    """
    if not 0.0 <= theta <= np.pi / 2:
        raise ValidationError(f"theta {theta!r} outside [0, pi/2]")
    p = _check_probs_length(probs, 4)
    dims = BipartiteDims(2, 2)
    u = np.cos(theta) * np.eye(4, dtype=complex) - 1j * np.sin(theta) * _XX
    # Member k is column k of u.
    return make_ensemble(zip(p, validate_pure_states(dims, u.T, tol)), label=f"rotated-theta{theta:.17g}", tol=tol)


def is_canonical_product_basis(e: Ensemble) -> bool:
    """True iff the members are exactly the computational basis states (up to
    phase and order). This is the one rule for the known-value annotation:
    analyze attaches PRODUCT_BASIS_NOTE and charge 0 exactly when it holds."""
    n = e.dims.joint
    if len(e.members) != n:
        return False
    seen = set()
    for _, s in e.members:
        if not s.is_pure:
            return False
        idx = int(np.argmax(np.abs(s.vector)))
        if abs(abs(s.vector[idx]) - 1.0) > e.tol.orthogonality_tol:
            return False
        seen.add(idx)
    return len(seen) == n
