"""Entropic functionals, all in bits (base-2 logarithms throughout)."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_square_matrix,
    density_eigenvalues,
)
from .states import BipartiteState, schmidt_coefficients


def _entropy_bits(p) -> float:
    """-sum p log2 p over positive entries, with 0 log 0 = 0. No validation."""
    arr = np.asarray(p, dtype=float).ravel()
    pos = arr[arr > 0.0]
    if pos.size == 0:
        return 0.0
    return max(0.0, float(-(pos * np.log2(pos)).sum()))


def valid_probs(p, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate a probability vector: finite, nonnegative, unit sum within trace_tol."""
    arr = np.asarray(p, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("probability vector is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probabilities must be finite")
    low = float(arr.min())
    if low < 0.0:
        raise ValidationError(f"negative probability {low!r}")
    total = float(arr.sum())
    dev = abs(total - 1.0)
    if dev > tol.trace_tol:
        raise ValidationError(
            f"probabilities sum to {total!r}, |sum-1|={dev:.3e} exceeds trace_tol={tol.trace_tol:.0e}"
        )
    return arr


def shannon_entropy(p, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """H(p) in bits."""
    return _entropy_bits(valid_probs(p, tol))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) for x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    return _entropy_bits([x, 1.0 - x])


def clamp_spectrum(evals, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Zero out eigenvalues within eigenvalue_clamp of 0; reject anything below."""
    arr = np.asarray(evals, dtype=float).copy()
    if arr.size and float(arr.min()) < -tol.eigenvalue_clamp:
        raise ValidationError(
            f"eigenvalue {float(arr.min()):.6e} below -eigenvalue_clamp (-{tol.eigenvalue_clamp:.0e})"
        )
    arr[np.abs(arr) <= tol.eigenvalue_clamp] = 0.0
    return arr


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """S(rho) in bits; eigenvalues are clamped before the x log x evaluation."""
    return _entropy_bits(clamp_spectrum(density_eigenvalues(rho, tol), tol))


def holevo_chi(probs, states, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """chi = S(sum p_X rho_X) - sum p_X S(rho_X) of a density-matrix ensemble."""
    p = valid_probs(probs, tol)
    mats = [as_square_matrix(s) for s in states]
    if len(mats) != p.size:
        raise ValidationError(f"{p.size} probabilities but {len(mats)} states")
    if not mats:
        raise ValidationError("empty state list")
    dim = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ShapeError(f"state {k} has dim {m.shape[0]}, expected {dim}")
    return _holevo_chi(p, mats, None, tol)


def _holevo_chi(p: np.ndarray, mats, member_term: float | None, tol: Tolerances) -> float:
    """holevo_chi on checked input; member_term, when given, is the caller's
    own sum_X p_X S(rho_X) and is used in place of recomputing it."""
    # Identical members carry no information; short-circuit keeps chi exactly 0.
    if all(np.array_equal(mats[0], m) for m in mats[1:]):
        density_eigenvalues(mats[0], tol)
        return 0.0
    avg = np.einsum("x,xij->ij", p, np.stack(mats))
    avg_entropy = von_neumann_entropy(avg, tol)
    if member_term is None:
        member_term = float(sum(pi * von_neumann_entropy(m, tol) for pi, m in zip(p, mats)))
    return avg_entropy - member_term


def entanglement_entropy(s: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy of entanglement of a pure state: H of the squared Schmidt vector."""
    coeffs = schmidt_coefficients(s)
    return _entropy_bits(clamp_spectrum(coeffs**2, tol))
