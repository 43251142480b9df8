"""Entropic functionals, all in bits (base-2 logarithms throughout)."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances, as_square_matrix, density_spectra
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
    return float(von_neumann_entropies(as_square_matrix(rho)[None], tol)[0])


def von_neumann_entropies(stack: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, traced_dim: int = 1) -> np.ndarray:
    """S(rho) of each density matrix in a stack (m, d, d), from one batched
    spectrum that density_spectra checks (traced_dim as there). Each entropy
    has the bits of von_neumann_entropy of that matrix alone."""
    evals = density_spectra(stack, tol, traced_dim)
    # clamp_spectrum's zeroing. A derived state may keep an eigenvalue below
    # -eigenvalue_clamp; like every negative one, the row sum drops it.
    spectra = np.where(np.abs(evals) <= tol.eigenvalue_clamp, 0.0, evals)
    return _row_entropies(spectra, ((0, spectra.shape[1]),))[0]


def _row_entropies(p: np.ndarray, cuts: tuple[tuple[int, int], ...]) -> np.ndarray:
    """_entropy_bits of each row's segment p[k, i:j], for each cut (i, j), as
    an array (cuts, rows), with its bits. All rows are summed in one pass;
    a segment holding a zero goes through _entropy_bits itself, as numpy's
    pairwise sum groups a masked row of 8 or more entries otherwise."""
    seen = p > 0.0
    q = np.where(seen, p, 1.0)
    terms = q * np.log2(q)
    h = np.empty((len(cuts), len(p)))
    for c, (i, j) in enumerate(cuts):
        terms[:, i:j].sum(axis=1, out=h[c])
    # max(0.0, -sum) as _entropy_bits takes it; 0.0 - x is never -0.0.
    h = np.maximum(0.0 - h, 0.0)
    if not seen.all():
        for c, (i, j) in enumerate(cuts):
            for k in np.flatnonzero(~seen[:, i:j].all(axis=1)):
                h[c, k] = _entropy_bits(p[k, i:j])
    return h


def member_term(p: np.ndarray, entropies) -> float:
    """sum_X p_X S(rho_X), summed in member order."""
    return float(sum(pi * s for pi, s in zip(p, entropies)))


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
    stack = np.stack(mats)
    if (stack == stack[:1]).all():
        # _holevo_chi's zero for identical members needs only member 0 valid.
        density_spectra(stack[:1], tol)
        return 0.0
    return _holevo_chi(p, stack, von_neumann_entropies(np.concatenate([chi_average(p, stack)[None], stack]), tol))


def chi_average(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_X p_X rho_X of a stack, the state whose entropy chi starts from."""
    return np.einsum("x,xij->ij", p, stack)


def _holevo_chi(p: np.ndarray, stack: np.ndarray, h: np.ndarray) -> float:
    """holevo_chi of a checked stack from h, the entropies of
    [chi_average(p, stack), *stack] in that order."""
    # Identical members carry no information; short-circuit keeps chi exactly 0.
    if (stack == stack[:1]).all():
        return 0.0
    return float(h[0]) - member_term(p, h[1:])


def entanglement_entropy(s: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Entropy of entanglement of a pure state: H of the squared Schmidt vector."""
    coeffs = schmidt_coefficients(s)
    return _entropy_bits(clamp_spectrum(coeffs**2, tol))
