"""Entropic functionals, all in bits (base-2 logarithms throughout)."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances, density_spectra


def _entropy_bits(p, floor: float = 0.0) -> float:
    """-sum p log2 p over entries above floor, with 0 log 0 = 0. No validation."""
    arr = np.asarray(p, dtype=float).ravel()
    pos = arr[arr > floor]
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


def von_neumann_entropies(stack: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, traced_dim: int = 1) -> np.ndarray:
    """S(rho) of each density matrix in a stack (m, d, d), from one batched
    spectrum that density_spectra checks (traced_dim as there). Each entropy
    has the bits of that matrix's own one-matrix stack; eigenvalues are
    clamped (spectrum_entropies) before the x log x evaluation."""
    return spectrum_entropies(density_spectra(stack, tol, traced_dim), tol)


def spectrum_entropies(evals: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """S of each row of a stack of checked spectra (rows, d), in bits."""
    # An eigenvalue at or below eigenvalue_clamp adds no term: one within the
    # clamp of 0 counts as 0, and one below -eigenvalue_clamp, which a derived
    # state may keep, is dropped like every negative one.
    return _row_entropies(evals, ((0, evals.shape[1]),), tol.eigenvalue_clamp)[0]


def _row_entropies(p: np.ndarray, cuts: tuple[tuple[int, int], ...], floor: float = 0.0) -> np.ndarray:
    """_entropy_bits(p[k, i:j], floor) of each row k, for each cut (i, j), as
    an array (cuts, rows), with its bits. All rows are summed in one pass. An
    entry at or below floor adds a zero term. numpy sums fewer than 8 entries
    strictly in order, where that term changes no bit, but groups 8 or more
    by position (pairwise), where it can; so only a segment of 8 or more
    entries holding such an entry goes through _entropy_bits itself."""
    seen = p > floor
    q = np.where(seen, p, 1.0)
    terms = q * np.log2(q)
    h = np.empty((len(cuts), len(p)))
    for c, (i, j) in enumerate(cuts):
        terms[:, i:j].sum(axis=1, out=h[c])
    # max(0.0, -sum) as _entropy_bits takes it; 0.0 - x is never -0.0.
    h = np.maximum(0.0 - h, 0.0)
    if not seen.all():
        for c, (i, j) in enumerate(cuts):
            if j - i < 8:
                continue
            for k in np.flatnonzero(~seen[:, i:j].all(axis=1)):
                h[c, k] = _entropy_bits(p[k, i:j], floor)
    return h


def member_term(p: np.ndarray, entropies) -> float:
    """sum_X p_X S(rho_X), summed in member order."""
    return float(sum(pi * s for pi, s in zip(p, entropies)))


def _holevo_chi(p: np.ndarray, stack: np.ndarray | None, h: np.ndarray) -> float:
    """chi = S(rho) - sum_X p_X S(rho_X) of a checked stack from h, the
    entropies of [rho, *members] in that order. rho = sum_X p_X rho_X is the
    ensemble's average state, or its marginal for a reduced ensemble. The
    stack is read only to find identical members, so members may stand for
    their states by their rows (pure ones by their vectors); None says they
    are known to differ."""
    # Identical members carry no information; short-circuit keeps chi exactly 0.
    if stack is not None and (stack == stack[:1]).all():
        return 0.0
    # Members equal only to rounding (the reduced members of a maximally
    # entangled basis) can round the difference just below 0.
    return max(0.0, float(h[0]) - member_term(p, h[1:]))
