"""Bipartite state model: validation plus the structural predicates that the
charge bounds condition on (purity, orthogonality, and, from a stack of
reduced states, maximal entanglement and product structure).

Pure states are stored as vectors, not projectors, so their overlaps and
reduced states stay cheap. Global phase is never normalized away; every
predicate here is phase-invariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _check_spectra,
    _hermiticity_deviation,
    as_square_matrix,
    check_joint_dim,
    hermitian_part,
)

# Below this deviation a pure vector is already unit to machine precision and
# is kept bit-identical, which keeps canonical file round-trips byte-stable.
# No tolerance profile changes it: it decides only whether a vector the
# profile accepted keeps its bits, never whether a vector is accepted, and it
# lies below every profile's trace_tol.
_RENORM_FLOOR = 1e-15


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (dA, dB) of a bipartite system."""

    dA: int
    dB: int

    def __post_init__(self) -> None:
        if self.dA < 1 or self.dB < 1:
            raise ValidationError(f"local dims must be >= 1, got {self.dA}x{self.dB}")
        check_joint_dim(self.dA * self.dB)

    @property
    def joint(self) -> int:
        return self.dA * self.dB


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A validated bipartite state, either a pure vector or a density matrix.

    A density state keeps eigh, the ascending eigenvalues and eigenvectors
    of its Hermitian part that validation computed, so it is decomposed
    once. Construct through validate_state (or the generators); the arrays
    are marked read-only and must be treated as immutable.
    """

    dims: BipartiteDims
    vector: np.ndarray | None
    matrix: np.ndarray | None
    eigh: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def is_pure(self) -> bool:
        return self.vector is not None


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def validate_state(dims: BipartiteDims, data, tol: Tolerances = DEFAULT_TOLERANCES) -> BipartiteState:
    """Validate raw amplitudes (1-D) or matrix entries (2-D) into a state.

    Pure inputs whose norm deviates from 1 by at most trace_tol are
    renormalized; larger deviations are rejected. Density inputs must be
    Hermitian within hermiticity_tol, PSD within eigenvalue_clamp and have
    unit trace within trace_tol: density_spectra's checks, in its order, of
    the one eigh of the Hermitian part that the state keeps.
    """
    a = np.asarray(data, dtype=complex)
    n = dims.joint
    if a.ndim == 1:
        return validate_pure_states(dims, a[None], tol)[0]
    if a.ndim == 2:
        m = as_square_matrix(a)
        if m.shape[0] != n:
            raise ShapeError(
                f"density matrix dim {m.shape[0]} does not match dims {dims.dA}x{dims.dB} (joint {n})"
            )
        w, v = np.linalg.eigh(hermitian_part(m))
        _check_spectra(_hermiticity_deviation(m[None]), w[None], tol, 1)
        return BipartiteState(dims, vector=None, matrix=_freeze(m), eigh=(_freeze(w), _freeze(v)))
    raise ShapeError("state data must be a vector (pure) or a square matrix (density)")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex stack (m, n), with its bits: it
    sums the dot products of the real and of the imaginary parts, and a
    stacked matmul of (1, n) by (n, 1) makes each dot product as it does.
    It warns of no overflow: a huge amplitude gives norm inf, which the norm
    check reports."""
    re, im = a.real, a.imag
    with np.errstate(over="ignore"):
        return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def validate_pure_states(dims: BipartiteDims, vectors, tol: Tolerances = DEFAULT_TOLERANCES) -> list[BipartiteState]:
    """validate_state of each amplitude vector in a stack (m, dims.joint), in
    one pass: one finite check and one norm per row, and renormalization of
    only the rows that need it. The first bad row raises validate_state's
    error for it. The states' vectors are rows of one read-only copy."""
    a = np.array(vectors, dtype=complex)
    n = dims.joint
    if a.shape[1] != n:
        raise ShapeError(f"pure state has length {a.shape[1]}, but dims {dims.dA}x{dims.dB} require {n}")
    finite = np.isfinite(a).all(axis=1)
    norm = _row_norms(a)
    dev = np.abs(norm - 1.0)
    bad = ~finite | (dev > tol.trace_tol)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise ValidationError("pure-state amplitudes must be finite (no NaN/Inf)")
        raise ValidationError(
            f"pure state norm {float(norm[k])!r} deviates from 1 by {dev[k]:.3e}, "
            f"beyond trace_tol={tol.trace_tol:.0e}"
        )
    off = dev > _RENORM_FLOOR
    if off.any():
        a[off] = a[off] / norm[off, None]
    a.setflags(write=False)
    return [BipartiteState(dims, vector=v, matrix=None) for v in a]


def density_of(s: BipartiteState) -> np.ndarray:
    """Density matrix of a state: |psi><psi| of a pure one, else its stored matrix."""
    if s.is_pure:
        return np.outer(s.vector, s.vector.conj())
    return s.matrix


def _maximally_mixed(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each d x d matrix in a stack is within orthogonality_tol of I/d
    (Frobenius). Both flags take the Frobenius norm as np.linalg.norm(x,
    axis=(-2, -1)) evaluates it, with its bits, but without its wrapper."""
    d = stack.shape[-1]
    x = stack - np.eye(d) / d
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1))) <= tol.orthogonality_tol


def _nearly_pure(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each matrix in a stack has Frobenius norm >= (1 - orthogonality_tol)^2.
    For a pure member's reduced state that norm is sqrt(sum lambda_i^2) over
    its squared Schmidt coefficients, so this is "largest Schmidt coefficient
    >= 1 - orthogonality_tol" up to (1 - lambda_0)^2 ~ 4 orthogonality_tol^2:
    4e-18 by default, below the spacing of doubles near 1. Only a user
    Tolerances with a large orthogonality_tol can tell the two apart."""
    return np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(-2, -1))) >= (1.0 - tol.orthogonality_tol) ** 2


def state_rows(s: BipartiteState, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The rows r (k, n) of a state, rho = sum_r |r><r|: a pure state's
    vector, or sqrt(lambda) v for each eigenpair of a density state's eigh
    with lambda above eigenvalue_clamp. The dropped eigenvalues count as 0,
    so the rows rebuild rho within eigenvalue_clamp per eigenvalue."""
    if s.is_pure:
        return s.vector[None]
    w, v = s.eigh
    keep = w > tol.eigenvalue_clamp
    return (v[:, keep] * np.sqrt(w[keep])).T


def row_overlaps(gram: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Tr(rho_i rho_j) of members with counts[i] rows each, in order, from
    the Gram matrix of all their rows: the sum of |gram|^2 over each block
    of rows, which is |gram|^2 itself when every member has one row."""
    g = np.abs(gram) ** 2
    if len(g) == len(counts):
        return g
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(np.add.reduceat(g, starts, axis=0), starts, axis=1)


def overlap_matrix(
    states: list[BipartiteState] | tuple[BipartiteState, ...],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """The m x m matrix Tr(rho_i rho_j) of m states of equal dims, from the
    Gram matrix of their rows (state_rows): |<psi_i|psi_j>|^2 of pure states."""
    if not states:
        return np.zeros((0, 0))
    dims = states[0].dims
    for k, s in enumerate(states):
        if s.dims != dims:
            raise ShapeError(f"state {k} has dims {s.dims.dA}x{s.dims.dB}, expected {dims.dA}x{dims.dB}")
    rows = [state_rows(s, tol) for s in states]
    return row_overlaps(_gram(np.concatenate(rows)), np.array([len(r) for r in rows]))


def _gram(v: np.ndarray) -> np.ndarray:
    """The m x m Gram matrix <psi_i|psi_j> of a stack (m, n) of vectors."""
    return v.conj() @ v.T


def orthogonality_witness(overlaps: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[int, int, float] | None:
    """The first pair (i, j, overlap), i < j in row-major order, whose overlap
    exceeds orthogonality_tol; None when every pair is orthogonal."""
    rows, cols = np.nonzero(overlaps > tol.orthogonality_tol)
    upper = np.flatnonzero(cols > rows)
    if not upper.size:
        return None
    i, j = int(rows[upper[0]]), int(cols[upper[0]])
    return i, j, float(overlaps[i, j])


def pairwise_orthogonal(
    states: list[BipartiteState] | tuple[BipartiteState, ...],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, tuple[int, int, float] | None]:
    """Check Tr(rho_X rho_Y) <= orthogonality_tol for every pair X != Y.

    For PSD matrices this is support orthogonality, the standard
    perfectly-distinguishable criterion. Returns (True, None) on success,
    else (False, (i, j, overlap)) for the first violating pair.
    """
    witness = orthogonality_witness(overlap_matrix(states, tol), tol)
    return witness is None, witness
