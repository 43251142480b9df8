"""Dense complex linear algebra on small joint spaces.

Operators are plain numpy arrays of complex128. Joint dimensions are capped
(default 64) so the dense eigensolver stays adequate; there is no sparse path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError, ValidationError

# Hard cap on any joint Hilbert-space dimension handled by this package.
MAX_JOINT_DIM = 64

# Rounding slack of computed bits: a value within it of 0 counts as 0 for the
# verdict and the exactness rules, and it is how far an identity between two
# computed values, or an interval's lower edge over its upper edge, may be off
# before that counts as an error. No tolerance profile changes it.
ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerance policy shared by every module."""

    hermiticity_tol: float = 1e-10
    trace_tol: float = 1e-9
    eigenvalue_clamp: float = 1e-12
    orthogonality_tol: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValidationError(f"tolerance {f.name} must be strictly positive")


DEFAULT_TOLERANCES = Tolerances()
# Every tolerance tightened by 100x; selected with --tolerance-profile strict.
STRICT_TOLERANCES = Tolerances(
    hermiticity_tol=1e-12,
    trace_tol=1e-11,
    eigenvalue_clamp=1e-14,
    orthogonality_tol=1e-11,
)


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a complex square matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return a


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def partial_trace(m, dA: int, dB: int, traced_party: str) -> np.ndarray:
    """Trace out one party of an operator on a dA*dB joint space.

    traced_party 'A' leaves the dB x dB operator on B, 'B' leaves the one on A.
    Basis convention: joint index i*dB + k for |i>_A |k>_B.
    """
    a = as_square_matrix(m)
    if dA < 1 or dB < 1:
        raise ValidationError("local dims must be positive")
    if a.shape[0] != dA * dB:
        raise ShapeError(
            f"matrix dim {a.shape[0]} does not match dims {dA}x{dB} (joint {dA * dB})"
        )
    t = a.reshape(dA, dB, dA, dB)
    if traced_party == "A":
        return np.einsum("ikil->kl", t)
    if traced_party == "B":
        return np.einsum("ikjk->ij", t)
    raise ValidationError(f"traced_party must be 'A' or 'B', got {traced_party!r}")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2."""
    return (m + m.conj().T) / 2


def _check_hermitian(a: np.ndarray, tol: Tolerances) -> None:
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol.hermiticity_tol:
        raise ValidationError(
            f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} "
            f"exceeds hermiticity_tol={tol.hermiticity_tol:.0e}"
        )


def hermitian_eigenvalues(m, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    The Hermitian part is taken before decomposition so floating-point
    asymmetry within hermiticity_tol is handled deterministically.
    """
    a = as_square_matrix(m)
    _check_hermitian(a, tol)
    return np.linalg.eigvalsh(hermitian_part(a))


def density_eigenvalues(m, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Eigenvalues of a valid density matrix (Hermitian, PSD, unit trace).

    Eigenvalues below -eigenvalue_clamp abort instead of being clamped:
    that separates numeric noise from genuinely invalid inputs.
    """
    evals = hermitian_eigenvalues(m, tol)
    low = float(evals.min())
    if low < -tol.eigenvalue_clamp:
        raise ValidationError(
            f"negative eigenvalue {low:.6e} below -eigenvalue_clamp "
            f"(-{tol.eigenvalue_clamp:.0e}); not a valid density matrix"
        )
    tr = float(evals.sum())
    if abs(tr - 1.0) > tol.trace_tol:
        raise ValidationError(
            f"trace {tr!r} deviates from 1 by {abs(tr - 1.0):.3e}, "
            f"beyond trace_tol={tol.trace_tol:.0e}; not a valid density matrix"
        )
    return evals
