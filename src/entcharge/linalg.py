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
# before that counts as an error. No tolerance profile changes it: it must
# cover the error of bits computed from any input the default profile accepts,
# every input the strict profile accepts is one of those, and no error bound
# yet shows that a smaller slack would still cover the strict ones.
ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerance policy shared by every module.

    A state derived by tracing out a d-dimensional party is checked at
    d x hermiticity_tol and d x eigenvalue_clamp, the bounds its valid members
    guarantee (see density_spectra); eigenvalues are zeroed for x log x
    within eigenvalue_clamp of 0, and traces are checked at trace_tol, for
    every state.
    """

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


def check_joint_dim(n: int) -> None:
    """Reject a joint dimension above MAX_JOINT_DIM."""
    if n > MAX_JOINT_DIM:
        raise ValidationError(f"joint dimension {n} exceeds the cap {MAX_JOINT_DIM}")


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a complex square matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return a


def vector_partial_traces(vectors: np.ndarray, dA: int, dB: int, traced_party: str) -> np.ndarray:
    """The partial trace of |v><v| for each vector in a stack (m, dA*dB),
    traced_party 'A' leaving the operator on B and 'B' the one on A, with no
    joint matrix formed: rho^A[i, j] = sum_k v[i k] conj(v[j k]), and rho^B
    alike (joint index i*dB + k for |i>_A |k>_B). The sum runs in order over
    k from zero, as numpy's einsum of the joint matrix does, so the result
    has its bits; a regrouping sum (.sum, matmul) does not.
    """
    v = vectors.reshape(-1, dA, dB)
    if traced_party == "A":
        v = v.transpose(0, 2, 1)
    elif traced_party != "B":
        raise ValidationError(f"traced_party must be 'A' or 'B', got {traced_party!r}")
    vc = v.conj()
    out = np.zeros((v.shape[0], v.shape[1], v.shape[1]), dtype=complex)
    for k in range(v.shape[2]):
        out += v[:, :, None, k] * vc[:, None, :, k]
    return out


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix, or of each matrix in a stack."""
    return (m + m.swapaxes(-1, -2).conj()) / 2


def _hermiticity_deviation(a: np.ndarray) -> np.ndarray:
    """max |m - m^dagger| of each matrix in a stack."""
    return np.abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def _scaled(name: str, traced_dim: int) -> str:
    return name if traced_dim == 1 else f"{traced_dim} x {name}"


def _check_hermitian(dev: float, tol: Tolerances, traced_dim: int = 1) -> None:
    if dev > traced_dim * tol.hermiticity_tol:
        raise ValidationError(
            f"matrix is not Hermitian: max |m - m^dag| = {dev:.3e} "
            f"exceeds {_scaled('hermiticity_tol', traced_dim)}={tol.hermiticity_tol:.0e}"
        )


def density_spectra(stack: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, traced_dim: int = 1) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a stack of finite square
    matrices, from one eigvalsh call of their Hermitian parts, each checked as
    a density matrix: Hermitian within hermiticity_tol, PSD within
    eigenvalue_clamp and of unit trace within trace_tol. The first matrix that
    fails a check raises that check's error, the checks taken in that order.

    A matrix derived by tracing out a party of dimension traced_dim (a reduced
    member or a marginal of the average state) is checked at traced_dim x
    hermiticity_tol and traced_dim x eigenvalue_clamp. Tr_B is a positive
    map, so lambda_min(Tr_B rho) >= -d c when lambda_min(rho) >= -c, and each
    entry of Tr_B(rho - rho^dag) sums d entries of rho - rho^dag: a state
    derived from valid members passes. The trace check is not scaled, as a
    partial trace keeps the trace.
    """
    # One conjugate transpose serves the Hermitian part and its deviation.
    adjoint = stack.swapaxes(-1, -2).conj()
    evals = np.linalg.eigvalsh((stack + adjoint) / 2)
    _check_spectra(np.abs(stack - adjoint).max(axis=(-2, -1)), evals, tol, traced_dim)
    return evals


def density_eigh(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of one matrix, from one eigh
    call, under density_spectra's checks and errors. eigh reads the lower
    triangle, within hermiticity_tol of the upper one's conjugate."""
    w, v = np.linalg.eigh(matrix)
    _check_spectra(_hermiticity_deviation(matrix[None]), w[None], tol, 1)
    return w, v


def _check_spectra(dev: np.ndarray, evals: np.ndarray, tol: Tolerances, traced_dim: int) -> None:
    """density_spectra's checks of a stack, from its spectra and the
    hermiticity deviation of each matrix, in its order."""
    low, tr = evals.min(axis=-1), evals.sum(axis=-1)
    clamp = traced_dim * tol.eigenvalue_clamp
    bad = (dev > traced_dim * tol.hermiticity_tol) | (low < -clamp) | (np.abs(tr - 1.0) > tol.trace_tol)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    _check_hermitian(float(dev[k]), tol, traced_dim)
    if low[k] < -clamp:
        raise ValidationError(
            f"negative eigenvalue {float(low[k]):.6e} below -{_scaled('eigenvalue_clamp', traced_dim)} "
            f"(-{clamp:.0e}); not a valid density matrix"
        )
    t = float(tr[k])
    raise ValidationError(
        f"trace {t!r} deviates from 1 by {abs(t - 1.0):.3e}, "
        f"beyond trace_tol={tol.trace_tol:.0e}; not a valid density matrix"
    )
