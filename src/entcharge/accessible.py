"""Bracketing the globally accessible information of an ensemble.

For mutually orthogonal ensembles the value is exactly H(X). Otherwise a
seeded local search over POVMs supplies a certified achievable value (the
interval's lower edge) while min(H(X), Holevo chi) caps it from above. The
reported quantity is always an interval; only the orthogonal short-circuit
is a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, classify_structure, shannon_of
from .entropy import _entropy_bits, holevo_chi
from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_square_matrix,
    frobenius,
    hermitian_eigenvalues,
    hermitian_part,
)
from .states import BipartiteDims, _freeze, density_of

# Completeness tolerance for sum of POVM elements vs identity (Frobenius).
POVM_COMPLETENESS_TOL = 1e-8
# The local search stops once its perturbation step falls below this.
STEP_TOL = 1e-9


@dataclass(frozen=True)
class InfoInterval:
    """A certified interval [lo, hi] in bits, with an optional diagnostic note."""

    lo: float
    hi: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.lo > self.hi + 1e-9:
            raise ValidationError(f"interval lower edge {self.lo!r} exceeds upper edge {self.hi!r}")


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive-operator-valued measure on a joint space.

    Build through make_povm, which checks Hermiticity, positivity and
    completeness of the elements.
    """

    dims: BipartiteDims
    elements: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the seeded local search.

    The searched POVMs have max(2, m) outcomes for an m-member ensemble, and
    each restart halves its step until STEP_TOL or max_iters.
    """

    restarts: int = 8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


def make_povm(dims: BipartiteDims, elements, tol: Tolerances = DEFAULT_TOLERANCES) -> Povm:
    """Validate a list of operators as a POVM on the given joint space."""
    mats = [as_square_matrix(m) for m in elements]
    if not mats:
        raise ValidationError("a POVM needs at least one element")
    n = dims.joint
    for k, m in enumerate(mats):
        if m.shape[0] != n:
            raise ShapeError(f"POVM element {k} has dim {m.shape[0]}, dims {dims.dA}x{dims.dB} require {n}")
        evals = hermitian_eigenvalues(m, tol)
        if float(evals.min()) < -tol.eigenvalue_clamp:
            raise ValidationError(
                f"POVM element {k} has negative eigenvalue {float(evals.min()):.6e}, "
                f"below -eigenvalue_clamp (-{tol.eigenvalue_clamp:.0e})"
            )
    total = np.sum(mats, axis=0)
    dev = frobenius(total - np.eye(n))
    if dev > POVM_COMPLETENESS_TOL:
        raise ValidationError(
            f"POVM elements sum to identity only within {dev:.3e} (Frobenius), "
            f"beyond {POVM_COMPLETENESS_TOL:.0e}"
        )
    return Povm(dims=dims, elements=tuple(_freeze(m) for m in mats))


def _information(probs: np.ndarray, rhos: np.ndarray, elements: np.ndarray) -> float:
    """H(X) + H(Y) - H(XY) of p(x, y) = p_x Tr(rho_x M_y); may round below 0."""
    table = np.einsum("x,xij,yji->xy", probs, rhos, elements).real
    table[table < 0.0] = 0.0
    # Completeness holds only within POVM_COMPLETENESS_TOL; renormalize so the
    # entropy terms see an exact joint distribution.
    table = table / table.sum()
    return _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table)


def mutual_information_of_measurement(e: Ensemble, m: Povm) -> float:
    """I(X;Y) = H(X) + H(Y) - H(XY) for p(x, y) = p_x Tr(rho_x M_y)."""
    if m.dims != e.dims:
        raise ShapeError(
            f"POVM dims {m.dims.dA}x{m.dims.dB} do not match ensemble dims {e.dims.dA}x{e.dims.dB}"
        )
    rhos = np.stack([density_of(s) for s in e.states])
    return max(0.0, _information(e.probs, rhos, np.stack(m.elements)))


# -- POVM local search --------------------------------------------------------
#
# Each element is parameterized as M_y = F_y^dag F_y and the stack is pushed
# onto the completeness manifold by conjugating with (sum_y M_y)^(-1/2).
# The search is plain coordinate-wise perturbation with a decaying step and
# seeded restarts: determinism and auditability outrank speed at this scale.
# Restart 0 starts from the square-root measurement, the rest from Gaussian
# factors.


def _pinv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root plus the projector onto the null space."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    floor = max(float(w.max()), 1e-30) * 1e-14
    keep = w > floor
    inv_diag = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    inv_sqrt = (v * inv_diag) @ v.conj().T
    null_proj = (v * (~keep)) @ v.conj().T
    return inv_sqrt, null_proj


def _normalize_factors(factors: np.ndarray) -> np.ndarray:
    mats = np.einsum("yki,ykj->yij", factors.conj(), factors)
    inv_sqrt, null_proj = _pinv_sqrt(mats.sum(axis=0))
    out = np.einsum("ab,ybc,cd->yad", inv_sqrt, mats, inv_sqrt)
    # A rank-deficient stack normalizes onto its support only; route the
    # complement into the first outcome so completeness holds exactly.
    out[0] = out[0] + null_proj
    return out


def _povm_elements(factors: np.ndarray) -> np.ndarray:
    """The validated form of _normalize_factors: G_y^dag G_y with
    G_y = F_y Sigma^(-1/2), plus the null projector on element 0.

    Each element is a Gram matrix, so it is PSD to rounding; conjugating the
    summed stack, as the search objective does, can leave eigenvalues of
    -1e-11 on ill-conditioned stacks.
    """
    mats = np.einsum("yki,ykj->yij", factors.conj(), factors)
    inv_sqrt, null_proj = _pinv_sqrt(mats.sum(axis=0))
    g = factors @ inv_sqrt
    out = np.einsum("yki,ykj->yij", g.conj(), g)
    out[0] = out[0] + null_proj
    return out


def _factors_value(factors: np.ndarray, rhos: np.ndarray, probs: np.ndarray) -> float:
    return _information(probs, rhos, _normalize_factors(factors))


def _sqrt_measurement_factors(probs: np.ndarray, rhos: np.ndarray, outcomes: int) -> np.ndarray:
    n = rhos.shape[1]
    avg = np.einsum("x,xij->ij", probs, rhos)
    inv_sqrt, _ = _pinv_sqrt(avg)
    factors = np.zeros((outcomes, n, n), dtype=complex)
    for y in range(min(outcomes, len(probs))):
        m = hermitian_part(probs[y] * rhos[y])
        we, ve = np.linalg.eigh(m)
        root = (ve * np.sqrt(np.clip(we, 0.0, None))) @ ve.conj().T
        factors[y] = root @ inv_sqrt
    return factors


def _coordinate_ascent(
    factors: np.ndarray, rhos: np.ndarray, probs: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, int]:
    best = _factors_value(factors, rhos, probs)
    step = 0.5
    iters = 0
    shape = factors.shape
    while iters < cfg.max_iters and step > STEP_TOL:
        improved = False
        for flat in range(factors.size):
            idx = np.unravel_index(flat, shape)
            saved = factors[idx]
            for delta in (step, -step, step * 1j, -step * 1j):
                factors[idx] = saved + delta
                value = _factors_value(factors, rhos, probs)
                if value > best + 1e-12:
                    best = value
                    improved = True
                    break
                factors[idx] = saved
        if not improved:
            step *= 0.5
        iters += 1
    return factors, best, iters


def estimate_accessible_info(
    e: Ensemble,
    cfg: OptimizerConfig = OptimizerConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> InfoInterval:
    """Bracket the accessible information of an ensemble.

    Orthogonal ensembles short-circuit to the exact value H(X). Otherwise the
    lower edge is the best mutual information found by the seeded local
    search (re-evaluated through a validated POVM) and the upper edge is
    min(H(X), Holevo chi).
    """
    flags = classify_structure(e, tol)
    hx = shannon_of(e, tol)
    if flags.mutually_orthogonal:
        return InfoInterval(hx, hx, "orthogonal ensemble: exact value H(X)")
    rhos = np.stack([density_of(s) for s in e.states])
    probs = e.probs
    cap = min(hx, holevo_chi(probs, list(rhos), tol))
    outcomes = max(2, len(e.members))
    n = e.dims.joint

    best_factors = None
    best_value = -np.inf
    capped_restarts = 0
    for restart in range(cfg.restarts):
        if restart == 0:
            factors = _sqrt_measurement_factors(probs, rhos, outcomes)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
            factors = rng.standard_normal((outcomes, n, n)) + 1j * rng.standard_normal((outcomes, n, n))
        factors, value, iters = _coordinate_ascent(factors, rhos, probs, cfg)
        if iters >= cfg.max_iters:
            capped_restarts += 1
        if value > best_value:
            best_value = value
            best_factors = factors
    povm = make_povm(e.dims, list(_povm_elements(best_factors)), tol)
    lo = mutual_information_of_measurement(e, povm)
    lo = min(lo, cap)
    note = ""
    if capped_restarts:
        note = f"local search hit max_iters={cfg.max_iters} before step_tol on {capped_restarts}/{cfg.restarts} restarts"
    return InfoInterval(lo, cap, note)
