"""Bracketing the globally accessible information of an ensemble.

For mutually orthogonal ensembles the value is exactly H(X). Otherwise a
seeded, monotone fixed-point search over POVMs (Rehacek, Englert and
Kaszlikowski, PRA 71, 054303, 2005) supplies a certified achievable value (the
interval's lower edge) while min(H(X), Holevo chi) caps it from above. The
reported quantity is always an interval; only the orthogonal short-circuit
is a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, shannon_of
from .entropy import _entropy_bits, holevo_chi
from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    ROUNDING_SLACK,
    Tolerances,
    as_square_matrix,
    frobenius,
    hermitian_eigenvalues,
    hermitian_part,
)
from .states import BipartiteDims, _freeze, density_of, pairwise_orthogonal

# Completeness tolerance for sum of POVM elements vs identity (Frobenius).
POVM_COMPLETENESS_TOL = 1e-8
# Stop rules, not rounding slacks: they bound the search's effort, not what it
# certifies. A restart stops once its step falls below STEP_TOL; a step counts
# as a rise only if it gains more than RISE_TOL bits, far above I's rounding.
STEP_TOL = 1e-9
RISE_TOL = 1e-12


@dataclass(frozen=True)
class InfoInterval:
    """A certified interval [lo, hi] in bits, with an optional diagnostic note."""

    lo: float
    hi: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.lo > self.hi + ROUNDING_SLACK:
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
    """Knobs of the seeded POVM search.

    The searched POVMs have max(2, m) outcomes for an m-member ensemble.
    max_iters caps the fixed-point iterations of each restart: one trial step
    and one renormalization each, kept or not. A restart also stops once its
    step size falls below STEP_TOL.
    """

    restarts: int = 8
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


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


def _joint_table(probs: np.ndarray, rhos: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """p(x, y) = p_x Tr(rho_x M_y), clipped at 0 and summing to 1."""
    table = np.einsum("x,xij,yji->xy", probs, rhos, elements).real
    table[table < 0.0] = 0.0
    # Completeness holds only within POVM_COMPLETENESS_TOL; renormalize so the
    # entropy terms see an exact joint distribution.
    return table / table.sum()


def _information(table: np.ndarray) -> float:
    """H(X) + H(Y) - H(XY) of a joint table; may round below 0."""
    return _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table)


def mutual_information_of_measurement(e: Ensemble, m: Povm) -> float:
    """I(X;Y) = H(X) + H(Y) - H(XY) for p(x, y) = p_x Tr(rho_x M_y)."""
    if m.dims != e.dims:
        raise ShapeError(
            f"POVM dims {m.dims.dA}x{m.dims.dB} do not match ensemble dims {e.dims.dA}x{e.dims.dB}"
        )
    rhos = np.stack([density_of(s) for s in e.states])
    return max(0.0, _information(_joint_table(e.probs, rhos, np.stack(m.elements))))


# -- POVM search ---------------------------------------------------------------
#
# Each element is M_y = F_y^dag F_y with the factors renormalized to
# completeness. A step F_y <- F_y (1 + eps R_y / |R|), R_y = sum_x p_x rho_x
# ln p(y|x)/p(y) the gradient of I(X;Y) in M_y, is kept only if I rises by more
# than RISE_TOL; eps then doubles (up to 1), else halves. Restart 0 starts from
# the square-root measurement, the rest from seeded Gaussian factors.


def _pinv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root plus the projector onto the null space."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    floor = max(float(w.max()), 1e-30) * 1e-14
    keep = w > floor
    inv_diag = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    inv_sqrt = (v * inv_diag) @ v.conj().T
    null_proj = (v * (~keep)) @ v.conj().T
    return inv_sqrt, null_proj


def _povm_elements(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_y = F_y Sigma^(-1/2), Sigma = sum_y F_y^dag F_y, and the elements
    G_y^dag G_y, plus the null projector of Sigma on element 0 so completeness
    holds exactly. Gram matrices are PSD to rounding; conjugating the summed
    stack instead can leave eigenvalues of -1e-11 on ill-conditioned stacks.
    """
    mats = np.einsum("yki,ykj->yij", factors.conj(), factors)
    inv_sqrt, null_proj = _pinv_sqrt(mats.sum(axis=0))
    g = factors @ inv_sqrt
    out = np.einsum("yki,ykj->yij", g.conj(), g)
    out[0] = out[0] + null_proj
    return g, out


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


def _ascent_direction(table: np.ndarray, probs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """R_y / max_y |R_y|_F (so |eps R_y / |R|| <= eps); p(x, y) = 0 adds 0."""
    seen = table > 0.0
    marginals = np.outer(table.sum(axis=1), table.sum(axis=0))
    log_ratio = np.log(np.where(seen, table, 1.0) / np.where(seen, marginals, 1.0))
    r = np.einsum("x,xy,xij->yij", probs, log_ratio, rhos)
    return r / (np.linalg.norm(r, axis=(1, 2)).max() or 1.0)


def _fixed_point_ascent(
    factors: np.ndarray, rhos: np.ndarray, probs: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, int]:
    """The best elements of one restart, their information and iterations."""
    factors, elements = _povm_elements(factors)
    table = _joint_table(probs, rhos, elements)
    best = _information(table)
    direction = _ascent_direction(table, probs, rhos)
    step = 1.0
    iters = 0
    while iters < cfg.max_iters and step >= STEP_TOL:
        trial, trial_elements = _povm_elements(factors + step * factors @ direction)
        table = _joint_table(probs, rhos, trial_elements)
        value = _information(table)
        if value > best + RISE_TOL:
            factors, elements, best = trial, trial_elements, value
            direction = _ascent_direction(table, probs, rhos)
            step = min(1.0, 2.0 * step)
        else:
            step *= 0.5
        iters += 1
    return elements, best, iters


def estimate_accessible_info(
    e: Ensemble,
    cfg: OptimizerConfig = OptimizerConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> InfoInterval:
    """Bracket the accessible information of an ensemble.

    Orthogonal ensembles short-circuit to the exact value H(X). Otherwise the
    lower edge is the best mutual information found by the seeded POVM
    search (re-evaluated through a validated POVM) and the upper edge is
    min(H(X), Holevo chi); a lower edge above it beyond ROUNDING_SLACK raises.
    """
    orthogonal, _ = pairwise_orthogonal(e.states, tol)
    hx = shannon_of(e, tol)
    if orthogonal:
        return InfoInterval(hx, hx, "orthogonal ensemble: exact value H(X)")
    rhos = np.stack([density_of(s) for s in e.states])
    probs = e.probs
    cap = min(hx, holevo_chi(probs, list(rhos), tol))
    outcomes = max(2, len(e.members))
    n = e.dims.joint

    best_value = -np.inf
    capped_restarts = 0
    for restart in range(cfg.restarts):
        if restart == 0:
            factors = _sqrt_measurement_factors(probs, rhos, outcomes)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
            factors = rng.standard_normal((outcomes, n, n)) + 1j * rng.standard_normal((outcomes, n, n))
        elements, value, iters = _fixed_point_ascent(factors, rhos, probs, cfg)
        if iters >= cfg.max_iters:
            capped_restarts += 1
        if value > best_value:
            best_value = value
            best_elements = elements
    povm = make_povm(e.dims, list(best_elements), tol)
    lo = mutual_information_of_measurement(e, povm)
    if lo > cap + ROUNDING_SLACK:
        raise ValidationError(f"measured information {lo!r} exceeds min(H(X), Holevo chi) = {cap!r}")
    lo = min(lo, cap)
    note = ""
    if capped_restarts:
        note = f"local search hit max_iters={cfg.max_iters} before step_tol on {capped_restarts}/{cfg.restarts} restarts"
    return InfoInterval(lo, cap, note)
