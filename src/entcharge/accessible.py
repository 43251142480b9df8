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

from .ensembles import Ensemble, EnsembleFacts, classify_structure, ensemble_facts, shannon_of
from .entropy import _entropy_bits, holevo_chi
from .errors import PreconditionError, ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_square_matrix,
    frobenius,
    hermitian_eigenvalues,
    hermitian_part,
)
from .states import BipartiteDims, density_of, pairwise_orthogonal

# Completeness tolerance for sum of POVM elements vs identity (Frobenius).
POVM_COMPLETENESS_TOL = 1e-8


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
    """Knobs of the seeded local search; outcomes=None means ensemble size."""

    outcomes: int | None = None
    restarts: int = 8
    max_iters: int = 500
    step_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.outcomes is not None and self.outcomes < 2:
            raise ValidationError("outcomes must be >= 2")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.step_tol <= 0:
            raise ValidationError("step_tol must be positive")


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
    frozen = []
    for m in mats:
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        frozen.append(m)
    return Povm(dims=dims, elements=tuple(frozen))


def _joint_distribution(e: Ensemble, m: Povm) -> np.ndarray:
    rhos = np.stack([density_of(s) for s in e.states])
    elements = np.stack(m.elements)
    table = np.einsum("x,xij,yji->xy", e.probs, rhos, elements).real
    table[table < 0.0] = 0.0
    # Completeness holds only within POVM_COMPLETENESS_TOL; renormalize so the
    # entropy terms see an exact joint distribution.
    return table / table.sum()


def mutual_information_of_measurement(e: Ensemble, m: Povm) -> float:
    """I(X;Y) = H(X) + H(Y) - H(XY) for p(x, y) = p_x Tr(rho_x M_y)."""
    if m.dims != e.dims:
        raise ShapeError(
            f"POVM dims {m.dims.dA}x{m.dims.dB} do not match ensemble dims {e.dims.dA}x{e.dims.dB}"
        )
    table = _joint_distribution(e, m)
    value = _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table)
    return max(0.0, value)


def accessible_info_exact_orthogonal(e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """H(X), the exact accessible information of a mutually orthogonal ensemble."""
    ok, witness = pairwise_orthogonal(e.states, tol)
    if not ok:
        i, j, overlap = witness
        raise PreconditionError(
            f"exact accessible information needs mutual orthogonality; "
            f"members {i} and {j} overlap by {overlap:.3e}"
        )
    return shannon_of(e, tol)


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
    elements = _normalize_factors(factors)
    table = np.einsum("x,xij,yji->xy", probs, rhos, elements).real
    table[table < 0.0] = 0.0
    table = table / table.sum()
    return _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table)


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
    while iters < cfg.max_iters and step > cfg.step_tol:
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
    outcomes = cfg.outcomes if cfg.outcomes is not None else max(2, len(e.members))
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


def delta_epsilon(e: Ensemble, info: InfoInterval, tol: Tolerances = DEFAULT_TOLERANCES) -> InfoInterval:
    """Delta = S(rho_AB) - I_Global, propagated through the info interval."""
    return _delta_epsilon(ensemble_facts(e, tol), info)


def _delta_epsilon(facts: EnsembleFacts, info: InfoInterval) -> InfoInterval:
    return InfoInterval(facts.s_ab - info.hi, facts.s_ab - info.lo)


def lower_bound_general(e: Ensemble, info: InfoInterval, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Charge lower bound for general pure ensembles:
    sum p_X S(rho_X^A) - I(A;B) - Delta, taken at Delta's conservative edge.

    Reduces to the orthogonal-pure lower bound when Delta vanishes.
    """
    return _lower_bound_general(e, ensemble_facts(e, tol), info)


def _lower_bound_general(e: Ensemble, facts: EnsembleFacts, info: InfoInterval) -> float:
    for k, s in enumerate(e.states):
        if not s.is_pure:
            raise PreconditionError(
                f"the generalized lower bound needs pure members; member {k} is a density matrix"
            )
    return facts.avg_member_entropy - facts.mutual_information - _delta_epsilon(facts, info).hi
