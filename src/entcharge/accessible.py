"""Bracketing the globally accessible information of an ensemble.

min(H(X), Holevo chi) caps every edge. For mutually orthogonal ensembles
the value is that cap, H(X) up to rounding. Otherwise a seeded, monotone
fixed-point search over POVMs (Rehacek, Englert and Kaszlikowski, PRA 71,
054303, 2005) supplies a certified achievable value (the interval's lower
edge) under it. Its restarts take unit steps and run in lockstep blocks; the
result is bit for bit that of running them one after another. The
reported quantity is always an interval; only the orthogonal short-circuit
is a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .entropy import _row_entropies, shannon_entropy
from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    ROUNDING_SLACK,
    Tolerances,
    _check_hermitian,
    _hermiticity_deviation,
    as_square_matrix,
    hermitian_part,
)
from .states import BipartiteDims, _freeze

# Completeness tolerance for sum of POVM elements vs identity (Frobenius). No
# tolerance profile changes it: a profile bounds how far input may be off, and
# the package checks only the search's own POVMs, complete to rounding (the
# null projector closes any gap), far inside any profile's value.
POVM_COMPLETENESS_TOL = 1e-8
# A stop rule, not a rounding slack: it bounds the search's effort, not what it
# certifies. A step counts as a rise only if it gains more than RISE_TOL bits,
# far above I's rounding; a restart ends at its first step that does not rise.
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
    max_iters caps the fixed-point iterations of each restart: one unit trial
    step and one renormalization each. A restart ends at its first trial that
    does not rise by more than RISE_TOL, keeping its current point; one whose
    max_iters-th trial still rose is capped. The restarts run in lockstep
    blocks (see BLOCK_ENTRIES), each with its own current value; the results
    equal those of running them one after another.
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
    # One stacked spectrum of the elements before the first of a wrong shape; the
    # first bad one (else element 0, which passes) raises as a loop would.
    shaped = next((k for k, m in enumerate(mats) if m.shape[0] != n), len(mats))
    if shaped:
        stack = np.stack(mats[:shaped])
        dev, low = _hermiticity_deviation(stack), np.linalg.eigvalsh(hermitian_part(stack)).min(axis=-1)
        k = int(np.argmax((dev > tol.hermiticity_tol) | (low < -tol.eigenvalue_clamp)))
        _check_hermitian(float(dev[k]), tol)
        if low[k] < -tol.eigenvalue_clamp:
            raise ValidationError(
                f"POVM element {k} has negative eigenvalue {float(low[k]):.6e}, "
                f"below -eigenvalue_clamp (-{tol.eigenvalue_clamp:.0e})"
            )
    if shaped < len(mats):
        raise ShapeError(f"POVM element {shaped} has dim {mats[shaped].shape[0]}, dims {dims.dA}x{dims.dB} require {n}")
    total = np.sum(mats, axis=0)
    dev = np.linalg.norm(total - np.eye(n))
    if dev > POVM_COMPLETENESS_TOL:
        raise ValidationError(
            f"POVM elements sum to identity only within {dev:.3e} (Frobenius), "
            f"beyond {POVM_COMPLETENESS_TOL:.0e}"
        )
    return Povm(dims=dims, elements=tuple(_freeze(m) for m in mats))


def _joint_table(probs: np.ndarray, rhos: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """p(x, y) = p_x Tr(rho_x M_y) per POVM of a stack (r, outcomes, n, n), clipped at 0 and summing to 1."""
    table = np.einsum("x,xij,ryji->rxy", probs, rhos, elements).real
    table[table < 0.0] = 0.0
    # Completeness holds only within POVM_COMPLETENESS_TOL; renormalize so the
    # entropy terms see an exact joint distribution.
    return table / table.sum(axis=(1, 2), keepdims=True)


def _information(table: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """H(X) + H(Y) - H(XY) of each joint table in a stack (may round below 0),
    and the marginals p(x), p(y) it summed, which _ascent_direction reuses.
    Each entropy has _entropy_bits' bits."""
    r, x, y = table.shape
    marginals = table.sum(axis=2), table.sum(axis=1)
    p = np.concatenate([*marginals, table.reshape(r, -1)], axis=1)
    h = _row_entropies(p, ((0, x), (x, x + y), (x + y, p.shape[1])))
    return h[0] + h[1] - h[2], marginals


def mutual_information_of_measurement(e: Ensemble, m: Povm) -> float:
    """I(X;Y) = H(X) + H(Y) - H(XY) for p(x, y) = p_x Tr(rho_x M_y)."""
    if m.dims != e.dims:
        raise ShapeError(
            f"POVM dims {m.dims.dA}x{m.dims.dB} do not match ensemble dims {e.dims.dA}x{e.dims.dB}"
        )
    return max(0.0, float(_information(_joint_table(e.probs, e.densities, np.stack(m.elements)[None]))[0][0]))


# -- POVM search ---------------------------------------------------------------
#
# Each element is M_y = F_y^dag F_y with the factors renormalized to
# completeness. A unit step F_y <- F_y (1 + R_y / |R|), R_y = sum_x p_x rho_x
# ln p(y|x)/p(y) the gradient of I(X;Y) in M_y, is kept if I rises by more
# than RISE_TOL; the first one that does not ends its restart at its current
# point. (A smaller step never rose once a unit step had failed, so halving
# it down to a floor only spent iterations.) Restart 0 starts from the
# square-root measurement, the rest from seeded Gaussian factors. Restarts
# run in lockstep blocks: one stacked call per kernel advances every running
# restart of a block. The kernel relies on three invariants:
# - restarts are independent: every kernel treats each restart of a stack
#   apart, so every trajectory, and the result, equals the serial search's;
# - the step count is shared: the live restarts of a block started together
#   and have all taken the same number of steps, so the loop counts for all;
# - a null projector exists only at rank deficiency: when every Sigma of a
#   stack has full rank, _pinv_sqrt builds none and the elements need none.
# A block holds at most BLOCK_ENTRIES stacked entries (restarts x outcomes x
# n^2), and at least one restart.
BLOCK_ENTRIES = 1 << 16


def _pinv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Pseudo-inverse square root of each matrix in a stack, plus the
    projector onto its null space, or None when every matrix has full rank.

    Eigenvalues at or below 1e-14 of the largest count as null. No tolerance
    profile changes that floor: like RISE_TOL it steers the search, not what
    it certifies, since the winning POVM is validated and its information
    measured again whatever the floor."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    floor = np.maximum(w.max(axis=-1, keepdims=True), 1e-30) * 1e-14
    keep = w > floor
    vh = v.conj().swapaxes(-1, -2)
    if keep.all():
        return (v * (1.0 / np.sqrt(w))[..., None, :]) @ vh, None
    inv_diag = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return (v * inv_diag[..., None, :]) @ vh, (v * ~keep[..., None, :]) @ vh


def _povm_elements(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_y = F_y Sigma^(-1/2), Sigma = sum_y F_y^dag F_y, and the elements
    G_y^dag G_y of each factor stack in (r, outcomes, n, n), plus the null
    projector of Sigma, if any, on element 0 so completeness holds exactly.
    Gram matrices are PSD to rounding; conjugating the summed stack instead
    can leave eigenvalues of -1e-11 on ill-conditioned stacks."""
    mats = np.einsum("ryki,rykj->ryij", factors.conj(), factors)
    inv_sqrt, null_proj = _pinv_sqrt(mats.sum(axis=1))
    g = factors @ inv_sqrt[:, None]
    out = np.einsum("ryki,rykj->ryij", g.conj(), g)
    if null_proj is not None:
        out[:, 0] += null_proj
    return g, out


def _sqrt_measurement_factors(average: np.ndarray, probs: np.ndarray, rhos: np.ndarray, outcomes: int) -> np.ndarray:
    inv_sqrt, _ = _pinv_sqrt(average[None])
    we, ve = np.linalg.eigh(hermitian_part(probs[:outcomes, None, None] * rhos[:outcomes]))
    factors = np.zeros((outcomes, *rhos.shape[1:]), dtype=complex)
    factors[: len(we)] = (ve * np.sqrt(np.clip(we, 0.0, None))[:, None, :]) @ ve.conj().swapaxes(-1, -2) @ inv_sqrt[0]
    return factors


def _ascent_direction(
    table: np.ndarray, marginals: tuple[np.ndarray, np.ndarray], probs: np.ndarray, rhos: np.ndarray
) -> np.ndarray:
    """R_y / max_y |R_y|_F per restart (so |eps R_y / |R|| <= eps), from the
    joint tables and their marginals (p(x), p(y)); p(x, y) = 0 adds 0, as
    does a cell whose p(x) p(y) underflows to 0 beside a subnormal p(x, y)."""
    px, py = marginals
    product = px[:, :, None] * py[:, None, :]
    seen = (table > 0.0) & (product > 0.0)
    log_ratio = np.log(np.where(seen, table, 1.0) / np.where(seen, product, 1.0))
    r = np.einsum("x,rxy,xij->ryij", probs, log_ratio, rhos)
    norm = np.sqrt((r.conj() * r).real.sum(axis=(2, 3))).max(axis=1)  # Frobenius, as np.linalg.norm
    return r / np.where(norm == 0.0, 1.0, norm)[:, None, None, None]


def _lockstep_ascent(factors: np.ndarray, rhos: np.ndarray, probs: np.ndarray, cfg: OptimizerConfig):
    """The final elements of each restart in a factor stack, their
    information, and how many restarts were still rising at max_iters. A
    restart ends at its first unit step that does not rise, keeping its
    current point; the others run on. The loop holds only the live restarts'
    state and writes a restart's results when it ends."""
    factors, elements = _povm_elements(factors)
    table = _joint_table(probs, rhos, elements)
    value, marginals = _information(table)
    live = np.arange(len(value))
    best_elements, best = np.empty_like(elements), np.empty_like(value)
    for _ in range(cfg.max_iters):
        direction = _ascent_direction(table, marginals, probs, rhos)
        trial, trial_elements = _povm_elements(factors + factors @ direction)
        table = _joint_table(probs, rhos, trial_elements)
        trial_value, marginals = _information(table)
        rise = trial_value > value + RISE_TOL
        if not rise.all():
            done = live[~rise]
            best_elements[done], best[done] = elements[~rise], value[~rise]
            live, trial, trial_elements, trial_value = live[rise], trial[rise], trial_elements[rise], trial_value[rise]
            table, marginals = table[rise], (marginals[0][rise], marginals[1][rise])
        factors, elements, value = trial, trial_elements, trial_value
        if not live.size:
            break
    best_elements[live], best[live] = elements, value
    return best_elements, best, live.size


def estimate_accessible_info(e: Ensemble, cfg: OptimizerConfig = OptimizerConfig()) -> InfoInterval:
    """Bracket the accessible information of an ensemble.

    Every edge is capped at min(H(X), Holevo chi). Orthogonal ensembles
    short-circuit to that cap, which is H(X) up to rounding unless overlaps
    within orthogonality_tol add up to a chi below it. Otherwise the lower
    edge is the best mutual information found by the seeded POVM search
    (re-evaluated through a validated POVM); one above the cap beyond
    ROUNDING_SLACK raises.
    The search reads the ensemble's densities, average state and chi, so a
    later analysis of the same ensemble computes none of them again.
    """
    cap = min(shannon_entropy(e.probs, e.tol), e.chi)
    if e.witness is None:
        return InfoInterval(cap, cap, "orthogonal ensemble: min(H(X), Holevo chi)")
    rhos, probs = e.densities, e.probs
    outcomes = max(2, len(e.members))
    shape = (outcomes, e.dims.joint, e.dims.joint)

    def start(restart: int) -> np.ndarray:
        if restart == 0:
            return _sqrt_measurement_factors(e.average, probs, rhos, outcomes)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    best_value, capped_restarts = -np.inf, 0
    block = max(1, BLOCK_ENTRIES // (outcomes * e.dims.joint**2))
    for first in range(0, cfg.restarts, block):
        factors = np.stack([start(k) for k in range(first, min(first + block, cfg.restarts))])
        elements, values, capped = _lockstep_ascent(factors, rhos, probs, cfg)
        capped_restarts += capped
        # The first restart whose value beats all earlier ones wins; NaN never does.
        for k, value in enumerate(values):
            if value > best_value:
                best_value, best_elements = value, elements[k]
    povm = make_povm(e.dims, list(best_elements), e.tol)
    lo = mutual_information_of_measurement(e, povm)
    if lo > cap + ROUNDING_SLACK:
        raise ValidationError(f"measured information {lo!r} exceeds min(H(X), Holevo chi) = {cap!r}")
    lo = min(lo, cap)
    note = ""
    if capped_restarts:
        note = f"local search still rising at max_iters={cfg.max_iters} on {capped_restarts}/{cfg.restarts} restarts"
    return InfoInterval(lo, cap, note)
