"""Bracketing the globally accessible information of an ensemble.

min(H(X), Holevo chi) caps every edge, and every lower edge is the
information of an explicit measurement. All-pure orthogonal ensembles skip
the search and get [pgm, cap]: the pretty-good measurement is certified.
A non-orthogonal pair of pure members skips it too: a von Neumann
measurement in the span of two pure states is optimal (Levitin, in Quantum
Communications and Measurement, Plenum, 1995), so the lower edge is that of
the best such measurement, found over one angle; the optimizer's knobs do
not apply to it. Every other ensemble takes a seeded, monotone fixed-point
search over POVMs (Rehacek, Englert and Kaszlikowski, PRA 71, 054303,
2005). Each restart doubles its step while it rises and falls back to a
unit step when it does not; its restarts run in lockstep blocks, and the
search ends as soon as a restart comes within RISE_TOL of the cap, which no
measurement beats. Until then the result is bit for bit that of running the
restarts one after another; a stop at the cap ends the block at that common
step and starts no later one. The pair's measurement and the search's best
one are both validated and measured again, which gives the lower edge; on
an all-pure ensemble, so does the pretty-good measurement, and the larger
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .entropy import _entropy_bits, _row_entropies, shannon_entropy
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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"interval edges must be finite, got [{self.lo!r}, {self.hi!r}]")
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
    max_iters caps the trials of each restart: one trial step and one
    renormalization each, a trial that is dropped and a restart's step
    reset included. A trial that rises by more than RISE_TOL is kept and
    doubles the step (up to MAX_STEP); one above step 1 that does not rise
    is dropped and resets the step to 1; one at step 1 that does not rise
    ends the restart at its current point. A restart that has not ended
    after max_iters trials is capped. The restarts run in lockstep blocks
    (see BLOCK_ENTRIES), each with its own point, value and step; the
    results equal those of running them one after another, unless a restart
    comes within RISE_TOL of min(H(X), Holevo chi): the search ends there.
    An all-pure ensemble that is mutually orthogonal, or a non-orthogonal
    pair, takes no search, so it ignores all three knobs: restarts, seed and
    max_iters.
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
    """Validate a list of operators as a POVM on the given joint space: the
    elements sum to the identity within 10 x trace_tol (Frobenius): 1e-8
    under the default profile, 1e-10 under the strict one."""
    mats = [as_square_matrix(m) for m in elements]
    if not mats:
        raise ValidationError("a POVM needs at least one element")
    n = dims.joint
    for k, m in enumerate(mats):
        if m.shape[0] != n:
            raise ShapeError(f"POVM element {k} has dim {m.shape[0]}, dims {dims.dA}x{dims.dB} require {n}")
        _check_hermitian(float(_hermiticity_deviation(m)), tol)
        low = float(np.linalg.eigvalsh(hermitian_part(m))[0])
        if low < -tol.eigenvalue_clamp:
            raise ValidationError(
                f"POVM element {k} has negative eigenvalue {low:.6e}, "
                f"below -eigenvalue_clamp (-{tol.eigenvalue_clamp:.0e})"
            )
    total = np.sum(mats, axis=0)
    dev, limit = np.linalg.norm(total - np.eye(n)), 10 * tol.trace_tol
    if dev > limit:
        raise ValidationError(
            f"POVM elements sum to identity only within {dev:.3e} (Frobenius), beyond {limit:.0e}"
        )
    return Povm(dims=dims, elements=tuple(_freeze(m) for m in mats))


def _joint_table(probs: np.ndarray, rhos: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """p(x, y) = p_x Tr(rho_x M_y) per POVM of a stack (r, outcomes, n, n), clipped at 0 and summing to 1."""
    table = np.einsum("x,xij,ryji->rxy", probs, rhos, elements).real
    table[table < 0.0] = 0.0
    # Completeness holds only within make_povm's check; renormalize so the
    # entropy terms see an exact joint distribution.
    return table / table.sum(axis=(1, 2), keepdims=True)


def _information(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H(X) + H(Y) - H(XY) of each joint table in a stack (may round below 0),
    and the rows [p(x), p(y), p(x, y)] it summed, which _ascent_direction
    reuses. Each entropy has _entropy_bits' bits."""
    r, x, y = table.shape
    p = np.concatenate([table.sum(axis=2), table.sum(axis=1), table.reshape(r, -1)], axis=1)
    h = _row_entropies(p, ((0, x), (x, x + y), (x + y, p.shape[1])))
    return h[0] + h[1] - h[2], p


def mutual_information_of_measurement(e: Ensemble, m: Povm) -> float:
    """I(X;Y) = H(X) + H(Y) - H(XY) for p(x, y) = p_x Tr(rho_x M_y)."""
    if m.dims != e.dims:
        raise ShapeError(
            f"POVM dims {m.dims.dA}x{m.dims.dB} do not match ensemble dims {e.dims.dA}x{e.dims.dB}"
        )
    return max(0.0, float(_information(_joint_table(e.probs, e.densities, np.stack(m.elements)[None]))[0][0]))


def pgm_information(e: Ensemble) -> float:
    """I(X;Y) of the pretty-good (square-root) measurement of an all-pure
    ensemble (Hausladen and Wootters, J. Mod. Opt. 41, 2385, 1994), a
    certified lower bound on I_Global. With W the columns sqrt(p_x) psi_x,
    W^dag rho^(-1/2) W = G^(1/2) for G = W^dag W, so p(x, y) =
    |(G^(1/2))_xy|^2, from the ensemble's gram_eigh, the eigenproblem its
    s_ab reads too. Null eigenvalues (see _non_null) count as 0: sqrt would
    lift a rounding residue of 1e-17 on a null direction to 3e-9."""
    w, v = e.gram_eigh
    w = np.where(_non_null(w), w, 0.0)
    table = np.abs((v * np.sqrt(w)) @ v.conj().T) ** 2
    table /= table.sum()
    return max(0.0, _entropy_bits(table.sum(axis=1)) + _entropy_bits(table.sum(axis=0)) - _entropy_bits(table))


# -- two pure members ------------------------------------------------------------
#
# Rephased so that <psi_0|psi_1> = cos(gamma) >= 0, the pair spans a real plane
# with orthonormal basis e_0 = psi_0, e_1, where psi_1 = cos(gamma) e_0 +
# sin(gamma) e_1. The measurement {|w><w|, I - |w><w|}, w = cos(phi) e_0 +
# sin(phi) e_1, gives I(phi) = h(p_0 cos^2 phi + p_1 cos^2(phi - gamma)) -
# p_0 h(cos^2 phi) - p_1 h(cos^2(phi - gamma)), which has period pi/2 (the
# angle phi + pi/2 swaps the two outcomes). A coarse grid over one period finds
# the peak's cell, and golden-section search refines it. Each cos^2 comes with
# its own sin^2, so h keeps its digits next to 0 and 1.
PAIR_GRID = 64
PAIR_ANGLE_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _h2(a: float, b: float) -> float:
    """-a log2 a - b log2 b, with 0 log 0 = 0."""
    return -(a * math.log2(a) if a > 0.0 else 0.0) - (b * math.log2(b) if b > 0.0 else 0.0)


def _pair_information_at(p0: float, p1: float, gamma: float, phi: float) -> float:
    """I(phi) in bits at one angle, in floats: numpy's per-call cost would
    dominate the grid and the refinement."""
    c0, s0, c1, s1 = math.cos(phi) ** 2, math.sin(phi) ** 2, math.cos(phi - gamma) ** 2, math.sin(phi - gamma) ** 2
    return _h2(p0 * c0 + p1 * c1, p0 * s0 + p1 * s1) - p0 * _h2(c0, s0) - p1 * _h2(c1, s1)


def _pair_angle(p0: float, p1: float, gamma: float) -> float:
    """The angle phi at which I(phi) peaks, to PAIR_ANGLE_TOL: the first
    best point of the grid, refined by golden-section search over the cells
    on either side of it; the best angle evaluated wins."""

    def f(phi: float) -> float:
        return _pair_information_at(p0, p1, gamma, phi)

    step = 0.5 * math.pi / PAIR_GRID
    start = max((step * k for k in range(PAIR_GRID)), key=f)

    a, b = start - step, start + step
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > PAIR_ANGLE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return max((f(start), start), (fc, c), (fd, d))[1]


def _pair_elements(e: Ensemble) -> list[np.ndarray]:
    """[I - |w><w|, |w><w|] at the optimal angle for a non-orthogonal
    two-member all-pure ensemble (its witness makes <psi_0|psi_1> nonzero).
    e_1 is the rephased psi_1's residual after projecting out e_0 twice, so
    it is orthogonal to e_0 to rounding even when the residual is mostly
    rounding. A residual of norm at most 1e-14 is rounding: the members are
    one state up to phase, which no measurement tells apart (two states that
    close carry under 1e-26 bits), and w = psi_0."""
    v = e._vectors
    e0 = v[0] / np.linalg.norm(v[0])
    psi1 = v[1] / np.linalg.norm(v[1])
    overlap = np.vdot(e0, psi1)
    cos_gamma = abs(overlap)
    residual = psi1 * (overlap.conjugate() / cos_gamma) - cos_gamma * e0
    residual -= np.vdot(e0, residual) * e0
    sin_gamma = float(np.linalg.norm(residual))
    w = e0
    if sin_gamma > 1e-14:
        p0, p1 = (float(p) for p in e.probs)
        phi = _pair_angle(p0, p1, math.atan2(sin_gamma, cos_gamma))
        w = math.cos(phi) * e0 + math.sin(phi) * (residual / sin_gamma)
    projector = np.outer(w, w.conj())
    return [np.eye(len(w)) - projector, projector]


# -- POVM search ---------------------------------------------------------------
#
# Each element is M_y = F_y^dag F_y with the factors renormalized to
# completeness. A trial step F_y <- F_y (1 + s R_y / |R|), R_y = sum_x p_x
# rho_x ln p(y|x)/p(y) the gradient of I(X;Y) in M_y, is kept if I rises by
# more than RISE_TOL, and the restart's step s, 1 at its start, then doubles
# up to MAX_STEP. A trial at s > 1 that does not rise leaves the point as it
# was and resets s to 1; one at s = 1 that does not rise ends the restart at
# its current point. (A step below 1 never rose once a unit step had failed,
# so halving it down to a floor only spent trials; a unit step converges
# linearly, and doubling it while it rises halves the trine's trials.)
# Restart 0 starts from the square-root measurement, the rest from seeded
# Gaussian factors. Restarts run in lockstep blocks: one stacked call per
# kernel advances every running restart of a block. The kernel relies on
# three invariants:
# - restarts are independent: every kernel treats each restart of a stack
#   apart, and each restart holds its own step, so every trajectory equals
#   the serial search's, and so does the result unless a restart reaches
#   the cap: the block then ends at that trial for all its restarts, and no
#   later block starts;
# - the trial count is shared: the live restarts of a block started
#   together and have all taken the same number of trials, kept or not, so
#   the loop counts for all;
# - a null projector exists only at rank deficiency: when every Sigma of a
#   stack has full rank, _pinv_sqrt builds none and the elements need none.
# A block holds at most BLOCK_ENTRIES stacked entries (restarts x outcomes x
# n^2), and at least one restart.
BLOCK_ENTRIES = 1 << 16
MAX_STEP = 64.0


def _non_null(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above 1e-14 of their spectrum's largest."""
    return w > np.maximum(w.max(axis=-1, keepdims=True), 1e-30) * 1e-14


def _pinv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Pseudo-inverse square root of each matrix in a stack, plus the
    projector onto its null space, or None when every matrix has full rank.

    Null eigenvalues are those of _non_null. No tolerance profile changes
    that floor: like RISE_TOL it steers the search, not what it certifies,
    since the winning POVM is validated and its information measured again
    whatever the floor."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    keep = _non_null(w)
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


def _ascent_direction(p: np.ndarray, probs: np.ndarray, rhos: np.ndarray, step: np.ndarray) -> np.ndarray:
    """step R_y / max_y |R_y|_F per restart, from _information's rows
    [p(x), p(y), p(x, y)] and the restarts' steps; p(x, y) = 0 adds 0, as
    does a cell whose p(x) p(y) underflows to 0 beside a subnormal p(x, y).
    A step is a power of 2, so dividing the norm by it scales exactly."""
    x = len(probs)
    y = (p.shape[1] - x) // (x + 1)  # a row holds x + y + x y entries
    table = p[:, x + y :].reshape(-1, x, y)
    product = p[:, :x, None] * p[:, None, x : x + y]
    seen = (table > 0.0) & (product > 0.0)
    log_ratio = np.log(np.where(seen, table, 1.0) / np.where(seen, product, 1.0))
    r = np.einsum("x,rxy,xij->ryij", probs, log_ratio, rhos)
    norm = np.sqrt((r.conj() * r).real.sum(axis=(2, 3))).max(axis=1)  # Frobenius, as np.linalg.norm
    return r / (np.where(norm == 0.0, 1.0, norm) / step)[:, None, None, None]


def _lockstep_ascent(factors: np.ndarray, rhos: np.ndarray, probs: np.ndarray, cfg: OptimizerConfig, cap: float):
    """The final elements of each restart in a factor stack, their
    information, how many restarts had not ended after max_iters trials,
    and whether one reached the cap. A restart keeps a trial that rises and
    doubles its step, up to MAX_STEP; a trial above step 1 that does not
    rise leaves its point as it was and resets its step to 1, and a unit
    trial that does not rise ends the restart at its current point. The
    whole block ends at the first point where a restart lies within
    RISE_TOL of cap, which no measurement beats; its live restarts then keep
    their current points and none counts as capped. The loop holds only the
    live restarts' state and writes a restart's results when it ends."""
    factors, elements = _povm_elements(factors)
    value, p = _information(_joint_table(probs, rhos, elements))
    live, step = np.arange(len(value)), np.ones(len(value))
    best_elements, best = np.empty_like(elements), np.empty_like(value)
    # Python reductions of tolist(): numpy's cost ~1 us per call on these
    # few entries, ~3% of the search.
    at_cap = max(value.tolist(), default=-math.inf) >= cap - RISE_TOL
    for _ in range(cfg.max_iters):
        if at_cap or not live.size:
            break
        trial, trial_elements = _povm_elements(factors + factors @ _ascent_direction(p, probs, rhos, step))
        trial_value, trial_p = _information(_joint_table(probs, rhos, trial_elements))
        rise = trial_value > value + RISE_TOL
        grown = np.minimum(step + step, MAX_STEP)
        if all(rise.tolist()):
            step = grown
        else:
            # Undo the failed trials in place. A failed step above 1 becomes
            # 1; a failed unit step becomes 0, which ends its restart.
            fail = ~rise
            back = fail[:, None, None, None]
            np.copyto(trial, factors, where=back)
            np.copyto(trial_elements, elements, where=back)
            np.copyto(trial_p, p, where=fail[:, None])
            np.copyto(trial_value, value, where=fail)
            step = np.where(rise, grown, step > 1.0)
            if 0.0 in step.tolist():
                go = step > 0.0
                done = live[~go]
                best_elements[done], best[done] = elements[~go], value[~go]
                live, step, trial, trial_elements, trial_value, trial_p = (
                    a[go] for a in (live, step, trial, trial_elements, trial_value, trial_p)
                )
        factors, elements, value, p = trial, trial_elements, trial_value, trial_p
        at_cap = max(value.tolist(), default=-math.inf) >= cap - RISE_TOL
    best_elements[live], best[live] = elements, value
    return best_elements, best, 0 if at_cap else live.size, at_cap


def _search(e: Ensemble, cfg: OptimizerConfig, cap: float) -> tuple[np.ndarray, int]:
    """The elements of the best measurement the seeded restarts found, and
    how many restarts had not ended after max_iters trials. The first restart
    whose value beats all earlier ones wins; NaN never does."""
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
        elements, values, capped, at_cap = _lockstep_ascent(factors, rhos, probs, cfg, cap)
        capped_restarts += capped
        for k, value in enumerate(values):
            if value > best_value:
                best_value, best_elements = value, elements[k]
        if at_cap:
            break
    return best_elements, capped_restarts


def estimate_accessible_info(e: Ensemble, cfg: OptimizerConfig = OptimizerConfig()) -> InfoInterval:
    """Bracket the accessible information of an ensemble.

    Every edge is capped at min(H(X), Holevo chi). An all-pure orthogonal
    ensemble skips the search and gets [pgm_information, cap]. A
    non-orthogonal pair of pure members skips it too and takes the von
    Neumann measurement at Levitin's optimal angle; cfg does not change its
    result. Every other ensemble, mixed orthogonal ones included, takes the
    seeded POVM search, whose restart 0 is the square-root measurement and
    which ends once a restart comes within RISE_TOL of the cap. The lower
    edge is the mutual information of the pair's measurement or of the best
    one the search found, re-evaluated through a validated POVM, or, for
    all-pure members, pgm_information if that is larger; one above the cap
    beyond ROUNDING_SLACK raises. A later analysis of the same ensemble
    reuses the witness and gram_eigh, with the s_ab that chi reads; it
    reads neither the densities nor the average state that the search and
    the measured information read.
    """
    cap = min(shannon_entropy(e.probs, e.tol), e.chi)
    if e._all_pure and e.witness is None:
        return InfoInterval(min(pgm_information(e), cap), cap, "orthogonal ensemble: min(H(X), Holevo chi)")
    if e._all_pure and len(e.members) == 2:
        elements, capped_restarts = _pair_elements(e), 0
    else:
        elements, capped_restarts = _search(e, cfg, cap)
    povm = make_povm(e.dims, list(elements), e.tol)
    lo = mutual_information_of_measurement(e, povm)
    if e._all_pure:
        # The pretty-good measurement is explicit too. Read from the Gram
        # matrix, as default mode reads it, its information can round above
        # the measured one (by ~1e-15 bits where it is the pair's optimum).
        lo = max(lo, pgm_information(e))
    if lo > cap + ROUNDING_SLACK:
        raise ValidationError(f"measured information {lo!r} exceeds min(H(X), Holevo chi) = {cap!r}")
    lo = min(lo, cap)
    note = ""
    if capped_restarts:
        note = f"local search still rising at max_iters={cfg.max_iters} on {capped_restarts}/{cfg.restarts} restarts"
    return InfoInterval(lo, cap, note)
