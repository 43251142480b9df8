"""Entanglement-charge bounds, exactness detection and the nonlocality verdict.

The charge itself is an asymptotic quantity that cannot be evaluated
directly; the public result is therefore always a certified interval plus a
verdict, with a scalar exact value only when the interval's edges meet.
Conventions:

  * merging_AtoB = S(rho_AB) - S(rho_B) and merging_BtoA = S(rho_AB) - S(rho_A)
    are the state-merging upper bounds of every ensemble (either may be
    negative; see upper_bound_merging);
  * compress_teleport = S(rho_A) is the compress-and-teleport upper bound,
    reported for comparison only (it never beats merging_AtoB);
  * the lower bound for pure ensembles is the average member entanglement
    minus the total correlation, less Delta = S(rho_AB) - I_Global:
    sum_X p_X S(rho_X^A) - I(A;B) - Delta, with Delta taken at its
    conservative edge S(rho_AB) - I_lo. I_lo is the information of an
    explicit measurement: the pretty-good measurement's, or the lower edge of
    the accessible-information interval the caller passes; for orthogonal
    pure ensembles both are H(X) up to rounding, and Delta vanishes;
  * the lower edge is the largest certified lower bound, never below the
    floor -log2 min(dA, dB), and the verdict is neither when both edges lie
    within ROUNDING_SLACK of zero.

Exactness has one rule: the charge is exact when the least of the three
upper candidates above lies within ROUNDING_SLACK of the best lower
candidate, and the exact value is that upper candidate's. Its two classic
instances: for orthogonal pure ensembles the pure lower bound equals
S(A|B) - chi_A = S(B|A) - chi_B, where chi_A = S(rho_A) - sum_X p_X
S(rho_X^A) is the Holevo information of a reduced ensemble, read from the
same S(rho_A) as the merging bounds, so the edges meet whenever one party's
reduced states carry no information (chi = 0). A pure member's two reduced
states share their nonzero spectrum, so chi_B subtracts the same member
term from S(rho_B); and S(rho_AB) of a pure ensemble is the entropy of its
weighted Gram matrix diag(sqrt p) G diag(sqrt p), which shares the average
state's nonzero spectrum (see Ensemble);
and orthogonal d x d maximally entangled pure ensembles, whose reduced
states are all I/d, meet at the paper's H(X) - log2 d. orthogonality_tol
decides only the mutually_orthogonal flag, whether chi_A and chi_B are
reported, and a note; no edge reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .accessible import InfoInterval, pgm_information
from .ensembles import Ensemble, StructureFlags
from .entropy import binary_entropy, shannon_entropy
from .errors import ValidationError
from .generators import PRODUCT_BASIS_NOTE, is_canonical_product_basis, rotated_basis
from .linalg import DEFAULT_TOLERANCES, ROUNDING_SLACK, Tolerances

VERDICT_INFORMATION = "information_nonlocality"
VERDICT_ENTANGLEMENT = "entanglement_nonlocality"
VERDICT_NEITHER = "neither"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class Candidate:
    """One named bound on the charge, in bits.

    provenance is "computed" or "user-supplied". note is what the report
    says about the candidate: a lower candidate's note when it sets the lower
    edge, an extra upper candidate's note always.
    """

    name: str
    value: float
    provenance: str = "computed"
    note: str | None = None


@dataclass(frozen=True, eq=False)
class ChargeReport:
    """Certified bounds, optional exact value and the verdict for one ensemble.

    uppers and lowers are every candidate analyze weighed, in order; the
    interval is [largest lower, smallest upper] unless an exact value
    replaced both edges. upper_bounds maps each upper candidate's name to
    its value.
    """

    uppers: tuple[Candidate, ...]
    lowers: tuple[Candidate, ...]
    lower_bound_informative: bool
    exact_value: float | None
    interval: tuple[float, float]
    verdict: str
    notes: tuple[str, ...]
    flags: StructureFlags
    chi_a: float | None = None
    chi_b: float | None = None
    known_charge: float | None = None
    known_charge_note: str | None = None

    def __post_init__(self) -> None:
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"charge interval edges must be finite, got [{lo!r}, {hi!r}]")
        if lo > hi + ROUNDING_SLACK:
            raise ValidationError(f"charge interval [{lo!r}, {hi!r}] is inverted")
        if self.exact_value is not None:
            if abs(hi - lo) > ROUNDING_SLACK:
                raise ValidationError("exact value present but interval is not degenerate")
            if self.verdict == VERDICT_INDETERMINATE:
                raise ValidationError("exact value present but verdict is indeterminate")

    @cached_property
    def upper_bounds(self) -> dict[str, float]:
        return {c.name: c.value for c in self.uppers}


@dataclass(frozen=True, eq=False)
class FamilyReport:
    """Bounds for one point of the rotated product-basis family."""

    theta: float
    probs: tuple[float, ...]
    entanglement_per_state: float
    theorem1_bound: float
    refined_bound: float
    lower_bound: float
    external_gate_cost: float | None
    charge: ChargeReport


def upper_bound_merging(e: Ensemble) -> tuple[float, float]:
    """State-merging upper bounds (S(A|B), S(B|A)) of the average state, for
    every ensemble: pure or mixed, orthogonal or not.

    The referee keeps the register X and a purification of every member, so
    Alice and Bob share the average state rho_AB with a reference that holds
    X. State merging (Horodecki, Oppenheim and Winter, Nature 436, 673, 2005)
    moves A to Bob by LOCC at an asymptotic cost of S(A|B) ebits of rho_AB
    per copy, a gain of -S(A|B) ebits when negative, and keeps AB's
    correlation with that reference. Bob then holds rho_X^AB for the
    referee's X and performs the optimal global measurement, which needs no
    entanglement; so the charge is at most S(A|B). Merging B into A gives
    S(B|A).
    """
    return e.s_ab - e.s_b, e.s_ab - e.s_a


def lower_bound_general(e: Ensemble, info: InfoInterval) -> float:
    """Charge lower bound for pure ensembles:
    sum p_X S(rho_X^A) - I(A;B) - Delta, taken at Delta's conservative edge
    S(rho_AB) - info.lo. Of an ensemble with a density member, its member
    term raises PreconditionError naming the first one."""
    return e.avg_member_entropy - e.mutual_information - (e.s_ab - info.lo)


def _verdict(lo: float, hi: float) -> str:
    if lo > ROUNDING_SLACK:
        return VERDICT_INFORMATION
    if hi < -ROUNDING_SLACK:
        return VERDICT_ENTANGLEMENT
    if -ROUNDING_SLACK <= lo and hi <= ROUNDING_SLACK:
        return VERDICT_NEITHER
    return VERDICT_INDETERMINATE


def analyze(
    e: Ensemble,
    accessible_info: InfoInterval | None = None,
    extra_uppers: tuple[Candidate, ...] = (),
) -> ChargeReport:
    """Full charge analysis of an ensemble: bounds, exactness, verdict.

    The value is exact when the least built-in upper candidate lies within
    ROUNDING_SLACK of the best lower candidate; it is that upper candidate's
    value, and the note names both (see the module docstring). extra_uppers
    are further upper candidates, such as a family's own bound or a
    user-supplied cost. They never make a value exact, but they cap the
    upper edge even where an exact value fixes the interval, and a
    user-supplied one below the lower edge is rejected. Degraded situations
    (non-orthogonal ensembles, uninformative lower bounds) are reported
    through notes instead of errors: every ensemble a profile validates
    analyzes under it.
    """
    flags = e.flags
    notes: list[str] = []
    a_to_b, b_to_a = upper_bound_merging(e)
    uppers = (
        Candidate("merging_AtoB", a_to_b),
        Candidate("merging_BtoA", b_to_a),
        Candidate("compress_teleport", e.s_a),
    )
    if not flags.mutually_orthogonal:
        notes.append(
            "members are not mutually orthogonal: upper bounds use the "
            "general-ensemble extension of the merging argument"
        )

    lowers: list[Candidate] = []
    chi_a: float | None = None
    chi_b: float | None = None
    if flags.all_pure:
        if accessible_info is None:
            # For pure members chi = S(rho_AB), which caps I_Global.
            info, note = InfoInterval(pgm_information(e), e.s_ab), None
        else:
            info, note = accessible_info, "lower bound uses the accessible-information interval"
        lowers.append(Candidate("pure", lower_bound_general(e, info), note=note))
        if flags.mutually_orthogonal:
            chi_a, chi_b = e.chi_a, e.chi_b
    elif accessible_info is not None:
        notes.append(
            "accessible-information interval ignored: the generalized lower "
            "bound needs pure members"
        )
    # The floor is always certified; listed last, it loses every tie.
    floor = -math.log2(min(e.dims.dA, e.dims.dB)) + 0.0
    lowers.append(
        Candidate("floor", floor, note=f"lower bound is the uninformative floor -log2(min(dA,dB)) = {floor:g}")
    )
    best = max(lowers, key=lambda c: c.value)
    least = min(uppers, key=lambda c: c.value)

    # Meeting edges make the value exact and replace both edges. The extra
    # candidates still cap hi: a family's own bound can meet the exact value
    # only up to rounding.
    exact: float | None = None
    if abs(least.value - best.value) <= ROUNDING_SLACK:
        exact = lo = least.value
        notes.append(f"exact: lower bound {best.name} meets upper bound {least.name}")
    else:
        lo = best.value
        if best.note:
            notes.append(best.note)
    hi = min([least.value] + [c.value for c in extra_uppers])
    for c in extra_uppers:
        if c.provenance == "user-supplied" and c.value < lo - ROUNDING_SLACK:
            raise ValidationError(
                f"supplied gate cost {c.value!r} lies below the certified lower bound {lo!r}"
            )

    known = is_canonical_product_basis(e)
    if known:
        notes.append("known-value annotation attached; it is cited, not computed")
    notes.extend(c.note for c in extra_uppers if c.note)

    return ChargeReport(
        uppers=uppers + tuple(extra_uppers),
        lowers=tuple(lowers),
        lower_bound_informative=best.name != "floor",
        exact_value=exact,
        interval=(lo, hi),
        verdict=_verdict(lo, hi),
        notes=tuple(notes),
        flags=flags,
        chi_a=chi_a,
        chi_b=chi_b,
        known_charge=0.0 if known else None,
        known_charge_note=PRODUCT_BASIS_NOTE if known else None,
    )


def rotated_family_report(
    theta: float,
    probs,
    gate_cost: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> FamilyReport:
    """Analyze one point of the rotated product-basis family.

    probs are the four members' weights, or None for equal ones. On top of
    the generic analysis this reports the probability-dependent refined upper
    bound H(X) - H(cos^2 theta) and, when supplied, folds a user-provided
    average gate-implementation cost into the interval. The gate cost is
    accepted only as input, never computed, and must be finite.
    """
    if gate_cost is not None and not np.isfinite(gate_cost):
        raise ValidationError(f"supplied gate cost {gate_cost!r} is not finite")
    e = rotated_basis(theta, probs, tol)
    h = binary_entropy(float(np.cos(theta)) ** 2)
    per_state = float(e.entropies_a[0])
    if abs(per_state - h) > ROUNDING_SLACK:
        raise ValidationError("per-state entanglement disagrees with H(cos^2 theta) beyond 1e-9")
    if e.s_a < e.avg_member_entropy - ROUNDING_SLACK:
        raise ValidationError(
            "internal inconsistency: S(rho_A) fell below the average member entropy"
        )
    extras = [Candidate("family_refined", shannon_entropy(e.probs, e.tol) - h)]
    if gate_cost is not None:
        extras.append(
            Candidate(
                "external_gate_cost",
                float(gate_cost),
                "user-supplied",
                "external gate cost supplied by the user, not computed",
            )
        )
    charge = analyze(e, extra_uppers=tuple(extras))
    uppers = charge.upper_bounds
    return FamilyReport(
        theta=float(theta),
        probs=tuple(e.probs.tolist()),
        entanglement_per_state=per_state,
        theorem1_bound=min(uppers["merging_AtoB"], uppers["merging_BtoA"]),
        refined_bound=uppers["family_refined"],
        lower_bound=next(c.value for c in charge.lowers if c.name == "pure"),
        external_gate_cost=uppers.get("external_gate_cost"),
        charge=charge,
    )
