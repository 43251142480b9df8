"""Entanglement-charge bounds, exactness detection and the nonlocality verdict.

The charge itself is an asymptotic quantity that cannot be evaluated
directly; the public result is therefore always a certified interval plus a
verdict, with a scalar exact value only when one of the exactness rules
fires. Conventions:

  * merging_AtoB = S(rho_AB) - S(rho_B) and merging_BtoA = S(rho_AB) - S(rho_A)
    are the state-merging upper bounds (either may be negative);
  * compress_teleport = S(rho_A) is the compress-and-teleport upper bound,
    reported for comparison only (it never beats merging_AtoB);
  * the lower bound for pure orthogonal ensembles is the average member
    entanglement minus the total correlation,
    sum_X p_X S(rho_X^A) - I(A;B);
  * for pure ensembles that are not orthogonal the same bound loses
    Delta = S(rho_AB) - I_Global, carried through the interval that
    brackets the accessible information I_Global;
  * chi rewriting: the same lower bound equals S(A|B) - chi_A = S(B|A) - chi_B
    where chi is the Holevo information of a reduced ensemble, so the bracket
    collapses, and the charge is exact, whenever one party's reduced states
    carry no information (chi = 0);
  * orthogonal ensembles of d x d maximally entangled pure states have the
    exact charge H(X) - log2 d.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .accessible import InfoInterval
from .ensembles import Ensemble, EnsembleFacts, StructureFlags, ensemble_facts, shannon_of
from .entropy import binary_entropy, entanglement_entropy, holevo_chi
from .errors import PreconditionError, ValidationError
from .generators import PRODUCT_BASIS_NOTE, is_canonical_product_basis, rotated_basis
from .linalg import DEFAULT_TOLERANCES, ROUNDING_SLACK, Tolerances

VERDICT_INFORMATION = "information_nonlocality"
VERDICT_ENTANGLEMENT = "entanglement_nonlocality"
VERDICT_NEITHER = "neither"
VERDICT_INDETERMINATE = "indeterminate"


@dataclass(frozen=True, eq=False)
class ChargeReport:
    """Certified bounds, optional exact value and the verdict for one ensemble."""

    upper_bounds: dict[str, float]
    lower_bound: float
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
        if lo > hi + ROUNDING_SLACK:
            raise ValidationError(f"charge interval [{lo!r}, {hi!r}] is inverted")
        if self.exact_value is not None:
            if abs(hi - lo) > ROUNDING_SLACK:
                raise ValidationError("exact value present but interval is not degenerate")
            if self.verdict == VERDICT_INDETERMINATE:
                raise ValidationError("exact value present but verdict is indeterminate")


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

    def __post_init__(self) -> None:
        expected = binary_entropy(float(np.cos(self.theta)) ** 2)
        if abs(self.entanglement_per_state - expected) > ROUNDING_SLACK:
            raise ValidationError(
                "per-state entanglement disagrees with H(cos^2 theta) beyond 1e-9"
            )


def _require_orthogonal(facts: EnsembleFacts, what: str) -> None:
    if facts.witness is not None:
        i, j, overlap = facts.witness
        raise PreconditionError(
            f"{what} requires a mutually orthogonal ensemble; "
            f"members {i} and {j} overlap by {overlap:.3e}"
        )


def _require_pure(e: Ensemble, what: str) -> None:
    for k, s in enumerate(e.states):
        if not s.is_pure:
            raise PreconditionError(f"{what} requires pure members; member {k} is a density matrix")


def upper_bound_merging(e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """State-merging upper bounds (S(A|B), S(B|A)) of the average state."""
    facts = ensemble_facts(e, tol)
    _require_orthogonal(facts, "the merging upper bound")
    return facts.s_ab - facts.s_b, facts.s_ab - facts.s_a


def upper_bound_compress_teleport(e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Compress-and-teleport upper bound S(rho_A); for comparison only."""
    facts = ensemble_facts(e, tol)
    _require_orthogonal(facts, "the compress-and-teleport upper bound")
    return facts.s_a


def lower_bound_pure(e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Average member entanglement minus total correlation, for pure
    mutually orthogonal ensembles."""
    facts = ensemble_facts(e, tol)
    _require_pure(e, "the pure-ensemble lower bound")
    _require_orthogonal(facts, "the pure-ensemble lower bound")
    return facts.avg_member_entropy - facts.mutual_information


def chi_rewrite_bounds(
    e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float, tuple[float, float]]:
    """Holevo informations (chi_A, chi_B) of the reduced ensembles plus the
    tighter of the two brackets [S(A|B) - chi_A, S(A|B)] / [S(B|A) - chi_B, S(B|A)].

    The bracket's lower edge always coincides with lower_bound_pure.
    """
    facts = ensemble_facts(e, tol)
    _require_pure(e, "the chi-rewritten bracket")
    _require_orthogonal(facts, "the chi-rewritten bracket")
    chi_a = facts.chi_a(e.probs, tol)
    chi_b = holevo_chi(e.probs, facts.reduced_b, tol)
    s_ab, s_a, s_b = facts.s_ab, facts.s_a, facts.s_b
    if chi_a <= chi_b:
        bracket = (s_ab - s_b - chi_a, s_ab - s_b)
    else:
        bracket = (s_ab - s_a - chi_b, s_ab - s_a)
    return chi_a, chi_b, bracket


def delta_epsilon(e: Ensemble, info: InfoInterval, tol: Tolerances = DEFAULT_TOLERANCES) -> InfoInterval:
    """Delta = S(rho_AB) - I_Global, propagated through the info interval."""
    s_ab = ensemble_facts(e, tol).s_ab
    return InfoInterval(s_ab - info.hi, s_ab - info.lo)


def lower_bound_general(e: Ensemble, info: InfoInterval, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Charge lower bound for general pure ensembles:
    sum p_X S(rho_X^A) - I(A;B) - Delta, taken at Delta's conservative edge.

    Reduces to the orthogonal-pure lower bound when Delta vanishes.
    """
    facts = ensemble_facts(e, tol)
    _require_pure(e, "the generalized lower bound")
    return facts.avg_member_entropy - facts.mutual_information - delta_epsilon(e, info, tol).hi


def exact_charge_max_entangled(e: Ensemble, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Exact charge H(X) - log2 d for orthogonal d x d maximally entangled
    pure ensembles; cross-checked against S(rho_AB) - S(rho_B)."""
    facts = ensemble_facts(e, tol)
    if e.dims.dA != e.dims.dB:
        raise PreconditionError(
            f"the exact maximally-entangled formula requires dA = dB, got {e.dims.dA}x{e.dims.dB}"
        )
    _require_orthogonal(facts, "the exact maximally-entangled formula")
    for k, maximal in enumerate(facts.maximally_entangled):
        if not maximal:
            raise PreconditionError(
                f"the exact maximally-entangled formula requires maximally entangled members; "
                f"member {k} is not"
            )
    value = shannon_of(e, tol) - float(np.log2(e.dims.dA))
    if abs((facts.s_ab - facts.s_b) - value) > ROUNDING_SLACK:
        raise ValidationError(
            "internal inconsistency: H(X) - log2 d and S(rho_AB) - S(rho_B) disagree beyond 1e-9"
        )
    return value


def _verdict(lo: float, hi: float, exact: float | None) -> str:
    if lo > ROUNDING_SLACK:
        return VERDICT_INFORMATION
    if hi < -ROUNDING_SLACK:
        return VERDICT_ENTANGLEMENT
    if exact is not None and abs(exact) <= ROUNDING_SLACK:
        return VERDICT_NEITHER
    return VERDICT_INDETERMINATE


def analyze(
    e: Ensemble,
    accessible_info: InfoInterval | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ChargeReport:
    """Full charge analysis of an ensemble: bounds, exactness, verdict.

    Degraded situations (non-orthogonal ensembles, uninformative lower
    bounds) are reported through notes instead of errors.
    """
    facts = ensemble_facts(e, tol)
    flags = facts.flags
    notes: list[str] = []
    uppers = {
        "merging_AtoB": facts.s_ab - facts.s_b,
        "merging_BtoA": facts.s_ab - facts.s_a,
        "compress_teleport": facts.s_a,
    }
    if not flags.mutually_orthogonal:
        notes.append(
            "members are not mutually orthogonal: upper bounds use the "
            "general-ensemble extension of the merging argument"
        )
    hi = min(uppers.values())

    candidates: list[tuple[float, bool, str | None]] = []
    if flags.all_pure and flags.mutually_orthogonal:
        candidates.append((lower_bound_pure(e, tol), True, None))
    if accessible_info is not None:
        if flags.all_pure:
            candidates.append(
                (
                    lower_bound_general(e, accessible_info, tol),
                    True,
                    "lower bound uses the accessible-information interval",
                )
            )
        else:
            notes.append(
                "accessible-information interval ignored: the generalized lower "
                "bound needs pure members"
            )
    if not candidates:
        floor = -float(np.log2(min(e.dims.dA, e.dims.dB))) + 0.0
        candidates.append((floor, False, None))
        notes.append(
            f"lower bound is the uninformative floor -log2(min(dA,dB)) = {floor:g}"
        )
    lo, informative, winner_note = max(candidates, key=lambda c: c[0])

    exact: float | None = None
    chi_a: float | None = None
    chi_b: float | None = None
    if flags.all_pure and flags.mutually_orthogonal:
        chi_a, chi_b, bracket = chi_rewrite_bounds(e, tol)
        if flags.all_maximally_entangled and e.dims.dA == e.dims.dB:
            exact = exact_charge_max_entangled(e, tol)
            notes.append("exact: orthogonal maximally entangled ensemble, charge = H(X) - log2 d")
        elif chi_a <= ROUNDING_SLACK or chi_b <= ROUNDING_SLACK:
            exact = bracket[1]
            side = "A" if chi_a <= ROUNDING_SLACK else "B"
            notes.append(
                f"exact: chi_{side} = 0, one party's reduced states are identical "
                "and the bracket collapses"
            )
    if exact is not None:
        lo = hi = exact
        informative = True
    elif winner_note:
        notes.append(winner_note)

    known = is_canonical_product_basis(e, tol)
    if known:
        notes.append("known-value annotation attached; it is cited, not computed")

    return ChargeReport(
        upper_bounds=uppers,
        lower_bound=lo,
        lower_bound_informative=informative,
        exact_value=exact,
        interval=(lo, hi),
        verdict=_verdict(lo, hi, exact),
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

    On top of the generic analysis this reports the probability-dependent
    refined upper bound H(X) - H(cos^2 theta) and, when supplied, folds a
    user-provided average gate-implementation cost into the interval. The
    gate cost is accepted only as input, never computed, and must be finite.
    """
    if gate_cost is not None and not np.isfinite(gate_cost):
        raise ValidationError(f"supplied gate cost {gate_cost!r} is not finite")
    e = rotated_basis(theta, probs, tol)
    facts = ensemble_facts(e, tol)
    per_state = entanglement_entropy(e.states[0], tol)
    if facts.s_a < facts.avg_member_entropy - ROUNDING_SLACK:
        raise ValidationError(
            "internal inconsistency: S(rho_A) fell below the average member entropy"
        )
    hx = shannon_of(e, tol)
    refined = hx - binary_entropy(float(np.cos(theta)) ** 2)
    lower = lower_bound_pure(e, tol)

    base = analyze(e, None, tol)
    uppers = dict(base.upper_bounds)
    uppers["family_refined"] = refined
    lo, hi = base.interval
    hi = min(hi, refined)
    notes = base.notes
    if gate_cost is not None:
        uppers["external_gate_cost"] = float(gate_cost)
        hi = min(hi, float(gate_cost))
        notes = notes + ("external gate cost supplied by the user, not computed",)
        if hi < lo - ROUNDING_SLACK:
            raise ValidationError(
                f"supplied gate cost {gate_cost!r} lies below the certified lower bound {lo!r}"
            )
    charge = dataclasses.replace(
        base,
        upper_bounds=uppers,
        interval=(lo, hi),
        verdict=_verdict(lo, hi, base.exact_value),
        notes=notes,
    )
    theorem1 = min(base.upper_bounds["merging_AtoB"], base.upper_bounds["merging_BtoA"])
    return FamilyReport(
        theta=float(theta),
        probs=tuple(float(p) for p in np.asarray(probs, dtype=float).ravel()),
        entanglement_per_state=per_state,
        theorem1_bound=theorem1,
        refined_bound=refined,
        lower_bound=lower,
        external_gate_cost=None if gate_cost is None else float(gate_cost),
        charge=charge,
    )
