import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    DEFAULT_TOLERANCES,
    STRICT_TOLERANCES,
    BipartiteDims,
    InfoInterval,
    PreconditionError,
    VERDICT_ENTANGLEMENT,
    VERDICT_INDETERMINATE,
    VERDICT_INFORMATION,
    VERDICT_NEITHER,
    ValidationError,
    analyze,
    bell_basis,
    binary_entropy,
    equal_probs,
    estimate_accessible_info,
    generalized_bell_basis,
    lower_bound_general,
    make_ensemble,
    product_basis,
    rotated_basis,
    rotated_family_report,
    shannon_entropy,
    upper_bound_merging,
    validate_state,
)
from entcharge.bounds import _verdict
from entcharge.linalg import ROUNDING_SLACK
from helpers import (
    entropy_oracle,
    holevo_oracle,
    lower_bound_pure,
    maximally_entangled_oracle,
    mutual_information_oracle,
    near_orthogonal_gbell,
    near_orthogonal_pair,
    partial_trace_loop,
    pgm_oracle,
    random_density,
    random_orthogonal_pure_ensemble,
    random_pure_vector,
    rotate_locally,
    swap_parties,
    tilted_bell_basis,
)

H34 = binary_entropy(0.75)  # per-state entanglement of the family at pi/6


def test_upper_bound_merging_bell_equal():
    assert upper_bound_merging(bell_basis(equal_probs(4))) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_upper_bound_merging_single_bell():
    assert upper_bound_merging(bell_basis([1, 0, 0, 0])) == pytest.approx((-1.0, -1.0), abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 6, np.pi / 4, np.pi / 2])
def test_upper_bound_merging_rotated_family_equal(theta):
    got = upper_bound_merging(rotated_basis(theta, equal_probs(4)))
    assert got == pytest.approx((1.0, 1.0), abs=1e-9)


def _random_ensemble(rng: np.random.Generator, pure: bool, orthogonal: bool):
    """A random ensemble on dA x dB with 2 to n members, pure or mixed, with
    mutually orthogonal supports (split from one random unitary) or not."""
    dims = BipartiteDims(int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    n = dims.joint
    m = int(rng.integers(2, n + 1))
    if orthogonal:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        blocks = np.array_split(q[:, rng.permutation(n)], m, axis=1)
        if pure:
            data = [b[:, 0] for b in blocks]
        else:
            data = [(b * rng.dirichlet(np.ones(b.shape[1]))) @ b.conj().T for b in blocks]
    else:
        data = [random_pure_vector(rng, n) if pure else random_density(rng, n) for _ in range(m)]
    return make_ensemble(zip(rng.dirichlet(np.ones(m)), (validate_state(dims, x) for x in data)))


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "nonorthogonal"])
def test_upper_bound_merging_holds_for_every_ensemble(pure, orthogonal):
    # analyze reports merging for every ensemble, so both must agree exactly.
    # By concavity of S(A|B) and Araki-Lieb, each edge is at least
    # -sum_X p_X min(S(rho_X^A), S(rho_X^B)), the most any member's
    # entanglement could pay back.
    rng = np.random.default_rng(2005 + 2 * pure + orthogonal)
    for _ in range(40):
        e = _random_ensemble(rng, pure, orthogonal)
        assert (e.flags.all_pure, e.flags.mutually_orthogonal) == (pure, orthogonal)
        uppers = analyze(e).upper_bounds
        a_to_b, b_to_a = upper_bound_merging(e)
        assert (a_to_b, b_to_a) == (uppers["merging_AtoB"], uppers["merging_BtoA"])
        dA, dB = e.dims.dA, e.dims.dB
        sides = [[entropy_oracle(partial_trace_loop(r, dA, dB, t)) for t in ("B", "A")] for r in e.densities]
        floor = -float(np.dot(e.probs, np.min(sides, axis=1)))
        assert min(a_to_b, b_to_a) >= floor - ROUNDING_SLACK


def test_upper_bound_compress_teleport_examples():
    def compress_teleport(e):
        return analyze(e).upper_bounds["compress_teleport"]

    assert compress_teleport(bell_basis(equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert compress_teleport(product_basis(2, 2, equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert compress_teleport(bell_basis([1, 0, 0, 0])) == pytest.approx(1.0, abs=1e-9)


def test_lower_bound_pure_examples():
    assert lower_bound_pure(bell_basis(equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert lower_bound_pure(product_basis(2, 2, equal_probs(4))) == pytest.approx(0.0, abs=1e-9)
    assert lower_bound_pure(rotated_basis(np.pi / 6, equal_probs(4))) == pytest.approx(H34, abs=1e-9)


def test_lower_bound_pure_requires_pure_members():
    # The pure candidate is lower_bound_general at the pretty-good
    # measurement's information; density members get no such candidate.
    d = validate_state(BipartiteDims(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    o = validate_state(BipartiteDims(2, 2), np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    e = make_ensemble([(0.5, d), (0.5, o)])
    assert [c.name for c in analyze(e).lowers] == ["floor"]
    with pytest.raises(PreconditionError, match="require pure members; member 0 is a density matrix"):
        lower_bound_general(e, InfoInterval(1.0, 1.0))


def test_chi_rewrite_bell_collapses():
    # Every Bell member has the reduced states I/2, so chi_A = chi_B = 0 and
    # the pure lower bound meets the merging bound.
    for probs in (equal_probs(4), [0.7, 0.1, 0.1, 0.1], [1, 0, 0, 0]):
        e = bell_basis(probs)
        assert e.chi_a == pytest.approx(0.0, abs=1e-9)
        assert e.chi_b == pytest.approx(0.0, abs=1e-9)
        r = analyze(e)
        assert r.interval[1] - r.interval[0] == pytest.approx(0.0, abs=1e-9)
        assert r.exact_value == r.upper_bounds["merging_AtoB"]
        assert "exact: lower bound pure meets upper bound merging_AtoB" in r.notes


def test_chi_rewrite_product_basis():
    e = product_basis(2, 2, equal_probs(4))
    assert e.chi_a == pytest.approx(1.0, abs=1e-9)
    assert e.chi_b == pytest.approx(1.0, abs=1e-9)
    r = analyze(e)
    assert (r.chi_a, r.chi_b) == (e.chi_a, e.chi_b)
    assert r.interval == pytest.approx((0.0, 1.0), abs=1e-9)
    assert r.exact_value is None


def test_chi_rewrite_rotated_pi_over_6():
    assert analyze(rotated_basis(np.pi / 6, equal_probs(4))).interval == pytest.approx((H34, 1.0), abs=1e-9)


def _max_entangled_closed_form(e) -> float:
    """The paper's exact charge H(X) - log2 d of an orthogonal d x d maximally
    entangled ensemble, from the probabilities alone."""
    return shannon_entropy(e.probs) - np.log2(e.dims.dA)


def test_exact_charge_examples():
    for e, want in (
        (bell_basis(equal_probs(4)), 1.0),
        (bell_basis([1, 0, 0, 0]), -1.0),
        (generalized_bell_basis(3, equal_probs(9)), np.log2(3)),
    ):
        assert _max_entangled_closed_form(e) == pytest.approx(want, abs=1e-12)
        assert analyze(e).exact_value == pytest.approx(want, abs=1e-9)


def test_exact_charge_gbell_partial_support():
    probs = np.zeros(9)
    probs[:3] = 1 / 3
    assert analyze(generalized_bell_basis(3, probs)).exact_value == pytest.approx(0.0, abs=1e-9)


def test_no_exact_value_where_the_edges_do_not_meet():
    # Product bases have chi_A = chi_B = log2 of the other party's dimension, so
    # the pure lower bound stays that far below the merging bounds.
    for e in (product_basis(2, 2, equal_probs(4)), product_basis(3, 2, equal_probs(6))):
        r = analyze(e)
        assert r.exact_value is None
        assert not any(n.startswith("exact:") for n in r.notes)
        assert r.interval[1] - r.interval[0] == pytest.approx(min(e.chi_a, e.chi_b), abs=1e-9)


def test_floor_meeting_an_upper_bound_is_exact():
    # A 1 x n ensemble has S(A|B) = 0 = -log2(1): on a non-orthogonal pair,
    # whose only lower candidate is the floor, the floor meets merging_AtoB.
    dims = BipartiteDims(1, 2)
    pair = [validate_state(dims, [1, 0]), validate_state(dims, [np.sqrt(0.5), np.sqrt(0.5)])]
    r = analyze(make_ensemble([(0.5, pair[0]), (0.5, pair[1])]))
    assert r.exact_value == 0.0
    assert not r.lower_bound_informative
    assert r.verdict == VERDICT_NEITHER
    assert "exact: lower bound floor meets upper bound merging_AtoB" in r.notes


def test_analyze_bell_verdicts():
    r = analyze(bell_basis(equal_probs(4)))
    assert r.exact_value == pytest.approx(1.0, abs=1e-9)
    assert r.verdict == VERDICT_INFORMATION
    r = analyze(bell_basis([1, 0, 0, 0]))
    assert r.exact_value == pytest.approx(-1.0, abs=1e-9)
    assert r.verdict == VERDICT_ENTANGLEMENT
    r = analyze(bell_basis([0.5, 0.5, 0, 0]))
    assert r.exact_value == pytest.approx(0.0, abs=1e-9)
    assert r.verdict == VERDICT_NEITHER


def test_analyze_product_basis_interval_and_annotation():
    r = analyze(product_basis(2, 2, equal_probs(4)))
    assert r.interval == pytest.approx((0.0, 1.0), abs=1e-9)
    assert r.exact_value is None
    assert r.verdict == VERDICT_INDETERMINATE
    assert r.known_charge == 0.0


def test_analyze_product_basis_degenerate_probs_exact_via_chi():
    r = analyze(product_basis(2, 2, [1, 0, 0, 0]))
    assert r.chi_a == pytest.approx(0.0, abs=1e-9)
    assert r.exact_value == pytest.approx(0.0, abs=1e-9)
    assert r.verdict == VERDICT_NEITHER


@pytest.mark.parametrize("edge", [0, 1], ids=["lo", "hi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_charge_report_rejects_non_finite_edges(edge, value):
    report = analyze(rotated_basis(0.3, None))
    interval = list(report.interval)
    interval[edge] = value
    with pytest.raises(ValidationError, match="must be finite"):
        dataclasses.replace(report, interval=tuple(interval))


def test_analyze_mixed_orthogonal_uses_floor():
    d = validate_state(BipartiteDims(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    o = validate_state(BipartiteDims(2, 2), np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    r = analyze(make_ensemble([(0.5, d), (0.5, o)]))
    assert not r.lower_bound_informative
    assert r.interval[0] == pytest.approx(-1.0, abs=1e-12)
    assert r.exact_value is None


def test_analyze_non_orthogonal_notes_general_extension():
    s0 = validate_state(BipartiteDims(2, 2), [1, 0, 0, 0])
    s1 = validate_state(BipartiteDims(2, 2), np.array([1, 1, 0, 0]) / np.sqrt(2))
    r = analyze(make_ensemble([(0.5, s0), (0.5, s1)]))
    assert any("general-ensemble" in n for n in r.notes)
    assert r.verdict in (VERDICT_INDETERMINATE, VERDICT_ENTANGLEMENT)


def test_analyze_annotation_attached_to_parsed_product_basis():
    # structural detection, without the generator's in-memory annotation
    e = product_basis(2, 2, equal_probs(4))
    rebuilt = make_ensemble(list(e.members))
    r = analyze(rebuilt)
    assert r.known_charge == 0.0


def test_rotated_family_report_theta_zero():
    fam = rotated_family_report(0.0, equal_probs(4))
    assert fam.entanglement_per_state == pytest.approx(0.0, abs=1e-12)
    assert fam.lower_bound == pytest.approx(0.0, abs=1e-9)
    assert fam.refined_bound == pytest.approx(2.0, abs=1e-9)
    assert fam.charge.known_charge == 0.0


def test_rotated_family_report_theta_pi_over_4():
    fam = rotated_family_report(np.pi / 4, equal_probs(4))
    assert fam.entanglement_per_state == pytest.approx(1.0, abs=1e-9)
    assert fam.charge.exact_value == pytest.approx(1.0, abs=1e-9)
    assert fam.charge.verdict == VERDICT_INFORMATION


def test_rotated_family_report_skewed_probs():
    probs = [0.97, 0.01, 0.01, 0.01]
    fam = rotated_family_report(np.pi / 6, probs)
    hx = shannon_entropy(probs)
    assert fam.refined_bound == pytest.approx(hx - H34, abs=1e-9)
    assert fam.charge.verdict in (VERDICT_INDETERMINATE, VERDICT_ENTANGLEMENT)


def test_rotated_family_report_gate_cost_tightens_interval():
    fam = rotated_family_report(np.pi / 6, equal_probs(4), gate_cost=0.9)
    assert fam.charge.upper_bounds["external_gate_cost"] == 0.9
    assert fam.charge.interval[1] == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValidationError, match="gate cost"):
        rotated_family_report(np.pi / 6, equal_probs(4), gate_cost=0.2)


@pytest.mark.parametrize("gate_cost", [None, 0.85], ids=["plain", "gate"])
def test_family_report_reads_the_charge_candidates(gate_cost):
    probs = [0.1, 0.2, 0.3, 0.4]
    for theta in np.linspace(0.0, np.pi / 2, 9):
        fam = rotated_family_report(float(theta), probs, gate_cost)
        charge = fam.charge
        uppers = {c.name: c for c in charge.uppers}
        lowers = {c.name: c for c in charge.lowers}
        assert charge.upper_bounds == {name: c.value for name, c in uppers.items()}
        assert fam.theorem1_bound == min(uppers["merging_AtoB"].value, uppers["merging_BtoA"].value)
        assert fam.refined_bound == uppers["family_refined"].value
        assert fam.lower_bound == lowers["pure"].value
        assert fam.probs == tuple(probs)
        if gate_cost is None:
            assert fam.external_gate_cost is None and "external_gate_cost" not in uppers
        else:
            assert fam.external_gate_cost == uppers["external_gate_cost"].value == gate_cost
            assert uppers["external_gate_cost"].provenance == "user-supplied"
        assert all(c.provenance == "computed" for c in charge.lowers)
        if charge.exact_value is None:
            assert charge.interval == (max(c.value for c in charge.lowers), min(charge.upper_bounds.values()))


@pytest.mark.parametrize(
    "step, cost, message",
    [
        (4, 0.5, "supplied gate cost 0.5 lies below the certified lower bound 0.8464393446710154"),
        (2, -2.0, "supplied gate cost -2.0 lies below the certified lower bound 0.5202937822835921"),
    ],
    ids=["exact", "pure"],
)
def test_family_report_rejects_a_gate_cost_below_the_lower_edge(step, cost, message):
    theta = float(np.linspace(0.0, np.pi / 2, 9)[step])
    with pytest.raises(ValidationError) as info:
        rotated_family_report(theta, [0.1, 0.2, 0.3, 0.4], cost)
    assert str(info.value) == message


@pytest.mark.parametrize("cost", [float("nan"), float("inf")])
def test_rotated_family_report_rejects_non_finite_gate_cost(cost):
    # min(hi, nan) and min(hi, inf) would both keep hi and hide the input
    with pytest.raises(ValidationError, match="gate cost .* not finite"):
        rotated_family_report(np.pi / 6, equal_probs(4), gate_cost=cost)


def test_rotated_family_report_theta_range():
    with pytest.raises(ValidationError):
        rotated_family_report(2.0, equal_probs(4))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_sandwich_and_chi_identity_random_ensembles(seed, d):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, d)
    lower = lower_bound_pure(e)
    uppers = upper_bound_merging(e)
    assert lower <= min(uppers) + 1e-9
    s_ab_minus_sb, s_ab_minus_sa = uppers
    assert s_ab_minus_sb - e.chi_a == pytest.approx(s_ab_minus_sa - e.chi_b, abs=1e-9)
    assert s_ab_minus_sb - e.chi_a == pytest.approx(lower, abs=1e-9)
    r = analyze(e)
    assert r.interval[1] - r.interval[0] == pytest.approx(min(e.chi_a, e.chi_b), abs=1e-9)
    assert (r.exact_value is not None) == (min(e.chi_a, e.chi_b) <= ROUNDING_SLACK)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bounds_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    perm = rng.permutation(len(e.members))
    shuffled = make_ensemble([e.members[i] for i in perm])
    assert upper_bound_merging(e) == pytest.approx(upper_bound_merging(shuffled), abs=1e-12)
    assert lower_bound_pure(e) == pytest.approx(lower_bound_pure(shuffled), abs=1e-12)


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "nonorthogonal"])
def test_analyze_invariant_under_local_unitaries_and_party_swap(pure, orthogonal):
    # The charge is a property of the ensemble up to local basis changes, and
    # every candidate either is symmetric in A and B or trades places with its
    # mirror; compress_teleport = S(rho_A), the one that does not, never sets hi.
    rng = np.random.default_rng(1617 + 2 * pure + orthogonal)
    for _ in range(25):
        e = _random_ensemble(rng, pure, orthogonal)
        r = analyze(e)
        for image in (rotate_locally(e, rng), swap_parties(e)):
            s = analyze(image)
            assert s.interval == pytest.approx(r.interval, abs=1e-12)
            assert s.verdict == r.verdict
            assert (s.exact_value is None) == (r.exact_value is None)


@pytest.mark.parametrize("d", [2, 3])
def test_max_entangled_exactness_consistency(d):
    rng = np.random.default_rng(99)
    probs = rng.dirichlet(np.ones(d * d))
    e = generalized_bell_basis(d, probs)
    exact = analyze(e).exact_value
    assert exact == pytest.approx(_max_entangled_closed_form(e), abs=1e-9)
    uppers = upper_bound_merging(e)
    assert exact == pytest.approx(uppers[0], abs=1e-9)
    assert exact == pytest.approx(uppers[1], abs=1e-9)
    assert exact == pytest.approx(lower_bound_pure(e), abs=1e-9)


def test_analyze_non_orthogonal_with_accessible_info_certifies_sign():
    from entcharge import OptimizerConfig, estimate_accessible_info

    dims = BipartiteDims(2, 2)
    a = validate_state(dims, np.array([np.cos(0.3), 0, 0, -1j * np.sin(0.3)]))
    b = validate_state(dims, np.array([np.cos(0.8), 0, 0, -1j * np.sin(0.8)]))
    e = make_ensemble([(0.5, a), (0.5, b)])
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=80))
    r = analyze(e, info)
    assert r.lower_bound_informative
    assert any("accessible-information" in n for n in r.notes)
    # two heavily overlapping entangled states: both edges certified negative
    assert r.interval[1] < -1e-9
    assert r.interval[0] <= r.interval[1] + 1e-9
    assert r.verdict == VERDICT_ENTANGLEMENT


def one_by_two_pair():
    """|0> and cos(pi/8)|0> + sin(pi/8)|1> on 1x2, equal priors."""
    dims = BipartiteDims(1, 2)
    return make_ensemble([
        (0.5, validate_state(dims, [1, 0])),
        (0.5, validate_state(dims, [np.cos(np.pi / 8), np.sin(np.pi / 8)])),
    ])


@pytest.mark.parametrize("estimate", [False, True], ids=["default", "estimate"])
def test_a_one_dimensional_party_pins_the_charge_at_zero(estimate):
    # dA = 1: the floor -log2 min(dA, dB) = 0 and S(rho_A) = 0 close the
    # interval at zero, whether or not the accessible information is bracketed.
    e = one_by_two_pair()
    report = analyze(e, estimate_accessible_info(e) if estimate else None)
    assert report.interval == pytest.approx((0.0, 0.0), abs=ROUNDING_SLACK)
    assert report.lower_bound_informative is False
    assert report.verdict == VERDICT_NEITHER


def readme_pair():
    """The README's library example: |00> and cos(pi/8)|00> + sin(pi/8)|11>
    on 2x2, equal priors."""
    dims = BipartiteDims(2, 2)
    return make_ensemble([
        (0.5, validate_state(dims, [1, 0, 0, 0])),
        (0.5, validate_state(dims, [np.cos(np.pi / 8), 0, 0, np.sin(np.pi / 8)])),
    ])


def test_readme_pair_has_the_readme_intervals():
    # The README's two commented intervals, analyze without and with the
    # estimate, in that order, each edge given by its leading digits.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commented = re.findall(r"\.interval +# \((-?\d+\.\d+)\.\.\., (-?\d+\.\d+)\.\.\.\)", readme)
    e = readme_pair()
    reports = [analyze(e), analyze(e, estimate_accessible_info(e))]
    assert len(commented) == len(reports)
    for edges, report in zip(commented, reports):
        assert [repr(x)[: len(digits)] for x, digits in zip(report.interval, edges)] == list(edges)
        assert report.verdict == VERDICT_ENTANGLEMENT
    # The pretty-good measurement is optimal for two equiprobable pure states,
    # so the estimate's optimum is that measurement: the two intervals are one.
    assert reports[0].interval == reports[1].interval


SLACK_ZONE = st.sampled_from([-2, -1, -0.5, 0, 0.5, 1, 2]).map(lambda k: k * ROUNDING_SLACK) | st.floats(
    -4 * ROUNDING_SLACK, 4 * ROUNDING_SLACK
)


@given(SLACK_ZONE, SLACK_ZONE)
def test_verdict_follows_the_readme_definitions(a, b):
    # README: certified positive / certified negative / exactly zero / straddles
    # zero, each up to the rounding slack.
    lo, hi = min(a, b), max(a, b)
    verdict = _verdict(lo, hi)
    assert (verdict == VERDICT_INFORMATION) == (lo > ROUNDING_SLACK)
    assert (verdict == VERDICT_ENTANGLEMENT) == (hi < -ROUNDING_SLACK)
    assert (verdict == VERDICT_NEITHER) == (-ROUNDING_SLACK <= lo and hi <= ROUNDING_SLACK)
    straddles = lo <= ROUNDING_SLACK and hi >= -ROUNDING_SLACK and (lo < -ROUNDING_SLACK or hi > ROUNDING_SLACK)
    assert (verdict == VERDICT_INDETERMINATE) == straddles


PROFILES = {"default": DEFAULT_TOLERANCES, "strict": STRICT_TOLERANCES}


@pytest.mark.parametrize("seed", range(3))
def test_edges_are_continuous_across_the_orthogonality_tolerance(seed):
    # Squared overlaps of 0.99e-9 and 1.01e-9 fall on either side of the
    # default orthogonality_tol, but the two ensembles differ by 2e-11 in it:
    # no edge may jump, and the verdict is the same.
    inside, outside = tilted_bell_basis(0.99e-9, seed), tilted_bell_basis(1.01e-9, seed)
    assert inside.flags.mutually_orthogonal and not outside.flags.mutually_orthogonal
    r, s = analyze(inside), analyze(outside)
    assert r.interval == pytest.approx(s.interval, abs=1e-9)
    assert r.verdict == s.verdict


@pytest.mark.parametrize("profile", PROFILES)
def test_a_near_orthogonal_pair_gets_one_result_under_both_profiles(profile):
    # Tr(rho_0 rho_1) = 1e-10 is orthogonal under the default profile and
    # not under the strict one; the charge interval is [0, 0] either way.
    e = near_orthogonal_pair(PROFILES[profile])
    assert e.flags.mutually_orthogonal == (profile == "default")
    report = analyze(e)
    assert report.interval == pytest.approx((0.0, 0.0), abs=ROUNDING_SLACK)
    assert report.verdict == VERDICT_NEITHER


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("d", [2, 4, 8])
def test_no_exact_value_above_the_pretty_good_edge(d, profile):
    # Overlaps just within orthogonality_tol add up to an accessible
    # information below H(X); no reported value may sit above the pure lower
    # bound at the pretty-good measurement's information, from the dense oracle.
    e = near_orthogonal_gbell(d, 0, PROFILES[profile])
    assert e.flags.mutually_orthogonal
    report = analyze(e)
    edge = e.avg_member_entropy - e.mutual_information - (e.s_ab - pgm_oracle(e))
    assert report.interval[0] <= edge + ROUNDING_SLACK
    if report.exact_value is not None:
        assert report.exact_value <= edge + ROUNDING_SLACK


def test_probability_dependence_of_verdict():
    info = analyze(bell_basis(equal_probs(4))).verdict
    ent = analyze(bell_basis([1, 0, 0, 0])).verdict
    assert info == VERDICT_INFORMATION
    assert ent == VERDICT_ENTANGLEMENT
    assert info != ent


def _count_fact(monkeypatch, name: str) -> list:
    """Count the computations of the lazy Ensemble attribute `name`: each
    first read on an ensemble runs its function once."""
    from functools import cached_property

    from entcharge import Ensemble

    original = vars(Ensemble)[name].func
    calls = []

    def counted(self):
        calls.append(self)
        return original(self)

    fact = cached_property(counted)
    fact.__set_name__(Ensemble, name)
    monkeypatch.setattr(Ensemble, name, fact)
    return calls


def _count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Wrap every reference to entcharge.<module_name>.<name> in every
    entcharge namespace (modules import each other by name) and count calls."""
    import sys

    original = getattr(sys.modules[f"entcharge.{module_name}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if (modname == "entcharge" or modname.startswith("entcharge.")) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_computes_overlaps_once_and_no_average_state(monkeypatch):
    # A pure ensemble's facts come from its vectors: no joint average state,
    # and side A's reduced stack alone.
    e = generalized_bell_basis(3, equal_probs(9))
    overlaps = _count_fact(monkeypatch, "gram")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    report = analyze(e)
    assert report.exact_value == pytest.approx(np.log2(9) - np.log2(3), abs=1e-12)
    assert (len(overlaps), len(averages)) == (1, 0)
    assert [args[1] for args in reduced] == ["A"]


def test_analyze_reuses_member_entropies_for_chi_a(monkeypatch):
    # 64 orthogonal pure members on 8x8 whose reduced states all differ.
    # Side A's entropies are one batched call of 64 + 1 matrices, made once:
    # the marginal and the 64 members, which S(A), the average member
    # entropy, chi_A and chi_B all read. S(B) is the only entropy of one
    # matrix; S(AB) comes from the weighted Gram spectrum.
    from entcharge.entropy import member_term

    e = random_orthogonal_pure_ensemble(np.random.default_rng(11), 8, count=64)
    stacks = _count_calls(monkeypatch, "entropy", "von_neumann_entropies")
    report = analyze(e)
    assert sorted(len(args[0]) for args in stacks) == [1, 65]
    assert report.chi_a == e.s_a - member_term(e.probs, e.entropies_a)
    assert report.chi_b == e.s_b - member_term(e.probs, e.entropies_a)


@pytest.mark.parametrize("kind", ["density", "non-orthogonal"])
def test_analyze_takes_no_member_spectrum_it_does_not_read(monkeypatch, kind):
    # Without pure members no bound reads a member entropy, so S(A) and S(B)
    # are one spectrum each: never the m + 1 of a party stack. Every pure
    # ensemble, orthogonal or not, reads side A's member entropies for the
    # pure lower bound and takes S(A) from that stack, so neither depends on
    # the orthogonality test; S(B) is one spectrum and side B has no stack.
    rng = np.random.default_rng(3)
    draw = random_density if kind == "density" else random_pure_vector
    e = make_ensemble([(1 / 6, validate_state(BipartiteDims(2, 32), draw(rng, 64))) for _ in range(6)])
    stacks = _count_calls(monkeypatch, "entropy", "von_neumann_entropies")
    analyze(e)
    assert sorted(len(args[0]) for args in stacks) == ([1, 1, 1] if kind == "density" else [1, 7])


def test_maximally_entangled_reduces_only_square_ensembles_with_pure_members(monkeypatch):
    # The flags reduce nothing unless every member is pure: analyze of a
    # density ensemble builds no reduced state, and neither do the flags of a
    # mixed one. An all-pure ensemble, square or not, reduces side A once.
    rng = np.random.default_rng(9)
    d22, d23 = BipartiteDims(2, 2), BipartiteDims(2, 3)
    bell = validate_state(d22, [2**-0.5, 0, 0, 2**-0.5])
    density = make_ensemble([(0.5, validate_state(d22, random_density(rng, 4))) for _ in range(2)])
    mixed = make_ensemble([(0.25, validate_state(d22, random_density(rng, 4))), (0.25, bell),
                           (0.25, validate_state(d22, random_pure_vector(rng, 4))), (0.25, validate_state(d22, np.eye(4) / 4))])
    oblong = make_ensemble([(0.5, validate_state(d23, v)) for v in np.eye(6)[:2]])
    pure = bell_basis(equal_probs(4))
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    vectors = _count_calls(monkeypatch, "linalg", "vector_partial_traces")
    analyze(density)
    assert (len(reduced), len(vectors)) == (0, 0)
    assert mixed.flags.all_maximally_entangled is maximally_entangled_oracle(mixed) is False
    assert (len(reduced), len(vectors)) == (0, 0)
    assert oblong.flags.all_maximally_entangled is maximally_entangled_oracle(oblong) is False
    assert pure.flags.all_maximally_entangled is maximally_entangled_oracle(pure) is True
    assert [args[1] for args in reduced] == ["A", "A"]
    assert len(vectors) == 2


@pytest.mark.parametrize("d", [2, 3])
def test_reading_the_flags_never_reduces_side_b(monkeypatch, d):
    # Side A's reduced stack decides both structure flags, so no ensemble,
    # square or not, pure, density or mixed, builds its side-B stack for them.
    rng = np.random.default_rng([7, d])
    square, oblong = BipartiteDims(d, d), BipartiteDims(d, d + 1)
    ensembles = [
        generalized_bell_basis(d, equal_probs(d * d)),
        product_basis(d, d, equal_probs(d * d)),
        make_ensemble([(0.5, validate_state(square, random_pure_vector(rng, d * d))) for _ in range(2)]),
        make_ensemble([(0.5, validate_state(oblong, random_pure_vector(rng, d * d + d))) for _ in range(2)]),
        make_ensemble([(0.5, validate_state(square, random_pure_vector(rng, d * d))),
                       (0.5, validate_state(square, random_density(rng, d * d)))]),
    ]
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    for e in ensembles:
        assert e.flags.all_maximally_entangled == maximally_entangled_oracle(e)
    assert [args[1] for args in reduced] == ["A"] * 4


def test_classify_structure_computes_no_entropy(monkeypatch):
    e = generalized_bell_basis(3, equal_probs(9))
    entropies = _count_calls(monkeypatch, "entropy", "von_neumann_entropy")
    e.flags
    assert len(entropies) == 0


def test_rotated_family_report_computes_facts_once(monkeypatch):
    overlaps = _count_fact(monkeypatch, "gram")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    rotated_family_report(np.pi / 7, equal_probs(4))
    assert len(overlaps) == 1
    assert len(averages) == 0


def test_flags_analyze_and_family_report_take_no_svd(monkeypatch):
    # Member-local structure (product and maximal-entanglement flags, member
    # entropies) comes from the reduced states alone.
    original = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(24)
    ensembles = [
        product_basis(2, 3, equal_probs(6)),
        generalized_bell_basis(3, equal_probs(9)),
        rotated_basis(0.3, equal_probs(4)),
        _random_ensemble(rng, pure=True, orthogonal=False),
        _random_ensemble(rng, pure=False, orthogonal=True),
    ]
    for e in ensembles:
        e.flags
        analyze(make_ensemble(list(e.members)))
    rotated_family_report(np.pi / 7, [0.1, 0.2, 0.3, 0.4])
    assert calls == []


@given(st.floats(0.0, np.pi / 2), st.integers(0, 2**32 - 1), st.sampled_from(["default", "strict"]))
@settings(max_examples=60, deadline=None)
def test_entanglement_per_state_is_the_binary_entropy_of_cos_squared(theta, seed, profile):
    tol = STRICT_TOLERANCES if profile == "strict" else DEFAULT_TOLERANCES
    fam = rotated_family_report(theta, np.random.default_rng(seed).dirichlet(np.ones(4)), tol=tol)
    assert abs(fam.entanglement_per_state - binary_entropy(float(np.cos(theta)) ** 2)) <= 1e-12


def _count_reports(monkeypatch) -> list:
    """Count ChargeReport builds, each of which validates itself once."""
    from entcharge.bounds import ChargeReport

    original = ChargeReport.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(ChargeReport, "__post_init__", counted)
    return calls


def test_each_report_is_decided_once(monkeypatch):
    verdicts = _count_calls(monkeypatch, "bounds", "_verdict")
    pures = _count_calls(monkeypatch, "bounds", "lower_bound_general")
    reports = _count_reports(monkeypatch)
    rotated_family_report(np.pi / 7, equal_probs(4), gate_cost=0.95)
    assert (len(verdicts), len(reports), len(pures)) == (1, 1, 1)
    analyze(bell_basis(equal_probs(4)))
    assert (len(verdicts), len(reports)) == (2, 2)


def test_facts_are_computed_once_across_public_bounds(monkeypatch):
    from entcharge.accessible import pgm_information

    e = generalized_bell_basis(3, equal_probs(9))
    overlaps = _count_fact(monkeypatch, "gram")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    analyze(e)
    pgm_information(e)
    lower_bound_general(e, estimate_accessible_info(e))
    upper_bound_merging(e)
    assert (len(overlaps), len(averages)) == (1, 0)


def test_facts_are_keyed_by_tolerances():
    # The same states under two policies are two ensembles with their own facts.
    assert analyze(near_orthogonal_pair()).flags.mutually_orthogonal
    assert not analyze(near_orthogonal_pair(STRICT_TOLERANCES)).flags.mutually_orthogonal


def test_facts_do_not_keep_the_ensemble_alive():
    import gc
    import weakref

    e = generalized_bell_basis(2, equal_probs(4))
    analyze(e)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_estimate_then_analyze_builds_one_overlap_matrix(monkeypatch):
    from entcharge import OptimizerConfig, estimate_accessible_info

    e = make_ensemble([
        (0.5, validate_state(BipartiteDims(2, 2), [1, 0, 0, 0])),
        (0.5, validate_state(BipartiteDims(2, 2), [np.cos(0.4), np.sin(0.4), 0, 0])),
    ])
    overlaps = _count_fact(monkeypatch, "gram")
    info = estimate_accessible_info(e, OptimizerConfig(restarts=1, max_iters=5))
    assert not analyze(e, info).flags.mutually_orthogonal
    assert len(overlaps) == 1


@pytest.mark.parametrize("name", ["nonorth2x2", "mixedpure2x3"])
def test_estimate_then_analyze_builds_each_joint_fact_once(name, monkeypatch):
    import entcharge.accessible
    from entcharge import OptimizerConfig, parse_ensemble

    e = parse_ensemble((Path(__file__).resolve().parent / "golden" / f"{name}.json").read_text())
    average = _count_calls(monkeypatch, "ensembles", "average_state")
    chi = _count_calls(monkeypatch, "entropy", "_holevo_chi")
    densities = _count_calls(monkeypatch, "states", "density_of")
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=5))
    analyze(e, info)
    # The search reads the ensemble's densities, average and chi: m density_of
    # calls stack the members once, and the average state sums those rows in
    # order. The chi of pure members is s_ab; analyze of a non-orthogonal
    # ensemble reads no party chi.
    joint_chi = 0 if e._all_pure else 1
    assert (len(average), len(chi), len(densities)) == (1, joint_chi, len(e.members))
    assert not hasattr(entcharge.accessible, "density_of")


def test_witness_builds_no_reduced_ensemble_and_no_entropy(monkeypatch):
    e = generalized_bell_basis(3, equal_probs(9))
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    entropies = _count_calls(monkeypatch, "entropy", "von_neumann_entropy")
    assert e.witness is None
    assert (len(reduced), len(entropies)) == (0, 0)


FACTS = (
    "gram", "gram_eigh", "overlaps", "witness", "reduced_a", "entropies_a", "flags",
    "average", "s_ab", "s_a", "s_b", "avg_member_entropy", "chi_a", "chi_b", "densities", "chi",
)


def _count_eigh(monkeypatch) -> list:
    """The matrices of every np.linalg.eigh call."""
    original = np.linalg.eigh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("orthogonal", [True, False])
def test_default_analyze_of_a_pure_ensemble_reads_its_vectors(monkeypatch, orthogonal):
    # No joint average state and no side-B stack: side A's reduced stack, one
    # batched spectrum of it and its marginal, one spectrum of rho_B, and one
    # m x m eigh of the weighted Gram matrix, which s_ab and the pretty-good
    # measurement share.
    rng = np.random.default_rng(5)
    e = random_orthogonal_pure_ensemble(rng, 3) if orthogonal else _random_ensemble(rng, pure=True, orthogonal=False)
    m = len(e.members)
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    stacks = _count_calls(monkeypatch, "entropy", "von_neumann_entropies")
    eighs = _count_eigh(monkeypatch)
    assert analyze(e).flags.mutually_orthogonal is orthogonal
    assert len(averages) == 0
    assert [args[1] for args in reduced] == ["A"]
    assert [a.shape for a in eighs] == [(m, m)]
    assert sorted(len(args[0]) for args in stacks) == [1, m + 1]


def test_estimate_short_circuit_stacks_no_densities(monkeypatch):
    # analyze --accessible-info estimate on 64 orthogonal pure members on
    # 8x8: the cap reads chi = s_ab, so no joint matrix is built.
    e = random_orthogonal_pure_ensemble(np.random.default_rng(11), 8, count=64)
    densities = _count_fact(monkeypatch, "densities")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    info = estimate_accessible_info(e)
    analyze(e, info)
    assert info.note == "orthogonal ensemble: min(H(X), Holevo chi)"
    assert (len(densities), len(averages)) == (0, 0)


def test_each_fact_is_computed_once(monkeypatch):
    e = random_orthogonal_pure_ensemble(np.random.default_rng(5), 3)
    calls = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in (
            ("states", "orthogonality_witness"),
            ("ensembles", "reduced_ensemble"), ("ensembles", "average_state"),
            ("entropy", "von_neumann_entropy"), ("entropy", "von_neumann_entropies"),
            ("linalg", "partial_trace"),
        )
    }
    calls["gram"] = _count_fact(monkeypatch, "gram")
    calls["eigh"] = _count_eigh(monkeypatch)
    first = {name: getattr(e, name) for name in FACTS}
    counts = {name: len(c) for name, c in calls.items()}
    assert (counts["gram"], counts["orthogonality_witness"], counts["average_state"], counts["eigh"]) == (1, 1, 1, 1)
    assert counts["reduced_ensemble"] == 1
    # One batched spectrum covers rho_A and every member of side A, and S(B)
    # is one more; S(AB) and chi read the weighted Gram eigh.
    m = len(e.members)
    assert sorted(len(args[0]) for args in calls["von_neumann_entropies"]) == [1, m + 1]
    second = {name: getattr(e, name) for name in FACTS}
    assert {name: len(c) for name, c in calls.items()} == counts
    assert all(second[name] is first[name] for name in FACTS)
    assert first["flags"].all_maximally_entangled == maximally_entangled_oracle(e)


def test_shared_facts_are_read_only():
    e = bell_basis(equal_probs(4))
    for a in (e.gram, e.overlaps, e.average, *e.reduced_a, *e.densities):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    for a in (e.probs, e.entropies_a):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_ensemble_facts_match_the_standalone_functions(seed):
    from entcharge import (
        average_state,
        reduced_ensemble,
        von_neumann_entropy,
    )

    e = random_orthogonal_pure_ensemble(np.random.default_rng(seed), 2)
    assert np.array_equal(e.average, average_state(e))
    assert e.mutual_information == pytest.approx(mutual_information_oracle(e.average, 2, 2), abs=1e-9)
    assert all(np.array_equal(x, y) for x, y in zip(e.reduced_a, reduced_ensemble(e, "A")))
    assert e.avg_member_entropy == float(sum(p * von_neumann_entropy(m) for p, m in zip(e.probs, e.reduced_a)))
    assert e.chi == e.s_ab  # pure members have zero entropy
    assert e.chi == pytest.approx(holevo_oracle(e.probs, e.densities), abs=1e-12)
    assert upper_bound_merging(e) == (e.s_ab - e.s_b, e.s_ab - e.s_a)
    assert lower_bound_pure(e) == e.avg_member_entropy - e.mutual_information
