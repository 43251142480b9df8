import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    BipartiteDims,
    PreconditionError,
    VERDICT_ENTANGLEMENT,
    VERDICT_INDETERMINATE,
    VERDICT_INFORMATION,
    VERDICT_NEITHER,
    ValidationError,
    analyze,
    bell_basis,
    binary_entropy,
    chi_rewrite_bounds,
    equal_probs,
    exact_charge_max_entangled,
    generalized_bell_basis,
    lower_bound_pure,
    make_ensemble,
    product_basis,
    rotated_basis,
    rotated_family_report,
    shannon_entropy,
    upper_bound_compress_teleport,
    upper_bound_merging,
    validate_state,
)
from helpers import random_orthogonal_pure_ensemble

H34 = binary_entropy(0.75)  # per-state entanglement of the family at pi/6


def test_upper_bound_merging_bell_equal():
    assert upper_bound_merging(bell_basis(equal_probs(4))) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_upper_bound_merging_single_bell():
    assert upper_bound_merging(bell_basis([1, 0, 0, 0])) == pytest.approx((-1.0, -1.0), abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 6, np.pi / 4, np.pi / 2])
def test_upper_bound_merging_rotated_family_equal(theta):
    got = upper_bound_merging(rotated_basis(theta, equal_probs(4)))
    assert got == pytest.approx((1.0, 1.0), abs=1e-9)


def test_upper_bound_merging_precondition():
    s0 = validate_state(BipartiteDims(2, 2), [1, 0, 0, 0])
    s1 = validate_state(BipartiteDims(2, 2), np.array([1, 1, 0, 0]) / np.sqrt(2))
    e = make_ensemble([(0.5, s0), (0.5, s1)])
    with pytest.raises(PreconditionError, match="orthogonal"):
        upper_bound_merging(e)


def test_upper_bound_compress_teleport_examples():
    assert upper_bound_compress_teleport(bell_basis(equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert upper_bound_compress_teleport(product_basis(2, 2, equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert upper_bound_compress_teleport(bell_basis([1, 0, 0, 0])) == pytest.approx(1.0, abs=1e-9)


def test_lower_bound_pure_examples():
    assert lower_bound_pure(bell_basis(equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert lower_bound_pure(product_basis(2, 2, equal_probs(4))) == pytest.approx(0.0, abs=1e-9)
    assert lower_bound_pure(rotated_basis(np.pi / 6, equal_probs(4))) == pytest.approx(H34, abs=1e-9)


def test_lower_bound_pure_requires_pure_members():
    d = validate_state(BipartiteDims(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    o = validate_state(BipartiteDims(2, 2), np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    e = make_ensemble([(0.5, d), (0.5, o)])
    with pytest.raises(PreconditionError, match="pure"):
        lower_bound_pure(e)


def test_chi_rewrite_bell_collapses():
    for probs in (equal_probs(4), [0.7, 0.1, 0.1, 0.1], [1, 0, 0, 0]):
        chi_a, chi_b, bracket = chi_rewrite_bounds(bell_basis(probs))
        assert chi_a == pytest.approx(0.0, abs=1e-9)
        assert chi_b == pytest.approx(0.0, abs=1e-9)
        assert bracket[1] - bracket[0] == pytest.approx(0.0, abs=1e-9)


def test_chi_rewrite_product_basis():
    chi_a, chi_b, bracket = chi_rewrite_bounds(product_basis(2, 2, equal_probs(4)))
    assert chi_a == pytest.approx(1.0, abs=1e-9)
    assert chi_b == pytest.approx(1.0, abs=1e-9)
    assert bracket == pytest.approx((0.0, 1.0), abs=1e-9)


def test_chi_rewrite_rotated_pi_over_6():
    _, _, bracket = chi_rewrite_bounds(rotated_basis(np.pi / 6, equal_probs(4)))
    assert bracket == pytest.approx((H34, 1.0), abs=1e-9)


def test_exact_charge_examples():
    assert exact_charge_max_entangled(bell_basis(equal_probs(4))) == pytest.approx(1.0, abs=1e-9)
    assert exact_charge_max_entangled(bell_basis([1, 0, 0, 0])) == pytest.approx(-1.0, abs=1e-9)
    got = exact_charge_max_entangled(generalized_bell_basis(3, equal_probs(9)))
    assert got == pytest.approx(np.log2(9) - np.log2(3), abs=1e-9)
    assert got == pytest.approx(np.log2(3), abs=1e-9)


def test_exact_charge_gbell_partial_support():
    probs = np.zeros(9)
    probs[:3] = 1 / 3
    assert exact_charge_max_entangled(generalized_bell_basis(3, probs)) == pytest.approx(0.0, abs=1e-9)


def test_exact_charge_precondition_messages():
    with pytest.raises(PreconditionError, match="maximally entangled"):
        exact_charge_max_entangled(product_basis(2, 2, equal_probs(4)))
    with pytest.raises(PreconditionError, match="dA = dB"):
        exact_charge_max_entangled(product_basis(3, 2, equal_probs(6)))


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


def test_analyze_mixed_orthogonal_uses_floor():
    d = validate_state(BipartiteDims(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    o = validate_state(BipartiteDims(2, 2), np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    r = analyze(make_ensemble([(0.5, d), (0.5, o)]))
    assert not r.lower_bound_informative
    assert r.lower_bound == pytest.approx(-1.0, abs=1e-12)
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
    chi_a, chi_b, bracket = chi_rewrite_bounds(e)
    s_ab_minus_sb, s_ab_minus_sa = uppers
    assert s_ab_minus_sb - chi_a == pytest.approx(s_ab_minus_sa - chi_b, abs=1e-9)
    assert bracket[0] == pytest.approx(lower, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bounds_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    perm = rng.permutation(len(e.members))
    shuffled = make_ensemble([e.members[i] for i in perm])
    assert upper_bound_merging(e) == pytest.approx(upper_bound_merging(shuffled), abs=1e-12)
    assert lower_bound_pure(e) == pytest.approx(lower_bound_pure(shuffled), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_max_entangled_exactness_consistency(d):
    rng = np.random.default_rng(99)
    probs = rng.dirichlet(np.ones(d * d))
    e = generalized_bell_basis(d, probs)
    exact = exact_charge_max_entangled(e)
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


def test_probability_dependence_of_verdict():
    info = analyze(bell_basis(equal_probs(4))).verdict
    ent = analyze(bell_basis([1, 0, 0, 0])).verdict
    assert info == VERDICT_INFORMATION
    assert ent == VERDICT_ENTANGLEMENT
    assert info != ent


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


def test_analyze_computes_overlaps_and_average_state_once(monkeypatch):
    e = generalized_bell_basis(3, equal_probs(9))
    overlaps = _count_calls(monkeypatch, "states", "overlap_matrix")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    reduced = _count_calls(monkeypatch, "ensembles", "reduced_ensemble")
    report = analyze(e)
    assert report.exact_value == pytest.approx(np.log2(9) - np.log2(3), abs=1e-12)
    assert (len(overlaps), len(averages)) == (1, 1)
    assert sorted(args[1] for args in reduced) == ["A", "B"]


def test_analyze_reuses_member_entropies_for_chi_a(monkeypatch):
    # 64 orthogonal pure members on 8x8 whose reduced states all differ.
    # S(rho_X^A) is computed once per member, for the average member entropy,
    # and chi_A reuses that sum: S(AB), S(A), S(B), 64 A-side members, the
    # chi_A average, then the chi_B average and its 64 B-side members.
    from entcharge import holevo_chi, reduced_ensemble

    e = random_orthogonal_pure_ensemble(np.random.default_rng(11), 8, count=64)
    entropies = _count_calls(monkeypatch, "entropy", "von_neumann_entropy")
    report = analyze(e)
    assert len(entropies) == 3 + 64 + 1 + 1 + 64
    assert report.chi_a == holevo_chi(*reduced_ensemble(e, "A"))


def test_classify_structure_computes_no_entropy(monkeypatch):
    from entcharge import classify_structure, ensemble_facts

    e = generalized_bell_basis(3, equal_probs(9))
    entropies = _count_calls(monkeypatch, "entropy", "von_neumann_entropy")
    flags = classify_structure(e)
    assert len(entropies) == 0
    assert flags == ensemble_facts(e).flags


def test_rotated_family_report_computes_facts_once(monkeypatch):
    overlaps = _count_calls(monkeypatch, "states", "overlap_matrix")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    rotated_family_report(np.pi / 7, equal_probs(4))
    assert len(overlaps) == 1
    assert len(averages) == 1


def test_facts_are_computed_once_across_public_bounds(monkeypatch):
    e = generalized_bell_basis(3, equal_probs(9))
    overlaps = _count_calls(monkeypatch, "states", "overlap_matrix")
    averages = _count_calls(monkeypatch, "ensembles", "average_state")
    analyze(e)
    lower_bound_pure(e)
    upper_bound_merging(e)
    chi_rewrite_bounds(e)
    exact_charge_max_entangled(e)
    assert (len(overlaps), len(averages)) == (1, 1)


def test_facts_are_keyed_by_tolerances():
    from entcharge import STRICT_TOLERANCES

    dims = BipartiteDims(2, 2)
    s0 = validate_state(dims, [1, 0, 0, 0])
    s1 = validate_state(dims, [1e-5, np.sqrt(1 - 1e-10), 0, 0])  # Tr(rho_0 rho_1) = 1e-10
    e = make_ensemble([(0.5, s0), (0.5, s1)])
    assert analyze(e).flags.mutually_orthogonal
    assert not analyze(e, tol=STRICT_TOLERANCES).flags.mutually_orthogonal


def test_facts_do_not_keep_the_ensemble_alive():
    import gc
    import weakref

    e = generalized_bell_basis(2, equal_probs(4))
    analyze(e)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_shared_facts_are_read_only():
    from entcharge import ensemble_facts

    facts = ensemble_facts(bell_basis(equal_probs(4)))
    for a in (facts.overlaps, facts.average, *facts.reduced_a, *facts.reduced_b):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_ensemble_facts_match_the_standalone_functions(seed):
    from entcharge import (
        average_state,
        classify_structure,
        ensemble_facts,
        quantum_mutual_information,
        reduced_ensemble,
        von_neumann_entropy,
    )

    e = random_orthogonal_pure_ensemble(np.random.default_rng(seed), 2)
    facts = ensemble_facts(e)
    assert np.array_equal(facts.average, average_state(e))
    assert facts.flags == classify_structure(e)
    assert facts.mutual_information == quantum_mutual_information(facts.average, e.dims)
    for party, reduced in (("A", facts.reduced_a), ("B", facts.reduced_b)):
        assert all(np.array_equal(x, y) for x, y in zip(reduced, reduced_ensemble(e, party)[1]))
    assert facts.avg_member_entropy == float(sum(p * von_neumann_entropy(m) for p, m in zip(e.probs, facts.reduced_a)))
    assert upper_bound_merging(e) == (facts.s_ab - facts.s_b, facts.s_ab - facts.s_a)
    assert lower_bound_pure(e) == facts.avg_member_entropy - facts.mutual_information
