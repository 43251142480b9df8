import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    BipartiteDims,
    BipartiteState,
    ShapeError,
    ValidationError,
    analyze,
    average_state,
    bell_basis,
    density_of,
    equal_probs,
    holevo_chi,
    make_ensemble,
    partial_trace,
    product_basis,
    reduced_ensemble,
    rotated_basis,
    shannon_of,
    validate_state,
    von_neumann_entropy,
)
from helpers import bell_vectors, random_density, random_orthogonal_pure_ensemble, random_pure_vector


def test_make_ensemble_validation():
    s = validate_state(BipartiteDims(2, 2), [1, 0, 0, 0])
    with pytest.raises(ValidationError):
        make_ensemble([])
    with pytest.raises(ValidationError, match="trace_tol"):
        make_ensemble([(0.5, s), (0.4, s)])
    with pytest.raises(ValidationError, match="negative"):
        make_ensemble([(1.2, s), (-0.2, s)])
    t = validate_state(BipartiteDims(1, 2), [1, 0])
    with pytest.raises(ShapeError):
        make_ensemble([(0.5, s), (0.5, t)])
    # members of trace 1 + 9e-10 and probabilities summing to 1 + 9e-10 each
    # pass trace_tol = 1e-9; the average state's trace 1 + 1.8e-9 does not
    halves = [validate_state(BipartiteDims(2, 2), np.diag(d) * (1 + 9e-10) / 2) for d in ([1, 1, 0, 0], [0, 0, 1, 1])]
    with pytest.raises(ValidationError, match="average state trace .* beyond trace_tol"):
        make_ensemble([(0.5 + 4.5e-10, m) for m in halves])


def test_ensemble_level_functions_take_no_tolerance():
    # An ensemble carries the policy it was built under; a separate tol
    # parameter could analyze it under another one.
    import importlib
    import inspect
    import pkgutil

    import entcharge
    from entcharge import Ensemble

    checked = set()
    for info in pkgutil.iter_modules(entcharge.__path__):
        module = importlib.import_module(f"entcharge.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = list(inspect.signature(fn, eval_str=True).parameters.values())
            if params and params[0].annotation is Ensemble:
                checked.add(name)
                assert "tol" not in [p.name for p in params[1:]], name
    assert checked >= {
        "analyze", "upper_bound_merging", "lower_bound_pure", "chi_rewrite_bounds", "delta_epsilon",
        "lower_bound_general", "exact_charge_max_entangled", "shannon_of", "estimate_accessible_info",
        "is_canonical_product_basis", "report_document",
    }


def test_average_state_bell_equal_is_maximally_mixed():
    e = bell_basis(equal_probs(4))
    # explicit matrix-sum oracle from hand-written vectors
    oracle = sum(0.25 * np.outer(v, v.conj()) for v in bell_vectors())
    assert np.allclose(average_state(e), oracle, atol=1e-15)
    assert np.allclose(oracle, np.eye(4) / 4, atol=1e-12)


def test_average_state_single_member():
    e = bell_basis([1, 0, 0, 0])
    v = bell_vectors()[0]
    assert np.allclose(average_state(e), np.outer(v, v.conj()), atol=1e-15)


def test_average_state_product_basis_completeness():
    e = product_basis(2, 2, equal_probs(4))
    assert np.allclose(average_state(e), np.eye(4) / 4, atol=1e-15)


def test_reduced_ensemble_bell_members_maximally_mixed():
    e = bell_basis(equal_probs(4))
    for party in ("A", "B"):
        probs, mats = reduced_ensemble(e, party)
        assert np.array_equal(probs, equal_probs(4))
        for m in mats:
            assert np.allclose(m, np.eye(2) / 2, atol=1e-12)


def test_reduced_ensemble_product_basis_party_a():
    e = product_basis(2, 2, equal_probs(4))
    _, mats = reduced_ensemble(e, "A")
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    for got, expected in zip(mats, [zero, zero, one, one]):
        assert np.allclose(got, expected, atol=1e-15)


def test_reduced_ensemble_rotated_family_patterns():
    theta = 0.4
    e = rotated_basis(theta, equal_probs(4))
    _, mats = reduced_ensemble(e, "A")
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    expected = [np.diag([c2, s2]), np.diag([c2, s2]), np.diag([s2, c2]), np.diag([s2, c2])]
    for got, want in zip(mats, expected):
        assert np.allclose(got, want, atol=1e-12)


def test_classify_structure_bell():
    flags = bell_basis(equal_probs(4)).flags
    assert flags.all_pure
    assert flags.mutually_orthogonal
    assert flags.all_maximally_entangled
    assert not flags.all_product
    assert flags.support_size == 4


def test_classify_structure_product_basis():
    flags = product_basis(2, 2, equal_probs(4)).flags
    assert flags.all_product
    assert not flags.all_maximally_entangled


def test_classify_structure_degenerate_probs():
    flags = bell_basis([1, 0, 0, 0]).flags
    assert flags.support_size == 1
    assert flags.all_maximally_entangled  # zero-prob members still checked


def test_shannon_of():
    assert shannon_of(bell_basis(equal_probs(4))) == pytest.approx(2.0, abs=1e-12)
    assert shannon_of(bell_basis([1, 0, 0, 0])) == 0.0
    assert shannon_of(bell_basis([0.5, 0.25, 0.125, 0.125])) == pytest.approx(1.75, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_reduce_then_average_commutes(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    probs, mats = reduced_ensemble(e, "A")
    averaged_reduced = sum(p * m for p, m in zip(probs, mats))
    reduced_average = partial_trace(average_state(e), 2, 2, "B")
    assert np.allclose(averaged_reduced, reduced_average, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_classify_structure_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    perm = rng.permutation(len(e.members))
    shuffled = make_ensemble([e.members[i] for i in perm])
    assert e.flags == shuffled.flags


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_flags_never_both_product_and_maximally_entangled(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    flags = e.flags
    assert not (flags.all_maximally_entangled and flags.all_product)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_full_orthonormal_basis_averages_to_identity(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2, count=4)
    uniform = make_ensemble([(0.25, s) for s in e.states])
    assert np.allclose(average_state(uniform), np.eye(4) / 4, atol=1e-12)


def _seeded_ensemble(seed: int, dA: int, dB: int, kinds: str, zero_probs: int = 0):
    """Members of the given kinds ('p' pure, 'd' density) on dA x dB with
    seeded random states; the first zero_probs members get probability 0."""
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(dA, dB)
    n = dims.joint
    states = [
        validate_state(dims, random_pure_vector(rng, n) if kind == "p" else random_density(rng, n))
        for kind in kinds
    ]
    probs = rng.dirichlet(np.ones(len(kinds)))
    probs[:zero_probs] = 0.0
    return make_ensemble(zip(probs / probs.sum(), states))


@pytest.mark.parametrize(
    "dA,dB,kinds,zero_probs",
    [
        (2, 3, "ppppp", 0), (3, 2, "pppp", 2), (1, 4, "ppp", 1), (4, 8, "p" * 12, 3),
        (2, 2, "p", 0), (3, 3, "p", 0), (2, 3, "d", 0),
        (2, 2, "ddd", 1), (3, 2, "dddd", 0),
        (2, 3, "pdpd", 1), (3, 2, "dppdp", 0), (2, 2, "dp", 0),
    ],
    ids=lambda v: str(v),
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_member_facts_match_the_per_member_reference(seed, dA, dB, kinds, zero_probs):
    # Each member's reduced states and entropies are one batched computation
    # per side; every value must carry the bits of the single-member path.
    e = _seeded_ensemble(seed, dA, dB, kinds, zero_probs)
    for party, traced, reduced, entropies in (
        ("A", "B", e.reduced_a, e.entropies_a), ("B", "A", e.reduced_b, e.entropies_b)
    ):
        ref = [partial_trace(density_of(s), dA, dB, traced) for s in e.states]
        assert reduced.shape == (len(kinds), *ref[0].shape)
        assert all(np.array_equal(got, want) for got, want in zip(reduced, ref)), party
        assert all(got == von_neumann_entropy(want) for got, want in zip(entropies, ref)), party
    ref_a = [partial_trace(density_of(s), dA, dB, "B") for s in e.states]
    ref_b = [partial_trace(density_of(s), dA, dB, "A") for s in e.states]
    assert e.avg_member_entropy == float(sum(p * von_neumann_entropy(m) for p, m in zip(e.probs, ref_a)))
    assert e.chi_a == holevo_chi(e.probs, ref_a)
    assert e.chi_b == holevo_chi(e.probs, ref_b)


def _reduced_invalid_member(fault: str):
    """A valid 2x2 density matrix whose A-side reduced state is not valid:
    two diagonal entries of -0.9e-12 pass eigenvalue_clamp alone but add up
    past it, and two Hermiticity deviations of 0.8e-10 add up past
    hermiticity_tol."""
    if fault == "negative":
        eps = 2.0**-40
        m = np.diag([-eps, -eps, 0.0, 1.0 + 2 * eps]).astype(complex)
    else:
        m = np.eye(4, dtype=complex) / 4
        m[0, 2] = m[1, 3] = 0.1 + 0.8e-10
        m[2, 0] = m[3, 1] = 0.1
    return validate_state(BipartiteDims(2, 2), m)


@pytest.mark.parametrize("faults", [("negative", "hermitian"), ("hermitian", "negative")])
def test_invalid_reduced_member_raises_the_first_bad_members_message(faults):
    good = validate_state(BipartiteDims(2, 2), np.eye(4) / 4)
    states = [good, *(_reduced_invalid_member(f) for f in faults)]
    e = make_ensemble([(1 / 3, s) for s in states])
    with pytest.raises(ValidationError) as want:
        von_neumann_entropy(partial_trace(density_of(states[1]), 2, 2, "B"))
    assert str(want.value).startswith("negative eigenvalue" if faults[0] == "negative" else "matrix is not Hermitian")
    with pytest.raises(ValidationError) as got:
        e.avg_member_entropy
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fault", ["negative", "hermitian"])
def test_a_reduced_member_nothing_reads_does_not_fail_analyze(fault):
    # Each reduced member fails its checks, while the marginals, which average
    # it with a valid member, pass them. No bound of a density ensemble reads a
    # member entropy, so analyze succeeds; the member facts still raise.
    good = validate_state(BipartiteDims(2, 2), np.eye(4) / 4)
    bad = _reduced_invalid_member(fault)
    e = make_ensemble([(0.5, good), (0.5, bad)])
    with pytest.raises(ValidationError) as want:
        von_neumann_entropy(partial_trace(density_of(bad), 2, 2, "B"))
    report = analyze(e)
    assert report.upper_bounds["compress_teleport"] == e.s_a == von_neumann_entropy(partial_trace(e.average, 2, 2, "B"))
    assert e.s_b == von_neumann_entropy(partial_trace(e.average, 2, 2, "A"))
    for fact in ("entropies_a", "chi_a", "avg_member_entropy"):
        with pytest.raises(ValidationError) as got:
            getattr(e, fact)
        assert str(got.value) == str(want.value), fact


def test_stacked_marginal_entropy_raises_only_for_the_marginal():
    # An orthogonal pure ensemble takes S(A) from row 0 of side A's stack. A
    # zero-probability member of norm 2, built around validate_state, leaves
    # the average valid but its reduced states have trace 4: the member facts
    # raise for it, and S(A) and S(B) do not.
    dims = BipartiteDims(2, 2)
    long = BipartiteState(dims, vector=np.array([0, 0, 0, 2], dtype=complex), matrix=None)
    e = make_ensemble([(0.5, validate_state(dims, [1, 0, 0, 0])), (0.5, validate_state(dims, [0, 1, 0, 0])), (0.0, long)])
    assert e._orthogonal_pure
    assert (e.s_a, e.s_b) == (0.0, 1.0)
    for fact in ("entropies_a", "chi_a", "entropies_b", "chi_b"):
        with pytest.raises(ValidationError, match=r"^trace 4\.0 deviates from 1 by 3\.000e\+00"):
            getattr(e, fact)


def _identical_reduced_states():
    from entcharge import generalized_bell_basis

    e = generalized_bell_basis(4, np.random.default_rng(4).dirichlet(np.ones(16)))
    assert (e.reduced_a == e.reduced_a[:1]).all() and (e.reduced_b == e.reduced_b[:1]).all()
    return e


@pytest.mark.parametrize(
    "build",
    [
        _identical_reduced_states,
        lambda: product_basis(2, 3, [0.5, 0.0, 0.1, 0.2, 0.0, 0.2]),
        lambda: rotated_basis(0.3, [0.1, 0.2, 0.3, 0.4]),
        lambda: _seeded_ensemble(0, 2, 3, "ppppp"),
        lambda: _seeded_ensemble(1, 3, 2, "pppp", 2),
        lambda: _seeded_ensemble(2, 1, 4, "ppp", 1),
        lambda: _seeded_ensemble(3, 4, 1, "pdp", 1),
        lambda: _seeded_ensemble(4, 2, 2, "p"),
        lambda: _seeded_ensemble(5, 2, 3, "d"),
        lambda: _seeded_ensemble(6, 2, 2, "ddd", 1),
        lambda: _seeded_ensemble(7, 3, 2, "dppdp"),
        lambda: _seeded_ensemble(8, 4, 8, "p" * 12, 3),
        lambda: make_ensemble([(0.5, validate_state(BipartiteDims(2, 2), np.diag([0.5, 0.5, 0, 0]))),
                               (0.5, validate_state(BipartiteDims(2, 2), [0, 0, 0.6, 0.8]))]),
    ],
    ids=["gbell4", "product2x3", "rotated", "2x3-pure", "3x2-zero-probs", "1x4", "4x1-mixed", "m1-pure",
         "m1-density", "density", "mixed", "4x8", "rank-deficient"],
)
def test_party_spectra_match_the_per_matrix_reference(build):
    # Each party's marginal entropy, member entropies and chi come from one
    # batched spectrum; every value must carry the bits of the entropy of its
    # own matrix alone.
    e = build()
    dA, dB = e.dims.dA, e.dims.dB
    for party, traced, s, entropies, chi in (
        ("A", "B", e.s_a, e.entropies_a, e.chi_a), ("B", "A", e.s_b, e.entropies_b, e.chi_b)
    ):
        probs, reduced = reduced_ensemble(e, party)
        assert s == von_neumann_entropy(partial_trace(e.average, dA, dB, traced)), party
        assert [x.hex() for x in entropies] == [von_neumann_entropy(m).hex() for m in reduced], party
        assert chi == holevo_chi(probs, reduced), party
        if (reduced == reduced[:1]).all():
            assert chi == 0.0
        else:
            average = von_neumann_entropy(np.einsum("x,xij->ij", probs, reduced))
            assert chi == average - float(sum(p * von_neumann_entropy(m) for p, m in zip(probs, reduced)))
