import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entcharge import (
    DEFAULT_TOLERANCES,
    STRICT_TOLERANCES,
    BipartiteDims,
    ShapeError,
    Tolerances,
    ValidationError,
    analyze,
    average_state,
    bell_basis,
    density_of,
    equal_probs,
    generalized_bell_basis,
    make_ensemble,
    parse_ensemble,
    partial_trace,
    product_basis,
    reduced_ensemble,
    rotated_basis,
    shannon_entropy,
    validate_state,
    von_neumann_entropy,
)
from entcharge.entropy import von_neumann_entropies
from entcharge.linalg import density_spectra
from helpers import (
    assert_member_facts_refused,
    bell_vectors,
    entanglement_oracle,
    entropy_oracle,
    holevo_oracle,
    maximally_entangled_oracle,
    near_maximally_mixed_gbell,
    near_product_vector,
    partial_trace_loop,
    pgm_oracle,
    product_oracle,
    random_density,
    random_orthogonal_pure_ensemble,
    random_pure_vector,
    random_unitary,
    rotate_locally,
    swap_parties,
)


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
        "analyze", "upper_bound_merging", "pgm_information",
        "lower_bound_general", "estimate_accessible_info",
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
        mats = reduced_ensemble(e, party)
        assert np.array_equal(e.probs, equal_probs(4))
        for m in mats:
            assert np.allclose(m, np.eye(2) / 2, atol=1e-12)


def test_reduced_ensemble_product_basis_party_a():
    e = product_basis(2, 2, equal_probs(4))
    mats = reduced_ensemble(e, "A")
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    for got, expected in zip(mats, [zero, zero, one, one]):
        assert np.allclose(got, expected, atol=1e-15)


def test_reduced_ensemble_rotated_family_patterns():
    theta = 0.4
    e = rotated_basis(theta, equal_probs(4))
    mats = reduced_ensemble(e, "A")
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


def test_support_size_follows_the_tolerance_profile():
    # p = 1e-13 is below the default eigenvalue_clamp (1e-12), above the strict one (1e-14).
    probs = [1 - 1e-13, 1e-13, 0, 0]
    assert bell_basis(probs).flags.support_size == 1
    assert bell_basis(probs, STRICT_TOLERANCES).flags.support_size == 2


def test_shannon_of():
    # H(X) of an ensemble is the entropy of its probability vector.
    def shannon_of(e):
        return shannon_entropy(e.probs, e.tol)

    assert shannon_of(bell_basis(equal_probs(4))) == pytest.approx(2.0, abs=1e-12)
    assert shannon_of(bell_basis([1, 0, 0, 0])) == 0.0
    assert shannon_of(bell_basis([0.5, 0.25, 0.125, 0.125])) == pytest.approx(1.75, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_reduce_then_average_commutes(seed):
    rng = np.random.default_rng(seed)
    e = random_orthogonal_pure_ensemble(rng, 2)
    mats = reduced_ensemble(e, "A")
    averaged_reduced = sum(p * m for p, m in zip(e.probs, mats))
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


PROFILES = {"default": DEFAULT_TOLERANCES, "strict": STRICT_TOLERANCES}
# Every shape up to 8 x 8 (joint dimension at most MAX_JOINT_DIM = 64), and
# the two most unbalanced ones.
PRODUCT_DIMS = [(a, b) for a in range(1, 9) for b in range(1, 9) if a * b >= 2] + [(2, 32), (32, 2)]
# A member whose largest Schmidt coefficient is 1 - f * orthogonality_tol, f
# within 10% of the edge f = 1. The flag's Frobenius rule and the Schmidt
# rule differ only within about 4 orthogonality_tol^2 of the edge, where the
# SVD and the norm also round differently; so f keeps 1% off the edge, which
# is still 1e-13 under the strict profile, far above both.
EDGE_FACTORS = st.one_of(st.floats(0.9, 0.99), st.floats(1.01, 1.1))


@given(
    st.sampled_from(PRODUCT_DIMS),
    st.sampled_from(sorted(PROFILES)),
    st.lists(EDGE_FACTORS, min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_all_product_is_the_largest_schmidt_coefficient_rule(shape, profile, factors, seed):
    tol = PROFILES[profile]
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(*shape)
    gaps = [f * tol.orthogonality_tol for f in factors]
    states = [validate_state(dims, near_product_vector(rng, *shape, gap), tol) for gap in gaps]
    expected = [product_oracle(s, tol) for s in states]
    # Each member lies on the side of the edge it was built for; a member
    # with one Schmidt coefficient is always product.
    assert expected == [f < 1 or min(shape) == 1 for f in factors]
    for s, want in zip(states, expected, strict=True):
        assert make_ensemble([(1.0, s)], tol=tol).flags.all_product == want
    e = make_ensemble(zip(equal_probs(len(states)), states), tol=tol)
    assert e.flags.all_product == all(expected)


@given(
    st.integers(2, 8),
    st.sampled_from(sorted(PROFILES)),
    EDGE_FACTORS,
    st.sampled_from(["square", "oblong", "mixed"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_all_maximally_entangled_is_the_both_sides_rule(d, profile, factor, kind, seed):
    # Generalized Bell members whose reduced states lie f * orthogonality_tol
    # from I/d. Side A's rule meets the oracle's both-sides rule: a pure
    # member's two reduced states are equally far from I/d, and the computed
    # distances differ by at most ~1e-5 orthogonality_tol, far inside
    # EDGE_FACTORS' 1% gap.
    tol = PROFILES[profile]
    e = near_maximally_mixed_gbell(d, factor * tol.orthogonality_tol, seed)
    probs, states = e.probs, list(e.states)
    if kind == "oblong":
        # The same amplitudes on d x (d + 1): rho_X^A is unchanged, but no
        # member of an oblong ensemble is maximally entangled. 8 x 9 is
        # beyond MAX_JOINT_DIM.
        assume(d < 8)
        dims = BipartiteDims(d, d + 1)
        states = [validate_state(dims, np.pad(s.vector.reshape(d, d), ((0, 0), (0, 1))).ravel(), tol) for s in states]
    elif kind == "mixed":
        # I/d^2 has rho^A = I/d, but a density member is never maximally entangled.
        states[-1] = validate_state(e.dims, np.eye(d * d) / (d * d), tol)
    e = make_ensemble(zip(probs, states), tol=tol)
    flag = e.flags.all_maximally_entangled
    assert flag == maximally_entangled_oracle(e)
    assert flag == (kind == "square" and factor < 1)


@st.composite
def flagged_ensembles(draw):
    """Ensembles with each flag set either way, none within rounding of its
    edge, under either profile: product and rotated bases (near-product ones
    included), generalized Bell bases, and random pure, orthogonal pure and
    mixed ensembles, with a zero-probability member at times."""
    tol = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    kind = draw(st.sampled_from(["product", "rotated", "near-product", "gbell", "pure", "orthogonal", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dA, dB = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    count = {"product": dA * dB, "rotated": 4, "near-product": 4, "gbell": 9}.get(kind, int(rng.integers(2, dA * dB + 1)))
    probs = rng.dirichlet(np.ones(count))
    if draw(st.booleans()):
        probs[0] = 0.0
        probs /= probs.sum()
    if kind == "product":
        return product_basis(dA, dB, probs, tol)
    if kind == "rotated":
        return rotated_basis(float(rng.choice([0.0, np.pi / 4, np.pi / 2, rng.uniform(0.1, 1.4)])), probs, tol)
    if kind == "near-product":
        return rotated_basis(float(np.arccos(1.0 - draw(EDGE_FACTORS) * tol.orthogonality_tol)), probs, tol)
    if kind == "gbell":
        return generalized_bell_basis(3, probs, tol)
    dims = BipartiteDims(dA, dB)
    if kind == "orthogonal":
        q = np.linalg.qr(rng.standard_normal((dims.joint,) * 2) + 1j * rng.standard_normal((dims.joint,) * 2))[0]
        data = [q[:, k] for k in range(count)]
    else:
        data = [random_pure_vector(rng, dims.joint) if kind == "pure" else random_density(rng, dims.joint)
                for _ in range(count)]
    return make_ensemble(zip(probs, (validate_state(dims, x, tol) for x in data)), tol=tol)


@given(flagged_ensembles(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_flags_are_invariant_under_local_unitaries_and_party_swap(e, seed):
    rng = np.random.default_rng(seed)
    for image in (rotate_locally(e, rng), swap_parties(e), swap_parties(rotate_locally(e, rng))):
        assert image.flags == e.flags


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
    # Each side's reduced members are one batched computation from the
    # vectors, and side A's entropies one batched spectrum; every value must
    # carry the bits of the single-member path. With a density member there
    # are no member facts.
    e = _seeded_ensemble(seed, dA, dB, kinds, zero_probs)
    if "d" in kinds:
        assert_member_facts_refused(e, kinds.index("d"))
        return
    for party, traced in (("A", "B"), ("B", "A")):
        reduced = reduced_ensemble(e, party)
        ref = [partial_trace(density_of(s), dA, dB, traced) for s in e.states]
        assert reduced.shape == (len(kinds), *ref[0].shape)
        assert all(np.array_equal(got, want) for got, want in zip(reduced, ref)), party
    ref_a = [partial_trace(density_of(s), dA, dB, "B") for s in e.states]
    assert all(np.array_equal(got, want) for got, want in zip(e.reduced_a, ref_a))
    assert all(got == von_neumann_entropy(want) for got, want in zip(e.entropies_a, ref_a))
    assert e.avg_member_entropy == float(sum(p * von_neumann_entropy(m) for p, m in zip(e.probs, ref_a)))
    assert e.chi_a == _chi_reference(e, "B")
    assert e.chi_b == _chi_reference(e, "A")


def test_reduced_ensemble_checks_the_party_first():
    e = _seeded_ensemble(0, 2, 2, "dp")
    with pytest.raises(ValidationError, match="party must be 'A' or 'B'"):
        reduced_ensemble(e, "C")


def _marginal_reference(e, traced: str) -> np.ndarray:
    """The marginal left by tracing out `traced`, as the ensemble builds it:
    for all-pure members sum_X W_X W_X^dag (W_X^T W_X-bar for B), W_X the
    sqrt(p_X)-weighted member reshaped to dA x dB, as one product of the
    W_X laid side by side; otherwise the partial trace of the average state."""
    dA, dB = e.dims.dA, e.dims.dB
    if not all(s.is_pure for s in e.states):
        return partial_trace(e.average, dA, dB, traced)
    w = [np.sqrt(p) * s.vector.reshape(dA, dB) for p, s in e.members]
    f = np.concatenate(w if traced == "B" else [x.T for x in w], axis=1)
    return f @ f.conj().T


def _chi_reference(e, traced: str) -> float:
    """chi of the party left by tracing out `traced` of an all-pure ensemble,
    S(marginal) - sum_X p_X S(rho_X^A), each entropy that of its own matrix
    alone, clamped at 0: both sides subtract side A's member entropies, which
    a pure member's two reduced states share. It is exactly 0 when the
    reduced members of side A (for chi_B, the member vectors) are identical."""
    dA, dB = e.dims.dA, e.dims.dB
    reduced = [partial_trace(density_of(s), dA, dB, "B") for s in e.states]
    same = reduced if traced == "B" else [s.vector for s in e.states]
    if all(np.array_equal(x, same[0]) for x in same):
        return 0.0
    marginal = von_neumann_entropy(_marginal_reference(e, traced))
    return max(0.0, marginal - float(sum(p * von_neumann_entropy(m) for p, m in zip(e.probs, reduced))))


@pytest.mark.parametrize("seed", range(5))
def test_party_chi_of_identical_members_is_exactly_zero(seed):
    # Identical members carry no information: chi_A and chi_B are exactly 0,
    # not S(rho_B) - S(rho^A) rounded, for one member and for repeated ones.
    rng = np.random.default_rng([seed, 29])
    for dA in range(1, 5):
        for dB in range(1, 5):
            s = validate_state(BipartiteDims(dA, dB), random_pure_vector(rng, dA * dB))
            one, twice = make_ensemble([(1.0, s)]), make_ensemble([(0.3, s), (0.7, s)])
            report = analyze(one)
            assert (report.chi_a, report.chi_b) == (one.chi_a, one.chi_b) == (0.0, 0.0), (dA, dB)
            assert (twice.chi_a, twice.chi_b) == (0.0, 0.0), (dA, dB)


def _member_at_the_edges(fault: str):
    """A valid 2x2 density matrix whose A-side reduced state adds up two of
    its deviations: two diagonal entries of -0.9e-12, each within
    eigenvalue_clamp, or two Hermiticity deviations of 0.8e-10, each within
    hermiticity_tol."""
    if fault == "negative":
        eps = 2.0**-40
        m = np.diag([-eps, -eps, 0.0, 1.0 + 2 * eps]).astype(complex)
    else:
        m = np.eye(4, dtype=complex) / 4
        m[0, 2] = m[1, 3] = 0.1 + 0.8e-10
        m[2, 0] = m[3, 1] = 0.1
    return validate_state(BipartiteDims(2, 2), m)


def _beyond_the_traced_bound(fault: str) -> np.ndarray:
    """A 2x2 reduced state beyond what a member with a qubit traced out can
    give: an eigenvalue of -3e-12 below -2 x eigenvalue_clamp, or a
    Hermiticity deviation of 2.5e-10 above 2 x hermiticity_tol."""
    if fault == "negative":
        return np.diag([-3e-12, 1.0 + 3e-12]).astype(complex)
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 0.1 + 2.5e-10
    m[1, 0] = 0.1
    return m


BEYOND_THE_TRACED_BOUND = {
    "negative": "negative eigenvalue -3.000000e-12 below -2 x eigenvalue_clamp (-2e-12); not a valid density matrix",
    "hermitian": "matrix is not Hermitian: max |m - m^dag| = 2.500e-10 exceeds 2 x hermiticity_tol=1e-10",
}


@pytest.mark.parametrize("faults", [("negative", "hermitian"), ("hermitian", "negative")])
def test_invalid_reduced_member_raises_the_first_bad_members_message(faults):
    # A raw stack of reduced states, checked at the bounds of a traced-out
    # qubit, with two rows beyond them: the first bad row's message is raised.
    stack = np.stack([np.eye(2, dtype=complex) / 2, *(_beyond_the_traced_bound(f) for f in faults)])
    for check in (density_spectra, von_neumann_entropies):
        with pytest.raises(ValidationError) as got:
            check(stack, DEFAULT_TOLERANCES, 2)
        assert str(got.value) == BEYOND_THE_TRACED_BOUND[faults[0]], check.__name__


@pytest.mark.parametrize("fault", ["negative", "hermitian"])
def test_a_reduced_member_nothing_reads_does_not_fail_analyze(fault):
    # The member's A-side reduced state fails the checks of an input state,
    # but not those of a state with a qubit traced out, which are the bounds a
    # valid member guarantees: analyze and the marginal facts succeed, and
    # the member facts, never formed for a density member, refuse.
    good = validate_state(BipartiteDims(2, 2), np.eye(4) / 4)
    edge = _member_at_the_edges(fault)
    e = make_ensemble([(0.5, good), (0.5, edge)])
    with pytest.raises(ValidationError):
        von_neumann_entropy(partial_trace(density_of(edge), 2, 2, "B"))
    report = analyze(e)
    assert report.upper_bounds["compress_teleport"] == e.s_a == von_neumann_entropy(partial_trace(e.average, 2, 2, "B"))
    assert e.s_b == von_neumann_entropy(partial_trace(e.average, 2, 2, "A"))
    assert np.isfinite(e.s_ab)
    assert_member_facts_refused(e, 0)


def _ensemble_text(dA: int, dB: int, members) -> str:
    """An ensemble file of (prob, kind, data) members, its floats written
    with repr, which parses back to the same bits."""
    def pairs(a):
        return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]

    def state(kind, data):
        values = pairs(data)
        if kind == "density":
            n = int(round(np.sqrt(len(values))))
            values = [values[i * n:(i + 1) * n] for i in range(n)]
        return {"kind": kind, "data": values}

    return json.dumps({
        "schema_version": 1, "dims": {"dA": dA, "dB": dB},
        "members": [{"prob": float(p), "state": state(kind, data)} for p, kind, data in members],
    })


def _edge_density(rng, n: int, negative, skewed, tol: Tolerances) -> np.ndarray:
    """A density matrix, diagonal but for its Hermiticity deviations, whose
    eigenvalues at the joint indices in negative are -0.99 eigenvalue_clamp,
    and whose entries (i, j) in skewed, i < j, deviate from Hermiticity by
    0.99 hermiticity_tol, in real or imaginary direction."""
    low = -0.99 * tol.eigenvalue_clamp
    weights = rng.random(n - len(negative)) + 0.1
    diag = np.full(n, low)
    diag[[i for i in range(n) if i not in negative]] = weights / weights.sum() * (1.0 - low * len(negative))
    m = np.diag(diag).astype(complex)
    half = 0.495 * tol.hermiticity_tol
    for (i, j), imaginary in skewed:
        # m - m^dag is 2 * half at (i, j), and the Hermitian part stays diagonal.
        m[i, j], m[j, i] = (1j * half, 1j * half) if imaginary else (half, -half)
    return m


@st.composite
def _ensembles_at_the_edges(draw):
    """The text of a dA x dB ensemble, dA, dB in 1..4, of density members at
    the tolerance edges, mixed with random pure members, and its profile."""
    dA, dB = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = dA * dB
    tol = draw(st.sampled_from([DEFAULT_TOLERANCES, STRICT_TOLERANCES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["density", "pure"]), min_size=1, max_size=4).filter(lambda k: "density" in k))
    members = []
    for p, kind in zip(rng.dirichlet(np.ones(len(kinds))), kinds):
        if kind == "pure":
            members.append((p, kind, random_pure_vector(rng, n)))
            continue
        negative = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        skewed = draw(st.lists(
            st.tuples(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]), st.booleans()),
            max_size=2 * n, unique_by=lambda t: t[0],
        )) if n > 1 else []
        members.append((p, kind, _edge_density(rng, n, negative, skewed, tol)))
    return _ensemble_text(dA, dB, members), tol


@given(_ensembles_at_the_edges())
@example((_ensemble_text(2, 2, [(1.0, "density", np.diag([-8e-13, -8e-13, 0.5, 0.5 + 1.6e-12]))]), DEFAULT_TOLERANCES))
@example((_ensemble_text(2, 2, [(1.0, "density", _edge_density(
    np.random.default_rng(0), 4, {0, 1}, [((0, 2), False), ((1, 3), False)], DEFAULT_TOLERANCES))]), DEFAULT_TOLERANCES))
@example((_ensemble_text(3, 2, [(0.5, "density", _edge_density(np.random.default_rng(1), 6, {0, 2, 4}, [], STRICT_TOLERANCES)),
                                (0.5, "pure", random_pure_vector(np.random.default_rng(2), 6))]), STRICT_TOLERANCES))
@settings(max_examples=60, deadline=None)
def test_analyze_accepts_whatever_parse_accepts_at_the_tolerance_edges(case):
    # A partial trace adds up d entries of each deviation of a member: the
    # derived states of members at the edges of their own checks lie beyond
    # those checks but within the d-fold bounds a valid member guarantees.
    text, tol = case
    e = parse_ensemble(text, tol)
    analyze(e)
    for fact in ("s_ab", "s_a", "s_b"):
        assert np.isfinite(getattr(e, fact)), fact
    assert_member_facts_refused(e, next(k for k, s in enumerate(e.states) if not s.is_pure))


def _identical_reduced_states():
    from entcharge import generalized_bell_basis

    e = generalized_bell_basis(4, np.random.default_rng(4).dirichlet(np.ones(16)))
    reduced_b = reduced_ensemble(e, "B")
    assert (e.reduced_a == e.reduced_a[:1]).all() and (reduced_b == reduced_b[:1]).all()
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
    # Each party's marginal entropy, side A's member entropies and each
    # side's chi come from batched spectra; every value must carry the bits
    # of the entropy of its own matrix alone, and chi those of S(marginal) -
    # sum_X p_X S(member). With a density member only the marginals remain.
    e = build()
    dA, dB = e.dims.dA, e.dims.dB
    for party, traced, s in (("A", "B", e.s_a), ("B", "A", e.s_b)):
        assert s == von_neumann_entropy(_marginal_reference(e, traced)), party
        assert np.allclose(_marginal_reference(e, traced), partial_trace(e.average, dA, dB, traced), rtol=0, atol=1e-15)
    if not e.flags.all_pure:
        assert_member_facts_refused(e, next(k for k, s in enumerate(e.states) if not s.is_pure))
        return
    assert [x.hex() for x in e.entropies_a] == [von_neumann_entropy(m).hex() for m in reduced_ensemble(e, "A")]
    assert e.chi_a == _chi_reference(e, "B")
    assert e.chi_b == _chi_reference(e, "A")


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_party_chi_reads_the_marginal_entropy_of_the_merging_bounds(d):
    # On orthogonal pure ensembles chi_A is S(rho_A) - sum_X p_X S(rho_X^A)
    # bit for bit, with the S(rho_A) that the merging bounds read, so the
    # pure lower bound equals S(A|B) - chi_A in the last bit too. chi_B
    # subtracts the same member term from the S(rho_B) they read, as a pure
    # member's two reduced states share their nonzero spectrum.
    from entcharge.entropy import member_term

    rng = np.random.default_rng([2026, d])
    sides = 0
    for _ in range(8):
        e = random_orthogonal_pure_ensemble(rng, d)
        term = member_term(e.probs, e.entropies_a)
        assert e.chi_b == max(0.0, e.s_b - term)
        if (e.reduced_a == e.reduced_a[:1]).all():
            continue
        assert e.chi_a == e.s_a - term
        sides += 1
    assert sides > 0


def _pure_vectors(rng, dA: int, dB: int, kind: str, m: int) -> np.ndarray:
    """m seeded unit vectors on dA x dB: orthogonal (Haar columns, m <= n),
    product, maximally entangled (dA = dB) or unstructured."""
    n = dA * dB
    if kind == "orthogonal":
        return random_unitary(rng, n)[:, :m].T
    if kind == "product":
        return np.array([np.kron(random_pure_vector(rng, dA), random_pure_vector(rng, dB)) for _ in range(m)])
    if kind == "maxent" and dA == dB:
        return np.array([random_unitary(rng, dA).ravel() / np.sqrt(dA) for _ in range(m)])
    return np.array([random_pure_vector(rng, n) for _ in range(m)])


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 2), (1, 5), (2, 1), (4, 1), (2, 2), (3, 3), (4, 4)]),
    st.sampled_from(["random", "orthogonal", "product", "maxent"]),
    st.integers(1, 20),
    st.integers(0, 3),
    st.sampled_from(["default", "strict"]),
)
@example(seed=0, shape=(2, 2), kind="random", members=7, zeros=2, profile="strict")
@example(seed=1, shape=(1, 5), kind="random", members=9, zeros=1, profile="default")
@example(seed=2, shape=(4, 1), kind="orthogonal", members=4, zeros=1, profile="default")
@example(seed=3, shape=(3, 3), kind="maxent", members=12, zeros=3, profile="strict")
@settings(max_examples=80, deadline=None)
def test_vector_facts_match_the_dense_oracles(seed, shape, kind, members, zeros, profile):
    # An all-pure ensemble's facts come from its vectors (weighted Gram
    # spectrum, marginals by matmul, side A's reduced stack); each must match
    # the dense oracle built from the joint matrices, on 1 x n, n x 1 and
    # square shapes, with more members than the joint dimension and with
    # zero-probability members, under both profiles.
    from entcharge.accessible import pgm_information

    tol = STRICT_TOLERANCES if profile == "strict" else DEFAULT_TOLERANCES
    dA, dB = shape
    n = dA * dB
    m = min(members, n) if kind == "orthogonal" else members
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(m))
    probs[: min(zeros, m - 1)] = 0.0
    dims = BipartiteDims(dA, dB)
    e = make_ensemble(
        [(p, validate_state(dims, v, tol)) for p, v in zip(probs / probs.sum(), _pure_vectors(rng, dA, dB, kind, m))],
        tol=tol,
    )
    vectors = [s.vector for s in e.states]
    rhos = [np.outer(v, v.conj()) for v in vectors]
    average = sum(p * r for p, r in zip(e.probs, rhos))
    reduced_a = [partial_trace_loop(r, dA, dB, "B") for r in rhos]
    reduced_b = [partial_trace_loop(r, dA, dB, "A") for r in rhos]
    oracle = {
        "s_ab": entropy_oracle(average),
        "s_a": entropy_oracle(partial_trace_loop(average, dA, dB, "B")),
        "s_b": entropy_oracle(partial_trace_loop(average, dA, dB, "A")),
        "chi_a": max(0.0, holevo_oracle(e.probs, reduced_a)),
        "chi_b": max(0.0, holevo_oracle(e.probs, reduced_b)),
        "chi": holevo_oracle(e.probs, rhos),
    }
    for name, value in oracle.items():
        assert abs(getattr(e, name) - value) <= 1e-12, name
    assert np.abs(e.entropies_a - [entanglement_oracle(s) for s in e.states]).max() <= 1e-12
    assert abs(pgm_information(e) - pgm_oracle(e)) <= 1e-12
    overlaps = [abs(np.vdot(vectors[i], vectors[j])) ** 2 for i in range(m) for j in range(i + 1, m)]
    assert e.flags.all_pure
    assert e.flags.mutually_orthogonal == all(x <= tol.orthogonality_tol for x in overlaps)
    assert e.flags.all_product == all(product_oracle(s, tol) for s in e.states)
    assert e.flags.all_maximally_entangled == maximally_entangled_oracle(e)
    assert e.flags.support_size == int((e.probs > tol.eigenvalue_clamp).sum())
