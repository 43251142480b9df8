import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    DEFAULT_TOLERANCES,
    STRICT_TOLERANCES,
    BipartiteDims,
    InfoInterval,
    OptimizerConfig,
    PreconditionError,
    ShapeError,
    ValidationError,
    bell_basis,
    binary_entropy,
    density_of,
    equal_probs,
    estimate_accessible_info,
    generalized_bell_basis,
    lower_bound_general,
    make_ensemble,
    make_povm,
    mutual_information_of_measurement,
    rotated_basis,
    shannon_entropy,
    validate_state,
)
from entcharge.accessible import pgm_information
from entcharge.linalg import ROUNDING_SLACK
from helpers import (
    entropy_oracle,
    partial_trace_loop,
    pgm_oracle,
    rotate_locally,
    swap_parties,
    holevo_oracle,
    lower_bound_pure,
    mutual_information_oracle,
    near_orthogonal_gbell,
    near_orthogonal_pair,
    random_density,
    random_orthogonal_pure_ensemble,
    random_pure_vector,
    serial_lockstep_ascent,
)

D12 = BipartiteDims(1, 2)
D22 = BipartiteDims(2, 2)


def two_state_ensemble(gamma: float):
    """Two equal-prob pure qubit states with overlap cos(gamma), dims 1x2."""
    s0 = validate_state(D12, [1, 0])
    s1 = validate_state(D12, [np.cos(gamma), np.sin(gamma)])
    return make_ensemble([(0.5, s0), (0.5, s1)])


def grid_best_projective(e, points: int = 10_000, rounds: int = 3) -> float:
    """Best information of a projective measurement on the span of a pair of
    pure states; an independent oracle for any priors and any frame. In the
    Bloch picture of the span (a QR basis of the two vectors), the direction
    n gives p(y = 0 | x) = (1 + n.r_x) / 2. A direction off the plane of r_0
    and r_1 is a noisier copy of its projection onto it, so a grid over the
    half circle of that plane (n and -n give one measurement) suffices; it is
    zoomed `rounds` times around its best point."""
    v = np.stack([s.vector for s in e.states])
    q, _ = np.linalg.qr(v.T)
    c = q.conj().T @ v.T
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    r = np.array([[np.vdot(c[:, x], s @ c[:, x]).real for s in paulis] for x in range(2)])
    a = r[0] / np.linalg.norm(r[0])
    b = r[1] - (r[1] @ a) * a
    b /= np.linalg.norm(b)
    probs = np.asarray(e.probs)

    def h(p):
        safe = np.where(p > 0, p, 1.0)
        return -(safe * np.log2(safe))

    def information(t):
        n = np.cos(t)[:, None] * a + np.sin(t)[:, None] * b
        q0 = (1.0 + n @ r.T) / 2.0  # (points, 2): p(y = 0 | x)
        joint = np.concatenate([probs * q0, probs * (1.0 - q0)], axis=1)
        return h(joint[:, :2].sum(axis=1)) + h(joint[:, 2:].sum(axis=1)) + h(probs).sum() - h(joint).sum(axis=1)

    step = np.pi / points
    t = step * np.arange(points)
    for _ in range(rounds):
        best = t[np.argmax(information(t))]
        t, step = np.linspace(best - step, best + step, 1001), step / 500
    return float(information(t).max())


def test_make_povm_validation():
    make_povm(D12, [np.eye(2)])
    with pytest.raises(ValidationError, match="identity"):
        make_povm(D12, [np.eye(2) / 2])
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        make_povm(D12, [np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])
    with pytest.raises(ShapeError):
        make_povm(D22, [np.eye(2)])


@pytest.mark.parametrize("tol,accepted", [(DEFAULT_TOLERANCES, True), (STRICT_TOLERANCES, False)], ids=["default", "strict"])
def test_make_povm_completeness_follows_the_profile(tol, accepted):
    # Completeness is checked at 10 x trace_tol: 1e-8 by default, 1e-10 under
    # the strict profile. These elements miss the identity by 1e-9.
    elements = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0 + 1e-9])]
    if accepted:
        make_povm(D12, elements, tol)
    else:
        with pytest.raises(ValidationError, match="identity only within 1.000e-09"):
            make_povm(D12, elements, tol)


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(restarts=0)


def test_mutual_information_identity_povm_is_zero():
    e = bell_basis(equal_probs(4))
    m = make_povm(D22, [np.eye(4)])
    assert mutual_information_of_measurement(e, m) == 0.0


def test_mutual_information_own_projectors_extract_everything():
    e = bell_basis([0.5, 0.25, 0.125, 0.125])
    m = make_povm(D22, [density_of(s) for s in e.states])
    assert mutual_information_of_measurement(e, m) == pytest.approx(1.75, abs=1e-9)


def test_mutual_information_zero_plus_ensemble_computational_basis():
    s0 = validate_state(D12, [1, 0])
    plus = validate_state(D12, np.array([1, 1]) / np.sqrt(2))
    e = make_ensemble([(0.5, s0), (0.5, plus)])
    m = make_povm(D12, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    # explicit probability-table oracle: rows (1/2, 0) and (1/4, 1/4)
    table = np.array([[0.5, 0.0], [0.25, 0.25]])
    expected = (
        shannon_entropy(table.sum(axis=1))
        + shannon_entropy(table.sum(axis=0))
        - shannon_entropy(table.ravel())
    )
    assert expected == pytest.approx(1 + shannon_entropy([0.75, 0.25]) - 1.5, abs=1e-12)
    assert mutual_information_of_measurement(e, m) == pytest.approx(expected, abs=1e-12)


def test_mutual_information_dims_mismatch():
    e = bell_basis(equal_probs(4))
    with pytest.raises(ShapeError):
        mutual_information_of_measurement(e, make_povm(D12, [np.eye(2)]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mutual_information_caps(seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    states = [validate_state(D12, v / np.linalg.norm(v)) for v in vectors]
    probs = rng.dirichlet(np.ones(3))
    e = make_ensemble(zip(probs, states))
    g = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    mats = np.einsum("yki,ykj->yij", g.conj(), g)
    total = mats.sum(axis=0)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    povm = make_povm(D12, list(np.einsum("ab,ybc,cd->yad", inv_sqrt, mats, inv_sqrt)))
    value = mutual_information_of_measurement(e, povm)
    hx = shannon_entropy(probs)
    chi = holevo_oracle(probs, [density_of(s) for s in e.states])
    assert value <= hx + 1e-9
    assert value <= chi + 1e-9
    assert value >= 0.0


def test_refining_a_povm_never_loses_information():
    e = two_state_ensemble(np.pi / 8)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    coarse = make_povm(D12, [p0 + 0.5 * p1, 0.5 * p1])
    base = mutual_information_of_measurement(e, coarse)
    # split the first element into two nonproportional positive parts
    refined = make_povm(D12, [p0, 0.5 * p1, 0.5 * p1])
    assert mutual_information_of_measurement(e, refined) >= base - 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_refinement_monotonicity_random_splits(seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
    e = make_ensemble([(0.5, validate_state(D12, v / np.linalg.norm(v))) for v in vectors])
    # random two-outcome POVM, then split element 0 as sqrt(M) P sqrt(M) + rest
    g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    mats = np.einsum("yki,ykj->yij", g.conj(), g)
    total = mats.sum(axis=0)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    elements = list(np.einsum("ab,ybc,cd->yad", inv_sqrt, mats, inv_sqrt))
    coarse = make_povm(D12, elements)
    m0 = elements[0]
    we, ve = np.linalg.eigh((m0 + m0.conj().T) / 2)
    root = (ve * np.sqrt(np.clip(we, 0.0, None))) @ ve.conj().T
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    proj = np.outer(u, u.conj()) / np.vdot(u, u).real
    part = root @ proj @ root
    refined = make_povm(D12, [part, m0 - part, elements[1]])
    base = mutual_information_of_measurement(e, coarse)
    assert mutual_information_of_measurement(e, refined) >= base - 1e-9


def test_accessible_info_exact_orthogonal():
    for e, hx in (
        (bell_basis(equal_probs(4)), 2.0),
        (bell_basis([1, 0, 0, 0]), 0.0),
        (rotated_basis(0.3, equal_probs(4)), 2.0),
    ):
        info = estimate_accessible_info(e)
        assert info.lo == info.hi == pytest.approx(hx, abs=1e-12)
    # non-orthogonal members get a bracket, never the exact H(X) value
    info = estimate_accessible_info(two_state_ensemble(np.pi / 8), OptimizerConfig(restarts=1, max_iters=5))
    assert info.lo < info.hi < 1.0
    assert "orthogonal" not in info.note


def test_estimate_orthogonal_short_circuit():
    info = estimate_accessible_info(bell_basis(equal_probs(4)))
    assert info.lo == info.hi == pytest.approx(2.0, abs=1e-12)
    assert info.note == "orthogonal ensemble: min(H(X), Holevo chi)"


def test_estimate_orthogonal_short_circuit_obeys_the_holevo_cap():
    # Overlaps just within orthogonality_tol add up: chi falls below H(X), and
    # chi caps I_Global, so the upper edge sits at chi. The pretty-good
    # measurement, the lower edge, falls further below it than rounding.
    e = near_orthogonal_gbell(4, seed=0)
    info = estimate_accessible_info(e)
    assert info.hi == e.chi < shannon_entropy(e.probs) - ROUNDING_SLACK
    assert info.lo == pgm_information(e) < info.hi - ROUNDING_SLACK


def test_estimate_follows_the_ensembles_tolerances():
    # Tr(rho_0 rho_1) = 1e-10 is orthogonal by default but not under the
    # strict policy the ensemble was built with, so the search must run.
    from entcharge import STRICT_TOLERANCES

    assert estimate_accessible_info(near_orthogonal_pair()).note == "orthogonal ensemble: min(H(X), Holevo chi)"
    info = estimate_accessible_info(near_orthogonal_pair(STRICT_TOLERANCES), OptimizerConfig(restarts=2))
    assert "orthogonal" not in info.note
    assert info.lo <= info.hi < 1.0


def test_estimate_short_circuit_builds_no_reduced_ensemble(monkeypatch):
    # Orthogonality is read from the overlap matrix alone; the reduced
    # ensembles of the structure flags are never needed by the estimate.
    import entcharge.ensembles as ensembles

    calls = []
    original = ensembles.reduced_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ensembles, "reduced_ensemble", counted)
    assert estimate_accessible_info(bell_basis(equal_probs(4))).lo == pytest.approx(2.0, abs=1e-12)
    info = estimate_accessible_info(two_state_ensemble(np.pi / 8), OptimizerConfig(restarts=1, max_iters=5))
    assert info.lo < info.hi
    assert calls == []


def test_estimate_identical_states_interval_is_zero():
    bell = bell_basis(equal_probs(4)).states[0]
    e = make_ensemble([(0.5, bell), (0.5, bell)])
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=40))
    assert info.hi == 0.0
    assert info.lo == pytest.approx(0.0, abs=1e-9)


def test_estimate_two_state_matches_grid_oracle():
    gamma = np.pi / 8
    e = two_state_ensemble(gamma)
    info = estimate_accessible_info(e)
    best = grid_best_projective(e)
    assert abs(info.lo - best) <= 1e-10
    assert info.lo <= info.hi + 1e-9
    chi = holevo_oracle([0.5, 0.5], [density_of(s) for s in e.states])
    assert info.hi == pytest.approx(min(1.0, chi), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.3, np.pi / 8, np.pi / 3])
def test_estimate_equal_prior_pair_reaches_closed_form(gamma):
    # Two equiprobable pure states with overlap cos(gamma): the optimum is
    # projective and gives 1 - H((1 + sin gamma) / 2).
    info = estimate_accessible_info(two_state_ensemble(gamma))
    assert info.lo == pytest.approx(1.0 - binary_entropy((1.0 + np.sin(gamma)) / 2.0), abs=1e-9)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (2, 2), (2, 3)]), st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_two_state_optimum_matches_the_grid_oracle(seed, dims, p0):
    # Unequal priors and complex frames: the optimum over one angle is the
    # oracle's best projective measurement, and never below the pretty-good
    # measurement, which is one of the angles. At equal priors the two are one
    # measurement, whose information the estimate measures from the densities
    # and pgm_information from the Gram matrix: those two roundings differ by
    # up to 1.8e-15 (3000 seeded pairs), so the margin is 1e-14.
    rng = np.random.default_rng(seed)
    d = BipartiteDims(*dims)
    e = make_ensemble([(p, validate_state(d, random_pure_vector(rng, d.joint))) for p in (p0, 1.0 - p0)])
    info = estimate_accessible_info(e)
    assert abs(info.lo - grid_best_projective(e)) <= 1e-10
    assert info.lo >= pgm_information(e) - 1e-14


@pytest.mark.parametrize("p0,gain", [(0.6, 6.8e-4), (0.8, 5.26e-3), (0.95, 6.52e-3)])
def test_two_state_optimum_beats_the_pretty_good_measurement_at_unequal_priors(p0, gain):
    # The README pair with unequal priors: the pretty-good measurement is
    # optimal only at equal priors, and the optimum lies above it.
    dims = BipartiteDims(2, 2)
    vectors = ([1, 0, 0, 0], [np.cos(np.pi / 8), 0, 0, np.sin(np.pi / 8)])
    e = make_ensemble(zip((p0, 1.0 - p0), (validate_state(dims, v) for v in vectors)))
    assert estimate_accessible_info(e).lo - pgm_information(e) == pytest.approx(gain, rel=1e-2)


def _phased_pair(overlap_gap: float, probs=(0.5, 0.5), tol=DEFAULT_TOLERANCES):
    """Two pure states on 2x2 in a seeded complex frame, the second with a
    phase, with |<psi_0|psi_1>|^2 = 1 - overlap_gap."""
    rng = np.random.default_rng(30)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    psi1 = np.exp(0.7j) * (np.sqrt(1.0 - overlap_gap) * q[:, 0] + np.sqrt(overlap_gap) * q[:, 1])
    return make_ensemble(zip(probs, (validate_state(D22, x, tol) for x in (q[:, 0], psi1))), tol=tol)


TWO_STATE_EDGES = {
    "identical": (lambda: _identical_bell(), True),
    "identical_up_to_phase": (lambda: _phased_pair(0.0), True),
    "overlap_1_minus_1e-15": (lambda: _phased_pair(1e-15), False),
    "zero_probability_member": (lambda: _phased_pair(0.3, (1.0, 0.0)), True),
    "strict_near_orthogonal": (lambda: _strict_near_orthogonal(), False),
}


@pytest.mark.parametrize("name", TWO_STATE_EDGES)
def test_two_state_edge_cases_give_a_valid_povm(name):
    # psi_1's residual off psi_0 is orthogonalized twice. Normalized after one
    # projection, it points along psi_0 on identical members, and at overlap
    # 1 - 1e-15 it is 4.5e-9 off orthogonal, which sends I - |w><w| to
    # eigenvalues near -4e-9, below the clamp. Members that carry no
    # information get lo == hi == 0.
    import entcharge.accessible as accessible

    build, zero = TWO_STATE_EDGES[name]
    e = build()
    make_povm(e.dims, accessible._pair_elements(e), e.tol)
    info = estimate_accessible_info(e)
    assert 0.0 <= info.lo <= info.hi == min(shannon_entropy(e.probs), e.chi)
    if zero:
        assert info.lo == info.hi == 0.0


def test_two_state_results_ignore_the_optimizer_knobs(monkeypatch):
    # No search runs, so restarts, seed and max_iters change no bit, and the
    # pair makes no _lockstep_ascent call.
    e = two_state_ensemble(np.pi / 8)
    blocks = _count_blocks(monkeypatch)
    configs = [OptimizerConfig(), OptimizerConfig(restarts=1, max_iters=1), OptimizerConfig(restarts=5, seed=9)]
    results = {(info.lo.hex(), info.hi.hex(), info.note) for info in (estimate_accessible_info(e, cfg) for cfg in configs)}
    assert len(results) == 1
    assert blocks == []


def test_estimate_trine_reaches_closed_form():
    # The optimal trine measurement excludes one state per outcome: log2 3 - 1.
    angles = 2 * np.pi * np.arange(3) / 3
    e = make_ensemble([(1 / 3, validate_state(D12, [np.cos(a), np.sin(a)])) for a in angles])
    info = estimate_accessible_info(e)
    assert info.lo == pytest.approx(np.log2(3) - 1.0, abs=1e-9)
    assert info.hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dA,dB,members", [(1, 2, 3), (1, 3, 3), (2, 2, 3)])
def test_estimate_never_below_the_square_root_measurement(dA, dB, members, seed):
    # Restart 0 starts at the square-root measurement and keeps only rising
    # steps, so the search's lower edge never falls below pgm_information.
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((members, dA * dB)) + 1j * rng.standard_normal((members, dA * dB))
    v = v / np.linalg.norm(v, axis=1)[:, None]
    probs = rng.dirichlet(np.ones(members))
    dims = BipartiteDims(dA, dB)
    e = make_ensemble([(p, validate_state(dims, x)) for p, x in zip(probs, v)])
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=40, seed=seed))
    assert info.lo >= pgm_information(e) - ROUNDING_SLACK
    assert pgm_information(e) == pytest.approx(pgm_oracle(e), abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (2, 2), (2, 3)]), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_estimate_never_below_the_pretty_good_edge_bit_for_bit(seed, dims, members):
    # Default mode's lower edge of a pure ensemble is pgm_information; estimate
    # mode's is never below it, not even by rounding, unless the cap clips
    # both. Pairs are equiprobable, where the pretty-good measurement is
    # Levitin's optimum and measuring it again rounded up to 1.8e-15 bits
    # lower.
    rng = np.random.default_rng(seed)
    d = BipartiteDims(*dims)
    probs = [0.5, 0.5] if members == 2 else rng.dirichlet(np.ones(members))
    e = make_ensemble(zip(probs, (validate_state(d, random_pure_vector(rng, d.joint)) for _ in range(members))))
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=30, seed=seed % 97))
    assert info.lo >= min(pgm_information(e), info.hi)


@pytest.mark.parametrize("gamma", [1e-3, 0.2, np.pi / 8, 0.7, np.pi / 2 - 1e-3])
@pytest.mark.parametrize("phase", [0.0, 1.1])
def test_pgm_information_of_an_equiprobable_pair_is_the_closed_form(gamma, phase):
    # For two equiprobable pure states the square-root measurement is the
    # optimal (Helstrom) one: 1 - h((1 - sqrt(1 - |<psi_0|psi_1>|^2)) / 2).
    s0 = validate_state(D22, [1, 0, 0, 0])
    s1 = validate_state(D22, [np.cos(gamma), 0, 0, np.exp(1j * phase) * np.sin(gamma)])
    e = make_ensemble([(0.5, s0), (0.5, s1)])
    overlap = abs(np.vdot(s0.vector, s1.vector)) ** 2
    closed_form = 1.0 - binary_entropy((1.0 - np.sqrt(1.0 - overlap)) / 2.0)
    assert pgm_information(e) == pytest.approx(closed_form, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_pgm_information_is_h_x_on_orthogonal_ensembles(seed):
    rng = np.random.default_rng([seed, 26])
    cases = [generalized_bell_basis(d, rng.dirichlet(np.ones(d * d))) for d in range(2, 9)]
    cases += [random_orthogonal_pure_ensemble(rng, d) for d in (2, 3, 4)]
    for e in cases:
        assert pgm_information(e) == pytest.approx(shannon_entropy(e.probs, e.tol), abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 2), (2, 2), (2, 3)]), st.integers(2, 8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_pgm_information_matches_the_dense_oracle(seed, dims, members, zero_member):
    # Up to 8 members on at most 6 dimensions: linearly dependent sets, whose
    # average state is singular only when members < n, are included.
    rng = np.random.default_rng(seed)
    d = BipartiteDims(*dims)
    probs = rng.dirichlet(np.ones(members))
    if zero_member:
        probs[0] = 0.0
        probs /= probs.sum()
    e = make_ensemble(zip(probs, (validate_state(d, random_pure_vector(rng, d.joint)) for _ in range(members))))
    assert pgm_information(e) == pytest.approx(pgm_oracle(e), abs=1e-10)
    assert 0.0 <= pgm_information(e) <= min(shannon_entropy(e.probs), e.s_ab) + ROUNDING_SLACK


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2, 3), (2, 3, 4), (3, 2, 5)]))
@settings(max_examples=20, deadline=None)
def test_pgm_information_is_invariant_under_local_unitaries_and_party_swap(seed, shape):
    rng = np.random.default_rng(seed)
    dA, dB, members = shape
    d = BipartiteDims(dA, dB)
    e = make_ensemble(zip(rng.dirichlet(np.ones(members)), (validate_state(d, random_pure_vector(rng, dA * dB)) for _ in range(members))))
    for image in (rotate_locally(e, rng), swap_parties(e)):
        assert pgm_information(image) == pytest.approx(pgm_information(e), abs=1e-12)


def _count_eigh(monkeypatch) -> list:
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_three_member_search_makes_few_eigendecompositions(monkeypatch):
    # One renormalization (one eigh) per trial step of the whole POVM, after
    # one for chi (the weighted Gram spectrum), two for the square-root
    # measurement and one for the start: restart 0 of this 2x2 three-member
    # case still rises at its 30th step. Probing each of the 96 real factor
    # entries in four directions with one eigh per probe, as a coordinate-wise
    # search does, takes 384 calls per step here.
    calls = _count_eigh(monkeypatch)
    estimate_accessible_info(_seeded_pure(D22, 3, 6), OptimizerConfig(restarts=1, max_iters=30))
    assert len(calls) == 4 + 30


def test_estimate_raises_when_lower_edge_exceeds_the_holevo_cap(monkeypatch):
    import re

    import entcharge.accessible as accessible

    e = two_state_ensemble(np.pi / 8)
    cfg = OptimizerConfig(restarts=1, max_iters=5)
    cap = estimate_accessible_info(e, cfg).hi
    monkeypatch.setattr(accessible, "mutual_information_of_measurement", lambda e, m: cap + 1e-6)
    with pytest.raises(ValidationError, match=f"{re.escape(repr(cap + 1e-6))}.*{re.escape(repr(cap))}"):
        estimate_accessible_info(e, cfg)
    # an excess within the interval tolerance is rounding and is clipped
    monkeypatch.setattr(accessible, "mutual_information_of_measurement", lambda e, m: cap + 1e-10)
    assert estimate_accessible_info(e, cfg).lo == cap


def test_estimate_deterministic_for_fixed_seed():
    # The trine's searches from seeds 11 and 12 end apart, so the seed is read.
    e = _trine()
    cfg = OptimizerConfig(restarts=3, max_iters=120, seed=11)
    a = estimate_accessible_info(e, cfg)
    b = estimate_accessible_info(e, cfg)
    assert a.lo == b.lo and a.hi == b.hi
    other = estimate_accessible_info(e, OptimizerConfig(restarts=3, max_iters=120, seed=12))
    assert other.lo != a.lo
    assert other.lo <= a.hi + 1e-9  # different seed still certified


def test_delta_epsilon_orthogonal_pure_is_zero():
    # Delta = S(rho_AB) - I_Global vanishes at either edge of the estimate:
    # the general bound is the average member entropy less I(A;B).
    e = bell_basis(equal_probs(4))
    info = estimate_accessible_info(e)
    for edge in (info.lo, info.hi):
        bound = lower_bound_general(e, InfoInterval(edge, edge))
        assert bound == pytest.approx(e.avg_member_entropy - e.mutual_information, abs=1e-9)
    # oracle: S(sum p |psi><psi|) = H(p) for orthogonal pure states
    from entcharge import average_state

    assert entropy_oracle(average_state(e)) == pytest.approx(shannon_entropy(equal_probs(4)), abs=1e-9)


def test_delta_epsilon_identical_pure_states_zero():
    s = validate_state(D12, [1, 0])
    e = make_ensemble([(0.5, s), (0.5, s)])
    assert lower_bound_general(e, InfoInterval(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert e.s_ab == pytest.approx(0.0, abs=1e-12)


def test_delta_epsilon_orthogonal_mixed_degenerate_nonzero():
    # No bound reads Delta of a mixed ensemble: the general bound needs pure
    # members. Its accessible information is still an attained value, the
    # search's, which reaches H(X) = chi = 1 on these orthogonal supports.
    d = validate_state(D22, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    o = validate_state(D22, np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex))
    e = make_ensemble([(0.5, d), (0.5, o)])
    with pytest.raises(PreconditionError, match="pure members"):
        lower_bound_general(e, InfoInterval(1.0, 1.0))
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2))
    assert e.s_ab == pytest.approx(2.0, abs=1e-12)
    assert info.hi == pytest.approx(1.0, abs=1e-12)
    assert info.lo == pytest.approx(1.0, abs=1e-9)
    assert info.note == ""


def test_lower_bound_general_reduces_to_pure_bound_when_orthogonal():
    rng = np.random.default_rng(5)
    e = random_orthogonal_pure_ensemble(rng, 2)
    info = estimate_accessible_info(e)
    assert lower_bound_general(e, info) == pytest.approx(lower_bound_pure(e), abs=1e-9)


def test_lower_bound_general_identical_bell_states():
    # Entropy-oracle confirmation: each member's reduced entropy is 1,
    # I(A;B) of the (pure) average Bell state is 2, I_Global = 0, Delta = 0,
    # so the bound is 1 - 2 - 0 = -1.
    bell = bell_basis(equal_probs(4)).states[0]
    e = make_ensemble([(0.5, bell), (0.5, bell)])
    from entcharge import average_state

    assert mutual_information_oracle(average_state(e), 2, 2) == pytest.approx(2.0, abs=1e-9)
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=40))
    assert lower_bound_general(e, info) == pytest.approx(-1.0, abs=1e-9)


def test_lower_bound_general_two_state_composed_oracles():
    # value recomposed from independent pieces: the grid-backed info interval
    # plus entropy evaluations on explicit matrices
    gamma = np.pi / 8
    e = two_state_ensemble(gamma)
    info = estimate_accessible_info(e)
    from entcharge import average_state

    avg = average_state(e)
    avg_member = sum(
        0.5 * entropy_oracle(partial_trace_loop(density_of(s), 1, 2, "B")) for s in e.states
    )
    mutual = mutual_information_oracle(avg, 1, 2)
    delta_hi = entropy_oracle(avg) - info.lo
    expected = avg_member - mutual - delta_hi
    assert lower_bound_general(e, info) == pytest.approx(expected, abs=1e-12)
    # dims 1x2 means no correlations at all: bound reduces to -Delta.hi
    assert mutual == pytest.approx(0.0, abs=1e-12)
    assert avg_member == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_general_requires_pure_members():
    d = validate_state(D22, np.eye(4) / 4)
    e = make_ensemble([(1.0, d)])
    with pytest.raises(PreconditionError, match="pure"):
        lower_bound_general(e, InfoInterval(0.0, 0.0))


def test_info_interval_rejects_inverted():
    with pytest.raises(ValidationError):
        InfoInterval(1.0, 0.0)


@pytest.mark.parametrize("edge", ["lo", "hi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_info_interval_rejects_non_finite_edges(edge, value):
    # analyze with a NaN lower edge would report the interval (nan, hi),
    # verdict indeterminate, which report_document cannot render.
    edges = {"lo": 0.0, "hi": 1.0, edge: value}
    with pytest.raises(ValidationError, match="must be finite"):
        InfoInterval(edges["lo"], edges["hi"])


def near_orthogonal_mixed_pair(eps: float, tol=DEFAULT_TOLERANCES):
    """rho_0 = |0><0| x I/2 and rho_1 = |psi><psi| x I/2 with |<0|psi>|^2 = eps,
    equiprobable: Tr(rho_0 rho_1) = eps / 2."""
    psi = np.array([np.sqrt(eps), np.sqrt(1.0 - eps)])
    members = [np.kron(np.outer(v, v.conj()), np.eye(2) / 2).astype(complex) for v in (np.array([1.0, 0.0]), psi)]
    return make_ensemble([(0.5, validate_state(D22, m, tol)) for m in members], tol=tol)


@pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, STRICT_TOLERANCES], ids=["default", "strict"])
@pytest.mark.parametrize("eps", [0.1e-9, 0.5e-9, 1.0e-9, 1.5e-9, 1.9e-9])
def test_near_orthogonal_mixed_pair_gets_an_attained_lower_edge(eps, tol):
    # The I/2 factor carries no information, so I_Global is the qubit pair's
    # Levitin optimum 1 - h((1 - sqrt(1 - eps)) / 2). The default profile
    # calls the pair orthogonal (Tr(rho_0 rho_1) <= 9.5e-10), which must not
    # put the lower edge at min(H(X), chi) above every measurement.
    e = near_orthogonal_mixed_pair(eps, tol)
    assert (e.witness is None) == (tol is DEFAULT_TOLERANCES)
    optimum = 1.0 - binary_entropy((1.0 - np.sqrt(1.0 - eps)) / 2.0)
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, seed=3))
    assert abs(info.lo - optimum) <= ROUNDING_SLACK
    assert info.lo <= info.hi


def test_estimate_final_povm_is_psd_on_ill_conditioned_search():
    # A 2x2 three-member ensemble whose best factor stack is ill-conditioned:
    # conjugating the summed stack left a POVM eigenvalue of -7.2e-12, below
    # the -1e-12 clamp, and the estimate raised ValidationError.
    rng = np.random.default_rng(6)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v = v / np.linalg.norm(v, axis=1)[:, None]
    e = make_ensemble([(1 / 3, validate_state(D22, x)) for x in v])
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=30))
    assert 0.0 < info.lo <= info.hi
    assert info.hi == pytest.approx(min(shannon_entropy(e.probs), holevo_oracle(e.probs, [density_of(s) for s in e.states])), abs=1e-12)


# -- pinned search outputs -------------------------------------------------------


def _seeded_pure(dims: BipartiteDims, members: int, seed: int):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((members, dims.joint)) + 1j * rng.standard_normal((members, dims.joint))
    v = v / np.linalg.norm(v, axis=1)[:, None]
    return make_ensemble(zip(rng.dirichlet(np.ones(members)), [validate_state(dims, x) for x in v]))


def _basis_and_plus(d: int, probs):
    """|0>, ..., |d-1> and |+> = (|0> + |1>) / sqrt 2 on 1 x d: real members
    whose joint tables hold exact zeros."""
    dims = BipartiteDims(1, d)
    vectors = list(np.eye(d)) + [np.r_[1.0, 1.0, np.zeros(d - 2)] / np.sqrt(2)]
    return make_ensemble(zip(probs, [validate_state(dims, v) for v in vectors]))


def _zero_member():
    """|0>, |+> and |1> on 1 x 2 with p = (0.6, 0.4, 0): the last member's row
    of every joint table is zero, so the 3-entry p(x) segment holds a zero."""
    vectors = [[1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2), [0.0, 1.0]]
    return make_ensemble(zip([0.6, 0.4, 0.0], [validate_state(D12, v) for v in vectors]))


def _mixed(dims: BipartiteDims, seed: int):
    from helpers import random_density, random_pure_vector

    rng = np.random.default_rng(seed)
    members = [validate_state(dims, random_pure_vector(rng, dims.joint)), validate_state(dims, random_density(rng, dims.joint))]
    return make_ensemble([(0.4, members[0]), (0.6, members[1])])


def _trine():
    angles = 2 * np.pi * np.arange(3) / 3
    return make_ensemble([(1 / 3, validate_state(D12, [np.cos(a), np.sin(a)])) for a in angles])


def _identical_bell():
    bell = bell_basis(equal_probs(4)).states[0]
    return make_ensemble([(0.5, bell), (0.5, bell)])


def _strict_near_orthogonal():
    from entcharge import STRICT_TOLERANCES

    return near_orthogonal_pair(STRICT_TOLERANCES)


PINNED_CASES = {
    "pair_pi8": (lambda: two_state_ensemble(np.pi / 8), {}),
    "trine": (_trine, {}),
    "pure3_2x2_capped": (lambda: _seeded_pure(D22, 3, 6), {"restarts": 2, "max_iters": 30}),
    "mixed_1x2": (lambda: _mixed(D12, 3), {"restarts": 3, "max_iters": 200}),
    "mixed_2x2": (lambda: _mixed(D22, 4), {"restarts": 4, "max_iters": 150, "seed": 2}),
    "pair_restarts1": (lambda: two_state_ensemble(0.3), {"restarts": 1}),
    "zero_table_1x3": (lambda: _basis_and_plus(3, equal_probs(4)), {"restarts": 3, "max_iters": 300, "seed": 1}),
    "zero_plus_1x2": (lambda: _basis_and_plus(2, [0.4, 0.3, 0.3]), {"restarts": 4, "max_iters": 200, "seed": 3}),
    "zero_member_1x2": (_zero_member, {"restarts": 3, "max_iters": 100, "seed": 4}),
    "pure4_1x3": (lambda: _seeded_pure(BipartiteDims(1, 3), 4, 5), {"restarts": 3, "max_iters": 100, "seed": 5}),
    "pure3_2x3": (lambda: _seeded_pure(BipartiteDims(2, 3), 3, 2), {"restarts": 2, "max_iters": 200, "seed": 2}),
    "identical_bell": (_identical_bell, {"restarts": 2, "max_iters": 40}),
    "strict_near_orthogonal": (_strict_near_orthogonal, {"restarts": 2}),
}

# Cases with two pure members take Levitin's optimum, not the search.
TWO_STATE_CASES = ("identical_bell", "pair_pi8", "pair_restarts1", "strict_near_orthogonal")
SEARCH_CASES = sorted(set(PINNED_CASES) - set(TWO_STATE_CASES))

# float.hex of lo and hi and the note of each case, captured on the serial
# restart loop; the search must reproduce every restart's trajectory exactly.
# The two-state cases' values are the optimum's: pair_pi8, pair_restarts1 and
# identical_bell kept the search's bits, and strict_near_orthogonal's lo rose
# by 8 ulps (from 0x1.fffffff8207c8p-1).
# hi is min(H(X), chi); the pure cases' chi is s_ab from the weighted Gram
# spectrum (or, on 1 x n, from rho_B), which moved their hi by a few ulps.
# The search cases' lo moved when restarts began to double their step while
# they rise; PINNED_UNIT_STEPS holds their values under unit steps.
PINNED = {
    "zero_plus_1x2": ("0x1.62c8b7180da44p-1", "0x1.da6ce8d8455a5p-1", ""),
    "identical_bell": ("0x0.0p+0", "0x0.0p+0", ""),
    "mixed_1x2": ("0x1.403f45b2114ecp-2", "0x1.60519913201efp-2", ""),
    "mixed_2x2": ("0x1.850adad7fb0e0p-2", "0x1.049c372cc1463p-1", "local search still rising at max_iters=150 on 1/4 restarts"),
    "pair_pi8": ("0x1.bbee220839a70p-4", "0x1.ddda59fabbce5p-3", ""),
    "pair_restarts1": ("0x1.05edbab77fcb0p-4", "0x1.3c167d81a32d8p-3", ""),
    "pure3_2x2_capped": ("0x1.53cc17d833aacp-1", "0x1.96b41bd99c44ep-1", "local search still rising at max_iters=30 on 2/2 restarts"),
    "pure3_2x3": ("0x1.f47bc31ac08e8p-1", "0x1.0b76ccd5915c8p+0", ""),
    "pure4_1x3": ("0x1.0efe54f4ea7f0p+0", "0x1.601f10e7a137ep+0", "local search still rising at max_iters=100 on 2/3 restarts"),
    "strict_near_orthogonal": ("0x1.fffffff8207d0p-1", "0x1.ffffffff615fcp-1", ""),
    "trine": ("0x1.2b803473f78fcp-1", "0x1.0000000000000p+0", ""),
    "zero_table_1x3": ("0x1.4fafec5482dfap+0", "0x1.8000000000000p+0", ""),
    "zero_member_1x2": ("0x1.8d7bc54aec238p-2", "0x1.2a628d0cf5c1cp-1", ""),
}

# lo and the capped count of each search case when every restart took unit
# steps and ended at its first one that did not rise: floors for the search.
PINNED_UNIT_STEPS = {
    "mixed_1x2": ("0x1.403f45b20ca54p-2", 0),
    "mixed_2x2": ("0x1.850adad7f4200p-2", 3),
    "pure3_2x2_capped": ("0x1.53cc16f39d674p-1", 2),
    "pure3_2x3": ("0x1.f47bc31ab8b0cp-1", 1),
    "pure4_1x3": ("0x1.0efe54f4e7f72p+0", 2),
    "trine": ("0x1.2b803473f6680p-1", 0),
    "zero_member_1x2": ("0x1.8d7bc54ae1a20p-2", 0),
    "zero_plus_1x2": ("0x1.62c8b7180d8c4p-1", 0),
    "zero_table_1x3": ("0x1.4fafec548162cp+0", 1),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_estimate_outputs_are_pinned(name):
    build, cfg = PINNED_CASES[name]
    info = estimate_accessible_info(build(), OptimizerConfig(**cfg))
    assert (info.lo.hex(), info.hi.hex(), info.note) == PINNED[name]


def test_a_pinned_case_holds_zeros_in_segments_shorter_than_8(monkeypatch):
    # _row_entropies sums a segment of fewer than 8 entries in its one pass
    # even when it holds a zero; zero_member_1x2 pins such rows, in both
    # 3-entry marginals, while the other zero cases hold theirs in 9- and
    # 16-entry joint segments.
    import entcharge.accessible as accessible

    zeros = {}
    original = accessible._row_entropies

    def counted(p, cuts):
        for c, (i, j) in enumerate(cuts):
            if j - i < 8:
                zeros[c] = zeros.get(c, 0) + int((p[:, i:j] <= 0.0).any(axis=1).sum())
        return original(p, cuts)

    monkeypatch.setattr(accessible, "_row_entropies", counted)
    build, cfg = PINNED_CASES["zero_member_1x2"]
    estimate_accessible_info(build(), OptimizerConfig(**cfg))
    assert zeros[0] > 0 and zeros[1] > 0


def _capped(info) -> int:
    found = re.search(r"on (\d+)/\d+ restarts", info.note)
    return int(found.group(1)) if found else 0


def _assert_matches_the_serial_reference(e, cfg):
    # Every lockstep block gives the serial reference's elements, values,
    # capped count and cap stop, bit for bit.
    import entcharge.accessible as accessible

    blocks = []
    lockstep = accessible._lockstep_ascent

    def checked(factors, rhos, probs, cfg, cap):
        got = lockstep(factors, rhos, probs, cfg, cap)
        want = serial_lockstep_ascent(factors, rhos, probs, cfg, cap)
        np.testing.assert_array_equal(got[0], want[0])
        assert [v.hex() for v in got[1]] == [v.hex() for v in want[1]]
        assert got[2:] == want[2:]
        blocks.append(len(factors))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accessible, "_lockstep_ascent", checked)
        estimate_accessible_info(e, cfg)
    assert blocks


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_lockstep_equals_the_serial_reference_on_pinned_cases(name):
    build, cfg = PINNED_CASES[name]
    _assert_matches_the_serial_reference(build(), OptimizerConfig(**cfg))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]),
    st.integers(2, 4),
    st.booleans(),
    st.booleans(),
    st.sampled_from([30, 100, 500]),
)
@settings(max_examples=25, deadline=None)
def test_lockstep_equals_the_serial_reference(seed, shape, members, mixed, zero_member, max_iters):
    dims = BipartiteDims(*shape)
    rng = np.random.default_rng(seed)
    states = [
        validate_state(dims, random_density(rng, dims.joint) if mixed and k % 2 else random_pure_vector(rng, dims.joint))
        for k in range(members)
    ]
    probs = rng.dirichlet(np.ones(members))
    if zero_member:
        probs = np.r_[probs[:-1] / probs[:-1].sum(), 0.0]
    e = make_ensemble(zip(probs, states))
    if e._all_pure and members == 2:
        return  # a pure pair takes Levitin's optimum, not the search
    _assert_matches_the_serial_reference(e, OptimizerConfig(restarts=2, max_iters=max_iters, seed=seed % 97))


@pytest.mark.parametrize("name", sorted(PINNED_UNIT_STEPS))
def test_step_growth_never_loses_to_unit_steps(name):
    build, cfg = PINNED_CASES[name]
    info = estimate_accessible_info(build(), OptimizerConfig(**cfg))
    lo, capped = PINNED_UNIT_STEPS[name]
    assert info.lo >= float.fromhex(lo)
    assert _capped(info) <= capped


def test_a_failed_grown_step_retries_at_step_1_and_rises_again(monkeypatch):
    # Restart 0 of pure3_2x2_capped rises at steps 1 to 8 and fails at 16:
    # its point stays, and the unit trial from it rises, so the step doubles
    # again instead of the restart ending. Every trial counts toward
    # max_iters, the failed one included.
    import entcharge.accessible as accessible

    calls = []
    original = accessible._ascent_direction

    def logged(p, probs, rhos, step):
        calls.append((p.copy(), step.tolist()))
        return original(p, probs, rhos, step)

    monkeypatch.setattr(accessible, "_ascent_direction", logged)
    build, _ = PINNED_CASES["pure3_2x2_capped"]
    info = estimate_accessible_info(build(), OptimizerConfig(restarts=1, max_iters=30))
    steps = [step for _, [step] in calls]
    assert steps[:7] == [1.0, 2.0, 4.0, 8.0, 16.0, 1.0, 2.0]
    np.testing.assert_array_equal(calls[5][0], calls[4][0])
    assert not np.array_equal(calls[6][0], calls[5][0])
    assert len(steps) == 30 and info.note.endswith("on 1/1 restarts")


def test_a_stationary_start_is_not_capped():
    # The trine's square-root measurement (restart 0) is stationary: its first
    # unit step does not rise, so the restart ends there instead of counting
    # as capped.
    cfg = OptimizerConfig(restarts=1, max_iters=5)
    assert estimate_accessible_info(_trine(), cfg).note == ""
    # Restarts that have not ended after max_iters trials are capped.
    build, cfg = PINNED_CASES["pure3_2x2_capped"]
    assert estimate_accessible_info(build(), OptimizerConfig(**cfg)).note.endswith("on 2/2 restarts")


def test_default_trine_search_runs_its_restarts_in_lockstep(monkeypatch):
    # One stacked eigh per iteration for all restarts: the count follows the
    # longest restart (36 calls here), not the sum over the 8 restarts (206)
    # that a serial restart loop takes, one eigh each.
    calls = _count_eigh(monkeypatch)
    estimate_accessible_info(_trine())
    assert 0 < len(calls) < 40


def _count_blocks(monkeypatch):
    import entcharge.accessible as accessible

    blocks = []
    original = accessible._lockstep_ascent

    def counted(factors, *args):
        blocks.append(len(factors))
        return original(factors, *args)

    monkeypatch.setattr(accessible, "_lockstep_ascent", counted)
    return blocks


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_block_boundaries_never_change_the_estimate(name, monkeypatch):
    import entcharge.accessible as accessible

    build, cfg = PINNED_CASES[name]
    e, cfg = build(), OptimizerConfig(**cfg)
    blocks = _count_blocks(monkeypatch)
    whole = estimate_accessible_info(e, cfg)
    monkeypatch.setattr(accessible, "BLOCK_ENTRIES", 1)
    single = estimate_accessible_info(e, cfg)
    assert blocks == [cfg.restarts] + [1] * cfg.restarts
    assert (single.lo.hex(), single.hi.hex(), single.note) == (whole.lo.hex(), whole.hi.hex(), whole.note)


def test_benchmark_sized_searches_fit_one_block_and_large_ones_are_split(monkeypatch):
    blocks = _count_blocks(monkeypatch)
    estimate_accessible_info(_trine())
    estimate_accessible_info(_seeded_pure(D22, 3, 6), OptimizerConfig(restarts=2, max_iters=30))
    # 1x64 with 17 members: 17 x 64^2 entries per restart, above the block
    # budget, so each block holds the one restart it must.
    e = _seeded_pure(BipartiteDims(1, 64), 17, 0)
    estimate_accessible_info(e, OptimizerConfig(restarts=2, max_iters=1))
    assert blocks == [8, 2, 1, 1]


@pytest.mark.parametrize(
    "elements,error,message",
    [
        ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]), np.diag([0.0, -0.25])], ValidationError, "element 1 has negative eigenvalue -5.000000e-01"),
        ([np.diag([1.0, 1.5]), np.diag([0.0, -0.25]), np.diag([-0.5, 0.0])], ValidationError, "element 1 has negative eigenvalue -2.500000e-01"),
        ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])], ValidationError, "element 1"),
        ([np.diag([1.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([-0.5, 0.0])], ValidationError, "not Hermitian"),
        ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]), np.eye(4)], ValidationError, "element 1 has negative"),
        ([np.diag([1.5, 1.0]), np.eye(4), np.diag([-0.5, 0.0])], ShapeError, "element 1 has dim 4"),
        ([np.eye(4), np.diag([-0.5, 0.0])], ShapeError, "element 0 has dim 4"),
    ],
)
def test_make_povm_names_the_first_bad_element(elements, error, message):
    with pytest.raises(error, match=message):
        make_povm(D12, elements)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (5, 5), (1, 9)])
def test_stacked_information_has_the_bits_of_the_serial_sums(shape):
    # A joint table with exact zeros must give the bits of _entropy_bits' sum
    # over its compressed rows; a masked pairwise sum of 8 or more entries
    # groups the terms otherwise.
    from entcharge.accessible import _information
    from entcharge.entropy import _entropy_bits

    rng = np.random.default_rng(sum(shape))
    tables = rng.dirichlet(np.ones(shape[0] * shape[1]), size=40)
    tables[rng.random(tables.shape) < 0.3] = 0.0
    tables = (tables / tables.sum(axis=1, keepdims=True)).reshape(-1, *shape)
    serial = [_entropy_bits(t.sum(axis=1)) + _entropy_bits(t.sum(axis=0)) - _entropy_bits(t) for t in tables]
    assert [v.hex() for v in _information(tables)[0]] == [v.hex() for v in serial]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_stops_at_the_cap_on_orthogonal_mixed_members(seed, monkeypatch):
    # Three exactly orthogonal mixed members on 3x3, each of rank 3: restart 0,
    # the square-root measurement, already lies within RISE_TOL of min(H(X),
    # chi), so the search ends there. Before, it ran its restarts on, up to
    # max_iters, and noted one as still rising.
    from entcharge.accessible import RISE_TOL

    rng = np.random.default_rng([37, seed])
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    dims = BipartiteDims(3, 3)
    members = []
    for k, p in enumerate(rng.dirichlet(np.ones(3))):
        block = u[:, 3 * k:3 * k + 3]
        rho = (block * rng.dirichlet(np.ones(3))) @ block.conj().T
        members.append((p, validate_state(dims, (rho + rho.conj().T) / 2)))
    e = make_ensemble(members)
    assert e.witness is None
    calls = _count_eigh(monkeypatch)
    info = estimate_accessible_info(e, OptimizerConfig(restarts=2, seed=3))
    assert info.note == ""
    assert info.hi - info.lo <= RISE_TOL
    # The square-root measurement's two eigh calls and its renormalization's,
    # and the weighted Gram matrix's of the members' 9 rows, which S(rho_AB)
    # in the cap reads.
    assert len(calls) == 4


@pytest.mark.parametrize("entry", [6, 16])
def test_three_member_ensembles_whose_povm_once_failed_validation_estimate(entry):
    # Entries 6 and 16 of the benchmark's table of equal-prior 2x2 ensembles
    # of three Gaussian pure states, rebuilt from their seed. perfbench's
    # README lists them as a known defect: the search built a POVM element
    # with an eigenvalue of -7.2e-12, below -eigenvalue_clamp, and make_povm
    # raised. Both estimate, at a short search and at the default config,
    # with lo above the pretty-good measurement's information (by 3.7e-4 and
    # 1.6e-5 bits).
    rng = np.random.default_rng(entry)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    e = make_ensemble([(1 / 3, validate_state(D22, x)) for x in v])
    for cfg in (OptimizerConfig(restarts=2, max_iters=30), OptimizerConfig()):
        info = estimate_accessible_info(e, cfg)
        assert info.lo >= max(pgm_information(e), pgm_oracle(e)), cfg
        assert info.lo <= info.hi
