import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import (
    BipartiteDims,
    ValidationError,
    binary_entropy,
    generalized_bell_basis,
    make_ensemble,
    rotated_basis,
    shannon_entropy,
    upper_bound_merging,
    validate_state,
    von_neumann_entropy,
)
from helpers import bell_vectors, entanglement_oracle, holevo_oracle, random_density

D22 = BipartiteDims(2, 2)


def test_shannon_examples():
    assert shannon_entropy([1, 0, 0, 0]) == 0.0
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    # by-hand summation: 1/2*1 + 1/4*2 + 2*(1/8*3) = 1.75
    assert shannon_entropy([0.5, 0.25, 0.125, 0.125]) == pytest.approx(1.75, abs=1e-12)


def test_shannon_validation():
    with pytest.raises(ValidationError, match="negative"):
        shannon_entropy([0.5, 0.6, -0.1])
    with pytest.raises(ValidationError, match="trace_tol"):
        shannon_entropy([0.5, 0.4])


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.0) == 0.0
    c2 = np.cos(np.pi / 8) ** 2
    assert binary_entropy(c2) == shannon_entropy([c2, 1 - c2])
    # the trigonometric pair differs from (x, 1-x) only in the last ulp
    assert binary_entropy(c2) == pytest.approx(shannon_entropy([c2, np.sin(np.pi / 8) ** 2]), abs=1e-12)
    with pytest.raises(ValidationError):
        binary_entropy(1.5)


def test_von_neumann_examples():
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.25, 0.125, 0.125])) == pytest.approx(1.75, abs=1e-12)


def test_von_neumann_rejects_invalid_density():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([0.7, 0.5]))
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.2, -0.2]))


def conditional_entropy_ab(rho) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B), read off the merging bound A->B of the
    one-member ensemble {rho}."""
    return upper_bound_merging(make_ensemble([(1.0, validate_state(D22, rho))]))[0]


def test_conditional_entropy_examples():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(v, v.conj())
    assert conditional_entropy_ab(bell) == pytest.approx(-1.0, abs=1e-9)
    assert conditional_entropy_ab(np.eye(4) / 4) == pytest.approx(1.0, abs=1e-9)
    mixture = sum(np.outer(w, w.conj()) for w in bell_vectors()) / 4
    assert conditional_entropy_ab(mixture) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_conditional_entropy_definition_consistency(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    from entcharge import partial_trace

    s_b = von_neumann_entropy(partial_trace(rho, 2, 2, "A"))
    lhs = conditional_entropy_ab(rho) + s_b
    assert lhs == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


def mutual_information(rho, dims) -> float:
    """I(A;B) of rho through its one path, the attribute of a one-member ensemble."""
    return make_ensemble([(1.0, validate_state(dims, rho))]).mutual_information


def test_quantum_mutual_information_examples():
    rng = np.random.default_rng(7)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert mutual_information(np.kron(a, b), D22) == pytest.approx(0.0, abs=1e-9)
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert mutual_information(np.outer(v, v.conj()), D22) == pytest.approx(2.0, abs=1e-9)
    # matrix-average oracle: equal Bell mixture is I/4
    mixture = sum(np.outer(w, w.conj()) for w in bell_vectors()) / 4
    assert np.allclose(mixture, np.eye(4) / 4, atol=1e-12)
    assert mutual_information(mixture, D22) == pytest.approx(0.0, abs=1e-9)


def test_quantum_mutual_information_nonnegative_on_random_states():
    rng = np.random.default_rng(20260811)
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3)):
        for _ in range(1000):
            rho = random_density(rng, dims.joint)
            assert mutual_information(rho, dims) >= -1e-9


def _density_ensemble(probs, mats):
    """An ensemble of density members on 1 x d, whose joint ensemble is the
    given one (and so is its B-side reduced ensemble)."""
    d = len(mats[0])
    return make_ensemble(zip(probs, [validate_state(BipartiteDims(1, d), m) for m in mats]))


def test_holevo_examples():
    rho = random_density(np.random.default_rng(3), 2)
    e = _density_ensemble([0.3, 0.7], [rho, rho])
    assert e.chi == 0.0  # exactly, identical members
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    e = _density_ensemble([0.5, 0.5], [zero, one])
    assert e.chi == pytest.approx(1.0, abs=1e-12)


def test_holevo_rotated_family_reduction_at_pi_over_6():
    # Alice-side reduced states of the equal-prob rotated family: explicit
    # 2x2 oracle, diag(c2, s2) twice and diag(s2, c2) twice, average I/2.
    theta = np.pi / 6
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    reduced = [np.diag([c2, s2]), np.diag([c2, s2]), np.diag([s2, c2]), np.diag([s2, c2])]
    avg = sum(0.25 * r for r in reduced)
    assert np.allclose(avg, np.eye(2) / 2, atol=1e-12)
    e = rotated_basis(theta, [0.25] * 4)
    assert np.allclose(e.reduced_a, reduced, atol=1e-12)
    assert e.chi_a == pytest.approx(1.0 - binary_entropy(0.75), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_holevo_capped_by_shannon(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(k))
    states = [random_density(rng, 3) for _ in range(k)]
    e = _density_ensemble(probs, states)
    assert -1e-9 <= e.chi <= shannon_entropy(probs) + 1e-9
    assert e.chi == pytest.approx(holevo_oracle(e.probs, states), abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", range(2, 9))
def test_holevo_chi_is_never_negative_on_generalized_bell_bases(d, seed):
    # The reduced members of a maximally entangled basis are all I/d to
    # rounding but not bitwise equal, so S(rho_A) - sum p S(rho_x^A) can
    # round below 0 unless it is clamped.
    e = generalized_bell_basis(d, np.random.default_rng([seed, d]).dirichlet(np.ones(d * d)))
    assert min(e.chi, e.chi_a, e.chi_b) >= 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_von_neumann_additivity(seed):
    rng = np.random.default_rng(seed)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    total = von_neumann_entropy(np.kron(a, b))
    assert total == pytest.approx(von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-9)


def test_entanglement_entropy_examples():
    # A pure member's entanglement is the entropy of its reduced state: the
    # library's member entropy against the Schmidt oracle and closed forms.
    def entanglement(s) -> float:
        return float(make_ensemble([(1.0, s)]).entropies_a[0])

    theta = 0.37
    s = validate_state(D22, np.array([np.cos(theta), 0, 0, -1j * np.sin(theta)]))
    assert entanglement(s) == pytest.approx(binary_entropy(np.cos(theta) ** 2), abs=1e-9)
    assert entanglement(s) == pytest.approx(entanglement_oracle(s), abs=1e-12)
    product = validate_state(D22, [0, 1, 0, 0])
    assert entanglement(product) == entanglement_oracle(product) == 0.0
    d33 = BipartiteDims(3, 3)
    v = np.zeros(9, dtype=complex)
    v[[0, 4, 8]] = 1 / np.sqrt(3)
    assert entanglement(validate_state(d33, v)) == pytest.approx(np.log2(3), abs=1e-9)
    assert entanglement_oracle(validate_state(d33, v)) == pytest.approx(np.log2(3), abs=1e-9)


def test_row_entropies_have_the_bits_of_entropy_bits():
    # One pass over the rows must give each row segment _entropy_bits' value
    # and sign bit: segments with zeros, all-zero ones and [1.0] included.
    from entcharge.entropy import _entropy_bits, _row_entropies

    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 7, 8, 9, 16, 31, 64):
        p = rng.dirichlet(np.ones(n), size=30)
        p[rng.random(p.shape) < 0.3] = 0.0
        p[0] = 0.0
        p[1] = np.eye(n)[0]
        p[2, 0] = -1e-13
        p[3] = 1.0
        cuts = ((0, n), (0, n // 2), (n // 2, n), (n - 1, n))
        got = _row_entropies(p, cuts)
        assert got.shape == (len(cuts), len(p))
        for c, (i, j) in enumerate(cuts):
            assert [x.hex() for x in got[c]] == [_entropy_bits(row[i:j]).hex() for row in p], (n, i, j)
