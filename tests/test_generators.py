import numpy as np
import pytest

from entcharge import (
    ValidationError,
    analyze,
    bell_basis,
    binary_entropy,
    density_of,
    equal_probs,
    generalized_bell_basis,
    is_canonical_product_basis,
    pairwise_orthogonal,
    partial_trace,
    product_basis,
    rotated_basis,
)
from entcharge.generators import PRODUCT_BASIS_NOTE
from helpers import bell_vectors, entanglement_oracle


def test_bell_basis_fixed_order_and_flags():
    e = bell_basis(equal_probs(4))
    for got, want in zip(e.states, bell_vectors()):
        assert np.allclose(got.vector, want, atol=1e-15)
    flags = e.flags
    assert flags.all_pure and flags.mutually_orthogonal and flags.all_maximally_entangled


def test_bell_basis_probs_validation():
    with pytest.raises(ValidationError):
        bell_basis([0.5, 0.5])
    with pytest.raises(ValidationError):
        bell_basis([0.5, 0.5, 0.5, 0.5])


def test_bell_basis_any_probs_orthogonal():
    e = bell_basis([0.7, 0.1, 0.1, 0.1])
    ok, _ = pairwise_orthogonal(e.states)
    assert ok


def test_generalized_bell_d2_matches_bell_up_to_phase():
    g = generalized_bell_basis(2, equal_probs(4))
    b = bell_basis(equal_probs(4))
    # state-vector comparison oracle up to a global phase
    for gs, bs in zip(g.states, b.states):
        inner = np.vdot(gs.vector, bs.vector)
        assert abs(abs(inner) - 1.0) < 1e-12
    assert g.flags == b.flags


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generalized_bell_flags_and_reductions(d):
    e = generalized_bell_basis(d, equal_probs(d * d))
    flags = e.flags
    assert flags.all_pure and flags.mutually_orthogonal and flags.all_maximally_entangled
    target = np.eye(d) / d
    for s in e.states:
        for party in ("A", "B"):
            red = partial_trace(density_of(s), d, d, party)
            assert np.allclose(red, target, atol=1e-12)


def test_generalized_bell_d_range():
    with pytest.raises(ValidationError):
        generalized_bell_basis(1, [1.0])
    with pytest.raises(ValidationError):
        generalized_bell_basis(9, equal_probs(81))  # joint 81 > cap


def test_product_basis_flags_and_annotation():
    e = product_basis(3, 2, equal_probs(6))
    flags = e.flags
    assert flags.all_product and not flags.all_maximally_entangled
    assert is_canonical_product_basis(e)
    r = analyze(e)
    assert r.known_charge == 0.0
    assert r.known_charge_note == PRODUCT_BASIS_NOTE


def test_rotated_basis_theta_zero_is_product_basis():
    e = rotated_basis(0.0, equal_probs(4))
    p = product_basis(2, 2, equal_probs(4))
    for got, want in zip(e.states, p.states):
        assert np.allclose(got.vector, want.vector, atol=0)


def test_rotated_basis_theta_pi_over_4_maximally_entangled():
    e = rotated_basis(np.pi / 4, equal_probs(4))
    assert e.flags.all_maximally_entangled


def test_rotated_basis_entanglement_matches_binary_entropy():
    theta = np.pi / 6
    e = rotated_basis(theta, equal_probs(4))
    for s, h in zip(e.states, e.entropies_a, strict=True):
        assert entanglement_oracle(s) == pytest.approx(binary_entropy(0.75), abs=1e-9)
        assert h == pytest.approx(binary_entropy(0.75), abs=1e-9)


@pytest.mark.parametrize("theta", np.linspace(0, np.pi / 2, 9))
def test_rotated_basis_orthogonal_for_all_theta(theta):
    e = rotated_basis(theta, equal_probs(4))
    states = e.states
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.vdot(states[i].vector, states[j].vector)) < 1e-12


def test_rotated_basis_theta_range():
    with pytest.raises(ValidationError):
        rotated_basis(-0.1, equal_probs(4))
    with pytest.raises(ValidationError):
        rotated_basis(np.pi / 2 + 0.1, equal_probs(4))


def test_is_canonical_product_basis_negative_cases():
    assert not is_canonical_product_basis(bell_basis(equal_probs(4)))
    assert not is_canonical_product_basis(rotated_basis(0.3, equal_probs(4)))
    # phases and permutation do not matter
    e = rotated_basis(0.0, [0.1, 0.2, 0.3, 0.4])
    assert is_canonical_product_basis(e)
