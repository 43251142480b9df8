"""The per-call kernels of the ensemble fact path against their earlier
versions (helpers), bit for bit, under both tolerance profiles: the
orthogonality witness, the Frobenius flags, the spectrum entropies and
density_spectra's spectra and errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcharge import DEFAULT_TOLERANCES, STRICT_TOLERANCES, ValidationError
from entcharge.entropy import spectrum_entropies
from entcharge.linalg import density_spectra
from entcharge.states import _maximally_mixed, _nearly_pure, orthogonality_witness
from helpers import (
    density_spectra_two_adjoints,
    maximally_mixed_norm,
    nearly_pure_norm,
    random_density,
    spectrum_entropies_clamped,
    witness_triu,
)

PROFILES = {"default": DEFAULT_TOLERANCES, "strict": STRICT_TOLERANCES}
SEEDS = st.integers(0, 2**32 - 1)


def _ulps(x: float, k: int) -> float:
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


@pytest.mark.parametrize(
    "hits, expected",
    [
        ({}, None),
        ({(1, 0): 0.5, (2, 0): 0.5, (2, 1): 0.5}, None),
        ({(1, 3): 0.25, (1, 2): 0.5, (1, 0): 0.75, (2, 3): 1.0}, (1, 2, 0.5)),
        ({(0, 3): 0.5, (2, 1): 0.75, (0, 1): 0.25}, (0, 1, 0.25)),
    ],
    ids=["no-hit", "below-the-diagonal-only", "several-in-one-row", "first-row"],
)
def test_witness_takes_the_first_hit_above_the_diagonal(hits, expected):
    overlaps = np.eye(4)
    for ij, value in hits.items():
        overlaps[ij] = value
    assert orthogonality_witness(overlaps) == witness_triu(overlaps) == expected


def test_witness_of_one_member_is_none():
    one = np.ones((1, 1))
    assert orthogonality_witness(one) is witness_triu(one) is None


@given(st.sampled_from(sorted(PROFILES)), st.integers(1, 7), st.booleans(), st.floats(0.0, 1.0), SEEDS)
@settings(max_examples=200, deadline=None)
def test_witness_has_the_bits_of_the_triu_oracle(profile, m, symmetric, density, seed):
    # Entries on both sides of orthogonality_tol, one ulp off it included,
    # in symmetric matrices and in ones with hits on one side only.
    tol = PROFILES[profile]
    t = tol.orthogonality_tol
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, _ulps(t, -1), t, _ulps(t, 1), 2 * t, 0.5, 1.0])
    overlaps = np.where(rng.random((m, m)) < density, rng.choice(pool, (m, m)), 0.0)
    if symmetric:
        overlaps = np.triu(overlaps) + np.triu(overlaps, 1).T
    got, want = orthogonality_witness(overlaps, tol), witness_triu(overlaps, tol)
    assert got == want
    if got is not None:
        assert got[2].hex() == want[2].hex()


def test_the_frobenius_expression_is_np_linalg_norms():
    # The flags evaluate the expression np.linalg.norm evaluates for the
    # Frobenius norm over two axes; a numpy that changes it fails here.
    x = np.random.default_rng(5).standard_normal((6, 3, 3, 2)).view(complex)[..., 0]
    ours = np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))
    assert [v.hex() for v in ours] == [v.hex() for v in np.linalg.norm(x, axis=(-2, -1))]


@given(st.sampled_from(sorted(PROFILES)), st.integers(2, 4), st.integers(1, 5), SEEDS)
@settings(max_examples=200, deadline=None)
def test_frobenius_flags_have_the_oracles_bits_at_their_thresholds(profile, d, m, seed):
    # Each matrix sits within a few ulps of its flag's threshold: I/d plus a
    # direction of norm orthogonality_tol for _maximally_mixed, and a matrix
    # of norm (1 - orthogonality_tol)^2 for _nearly_pure. The direction is
    # zero on the diagonal, so subtracting I/d again gives it back exactly.
    tol = PROFILES[profile]
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))) * (1 - np.eye(d))
    x /= np.linalg.norm(x, axis=(-2, -1))[:, None, None]
    shift = np.array([_ulps(1.0, int(k)) for k in rng.integers(-3, 4, m)])[:, None, None]
    mixed = np.eye(d) / d + shift * tol.orthogonality_tol * x
    pure = shift * (1.0 - tol.orthogonality_tol) ** 2 * x
    assert np.array_equal(_maximally_mixed(mixed, tol), maximally_mixed_norm(mixed, tol))
    assert np.array_equal(_nearly_pure(pure, tol), nearly_pure_norm(pure, tol))
    assert np.array_equal(_nearly_pure(mixed, tol), nearly_pure_norm(mixed, tol))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_frobenius_flags_hold_at_exactly_their_thresholds(profile):
    # One off-diagonal entry of the threshold's value: sqrt of its rounded
    # square gives it back, so each norm is exactly at its threshold.
    tol = PROFILES[profile]
    for d in (2, 3):
        mixed, pure = np.eye(d, dtype=complex) / d, np.zeros((d, d), dtype=complex)
        mixed[0, 1], pure[1, 0] = tol.orthogonality_tol, (1.0 - tol.orthogonality_tol) ** 2
        assert _maximally_mixed(mixed[None], tol)[0] and maximally_mixed_norm(mixed[None], tol)[0]
        assert _nearly_pure(pure[None], tol)[0] and nearly_pure_norm(pure[None], tol)[0]


def _spectrum_pool(tol, traced_dim: int) -> list[float]:
    """Entries at and around the clamp: +-clamp/2, +-clamp, one ulp off it,
    exact zeros, and negatives below -clamp but within the traced clamp."""
    c = tol.eigenvalue_clamp
    return [0.0, -0.0, c / 2, -c / 2, c, -c, _ulps(c, 1), _ulps(c, -1), -(traced_dim + 1) / 2 * c, -traced_dim * c]


@given(st.sampled_from(sorted(PROFILES)), st.sampled_from([2, 4, 8, 9]), st.integers(1, 4), st.sampled_from([1, 2, 3]), SEEDS)
@settings(max_examples=300, deadline=None)
def test_spectrum_entropies_have_the_bits_of_the_clamped_oracle(profile, n, rows, traced_dim, seed):
    # Rows of 8 and 9 entries that hold an entry at or below the clamp go
    # through _entropy_bits; shorter ones stay in the one-pass sum.
    tol = PROFILES[profile]
    rng = np.random.default_rng(seed)
    evals = rng.dirichlet(np.ones(n), size=rows)
    small = rng.random(evals.shape) < rng.random()
    evals[small] = rng.choice(_spectrum_pool(tol, traced_dim), int(small.sum()))
    got, want = spectrum_entropies(evals, tol), spectrum_entropies_clamped(evals, tol)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _faulty(rng, d: int, fault: str, traced_dim: int, tol, over: float = 1.5) -> np.ndarray:
    """A random d x d density matrix with one fault of over times the bound
    density_spectra checks it at: beyond it for over > 1."""
    m = random_density(rng, d)
    if fault == "hermitian":
        m[0, d - 1] += over * traced_dim * tol.hermiticity_tol
    elif fault == "negative":
        w, v = np.linalg.eigh(m)
        w[0] = -over * traced_dim * tol.eigenvalue_clamp
        w[1:] *= (1.0 - w[0]) / w[1:].sum()
        m = (v * w) @ v.conj().T
    elif fault == "trace":
        m *= 1.0 + over * tol.trace_tol
    return m


@given(
    st.sampled_from(sorted(PROFILES)),
    st.sampled_from([2, 3, 4]),
    st.lists(st.sampled_from(["none", "none", "hermitian", "negative", "trace"]), min_size=1, max_size=5),
    st.sampled_from([1, 2]),
    SEEDS,
)
@settings(max_examples=200, deadline=None)
def test_density_spectra_has_the_bits_and_first_errors_of_the_two_adjoint_oracle(profile, d, faults, traced_dim, seed):
    tol = PROFILES[profile]
    rng = np.random.default_rng(seed)
    # A fault within its bound (over = 0.5) leaves the matrix valid.
    stack = np.stack([_faulty(rng, d, f, traced_dim, tol, rng.choice([0.5, 1.5])) for f in faults])
    outcomes = []
    for check in (density_spectra, density_spectra_two_adjoints):
        try:
            outcomes.append([v.hex() for v in check(stack, tol, traced_dim).ravel()])
        except ValidationError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "faults, message",
    [
        (("trace", "hermitian"), "^trace .* deviates from 1"),
        (("negative", "trace"), "^negative eigenvalue"),
        (("hermitian", "negative"), "^matrix is not Hermitian"),
    ],
)
def test_density_spectra_raises_the_first_bad_matrixs_error(faults, message):
    # A valid matrix first, then two bad ones: the first bad one's error.
    rng = np.random.default_rng(11)
    tol = DEFAULT_TOLERANCES
    good = random_density(rng, 3)
    stack = np.stack([good] + [_faulty(np.random.default_rng(k), 3, f, 1, tol) for k, f in enumerate(faults)])
    for check in (density_spectra, density_spectra_two_adjoints):
        with pytest.raises(ValidationError, match=message):
            check(stack, tol)
