"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths:
partial traces are index-loop summations and eigenvalues come from
characteristic-polynomial root finding or straight from numpy.
"""

from __future__ import annotations

import numpy as np

from entcharge import DEFAULT_TOLERANCES, BipartiteDims, make_ensemble, validate_state


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-sampled full-rank density matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_orthogonal_pure_ensemble(rng: np.random.Generator, d: int, count: int | None = None):
    """Random mutually orthogonal pure ensemble on d x d with random probs."""
    dims = BipartiteDims(d, d)
    n = dims.joint
    if count is None:
        count = int(rng.integers(2, n + 1))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    states = [validate_state(dims, q[:, k]) for k in range(count)]
    probs = rng.dirichlet(np.ones(count))
    return make_ensemble(zip(probs, states))


def near_orthogonal_pair(tol=DEFAULT_TOLERANCES):
    """Two equal-prob pure states with Tr(rho_0 rho_1) = 1e-10, built under
    tol: orthogonal under the default orthogonality_tol, not the strict one."""
    dims = BipartiteDims(2, 2)
    s0 = validate_state(dims, [1, 0, 0, 0])
    s1 = validate_state(dims, [1e-5, np.sqrt(1 - 1e-10), 0, 0])
    return make_ensemble([(0.5, s0), (0.5, s1)], tol=tol)


def partial_trace_loop(m: np.ndarray, dA: int, dB: int, traced_party: str) -> np.ndarray:
    """Direct double-loop index summation, independent of the library path."""
    if traced_party == "B":
        out = np.zeros((dA, dA), dtype=complex)
        for i in range(dA):
            for j in range(dA):
                for k in range(dB):
                    out[i, j] += m[i * dB + k, j * dB + k]
        return out
    out = np.zeros((dB, dB), dtype=complex)
    for k in range(dB):
        for L in range(dB):
            for i in range(dA):
                out[k, L] += m[i * dB + k, i * dB + L]
    return out


def mutual_information_oracle(rho: np.ndarray, dA: int, dB: int) -> float:
    """I(A;B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits, from loop partial
    traces and numpy's eigvalsh."""

    def entropy(m):
        w = np.linalg.eigvalsh(m)
        w = w[w > 1e-12]
        return float(-(w * np.log2(w)).sum())

    s_a = entropy(partial_trace_loop(rho, dA, dB, "B"))
    s_b = entropy(partial_trace_loop(rho, dA, dB, "A"))
    return s_a + s_b - entropy(rho)


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier characteristic-polynomial coefficients
    and generic polynomial root finding. Accurate enough for dim <= 4."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros((n, n), dtype=complex)
    c = 1.0
    for k in range(1, n + 1):
        mk = a @ mk + c * np.eye(n)
        c = -np.trace(a @ mk).real / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-8
    return np.sort(roots.real)


# Hand-written Bell vectors in the fixed order Phi+, Phi-, Psi+, Psi-.
def bell_vectors() -> list[np.ndarray]:
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([s, 0, 0, s], dtype=complex),
        np.array([s, 0, 0, -s], dtype=complex),
        np.array([0, s, s, 0], dtype=complex),
        np.array([0, s, -s, 0], dtype=complex),
    ]
