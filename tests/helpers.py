"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths:
partial traces are index-loop summations and eigenvalues come from
characteristic-polynomial root finding or straight from numpy.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from entcharge import (
    DEFAULT_TOLERANCES,
    BipartiteDims,
    PreconditionError,
    equal_probs,
    generalized_bell_basis,
    make_ensemble,
    reduced_ensemble,
    rotated_basis,
    validate_state,
)
from entcharge.accessible import MAX_STEP, RISE_TOL, _ascent_direction, _information, _joint_table, _povm_elements
from entcharge.ensembles import Ensemble
from entcharge.fileio import SCHEMA_VERSION, format_float


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-sampled full-rank density matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with the phases of R's
    diagonal moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def near_orthogonal_gbell(d: int, seed: int, tol=DEFAULT_TOLERANCES) -> Ensemble:
    """An equiprobable generalized Bell basis tilted to the edge of tol's
    orthogonality test: a valid ensemble that the pairwise test just accepts.

    Member (I x U_x)|Phi> becomes (I x U_x e^{i eps H_x})|Phi>, with H_x a
    seeded random Hermitian matrix, so every member stays exactly maximally
    entangled. eps is bisected to the largest value at which no pairwise
    overlap exceeds orthogonality_tol (about 2e-5 under the default
    profile). The m(m-1)/2 overlaps, each within the tolerance, add up to an
    S(rho_AB) deficit below H(X) that grows with d.
    """
    m = d * d
    dims = BipartiteDims(d, d)
    base = np.stack([s.vector.reshape(d, d) for s in generalized_bell_basis(d, equal_probs(m)).states])
    rng = np.random.default_rng([seed, d])
    g = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    w, v = np.linalg.eigh(g + g.conj().transpose(0, 2, 1))

    def tilted(eps: float) -> Ensemble:
        u = (v * np.exp(1j * eps * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        # (I x U) acts on the row-major amplitude matrix psi[i, j] as psi U^T.
        vectors = (base @ u.transpose(0, 2, 1)).reshape(m, m)
        states = [validate_state(dims, x, tol) for x in vectors]
        return make_ensemble(zip(equal_probs(m), states), label=f"nearorth-gbell-d{d}", tol=tol)

    lo, hi = 0.0, 1e-3
    assert tilted(hi).witness is not None
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tilted(mid).witness is None else (lo, mid)
    return tilted(lo)


def swap_parties(e: Ensemble) -> Ensemble:
    """The same ensemble with A and B exchanged: amplitudes psi[i, j] -> psi[j, i]."""
    dA, dB = e.dims.dA, e.dims.dB

    def swapped(s):
        if s.is_pure:
            return s.vector.reshape(dA, dB).T.reshape(-1)
        return s.matrix.reshape(dA, dB, dA, dB).transpose(1, 0, 3, 2).reshape(dA * dB, dA * dB)

    dims = BipartiteDims(dB, dA)
    return make_ensemble([(p, validate_state(dims, swapped(s), e.tol)) for p, s in e.members], tol=e.tol)


def rotate_locally(e: Ensemble, rng: np.random.Generator) -> Ensemble:
    """The same ensemble under a random local unitary U_A x U_B."""
    k = np.kron(random_unitary(rng, e.dims.dA), random_unitary(rng, e.dims.dB))
    data = [k @ s.vector if s.is_pure else k @ s.matrix @ k.conj().T for s in e.states]
    return make_ensemble(zip(e.probs, (validate_state(e.dims, x, e.tol) for x in data)), tol=e.tol)


# -- tolerance-edge adversaries -----------------------------------------------
# Each builds a valid ensemble (under the default profile) that sits at one
# tolerance edge, set by its first argument; the seed draws the rest.


def tilted_bell_basis(overlap: float, seed: int) -> Ensemble:
    """The Bell basis with Psi- tilted toward Phi+ until Tr(rho_Phi+ rho_Psi-)
    = overlap. The tilted member stays maximally entangled."""
    a = math.asin(math.sqrt(overlap))
    h = 2**-0.5
    phi_plus, phi_minus, psi_plus = [h, 0, 0, h], [h, 0, 0, -h], [0, h, h, 0]
    tilted = [math.sin(a) * h, math.cos(a) * h, -math.cos(a) * h, math.sin(a) * h]
    dims = BipartiteDims(2, 2)
    states = [validate_state(dims, v) for v in (phi_plus, phi_minus, psi_plus, tilted)]
    return make_ensemble(zip(_seeded_probs(seed, 4), states), label="tilted-bell")


def edge_probability_ensemble(p: float, seed: int) -> Ensemble:
    """Three seeded, non-orthogonal pure members on 2 x 3, the first with
    probability p."""
    rng = np.random.default_rng([seed, 3])
    dims = BipartiteDims(2, 3)
    states = [validate_state(dims, random_pure_vector(rng, 6)) for _ in range(3)]
    return make_ensemble(zip([p, *(1.0 - p) * _seeded_probs(seed, 2)], states), label="edge-probability")


def near_product_basis(gap: float, seed: int) -> Ensemble:
    """The rotated product basis whose members' largest Schmidt coefficient
    is 1 - gap."""
    return rotated_basis(math.acos(1.0 - gap), _seeded_probs(seed, 4))


def near_product_vector(rng: np.random.Generator, dA: int, dB: int, gap: float) -> np.ndarray:
    """A pure state on dA x dB whose largest Schmidt coefficient is 1 - gap,
    with the other coefficients and both local bases drawn at random."""
    k = min(dA, dB)
    coeffs = np.ones(1)
    if k > 1:
        tail = rng.random(k - 1) + 0.1
        # 1 - (1 - gap)^2 without the cancellation.
        coeffs = np.concatenate([[1.0 - gap], tail * np.sqrt(gap * (2.0 - gap)) / np.linalg.norm(tail)])
    u, v = random_unitary(rng, dA)[:, :k], random_unitary(rng, dB)[:, :k]
    return ((u * coeffs) @ v.T).ravel()


def near_maximally_mixed_gbell(d: int, distance: float, seed: int) -> Ensemble:
    """The generalized Bell basis with every member's Schmidt vector moved
    off uniform, so that both reduced states lie at Frobenius distance
    `distance` from I/d. Members with equal shift a stay orthogonal only up
    to overlaps of order distance^2."""
    rng = np.random.default_rng([seed, d])
    w = rng.standard_normal(d)
    w -= w.mean()
    schmidt = 1.0 / d + distance * w / np.linalg.norm(w)
    # (D x I) scales the amplitude rows psi[k, :] of the A index k.
    scale = np.sqrt(d * schmidt)[:, None]
    base = [s.vector.reshape(d, d) for s in generalized_bell_basis(d, equal_probs(d * d)).states]
    dims = BipartiteDims(d, d)
    states = [validate_state(dims, (scale * m).ravel()) for m in base]
    return make_ensemble(zip(_seeded_probs(seed, d * d), states), label="near-maximally-mixed")


def zero_probability_duplicates(p: float, seed: int) -> Ensemble:
    """The Bell basis plus a copy of two seeded members, each with
    probability p (0 included)."""
    rng = np.random.default_rng([seed, 5])
    bell = generalized_bell_basis(2, equal_probs(4)).states
    copies = [bell[k] for k in rng.choice(4, size=2, replace=False)]
    probs = [*(1.0 - 2 * p) * _seeded_probs(seed, 4), p, p]
    return make_ensemble(zip(probs, [*bell, *copies]), label="zero-probability-duplicates")


def _seeded_probs(seed: int, m: int) -> np.ndarray:
    return np.random.default_rng([seed, m]).dirichlet(np.ones(m))


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


def entropy_oracle(m: np.ndarray) -> float:
    """S(m) in bits from numpy's eigvalsh alone."""
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def mutual_information_oracle(rho: np.ndarray, dA: int, dB: int) -> float:
    """I(A;B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits, from loop partial
    traces and numpy's eigvalsh."""
    s_a = entropy_oracle(partial_trace_loop(rho, dA, dB, "B"))
    s_b = entropy_oracle(partial_trace_loop(rho, dA, dB, "A"))
    return s_a + s_b - entropy_oracle(rho)


def holevo_oracle(probs, mats) -> float:
    """chi = S(sum_X p_X rho_X) - sum_X p_X S(rho_X) in bits, from numpy's
    eigvalsh alone."""
    probs = np.asarray(probs, dtype=float)
    mats = np.asarray(mats)
    average = np.einsum("x,xij->ij", probs, mats)
    return entropy_oracle(average) - float(sum(p * entropy_oracle(m) for p, m in zip(probs, mats)))


def schmidt_oracle(s) -> np.ndarray:
    """Descending Schmidt coefficients of a pure state, min(dA, dB) values,
    from numpy's SVD of its amplitude matrix alone."""
    return np.linalg.svd(s.vector.reshape(s.dims.dA, s.dims.dB), compute_uv=False)


def product_oracle(s, tol=DEFAULT_TOLERANCES) -> bool:
    """Whether a pure state is product: its largest Schmidt coefficient is
    within orthogonality_tol of 1."""
    return bool(schmidt_oracle(s)[0] >= 1.0 - tol.orthogonality_tol)


def entanglement_oracle(s) -> float:
    """Entropy of entanglement of a pure state in bits: H of its squared
    Schmidt coefficients, with 0 log 0 = 0."""
    w = schmidt_oracle(s) ** 2
    w = w[w > 1e-12]
    return max(0.0, float(-(w * np.log2(w)).sum()))


def maximally_entangled_oracle(e) -> bool:
    """Whether every member is pure, dA = dB, and both of each member's
    reduced states lie within e.tol's orthogonality_tol of I/d (Frobenius),
    from numpy products of its amplitude matrix alone."""
    dA, dB = e.dims.dA, e.dims.dB
    if dA != dB or not all(s.is_pure for s in e.states):
        return False
    flat = np.eye(dA) / dA
    for s in e.states:
        psi = s.vector.reshape(dA, dB)
        for reduced in (psi @ psi.conj().T, psi.T @ psi.conj()):
            if np.linalg.norm(reduced - flat) > e.tol.orthogonality_tol:
                return False
    return True


def assert_member_facts_refused(e, first: int) -> None:
    """Every member fact of e, and each side's reduced_ensemble, raises
    PreconditionError naming member `first`, its first density member."""
    message = f"member {first} is a density matrix"
    for fact in ("reduced_a", "entropies_a", "avg_member_entropy", "chi_a", "chi_b"):
        with pytest.raises(PreconditionError, match=message):
            getattr(e, fact)
    for party in ("A", "B"):
        with pytest.raises(PreconditionError, match=message):
            reduced_ensemble(e, party)


def lower_bound_pure(e) -> float:
    """The charge lower bound of a pure, mutually orthogonal ensemble, whose
    accessible information is H(X): the average member entanglement minus
    the total correlation, sum_X p_X S(rho_X^A) - I(A;B)."""
    assert e.flags.all_pure and e.flags.mutually_orthogonal
    return e.avg_member_entropy - e.mutual_information


def clamp_oracle(evals, tol=DEFAULT_TOLERANCES) -> np.ndarray:
    """Eigenvalues with those within eigenvalue_clamp of 0 set to 0; none may
    lie below -eigenvalue_clamp."""
    evals = np.asarray(evals, dtype=float)
    assert evals.min(initial=0.0) >= -tol.eigenvalue_clamp
    return np.where(np.abs(evals) <= tol.eigenvalue_clamp, 0.0, evals)


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


# -- reference renderer (test-only) -------------------------------------------
# The recursive renderer of the canonical file format, one call per number and
# every state converted to nested [re, im] lists first. It is the byte oracle
# for fileio.dumps_canonical and fileio.ensemble_to_document; nothing outside
# the tests calls it.


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{json.dumps(k)}: {_render(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rendered = [_render(v, indent + 1) for v in value]
        # Leaf lists (numbers only) stay on one line; anything nested wraps.
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(rendered) + "]"
        parts = [f"{inner}{r}" for r in rendered]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot render non-finite number {float(value)!r}")
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value)!r}")


def _complex_pairs(values: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in values]


def ensemble_to_document(e: Ensemble) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if e.label is not None:
        doc["label"] = e.label
    doc["dims"] = {"dA": e.dims.dA, "dB": e.dims.dB}
    members = []
    for p, s in e.members:
        if s.is_pure:
            state = {"kind": "pure", "data": _complex_pairs(s.vector)}
        else:
            state = {"kind": "density", "data": [_complex_pairs(row) for row in s.matrix]}
        members.append({"prob": float(p), "state": state})
    doc["members"] = members
    return doc


def reference_dumps(doc) -> str:
    """The reference renderer's text of doc, in which every numpy array is
    first turned into its list of [re, im] pairs."""

    def pairs(value):
        if isinstance(value, dict):
            return {k: pairs(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [pairs(v) for v in value]
        return _complex_pairs(value) if isinstance(value, np.ndarray) else value

    return _render(pairs(doc), 0) + "\n"


# -- serial reference of the POVM search (test-only) ---------------------------
# The step-growth rule run one restart at a time, in a plain loop: a trial that
# rises by more than RISE_TOL is kept and doubles the step (up to MAX_STEP), a
# trial above step 1 that does not rise is dropped and resets the step to 1,
# and a unit trial that does not rise ends the restart. It is the oracle that
# the lockstep search must match bit for bit, capped count included.


def serial_restart(factors, rhos, probs, max_iters, cap):
    """One restart from its factor stack (outcomes, n, n), for at most
    max_iters trials: its final elements and value, the trials it took, and
    how it stopped: "cap" (within RISE_TOL of cap), "ended" (a unit trial did
    not rise) or "capped" (out of trials)."""
    factors, elements = _povm_elements(factors[None])
    value, p = _information(_joint_table(probs, rhos, elements))
    step, trials = 1.0, 0
    while True:
        if value[0] >= cap - RISE_TOL:
            return elements[0], value[0], trials, "cap"
        if trials == max_iters:
            return elements[0], value[0], trials, "capped"
        direction = _ascent_direction(p, probs, rhos, np.array([step]))
        trial, trial_elements = _povm_elements(factors + factors @ direction)
        trial_value, trial_p = _information(_joint_table(probs, rhos, trial_elements))
        trials += 1
        if trial_value[0] > value[0] + RISE_TOL:
            factors, elements, value, p = trial, trial_elements, trial_value, trial_p
            step = min(2.0 * step, MAX_STEP)
        elif step > 1.0:
            step = 1.0
        else:
            return elements[0], value[0], trials, "ended"


def serial_lockstep_ascent(factors, rhos, probs, cfg, cap):
    """accessible._lockstep_ascent's contract (elements, values, capped count,
    whether a restart reached the cap) from serial_restart on each restart of
    the block in turn. A restart that reaches the cap ends the block at that
    trial, so then every restart runs again for that many trials."""
    runs = [serial_restart(f, rhos, probs, cfg.max_iters, cap) for f in factors]
    reached = [trials for _, _, trials, how in runs if how == "cap"]
    if reached:
        runs = [serial_restart(f, rhos, probs, min(reached), cap) for f in factors]
    elements = np.stack([run[0] for run in runs])
    values = np.array([run[1] for run in runs])
    capped = 0 if reached else sum(how == "capped" for *_, how in runs)
    return elements, values, capped, bool(reached)


def pgm_oracle(e) -> float:
    """I(X;Y) in bits of the pretty-good measurement M_y = p_y rho^(-1/2)
    |psi_y><psi_y| rho^(-1/2) of an all-pure ensemble, from dense numpy
    products: the average state, its pseudo-inverse square root (eigenvalues
    at or below 1e-14 of the largest dropped) and p(x, y) = p_x <psi_x|M_y|psi_x>."""
    probs = np.asarray(e.probs, dtype=float)
    v = np.stack([s.vector for s in e.states])
    rho = sum(p * np.outer(x, x.conj()) for p, x in zip(probs, v))
    w, u = np.linalg.eigh(rho)
    keep = w > w.max() * 1e-14
    inv_sqrt = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    table = np.array([[px * py * abs(x.conj() @ inv_sqrt @ y) ** 2 for py, y in zip(probs, v)] for px, x in zip(probs, v)])
    table /= table.sum()

    def h(p):
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    return h(table.sum(axis=1)) + h(table.sum(axis=0)) - h(table.ravel())
