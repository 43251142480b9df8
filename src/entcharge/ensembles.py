"""The ensemble data model {p_X, rho_X} and its derived facts: the joint
member stack, overlaps, average state and its entropies, per-party reduced
ensembles, structure flags and the Holevo chi, joint and of each side.

An ensemble carries the Tolerances policy it was validated under, and every
analysis of it reads that policy; none takes a tolerance of its own. Each
derived fact is a lazy attribute of the ensemble, computed once on first read.

Zero-probability members are retained: they affect orthogonality and
entanglement flags but contribute nothing to entropies. Member order is
preserved for reporting and witnesses but never changes computed values.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import (
    _holevo_chi,
    member_term,
    spectrum_entropies,
    valid_probs,
    von_neumann_entropies,
    von_neumann_entropy,
)
from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    density_eigh,
    partial_trace,
    partial_traces,
    vector_partial_traces,
)
from .states import (
    BipartiteDims,
    BipartiteState,
    _freeze,
    _gram,
    _maximally_mixed,
    _nearly_pure,
    density_of,
    density_overlaps,
    orthogonality_witness,
)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A validated ensemble of bipartite states with probabilities, and the
    tolerance policy it was validated under.

    Every derived fact is a lazy attribute, computed under tol on its first
    read and kept for the ensemble's lifetime; its arrays are shared and
    read-only. Reading the flags computes no entropy, and reading the witness
    builds no reduced ensemble.

    gram[i, j] = <psi_i|psi_j> of an all-pure ensemble; overlaps[i, j] =
    Tr(rho_i rho_j), |gram|^2 when every member is pure; witness is the
    first non-orthogonal pair (i, j, overlap) or None. s_ab, s_a, s_b are the
    entropies of the average state and its marginals. reduced_a / reduced_b
    stack each member traced down to A / B, entropies_a holds each member's
    S(rho_X^A), avg_member_entropy = sum_X p_X S(rho_X^A), and chi_a / chi_b,
    S(rho_A) - sum_X p_X S(rho_X^A) and its B twin, are the Holevo chi of the
    two reduced ensembles. probs and states split the members once.
    densities stacks every member's joint density matrix and average sums
    them; the overlaps of mixed members and the accessible-information
    search read them. chi is the joint Holevo chi, whose first term is s_ab.

    An all-pure ensemble takes its facts from the member vectors, with no
    joint matrix formed. With W the columns sqrt(p_X) psi_X, the average
    state is W W^dag, which shares its nonzero spectrum with gram_eigh's
    diag(sqrt p) G diag(sqrt p) = W^dag W: s_ab reads that one m x m
    eigendecomposition, and so does the pretty-good measurement. Each
    marginal is one matmul of W. One batched spectrum covers rho_A and the
    reduced members of side A, so chi_a, the pure lower bound and the merging
    bounds share one S(rho_A). A pure member's two reduced states share their
    nonzero spectrum, so chi_b = S(rho_B) - sum_X p_X S(rho_X^A) and the
    flags read reduced_a alone: no side-B member stack is built. chi is s_ab,
    as pure members have zero entropy. A mixed ensemble takes each fact from
    average and densities, and each marginal's entropy from its own spectrum.
    These derived states are checked at the bounds that valid members
    guarantee (see density_spectra), so no fact of a validated ensemble
    fails its spectrum check.
    """

    dims: BipartiteDims
    members: tuple[tuple[float, BipartiteState], ...]
    label: str | None = None
    tol: Tolerances = DEFAULT_TOLERANCES

    @cached_property
    def probs(self) -> np.ndarray:
        return _freeze(np.array([p for p, _ in self.members]))

    @cached_property
    def states(self) -> tuple[BipartiteState, ...]:
        return tuple(s for _, s in self.members)

    @cached_property
    def densities(self) -> np.ndarray:
        """The joint member stack (m, n, n), rho_X of every member in order."""
        return _freeze(np.stack([density_of(s) for s in self.states]))

    @cached_property
    def _all_pure(self) -> bool:
        return all(s.is_pure for s in self.states)

    @cached_property
    def _vectors(self) -> np.ndarray:
        """The member vectors (m, n) of an all-pure ensemble."""
        return _freeze(np.stack([s.vector for s in self.states]))

    @cached_property
    def gram(self) -> np.ndarray:
        """The m x m Gram matrix <psi_i|psi_j> of an all-pure ensemble."""
        return _freeze(_gram(self._vectors))

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of diag(sqrt p) G diag(sqrt p) of an
        all-pure ensemble, checked as a density matrix (density_eigh)."""
        root = np.sqrt(self.probs)
        w, v = density_eigh(root[:, None] * self.gram * root, self.tol)
        return _freeze(w), _freeze(v)

    @cached_property
    def overlaps(self) -> np.ndarray:
        if self._all_pure:
            return _freeze(np.abs(self.gram) ** 2)
        return _freeze(density_overlaps(self.densities))

    @cached_property
    def witness(self) -> tuple[int, int, float] | None:
        return orthogonality_witness(self.overlaps, self.tol)

    @cached_property
    def reduced_a(self) -> np.ndarray:
        return _freeze(reduced_ensemble(self, "A"))

    @cached_property
    def reduced_b(self) -> np.ndarray:
        return _freeze(reduced_ensemble(self, "B"))

    def _traced_dim(self, traced: str) -> int:
        return self.dims.dA if traced == "A" else self.dims.dB

    def _marginal(self, traced: str) -> np.ndarray:
        """Tr_traced of the average state. An all-pure ensemble's is F F^dag,
        F the sqrt(p)-weighted vectors reshaped to the kept party's dimension
        by m times the traced one's."""
        dA, dB = self.dims.dA, self.dims.dB
        if not self._all_pure:
            return partial_trace(self.average, dA, dB, traced)
        w = (np.sqrt(self.probs)[:, None] * self._vectors).reshape(-1, dA, dB)
        f = w.transpose(1, 0, 2).reshape(dA, -1) if traced == "B" else w.transpose(2, 0, 1).reshape(dB, -1)
        return f @ f.conj().T

    def _party_entropies(self, reduced: np.ndarray, traced: str) -> np.ndarray:
        """Entropies of [Tr_traced rho, rho_X ...], the party's marginal and
        its reduced members, from one batched spectrum."""
        stack = np.concatenate([self._marginal(traced)[None], reduced])
        return _freeze(von_neumann_entropies(stack, self.tol, self._traced_dim(traced)))

    @cached_property
    def _entropies_of_a(self) -> np.ndarray:
        return self._party_entropies(self.reduced_a, "B")

    @cached_property
    def _entropies_of_b(self) -> np.ndarray:
        return self._party_entropies(self.reduced_b, "A")

    @cached_property
    def entropies_a(self) -> np.ndarray:
        return self._entropies_of_a[1:]

    def _marginal_entropy(self, traced: str) -> float:
        """S of the marginal left by tracing out `traced`, from its own spectrum."""
        marginal = self._marginal(traced)
        return float(von_neumann_entropies(marginal[None], self.tol, self._traced_dim(traced))[0])

    @cached_property
    def flags(self) -> StructureFlags:
        """StructureFlags, zero-probability members included, from the
        witness and reduced_a alone: no entropy, no SVD, never reduced_b, and
        no reduced state at all unless every member is pure."""
        all_pure = self._all_pure
        flat = all_pure and self.dims.dA == self.dims.dB and bool(_maximally_mixed(self.reduced_a, self.tol).all())
        return StructureFlags(
            all_pure=all_pure,
            mutually_orthogonal=self.witness is None,
            all_maximally_entangled=flat,
            all_product=all_pure and bool(_nearly_pure(self.reduced_a, self.tol).all()),
            support_size=int(sum(1 for p, _ in self.members if p > self.tol.eigenvalue_clamp)),
        )

    @cached_property
    def average(self) -> np.ndarray:
        return _freeze(average_state(self))

    @cached_property
    def s_ab(self) -> float:
        if not self._all_pure:
            return von_neumann_entropy(self.average, self.tol)
        # A party of dimension 1 leaves rho_AB the other party's marginal;
        # reading that one spectrum keeps S(A|B) (or S(B|A)) exactly 0.
        if self.dims.dA == 1:
            return self.s_b
        if self.dims.dB == 1:
            return self.s_a
        return float(spectrum_entropies(self.gram_eigh[0][None], self.tol)[0])

    @cached_property
    def s_a(self) -> float:
        """S(rho_A): row 0 of side A's spectrum for an all-pure ensemble,
        whose member entropies are read too; else, as m + 1 spectra would
        cost more than one, the marginal's own."""
        if self._all_pure:
            return float(self._entropies_of_a[0])
        return self._marginal_entropy("B")

    @cached_property
    def s_b(self) -> float:
        return self._marginal_entropy("A")

    @cached_property
    def avg_member_entropy(self) -> float:
        return member_term(self.probs, self.entropies_a)

    @property
    def mutual_information(self) -> float:
        """I(A;B) = S(rho_A) + S(rho_B) - S(rho_AB) of the average state."""
        return self.s_a + self.s_b - self.s_ab

    @cached_property
    def chi_a(self) -> float:
        """Holevo chi of the A-side reduced ensemble, S(rho_A) - sum_X p_X
        S(rho_X^A): both terms are rows of the party's spectrum, the member
        entropies the ones avg_member_entropy sums."""
        return _holevo_chi(self.probs, self.reduced_a, self._entropies_of_a)

    @cached_property
    def chi_b(self) -> float:
        """Holevo chi of the B-side reduced ensemble; for an all-pure
        ensemble S(rho_B) less the member term chi_a subtracts, clamped at 0."""
        if self._all_pure:
            return max(0.0, self.s_b - self.avg_member_entropy)
        return _holevo_chi(self.probs, self.reduced_b, self._entropies_of_b)

    @cached_property
    def chi(self) -> float:
        """Holevo chi of the joint ensemble, S(rho_AB) - sum_X p_X S(rho_X):
        its first term is s_ab, and its second is 0 for pure members."""
        if self._all_pure:
            return self.s_ab
        members = von_neumann_entropies(self.densities, self.tol)
        return _holevo_chi(self.probs, self.densities, np.concatenate([[self.s_ab], members]))


@dataclass(frozen=True)
class StructureFlags:
    """Structural predicates of an ensemble, as used by the bounds engine,
    over every member under the ensemble's tolerances (t = orthogonality_tol):
    all_pure, every member a vector; mutually_orthogonal, no Tr(rho_i rho_j)
    above t; all_maximally_entangled, all pure with dA = dB and every
    rho_X^A within t of I/d (Frobenius; a pure member's rho_X^B has the same
    nonzero spectrum, so is as close); all_product, all pure with every
    ||rho_X^A||_F >= (1 - t)^2 (states._nearly_pure); support_size, the
    members with p_X above eigenvalue_clamp, where eigenvalues count as 0."""

    all_pure: bool
    mutually_orthogonal: bool
    all_maximally_entangled: bool
    all_product: bool
    support_size: int


def _check_label(label: str | None, error: type[ValidationError] = ValidationError) -> None:
    """Reject a label holding a character at which str.splitlines() breaks a
    line (categories Cc, Zl, Zp): it could forge lines of a text report."""
    if label is None or label.isprintable():
        return
    for c in label:
        category = unicodedata.category(c)
        if category in ("Cc", "Zl", "Zp"):
            kind = "control character" if category == "Cc" else "line separator"
            raise error(f"label: {kind} U+{ord(c):04X} is not allowed")


def make_ensemble(members, label: str | None = None, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """Build an Ensemble under tol from (prob, BipartiteState) pairs,
    validating the label, probs, dims and the trace of the average state."""
    _check_label(label)
    pairs = [(float(p), s) for p, s in members]
    if not pairs:
        raise ValidationError("ensemble must have at least one member")
    valid_probs([p for p, _ in pairs], tol)
    dims = pairs[0][1].dims
    for k, (_, s) in enumerate(pairs):
        if s.dims != dims:
            raise ShapeError(
                f"member {k} has dims {s.dims.dA}x{s.dims.dB}, expected {dims.dA}x{dims.dB}"
            )
    # Tr of the average state, sum_X p_X Tr(rho_X), with Tr = |psi_X|^2 for pure members.
    trace = float(sum(p * (np.vdot(s.vector, s.vector) if s.is_pure else np.trace(s.matrix)).real for p, s in pairs))
    if abs(trace - 1.0) > tol.trace_tol:
        raise ValidationError(
            f"average state trace {trace!r} deviates from 1 by {abs(trace - 1.0):.3e}, "
            f"beyond trace_tol={tol.trace_tol:.0e}"
        )
    return Ensemble(dims=dims, members=tuple(pairs), label=label, tol=tol)


def average_state(e: Ensemble) -> np.ndarray:
    """rho = sum_X p_X rho_X."""
    n = e.dims.joint
    out = np.zeros((n, n), dtype=complex)
    for p, s in e.members:
        if p != 0.0:
            out += p * density_of(s)
    return out


def reduced_ensemble(e: Ensemble, party: str) -> np.ndarray:
    """The stack (m, d, d) of every member partial-traced down to the given
    party: pure members from their vectors, density members in one einsum,
    each with the bits of partial_trace(density_of(s), ...)."""
    if party == "A":
        traced = "B"
    elif party == "B":
        traced = "A"
    else:
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    dA, dB = e.dims.dA, e.dims.dB
    states = e.states
    pure = np.array([s.is_pure for s in states])
    d = dA if party == "A" else dB
    out = np.empty((len(states), d, d), dtype=complex)
    if pure.any():
        out[pure] = vector_partial_traces(np.stack([s.vector for s in states if s.is_pure]), dA, dB, traced)
    if not pure.all():
        out[~pure] = partial_traces(np.stack([s.matrix for s in states if not s.is_pure]), dA, dB, traced)
    return out
