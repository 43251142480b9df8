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
    valid_probs,
    von_neumann_entropies,
    von_neumann_entropy,
)
from .errors import ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    partial_trace,
    partial_traces,
    vector_partial_traces,
)
from .states import (
    BipartiteDims,
    BipartiteState,
    _freeze,
    _maximally_mixed,
    _nearly_pure,
    density_of,
    density_overlaps,
    orthogonality_witness,
    overlap_matrix,
)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A validated ensemble of bipartite states with probabilities, and the
    tolerance policy it was validated under.

    Every derived fact is a lazy attribute, computed under tol on its first
    read and kept for the ensemble's lifetime; its arrays are shared and
    read-only. Reading the flags computes no entropy, and reading the witness
    builds no reduced ensemble.

    overlaps[i, j] = Tr(rho_i rho_j); witness is the first non-orthogonal
    pair (i, j, overlap) or None. s_ab, s_a, s_b are the entropies of the
    average state and its marginals. reduced_a / reduced_b stack each member
    traced down to A / B, entropies_a holds each member's S(rho_X^A),
    avg_member_entropy = sum_X p_X S(rho_X^A), and chi_a / chi_b,
    S(rho_A) - sum_X p_X S(rho_X^A) and its B twin, are the Holevo chi of
    the two reduced ensembles. The flags read reduced_a, never reduced_b,
    which only s_b and chi_b read. probs and states split the members once.
    densities stacks every member's joint density matrix, which the overlaps
    of mixed members and the accessible-information search read, and chi is
    the joint Holevo chi, whose first term is s_ab.
    The reduced states of each side are one batched computation over all
    members, and one spectrum per party covers its marginal and its members:
    reading entropies_a or chi_a computes both (B alike), and chi_a's first
    term is the marginal's row. s_a reads that row only when the members are
    all pure and mutually orthogonal, the ensembles whose member entropies
    and chi every analysis reads, so there chi_a and the merging bounds
    share one S(rho_A); otherwise it is the marginal's own spectrum. These
    derived states are checked at the bounds that valid members guarantee
    (see density_spectra), so no fact of a validated ensemble fails its
    spectrum check.
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
    def overlaps(self) -> np.ndarray:
        # Mixed members: overlap_matrix's stack is the shared densities.
        if all(s.is_pure for s in self.states):
            return _freeze(overlap_matrix(self.states))
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

    def _party_entropies(self, reduced: np.ndarray, traced: str) -> np.ndarray:
        """Entropies of [Tr_traced rho, rho_X ...], the party's marginal and
        its reduced members, from one batched spectrum."""
        marginal = partial_trace(self.average, self.dims.dA, self.dims.dB, traced)
        stack = np.concatenate([marginal[None], reduced])
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

    @cached_property
    def _orthogonal_pure(self) -> bool:
        return all(s.is_pure for s in self.states) and self.witness is None

    def _marginal_entropy(self, traced: str, party_entropies) -> float:
        """S of the marginal left by tracing out `traced`: row 0 of the
        party's spectrum for an orthogonal pure ensemble, whose member
        entropies are read too; else, as m + 1 spectra would cost more than
        one, the marginal's own."""
        if self._orthogonal_pure:
            return float(party_entropies()[0])
        marginal = partial_trace(self.average, self.dims.dA, self.dims.dB, traced)
        return float(von_neumann_entropies(marginal[None], self.tol, self._traced_dim(traced))[0])

    @cached_property
    def flags(self) -> StructureFlags:
        """StructureFlags, zero-probability members included, from the
        witness and reduced_a alone: no entropy, no SVD, never reduced_b, and
        no reduced state at all unless every member is pure."""
        all_pure = all(s.is_pure for s in self.states)
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
        return von_neumann_entropy(self.average, self.tol)

    @cached_property
    def s_a(self) -> float:
        return self._marginal_entropy("B", lambda: self._entropies_of_a)

    @cached_property
    def s_b(self) -> float:
        return self._marginal_entropy("A", lambda: self._entropies_of_b)

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
        return _holevo_chi(self.probs, self.reduced_b, self._entropies_of_b)

    @cached_property
    def chi(self) -> float:
        """Holevo chi of the joint ensemble, S(rho_AB) - sum_X p_X S(rho_X):
        its first term is s_ab, from the same average state."""
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
