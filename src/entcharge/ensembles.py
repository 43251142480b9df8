"""The ensemble data model {p_X, rho_X} and its derived facts: the members'
rows, overlaps, average state and its entropies, structure flags and the
joint Holevo chi of every ensemble, and the member facts of an all-pure
one: its reduced members, their entropies and the Holevo chi of each side.

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
)
from .errors import PreconditionError, ShapeError, ValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    density_eigh,
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
    orthogonality_witness,
    row_overlaps,
    state_rows,
)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A validated ensemble of bipartite states with probabilities, and the
    tolerance policy it was validated under.

    Every derived fact is a lazy attribute, computed under tol on its first
    read and kept for the ensemble's lifetime; its arrays are shared and
    read-only. Reading the flags computes no entropy, and reading the witness
    builds no reduced ensemble.

    Every member is represented by its rows (states.state_rows): a pure
    member by its vector, a density member by sqrt(lambda) v for each
    eigenpair of its validation eigh with lambda above eigenvalue_clamp, so
    the rows rebuild rho_X within eigenvalue_clamp per eigenvalue. Every
    joint fact reads the N rows of all members (N = m when all are pure).
    gram[i, j] = <r_i|r_j>; overlaps[i, j] = Tr(rho_i rho_j) sums |gram|^2
    over the rows of members i and j; witness is the first non-orthogonal
    pair (i, j, overlap) or None. With W the rows weighted by sqrt(p_X), each
    marginal is one matmul of W, and the average state sum_w |w><w| shares
    its nonzero spectrum with gram_eigh's diag(sqrt p) G diag(sqrt p), which
    the pretty-good measurement reads: s_ab is the entropy of the smaller
    of the two (the N x N one on a tie), or the other party's marginal
    entropy when a party has dimension 1. chi = s_ab - sum_X p_X S(rho_X),
    S(rho_X) from the validation spectrum (0 for a pure member), clamped at
    0 and exactly 0 when the members' rows are identical. densities stacks
    the members' joint matrices and average sums them; only the POVM search
    and mutual_information_of_measurement read them.

    The member facts exist for all-pure ensembles only: reduced_a stacks each
    member traced down to A, entropies_a holds each member's S(rho_X^A),
    avg_member_entropy = sum_X p_X S(rho_X^A), and chi_a / chi_b, S(rho_A)
    - sum_X p_X S(rho_X^A) and its B twin, are the Holevo chi of the two
    reduced ensembles. Of an ensemble with a density member, each raises
    PreconditionError naming the first one; no bound reads them there.
    One batched spectrum covers rho_A and side A's reduced members, so chi_a,
    the pure lower bound and the merging bounds share one S(rho_A). A pure
    member's two reduced states share their nonzero spectrum, so chi_b =
    S(rho_B) - sum_X p_X S(rho_X^A) and the flags read reduced_a alone.
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
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every member's rows (N, n) in member order, and each member's row count."""
        blocks = [state_rows(s, self.tol) for s in self.states]
        return _freeze(np.concatenate(blocks)), np.array([len(b) for b in blocks])

    @cached_property
    def _roots(self) -> np.ndarray:
        """sqrt(p_X) of each row's member."""
        return np.sqrt(np.repeat(self.probs, self._rows[1]))

    @cached_property
    def _vectors(self) -> np.ndarray:
        """The member vectors (m, n) of an all-pure ensemble; of any other,
        PreconditionError names the first density member."""
        if not self._all_pure:
            k = next(k for k, s in enumerate(self.states) if not s.is_pure)
            raise PreconditionError(f"member facts require pure members; member {k} is a density matrix")
        return self._rows[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """The N x N Gram matrix <r_i|r_j> of the members' rows."""
        return _freeze(_gram(self._rows[0]))

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of diag(sqrt p) G diag(sqrt p), p the
        probability of each row's member, checked as a density matrix
        (density_eigh)."""
        root = self._roots
        w, v = density_eigh(root[:, None] * self.gram * root, self.tol)
        return _freeze(w), _freeze(v)

    @cached_property
    def overlaps(self) -> np.ndarray:
        return _freeze(row_overlaps(self.gram, self._rows[1]))

    @cached_property
    def witness(self) -> tuple[int, int, float] | None:
        return orthogonality_witness(self.overlaps, self.tol)

    @cached_property
    def reduced_a(self) -> np.ndarray:
        return _freeze(reduced_ensemble(self, "A"))

    def _marginal(self, traced: str) -> np.ndarray:
        """Tr_traced of the average state, F F^dag, F the weighted rows
        reshaped to the kept party's dimension by N times the traced one's."""
        dA, dB = self.dims.dA, self.dims.dB
        w = (self._roots[:, None] * self._rows[0]).reshape(-1, dA, dB)
        f = w.transpose(1, 0, 2).reshape(dA, -1) if traced == "B" else w.transpose(2, 0, 1).reshape(dB, -1)
        return f @ f.conj().T

    @cached_property
    def _entropies_of_a(self) -> np.ndarray:
        """Entropies of [rho_A, rho_X^A ...], side A's marginal and reduced
        members, from one batched spectrum."""
        stack = np.concatenate([self._marginal("B")[None], self.reduced_a])
        return _freeze(von_neumann_entropies(stack, self.tol, self.dims.dB))

    @cached_property
    def entropies_a(self) -> np.ndarray:
        return self._entropies_of_a[1:]

    def _marginal_entropy(self, traced: str) -> float:
        """S of the marginal left by tracing out `traced`, from its own spectrum."""
        marginal = self._marginal(traced)
        traced_dim = self.dims.dA if traced == "A" else self.dims.dB
        return float(von_neumann_entropies(marginal[None], self.tol, traced_dim)[0])

    @cached_property
    def flags(self) -> StructureFlags:
        """StructureFlags, zero-probability members included, from the
        witness and reduced_a alone: no entropy, no SVD, and no reduced state
        at all unless every member is pure."""
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
        # A party of dimension 1 leaves rho_AB the other party's marginal;
        # reading that one spectrum keeps S(A|B) (or S(B|A)) exactly 0.
        if self.dims.dA == 1:
            return self.s_b
        if self.dims.dB == 1:
            return self.s_a
        if len(self._rows[0]) <= self.dims.joint:
            return float(spectrum_entropies(self.gram_eigh[0][None], self.tol)[0])
        w = self._roots[:, None] * self._rows[0]
        return float(von_neumann_entropies((w.T @ w.conj())[None], self.tol)[0])

    @cached_property
    def s_a(self) -> float:
        """S(rho_A): row 0 of side A's spectrum for an all-pure ensemble,
        whose member entropies are read too; else, as there are no reduced
        members, the marginal's own."""
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
        """Holevo chi of the B-side reduced ensemble, S(rho_B) less the member
        term chi_a subtracts (a pure member's two reduced states share their
        nonzero spectrum), clamped at 0; exactly 0 when the member vectors
        are identical."""
        return _holevo_chi(self.probs, self._vectors, np.concatenate([[self.s_b], self.entropies_a]))

    @cached_property
    def chi(self) -> float:
        """Holevo chi of the joint ensemble, S(rho_AB) - sum_X p_X S(rho_X),
        clamped at 0; exactly 0 when the members' rows are identical."""
        rows, counts = self._rows
        members = [0.0 if s.is_pure else float(spectrum_entropies(s.eigh[0][None], self.tol)[0]) for s in self.states]
        # Members with unequal row counts differ; equal ones stack as (m, k n).
        stack = rows.reshape(len(counts), -1) if (counts == counts[0]).all() else None
        return _holevo_chi(self.probs, stack, np.array([self.s_ab, *members]))


@dataclass(frozen=True)
class StructureFlags:
    """Structural predicates of an ensemble, as used by the bounds engine,
    over every member under the ensemble's tolerances (t = orthogonality_tol):
    all_pure, every member a vector; mutually_orthogonal, no Tr(rho_i rho_j)
    above t; all_maximally_entangled, all pure with dA = dB and every
    rho_X^A within t of I/d (Frobenius; a pure member's rho_X^B has the same
    nonzero spectrum, so is as close); all_product, all pure with every
    ||rho_X^A||_F >= (1 - t)^2 (states._nearly_pure); support_size, the
    members with p_X above eigenvalue_clamp, where eigenvalues count as 0.
    The two member-local flags are False for an ensemble with a density
    member, whose reduced states are never formed."""

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
    """rho = sum_X p_X rho_X, summed over the rows of e.densities in member order."""
    n = e.dims.joint
    out = np.zeros((n, n), dtype=complex)
    for p, rho in zip(e.probs, e.densities):
        if p != 0.0:
            out += p * rho
    return out


def reduced_ensemble(e: Ensemble, party: str) -> np.ndarray:
    """The stack (m, d, d) of every member of an all-pure ensemble
    partial-traced down to the given party, from the member vectors (see
    vector_partial_traces). Of an ensemble with a density member,
    PreconditionError names the first one."""
    if party not in ("A", "B"):
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    return vector_partial_traces(e._vectors, e.dims.dA, e.dims.dB, "B" if party == "A" else "A")
