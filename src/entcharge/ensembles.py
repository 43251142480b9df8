"""The ensemble data model {p_X, rho_X} with its derived objects: average
state, per-party reduced ensembles, structure flags and the EnsembleFacts
record that holds all of them, computed once per ensemble.

An ensemble carries the Tolerances policy it was validated under, and every
analysis of it reads that policy; none takes a tolerance of its own.

Zero-probability members are retained: they affect orthogonality and
entanglement flags but contribute nothing to entropies. Member order is
preserved for reporting and witnesses but never changes computed values.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .entropy import _holevo_chi, shannon_entropy, valid_probs, von_neumann_entropy
from .errors import ShapeError, ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances, partial_trace
from .states import (
    BipartiteDims,
    BipartiteState,
    _all_maximally_mixed,
    density_of,
    is_product,
    orthogonality_witness,
    overlap_matrix,
)

# Probabilities at or below this floor count as numerically zero for support.
PROB_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A validated ensemble of bipartite states with probabilities, and the
    tolerance policy it was validated under."""

    dims: BipartiteDims
    members: tuple[tuple[float, BipartiteState], ...]
    label: str | None = None
    tol: Tolerances = DEFAULT_TOLERANCES

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    @property
    def states(self) -> list[BipartiteState]:
        return [s for _, s in self.members]


@dataclass(frozen=True)
class StructureFlags:
    """Structural predicates of an ensemble, as used by the bounds engine."""

    all_pure: bool
    mutually_orthogonal: bool
    all_maximally_entangled: bool
    all_product: bool
    support_size: int


def make_ensemble(members, label: str | None = None, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """Build an Ensemble under tol from (prob, BipartiteState) pairs,
    validating probs, dims and the trace of the average state."""
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


def reduced_ensemble(e: Ensemble, party: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Probabilities plus each member partial-traced down to the given party."""
    if party == "A":
        traced = "B"
    elif party == "B":
        traced = "A"
    else:
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    mats = [partial_trace(density_of(s), e.dims.dA, e.dims.dB, traced) for _, s in e.members]
    return e.probs, mats


@dataclass(frozen=True, eq=False)
class EnsembleFacts:
    """Every derived fact the bounds engine reads about one ensemble, under
    its own tolerances, as ensemble_facts returns it on every call for that
    ensemble. The arrays are shared and read-only; no field refers to the
    ensemble.

    overlaps[i, j] = Tr(rho_i rho_j); witness is the first non-orthogonal
    pair (i, j, overlap) or None. s_ab, s_a, s_b are the entropies of the
    average state and its marginals. reduced_a / reduced_b hold each member
    traced down to A / B, and avg_member_entropy = sum_X p_X S(rho_X^A).
    """

    flags: StructureFlags
    overlaps: np.ndarray
    witness: tuple[int, int, float] | None
    maximally_entangled: tuple[bool, ...]
    average: np.ndarray
    s_ab: float
    s_a: float
    s_b: float
    reduced_a: tuple[np.ndarray, ...]
    reduced_b: tuple[np.ndarray, ...]
    avg_member_entropy: float

    @property
    def mutual_information(self) -> float:
        """I(A;B) = S(rho_A) + S(rho_B) - S(rho_AB) of the average state."""
        return self.s_a + self.s_b - self.s_ab

    def chi_a(self, probs: np.ndarray, tol: Tolerances) -> float:
        """Holevo chi of the reduced ensemble on A; its member term
        sum_X p_X S(rho_X^A) is avg_member_entropy, not recomputed."""
        return _holevo_chi(probs, self.reduced_a, self.avg_member_entropy, tol)


def _structure(e: Ensemble):
    """The flags of e plus what they are read from: the overlap matrix, the
    orthogonality witness, per-member maximal entanglement and both reduced
    ensembles. Computes no entropy.
    """
    states, tol = e.states, e.tol
    overlaps = overlap_matrix(states)
    witness = orthogonality_witness(overlaps, tol)
    _, reduced_a = reduced_ensemble(e, "A")
    _, reduced_b = reduced_ensemble(e, "B")
    square = e.dims.dA == e.dims.dB
    max_ent = tuple(
        s.is_pure and square and _all_maximally_mixed((ra, rb), tol)
        for s, ra, rb in zip(states, reduced_a, reduced_b)
    )
    all_pure = all(s.is_pure for s in states)
    flags = StructureFlags(
        all_pure=all_pure,
        mutually_orthogonal=witness is None,
        all_maximally_entangled=all(max_ent),
        all_product=all_pure and all(is_product(s, tol) for s in states),
        support_size=int(sum(1 for p, _ in e.members if p > PROB_FLOOR)),
    )
    return flags, overlaps, witness, max_ent, reduced_a, reduced_b


# Each live ensemble's facts; weak keys die with their ensemble.
_FACTS: weakref.WeakKeyDictionary[Ensemble, EnsembleFacts] = weakref.WeakKeyDictionary()


def ensemble_facts(e: Ensemble) -> EnsembleFacts:
    """Every derived fact of e under e.tol, computed on the first call for e
    and returned from then on: overlaps, flags, average state, joint and
    marginal entropies, reduced ensembles, average member entropy.

    Flags cover all members including zero-probability ones; support_size
    counts only members with probability above PROB_FLOOR.
    """
    if e in _FACTS:
        return _FACTS[e]
    tol = e.tol
    flags, overlaps, witness, max_ent, reduced_a, reduced_b = _structure(e)
    rho = average_state(e)
    for a in (overlaps, rho, *reduced_a, *reduced_b):
        a.setflags(write=False)
    dA, dB = e.dims.dA, e.dims.dB
    facts = _FACTS[e] = EnsembleFacts(
        flags=flags,
        overlaps=overlaps,
        witness=witness,
        maximally_entangled=max_ent,
        average=rho,
        s_ab=von_neumann_entropy(rho, tol),
        s_a=von_neumann_entropy(partial_trace(rho, dA, dB, "B"), tol),
        s_b=von_neumann_entropy(partial_trace(rho, dA, dB, "A"), tol),
        reduced_a=tuple(reduced_a),
        reduced_b=tuple(reduced_b),
        avg_member_entropy=float(sum(p * von_neumann_entropy(m, tol) for p, m in zip(e.probs, reduced_a))),
    )
    return facts


def classify_structure(e: Ensemble) -> StructureFlags:
    """The structure flags of e (see ensemble_facts); computes no entropy."""
    return _structure(e)[0]


def shannon_of(e: Ensemble) -> float:
    """H(X) of the probability vector; zero-probability members contribute 0."""
    return shannon_entropy(e.probs, e.tol)
