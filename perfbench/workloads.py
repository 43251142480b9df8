"""The three seeded workloads and the oracles that check their outputs.

Each workload turns ``--seed`` into its inputs during set-up, and exposes
``run_op(i)`` (the timed user operation; op ``i`` uses item ``i % len(items)``),
``key(i)`` (ops with the same key must give identical output), ``check(i, out)``
(per-op oracle, returns an error string or None) and ``run_checks(outputs)``
(once-per-run oracles). A run only stops at the end of a pass over all
items, so every run measures the same mix of input sizes.

The oracles recompute each expected value with plain numpy from the inputs
the benchmark generated, never through entcharge's own code paths. They use
the numpy kernels captured below, at import time: the tracer later replaces
``numpy.linalg`` entries, and oracle work must not be counted as the
program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import entcharge.accessible
import entcharge.bounds
import entcharge.cli
import entcharge.ensembles
import entcharge.fileio
import entcharge.generators
import entcharge.states

_eigvalsh = np.linalg.eigvalsh
_eigh = np.linalg.eigh

TOL = 1e-8  # text output carries 9 decimals; computed values agree to ~1e-12
ACCESSIBLE_FLOOR_TOL = 1e-6
VERDICT_MARGIN = 1e-8


# -- independent numerics --------------------------------------------------------


def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    return shannon([x, 1.0 - x])


def entropy_of(rho: np.ndarray) -> float:
    evals = _eigvalsh((rho + rho.conj().T) / 2)
    return shannon(evals[evals > 1e-12])


def joint_entropies(rho: np.ndarray, dA: int, dB: int) -> tuple[float, float, float]:
    """S(rho_AB), S(rho_A), S(rho_B)."""
    t = rho.reshape(dA, dB, dA, dB)
    return entropy_of(rho), entropy_of(np.trace(t, axis1=1, axis2=3)), entropy_of(np.trace(t, axis1=0, axis2=2))


def average_of(probs, mats) -> np.ndarray:
    return np.einsum("x,xij->ij", np.asarray(probs, dtype=float), np.asarray(mats))


def projectors(vectors) -> np.ndarray:
    v = np.asarray(vectors)
    return np.einsum("xi,xj->xij", v, v.conj())


def pgm_information(probs, vectors) -> float:
    """Mutual information of the pretty-good (square-root) measurement."""
    probs = np.asarray(probs, dtype=float)
    v = np.asarray(vectors)
    w, u = _eigh(average_of(probs, projectors(v)))
    keep = w > max(w.max(), 1e-30) * 1e-14
    inv_sqrt = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    b = (v * np.sqrt(probs)[:, None]) @ inv_sqrt.T  # row y: sqrt(p_y) rho^-1/2 psi_y
    table = probs[:, None] * np.abs(v.conj() @ b.T) ** 2
    table /= table.sum()
    return shannon(table.sum(axis=1)) + shannon(table.sum(axis=0)) - shannon(table)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_probs(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    return p / p.sum()


def ensemble_of(dA: int, dB: int, probs, states, label: str | None = None):
    """An entcharge ensemble from raw vectors or density matrices."""
    dims = entcharge.states.BipartiteDims(dA, dB)
    members = [(p, entcharge.states.validate_state(dims, x)) for p, x in zip(probs, states)]
    return entcharge.ensembles.make_ensemble(members, label=label)


def verdict_error(lo: float, hi: float, exact, verdict: str) -> str | None:
    if lo > VERDICT_MARGIN and verdict != "information_nonlocality":
        return f"lo={lo} > 0 but verdict {verdict}"
    if hi < -VERDICT_MARGIN and verdict != "entanglement_nonlocality":
        return f"hi={hi} < 0 but verdict {verdict}"
    if -VERDICT_MARGIN < lo and hi < VERDICT_MARGIN and exact is not None and verdict != "neither":
        return f"exact value {exact} is 0 but verdict {verdict}"
    if lo <= -VERDICT_MARGIN and hi >= VERDICT_MARGIN and verdict != "indeterminate":
        return f"interval [{lo}, {hi}] straddles 0 but verdict {verdict}"
    return None


def bounds_errors(uppers: dict, lo: float, hi: float, expect: dict, tol: float) -> list[str]:
    """Checks shared by every charge report: the upper bounds against the
    oracle entropies, and lo <= hi."""
    errors = []
    s_ab, s_a, s_b = expect["s"]
    want = {"merging_AtoB": s_ab - s_b, "merging_BtoA": s_ab - s_a, "compress_teleport": s_a}
    for name, value in want.items():
        if abs(uppers.get(name, math.inf) - value) > tol:
            errors.append(f"{name}={uppers.get(name)} but oracle gives {value}")
    if lo > hi + tol:
        errors.append(f"interval [{lo}, {hi}] is inverted")
    return errors


class Workload:
    """Defaults of the interface described in the module docstring."""

    name: str
    items: list

    def key(self, i: int):
        return i % len(self.items)

    def run_checks(self, outputs: dict[int, object]) -> dict[int, str]:
        return {}

    def quality(self, outputs: dict[int, object]) -> dict[str, float]:
        return {}


# -- analyze_corpus ----------------------------------------------------------------

FORMATS = ("text", "structured")
_NUM = r"(-?\d+\.\d+)"


def parse_text_report(text: str) -> dict:
    uppers = {m.group(1): float(m.group(2)) for m in re.finditer(r"^  ([A-Za-z_]+) +" + _NUM + "$", text, re.M)}
    lo, hi = (float(x) for x in re.search(r"^interval \(bits\): \[" + _NUM + ", " + _NUM + r"\]$", text, re.M).groups())
    chi = re.search(r"^chi_A \(bits\): " + _NUM + r"  chi_B \(bits\): " + _NUM + "$", text, re.M)
    exact = re.search(r"^exact value \(bits\): " + _NUM + "$", text, re.M)
    return {
        "uppers": uppers,
        "lo": lo,
        "hi": hi,
        "chi": None if chi is None else (float(chi.group(1)), float(chi.group(2))),
        "exact": None if exact is None else float(exact.group(1)),
        "verdict": re.search(r"^verdict: (\w+)$", text, re.M).group(1),
    }


def parse_structured_report(text: str) -> dict:
    charge = json.loads(text)["charge"]
    chi = charge.get("chi")
    exact = charge["exact_value"]
    return {
        "uppers": {k: v["value"] for k, v in charge["upper_bounds"].items()},
        "lo": charge["interval"]["lo"]["value"],
        "hi": charge["interval"]["hi"]["value"],
        "chi": None if chi is None else (chi["A"]["value"], chi["B"]["value"]),
        "exact": None if exact is None else exact["value"],
        "verdict": charge["verdict"],
    }


class AnalyzeCorpus(Workload):
    """``entcharge analyze FILE`` in process over a seeded corpus of canonical
    ensemble files, alternating text and structured output."""

    name = "analyze_corpus"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.workdir = workdir
        self.items: list[tuple[str, dict]] = []  # (path, oracle expectations)

    def _add(self, kind: str, e, mats, expect=None) -> None:
        path = self.workdir / f"{len(self.items):02d}-{kind}.json"
        path.write_text(entcharge.fileio.write_ensemble(e))
        expect = dict(expect or {})
        expect["s"] = joint_entropies(average_of(e.probs, mats), e.dims.dA, e.dims.dB)
        self.items.append((str(path), expect))

    def _pure(self, kind: str, dA: int, dB: int, probs, vectors) -> None:
        self._add(kind, ensemble_of(dA, dB, probs, vectors, kind), projectors(vectors))

    def _mixed(self, kind: str, dA: int, dB: int, probs, mats) -> None:
        mats = [(m + m.conj().T) / 2 for m in mats]
        self._add(kind, ensemble_of(dA, dB, probs, mats, kind), mats)

    def setup(self) -> None:
        rng, gen = self.rng, entcharge.generators
        for d in range(2, 9):
            p = random_probs(d * d, rng)
            e = gen.generalized_bell_basis(d, p)
            self._add(f"gbell{d}", e, projectors([s.vector for s in e.states]), {"exact": shannon(p) - math.log2(d)})
        for dA, dB in ((2, 2), (2, 3), (3, 3), (3, 4)):
            e = gen.product_basis(dA, dB, random_probs(dA * dB, rng))
            self._add(f"product{dA}x{dB}", e, projectors([s.vector for s in e.states]))
        for _ in range(4):
            e = gen.rotated_basis(float(rng.uniform(0.0, np.pi / 2)), random_probs(4, rng))
            self._add("rotated", e, projectors([s.vector for s in e.states]))
        for d in range(2, 9):
            n = d * d
            for m in (2, (n + 1) // 2, n):
                u = haar_unitary(n, rng)
                self._pure(f"orth{d}x{d}m{m}", d, d, random_probs(m, rng), u[:, :m].T)
        for dA, dB, m in ((2, 2, 2), (3, 3, 3)):
            n = dA * dB
            u, r = haar_unitary(n, rng), n // m
            mats = [(u[:, k * r:(k + 1) * r] * random_probs(r, rng)) @ u[:, k * r:(k + 1) * r].conj().T for k in range(m)]
            self._mixed(f"mixedorth{dA}x{dB}", dA, dB, random_probs(m, rng), mats)
        for dA, dB, m in ((2, 2, 3), (2, 3, 4)):
            n = dA * dB
            gs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
            mats = [g @ g.conj().T / np.trace(g @ g.conj().T).real for g in gs]
            self._mixed(f"mixed{dA}x{dB}", dA, dB, random_probs(m, rng), mats)
        for dA, dB, m in ((2, 2, 3), (2, 3, 4), (3, 3, 5), (4, 4, 6)):
            n = dA * dB
            v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            self._pure(f"nonorth{dA}x{dB}", dA, dB, random_probs(m, rng), v / np.linalg.norm(v, axis=1)[:, None])

    def _fmt(self, i: int) -> str:
        return FORMATS[(i + i // len(self.items)) % 2]

    def key(self, i: int):
        return (i % len(self.items), self._fmt(i))

    def run_op(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = entcharge.cli.main(["analyze", self.items[i % len(self.items)][0], "--format", self._fmt(i)])
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, output) -> str | None:
        code, text, err = output
        if code != 0 or err:
            return f"exit code {code}: {err.strip()}"
        expect = self.items[i % len(self.items)][1]
        rep = parse_structured_report(text) if self._fmt(i) == "structured" else parse_text_report(text)
        lo, hi, exact, uppers = rep["lo"], rep["hi"], rep["exact"], rep["uppers"]
        errors = bounds_errors(uppers, lo, hi, expect, TOL)
        if exact is None and abs(hi - min(uppers.values())) > TOL:
            errors.append(f"hi={hi} is not the least upper bound")
        if "exact" in expect and (exact is None or abs(exact - expect["exact"]) > TOL):
            errors.append(f"exact value {exact}, oracle H(X) - log2 d = {expect['exact']}")
        if rep["chi"] is not None:
            chi_a, chi_b = rep["chi"]
            gap = (uppers["merging_AtoB"] - chi_a) - (uppers["merging_BtoA"] - chi_b)
            if abs(gap) > TOL:
                errors.append(f"S(A|B) - chi_A and S(B|A) - chi_B differ by {gap}")
        verdict = verdict_error(lo, hi, exact, rep["verdict"])
        if verdict:
            errors.append(verdict)
        return "; ".join(errors) or None


# -- family_sweep ------------------------------------------------------------------

SWEEP_STEPS = 129
SWEEP_PROBS = 4  # the equal distribution plus three seeded non-uniform ones


class FamilySweep(Workload):
    """``rotated_family_report`` over a theta grid on [0, pi/2], each point
    rendered as a sweep CSV row with ``fileio.format_float``."""

    name = "family_sweep"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    def setup(self) -> None:
        self.thetas = np.linspace(0.0, np.pi / 2, SWEEP_STEPS)
        self.probs = [np.full(4, 0.25)] + [random_probs(4, self.rng) for _ in range(SWEEP_PROBS - 1)]
        self.items = [(p, t) for p in range(SWEEP_PROBS) for t in range(SWEEP_STEPS)]

    def run_op(self, i: int):
        p, t = self.items[i % len(self.items)]
        fam = entcharge.bounds.rotated_family_report(float(self.thetas[t]), self.probs[p])
        ff = entcharge.fileio.format_float
        row = ",".join(
            [
                ff(fam.theta),
                ff(fam.entanglement_per_state),
                ff(fam.theorem1_bound),
                ff(fam.refined_bound),
                ff(fam.lower_bound),
                fam.charge.verdict,
            ]
        )
        return row, fam.charge.interval

    def check(self, i: int, output) -> str | None:
        row, (lo, hi) = output
        p, t = self.items[i % len(self.items)]
        theta = float(self.thetas[t])
        fields = row.split(",")
        per_state, refined = float(fields[1]), float(fields[3])
        expected = binary_entropy(math.cos(theta) ** 2)
        errors = []
        if float(fields[0]) != theta:
            errors.append(f"theta {fields[0]} != {theta!r}")
        if abs(per_state - expected) > 1e-9:
            errors.append(f"entanglement_per_state {per_state}, oracle H(cos^2 theta) = {expected}")
        if abs(refined - (shannon(self.probs[p]) - expected)) > 1e-9:
            errors.append(f"refined_bound {refined}, oracle H(X) - H(cos^2 theta) = {shannon(self.probs[p]) - expected}")
        if lo > hi + 1e-9:
            errors.append(f"interval [{lo}, {hi}] is inverted")
        return "; ".join(errors) or None

    def run_checks(self, outputs: dict[int, object]) -> dict[int, str]:
        """The rows equal ``entcharge sweep rotated`` on the same grid, for the
        equal and the first seeded distribution."""
        failures = {}
        for p in (0, 1):
            argv = ["sweep", "rotated", "--theta-min", "0", "--theta-max", repr(np.pi / 2), "--steps", str(SWEEP_STEPS)]
            if p:
                argv += ["--probs", ",".join(repr(float(x)) for x in self.probs[p])]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = entcharge.cli.main(argv)
            lines = out.getvalue().splitlines()[1:]
            for i, output in outputs.items():
                q, t = self.items[i % len(self.items)]
                if q == p and (code != 0 or t >= len(lines) or lines[t] != output[0]):
                    failures[i] = f"row differs from `entcharge sweep rotated` (exit code {code})"
        return failures


# -- accessible_search -------------------------------------------------------------

PAIR_ANGLE, PAIR_BAND = np.pi / 8, 0.03
PURE3_CONFIG = {"restarts": 2, "max_iters": 30}  # both restarts end at max_iters
# The search's cost varies by up to 60% between ensembles of one kind (its path
# depends on the angle and the frame), which would swamp a run of ~20 ops. So
# each kind has a table of ensembles whose searches cost about the same: their
# objective evaluations (counted as numpy.linalg.eigh calls, which repeat
# exactly) lie within a few percent of each other. An entry is the seed of the
# generator that draws the ensemble: the frame, and for a pair also its angle
# within PAIR_BAND of pi/8. The run seed picks one entry per kind, and every
# pass repeats the three picked ensembles.
PAIR_TABLE = (3, 6, 7, 10, 14, 15, 16)  # 16.7k-17.8k evaluations
TRINE_TABLE = (2, 4, 5, 7, 10, 13, 22, 24, 26)  # 25.3k-26.4k evaluations
PURE3_TABLE = (0, 1, 3, 4, 5, 7, 8, 9, 10)  # 10.7k-10.9k evaluations
_CAPPED = re.compile(r"on (\d+)/\d+ restarts")


def table_pair(entry: int) -> tuple[float, np.ndarray]:
    """(angle, vectors) of a 1x2 pair with overlap cos(angle)."""
    rng = np.random.default_rng(entry)
    angle = PAIR_ANGLE + rng.uniform(-PAIR_BAND, PAIR_BAND)
    return angle, np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]]) @ haar_unitary(2, rng).T


def table_trine(entry: int) -> np.ndarray:
    angles = 2 * np.pi * np.arange(3) / 3
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) @ haar_unitary(2, np.random.default_rng(entry)).T


def table_pure3(entry: int) -> np.ndarray:
    rng = np.random.default_rng(entry)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    return v / np.linalg.norm(v, axis=1)[:, None]


class AccessibleSearch(Workload):
    """``estimate_accessible_info`` then ``analyze(e, info)`` on non-orthogonal
    pure ensembles: a 1x2 equal-prior pair and a trine at the CLI default
    optimizer config, and a 2x2 three-member ensemble."""

    name = "accessible_search"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))

    def _pick(self, table: tuple[int, ...]) -> int:
        return table[int(self.rng.integers(len(table)))]

    def setup(self) -> None:
        self.items = []
        angle, pair = table_pair(self._pick(PAIR_TABLE))
        self._add("pair", 1, 2, [0.5, 0.5], pair, 1.0 - binary_entropy((1.0 + math.sin(angle)) / 2.0))
        self._add("trine", 1, 2, np.full(3, 1 / 3), table_trine(self._pick(TRINE_TABLE)), math.log2(3) - 1.0)
        self._add("pure3", 2, 2, np.full(3, 1 / 3), table_pure3(self._pick(PURE3_TABLE)), 0.0, PURE3_CONFIG)

    def _add(self, kind, dA, dB, probs, vectors, closed_form: float, config=None) -> None:
        rho = average_of(probs, projectors(vectors))
        expect = {
            "s": joint_entropies(rho, dA, dB),
            "hi": min(shannon(probs), entropy_of(rho)),
            "floor": max(closed_form, pgm_information(probs, vectors)),
        }
        cfg = entcharge.accessible.OptimizerConfig(**(config or {}))
        self.items.append((kind, ensemble_of(dA, dB, probs, vectors), cfg, expect))

    def run_op(self, i: int):
        _, e, cfg, _ = self.items[i % len(self.items)]
        info = entcharge.accessible.estimate_accessible_info(e, cfg)
        report = entcharge.bounds.analyze(e, info)
        return info.lo, info.hi, info.note, report.interval, report.verdict, dict(report.upper_bounds)

    def check(self, i: int, output) -> str | None:
        kind, _, _, expect = self.items[i % len(self.items)]
        lo, hi, _, (clo, chi), verdict, uppers = output
        errors = bounds_errors(uppers, clo, chi, expect, 1e-9)
        if lo > hi + 1e-9:
            errors.append(f"accessible interval [{lo}, {hi}] is inverted")
        if abs(hi - expect["hi"]) > 1e-9:
            errors.append(f"accessible hi={hi}, oracle min(H(X), chi) = {expect['hi']}")
        if lo < expect["floor"] - ACCESSIBLE_FLOOR_TOL:
            errors.append(f"{kind}: accessible lo={lo} below the closed-form / pretty-good floor {expect['floor']}")
        verdict_msg = verdict_error(clo, chi, None, verdict)
        if verdict_msg:
            errors.append(verdict_msg)
        return "; ".join(errors) or None

    def quality(self, outputs: dict[int, object]) -> dict[str, float]:
        """Mean accessible lower edge and capped restarts (parsed from the
        interval note) per op."""
        if not outputs:
            return {}
        capped = [_CAPPED.search(out[2]) for out in outputs.values()]
        return {
            "info_lo_bits": float(np.mean([out[0] for out in outputs.values()])),
            "capped_restarts": sum(int(m.group(1)) for m in capped if m) / len(outputs),
        }


WORKLOADS = {w.name: w for w in (AnalyzeCorpus, FamilySweep, AccessibleSearch)}
