"""Command-line surface: validate | analyze | generate | sweep.

Exit codes: 0 success, 1 internal error, 2 input or validation error.
All angles are radians. Output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .accessible import InfoInterval, OptimizerConfig, estimate_accessible_info
from .bounds import ChargeReport, analyze, rotated_family_report
from .ensembles import Ensemble
from .errors import EntchargeError, ParseError, ValidationError
from .fileio import (
    CSV_HEADER,
    dumps_canonical,
    family_csv_row,
    family_to_document,
    flags_to_document,
    parse_ensemble,
    report_document,
    write_ensemble,
)
from .generators import bell_basis, equal_probs, generalized_bell_basis, product_basis, rotated_basis
from .linalg import DEFAULT_TOLERANCES, STRICT_TOLERANCES, Tolerances


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="entcharge",
        description="Entanglement-charge bounds and nonlocality verdicts for bipartite-state ensembles.",
    )
    parser.add_argument(
        "--tolerance-profile", choices=("default", "strict"), default="default",
        help="numeric tolerance profile (default: default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate an ensemble file")
    p_validate.add_argument("input", help="path to an ensemble file")
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="compute charge bounds and the verdict")
    p_analyze.add_argument("input", help="path to an ensemble file")
    p_analyze.add_argument(
        "--accessible-info", choices=("off", "estimate"), default="off",
        help="bracket the accessible information and use it for the lower bound",
    )
    p_analyze.add_argument("--restarts", type=int, default=8, help="optimizer restarts")
    p_analyze.add_argument("--seed", type=int, default=0, help="optimizer seed")
    p_analyze.add_argument("--format", choices=("text", "structured"), default="text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_generate = sub.add_parser("generate", help="write a canonical ensemble file")
    p_generate.add_argument("family", choices=("bell", "gbell", "product", "rotated"))
    p_generate.add_argument("--d", type=int, help="local dimension for gbell")
    p_generate.add_argument("--da", type=int, help="Alice dimension for product")
    p_generate.add_argument("--db", type=int, help="Bob dimension for product")
    p_generate.add_argument("--theta", type=float, help="rotation angle in radians for rotated")
    p_generate.add_argument("--probs", help="comma-separated probabilities (default: equal)")
    p_generate.add_argument("-o", "--output", required=True, help="output file path")
    p_generate.set_defaults(func=_cmd_generate)

    p_sweep = sub.add_parser("sweep", help="family bounds over a theta range")
    p_sweep.add_argument("family", choices=("rotated",))
    p_sweep.add_argument("--theta-min", type=float, required=True)
    p_sweep.add_argument("--theta-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--probs", help="comma-separated probabilities (default: equal)")
    p_sweep.add_argument(
        "--gate-cost", type=float,
        help="average entanglement cost of the unrotating gate in bits, supplied not computed",
    )
    p_sweep.add_argument(
        "--format", choices=("csv", "structured"), default="csv",
        help="CSV rows or one structured document per point",
    )
    p_sweep.add_argument("-o", "--output", help="output path (default: stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _tolerances(args) -> Tolerances:
    return STRICT_TOLERANCES if args.tolerance_profile == "strict" else DEFAULT_TOLERANCES


def _read_ensemble(path: str, tol: Tolerances) -> Ensemble:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_ensemble(text, tol)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _parse_probs(text: str | None, n: int) -> np.ndarray:
    """A --probs value of comma-separated probabilities; n equal ones if None."""
    if text is None:
        return equal_probs(n)
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --probs {text!r}: {exc}") from exc
    return np.array(values)


def _fmt_bits(v: float) -> str:
    return format(round(v, 9) + 0.0, ".9f")


def _flags_line(flags) -> str:
    doc = flags_to_document(flags)
    return " ".join(f"{k}={str(v).lower()}" for k, v in doc.items())


def _render_text_report(
    e: Ensemble, report: ChargeReport, accessible: InfoInterval | None
) -> str:
    lines = []
    lines.append(f"label: {e.label if e.label is not None else '(none)'}")
    lines.append(f"dims: {e.dims.dA}x{e.dims.dB}  members: {len(e.members)}")
    lines.append(f"flags: {_flags_line(report.flags)}")
    lines.append("upper bounds (bits):")
    for name, value in report.upper_bounds.items():
        lines.append(f"  {name:18s} {_fmt_bits(value)}")
    informative = "informative" if report.lower_bound_informative else "uninformative floor"
    lines.append(f"lower bound (bits): {_fmt_bits(report.lower_bound)} ({informative})")
    if report.chi_a is not None:
        lines.append(f"chi_A (bits): {_fmt_bits(report.chi_a)}  chi_B (bits): {_fmt_bits(report.chi_b)}")
    if report.exact_value is not None:
        lines.append(f"exact value (bits): {_fmt_bits(report.exact_value)}")
    lines.append(
        f"interval (bits): [{_fmt_bits(report.interval[0])}, {_fmt_bits(report.interval[1])}]"
    )
    lines.append(f"verdict: {report.verdict}")
    if report.known_charge is not None:
        lines.append(
            f"known value (bits): {_fmt_bits(report.known_charge)} (annotated, not computed)"
        )
        if report.known_charge_note:
            lines.append(f"  note: {report.known_charge_note}")
    if accessible is not None:
        suffix = f"  ({accessible.note})" if accessible.note else ""
        lines.append(
            f"accessible info (bits): [{_fmt_bits(accessible.lo)}, {_fmt_bits(accessible.hi)}]{suffix}"
        )
    if report.notes:
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    e = _read_ensemble(args.input, _tolerances(args))
    label = e.label if e.label is not None else "(none)"
    print(f"valid ensemble: label={label} dims={e.dims.dA}x{e.dims.dB} members={len(e.members)}")
    print(f"flags: {_flags_line(e.flags)}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    e = _read_ensemble(args.input, _tolerances(args))
    accessible = None
    if args.accessible_info == "estimate":
        accessible = estimate_accessible_info(e, cfg)
    report = analyze(e, accessible)
    if args.format == "structured":
        doc = report_document(e, report, source=args.input, version=__version__, accessible=accessible)
        sys.stdout.write(dumps_canonical(doc))
    else:
        sys.stdout.write(_render_text_report(e, report, accessible))
    return 0


def _cmd_generate(args) -> int:
    tol = _tolerances(args)
    if args.family == "bell":
        e = bell_basis(_parse_probs(args.probs, 4), tol)
    elif args.family == "gbell":
        if args.d is None:
            raise ValidationError("generate gbell requires --d")
        e = generalized_bell_basis(args.d, _parse_probs(args.probs, args.d * args.d), tol)
    elif args.family == "product":
        if args.da is None or args.db is None:
            raise ValidationError("generate product requires --da and --db")
        e = product_basis(args.da, args.db, _parse_probs(args.probs, args.da * args.db), tol)
    else:
        if args.theta is None:
            raise ValidationError("generate rotated requires --theta")
        e = rotated_basis(args.theta, _parse_probs(args.probs, 4), tol)
    _write_text(args.output, write_ensemble(e))
    print(f"wrote {e.label} ensemble to {args.output}: dims={e.dims.dA}x{e.dims.dB} members={len(e.members)}")
    print(f"flags: {_flags_line(e.flags)}")
    return 0


def _cmd_sweep(args) -> int:
    tol = _tolerances(args)
    if args.steps < 1:
        raise ValidationError(f"sweep needs at least one step, got {args.steps}")
    if not 0.0 <= args.theta_min <= args.theta_max <= np.pi / 2:
        raise ValidationError(
            f"sweep range [{args.theta_min!r}, {args.theta_max!r}] must lie inside [0, pi/2]"
        )
    probs = _parse_probs(args.probs, 4)
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    fams = [rotated_family_report(float(theta), probs, args.gate_cost, tol) for theta in thetas]
    if args.format == "structured":
        text = dumps_canonical({"points": [family_to_document(fam) for fam in fams]})
    else:
        text = "\n".join([CSV_HEADER, *(family_csv_row(fam) for fam in fams)]) + "\n"
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except EntchargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
