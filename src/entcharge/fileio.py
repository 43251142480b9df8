"""Ensemble file format and report serialization.

Files are strict JSON with a fixed canonical rendering: key order
schema_version, label, dims, members; complex numbers as [re, im] pairs of
decimal literals; floats printed with 17 significant digits. Canonically
written files round-trip byte-identically through parse + write.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_string

import numpy as np

from .accessible import InfoInterval
from .bounds import ChargeReport, FamilyReport
from .ensembles import Ensemble, StructureFlags, _check_label, make_ensemble
from .errors import ParseError, ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .states import BipartiteDims, BipartiteState, validate_pure_states, validate_state

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering; canonicalizes -0.0 to 0."""
    return format(float(x) + 0.0, ".17g")


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot render non-finite number {float(value)!r}")
        return format_float(value)
    if isinstance(value, str):
        return _encode_string(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value)!r}")


def _render(value, indent: str) -> str:
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{inner}{_encode_string(k)}: {_render(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + indent + "}"
    if isinstance(value, np.ndarray):
        # A 1-D complex array: one [re, im] line per entry, all formatted at
        # once; "%.17g" is format_float's conversion and + 0.0 its -0.0 rule.
        if not value.size:
            return "[]"
        flat = np.ascontiguousarray(value, dtype=complex).view(float) + 0.0
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError(f"cannot render non-finite number {float(flat[~finite][0])!r}")
        lines = (",\n" + inner).join(["[%.17g, %.17g]"] * value.size) % tuple(flat.tolist())
        return "[\n" + inner + lines + "\n" + indent + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Leaf lists (scalars only) stay on one line; anything nested wraps.
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            return "[" + ", ".join(map(_scalar, value)) + "]"
        parts = [inner + _render(v, inner) for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + indent + "]"
    return _scalar(value)


def dumps_canonical(doc: dict) -> str:
    """Deterministic JSON text (insertion-ordered keys, LF, trailing newline).

    A 1-D numpy array is written as a list of complex [re, im] pairs. Raises
    ValueError on a NaN or infinite float, which strict JSON cannot hold.
    """
    return _render(doc, "") + "\n"


def ensemble_to_document(e: Ensemble) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if e.label is not None:
        doc["label"] = e.label
    doc["dims"] = {"dA": e.dims.dA, "dB": e.dims.dB}
    members = []
    for p, s in e.members:
        if s.is_pure:
            state = {"kind": "pure", "data": s.vector}
        else:
            state = {"kind": "density", "data": list(s.matrix)}
        members.append({"prob": float(p), "state": state})
    doc["members"] = members
    return doc


def write_ensemble(e: Ensemble) -> str:
    """Canonical file text for an ensemble."""
    return dumps_canonical(ensemble_to_document(e))


# -- strict parsing -----------------------------------------------------------


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name!r} is not allowed")


class _JsonObject(dict):
    """A parsed JSON object plus its first repeated key, if any; json.loads
    alone would keep the repeated key's last value without a word."""

    duplicate: str | None = None


def _json_object(pairs: list[tuple[str, object]]) -> _JsonObject:
    obj = _JsonObject(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        obj.duplicate = next(k for i, k in enumerate(keys) if k in keys[:i])
    return obj


def _expect_object(value, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object")
    if value.duplicate is not None:
        raise ParseError(f"{path}: duplicate field {value.duplicate!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ParseError(f"{path}: unknown field {key!r}")
    for key in required:
        if key not in value:
            raise ParseError(f"{path}: missing required field {key!r}")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{path}: integer too large to convert to a float") from None


def _expect_pair(value, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{path}: expected a [re, im] pair")
    re = _expect_number(value[0], f"{path}[0]")
    im = _expect_number(value[1], f"{path}[1]")
    return complex(re, im)


def _pair_array(data: list, path: str) -> np.ndarray:
    """The complex numbers of a list of [re, im] pairs; path names the list.

    Well-formed input is recognized and converted at C level: every entry a
    list of two, every number of type int or float (json.loads makes no other
    number, and a bool's type is bool), then one np.fromiter over the
    flattened numbers, which has np.array's bits. Anything else goes through
    _expect_pair element by element, which raises the first bad element's
    path-qualified error.
    """
    if set(map(type, data)) <= {list} and set(map(len, data)) <= {2}:
        flat = list(chain.from_iterable(data))
        if set(map(type, flat)) <= {int, float}:
            try:
                return np.fromiter(flat, dtype=float, count=len(flat)).view(complex)
            except OverflowError:  # an integer beyond float range, which _expect_pair names
                pass
    return np.array([_expect_pair(v, f"{path}[{k}]") for k, v in enumerate(data)])


def _parse_member(item, path: str) -> tuple[float, np.ndarray]:
    """The probability and raw state data of one member entry; path names it."""
    _expect_object(item, path, required=("prob", "state"))
    prob = _expect_number(item["prob"], f"{path}.prob")
    state_doc = _expect_object(item["state"], f"{path}.state", required=("kind", "data"))
    kind = state_doc["kind"]
    data = state_doc["data"]
    if kind == "pure":
        if not isinstance(data, list) or not data:
            raise ParseError(f"{path}.state.data: expected a nonempty list of [re, im] pairs")
        return prob, _pair_array(data, f"{path}.state.data")
    if kind == "density":
        if not isinstance(data, list) or not data:
            raise ParseError(f"{path}.state.data: expected a nonempty list of rows")
        rows = []
        for r, row in enumerate(data):
            if not isinstance(row, list):
                raise ParseError(f"{path}.state.data[{r}]: expected a row of [re, im] pairs")
            rows.append(_pair_array(row, f"{path}.state.data[{r}]"))
        lengths = {len(r) for r in rows}
        if lengths != {len(rows)}:
            raise ParseError(f"{path}.state.data: expected a square matrix")
        return prob, np.array(rows)
    raise ParseError(f"{path}.state.kind: expected 'pure' or 'density', got {kind!r}")


def _member_states(dims: BipartiteDims, raws: list[np.ndarray], tol: Tolerances) -> list[BipartiteState]:
    """Validated states of the members' raw data, in member order. The pure
    vectors of the right length are validated in one stack; when that fails,
    each member is validated alone, so the error is the first bad member's."""
    fits = [a.ndim == 1 and a.shape[0] == dims.joint for a in raws]
    batch = iter(())
    if any(fits):
        try:
            batch = iter(validate_pure_states(dims, [a for a, fit in zip(raws, fits) if fit], tol))
        except ValidationError:
            fits = [False] * len(raws)
    states = []
    for i, (a, fit) in enumerate(zip(raws, fits)):
        try:
            states.append(next(batch) if fit else validate_state(dims, a, tol))
        except Exception as exc:
            raise ParseError(f"members[{i}].state: {exc}") from exc
    return states


def parse_ensemble(text: str, tol: Tolerances = DEFAULT_TOLERANCES) -> Ensemble:
    """Parse and fully validate an ensemble file (strict mode)."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # int() refuses a literal beyond the interpreter's digit limit
        raise ParseError(f"syntax error: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ParseError("syntax error: arrays or objects nested too deeply") from exc
    _expect_object(doc, "$", required=("schema_version", "dims", "members"), optional=("label",))
    version = _expect_int(doc["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: unsupported value {version} (expected {SCHEMA_VERSION})")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label: expected a string")
    _check_label(label, ParseError)
    dims_doc = _expect_object(doc["dims"], "dims", required=("dA", "dB"))
    dims = BipartiteDims(_expect_int(dims_doc["dA"], "dims.dA"), _expect_int(dims_doc["dB"], "dims.dB"))
    members_doc = doc["members"]
    if not isinstance(members_doc, list) or not members_doc:
        raise ParseError("members: expected a nonempty list")
    probs, raws, fault = [], [], None
    for i, item in enumerate(members_doc):
        try:
            prob, raw = _parse_member(item, f"members[{i}]")
        except ParseError as exc:
            fault = exc
            break
        probs.append(prob)
        raws.append(raw)
    # A bad state before a malformed member is the first fault of the file.
    states = _member_states(dims, raws, tol)
    if fault is not None:
        raise fault
    members = list(zip(probs, states))
    try:
        return make_ensemble(members, label=label, tol=tol)
    except Exception as exc:
        raise ParseError(f"members: {exc}") from exc


# -- report documents ---------------------------------------------------------


def _bits(value: float, provenance: str = "computed") -> dict:
    return {"value": float(value), "unit": "bits", "provenance": provenance}


def flags_to_document(flags: StructureFlags) -> dict:
    """The flags by field name, in field order."""
    return asdict(flags)


def charge_to_document(report: ChargeReport) -> dict:
    doc: dict = {
        "upper_bounds": {c.name: _bits(c.value, c.provenance) for c in report.uppers},
        "lower_bound": {**_bits(report.interval[0]), "informative": report.lower_bound_informative},
        "exact_value": None if report.exact_value is None else _bits(report.exact_value),
        "interval": {"lo": _bits(report.interval[0]), "hi": _bits(report.interval[1])},
        "verdict": report.verdict,
    }
    if report.chi_a is not None:
        doc["chi"] = {"A": _bits(report.chi_a), "B": _bits(report.chi_b)}
    if report.known_charge is not None:
        doc["known_charge"] = {
            **_bits(report.known_charge, provenance="annotated"),
            "note": report.known_charge_note or "",
        }
    doc["notes"] = list(report.notes)
    return doc


def report_document(
    e: Ensemble,
    report: ChargeReport,
    source: str,
    version: str,
    accessible: InfoInterval | None = None,
) -> dict:
    doc: dict = {
        "tool": {"name": "entcharge", "version": version},
        "tolerances": asdict(e.tol),
        "input": {
            "source": source,
            "label": e.label,
            "dims": {"dA": e.dims.dA, "dB": e.dims.dB},
            "members": len(e.members),
            "probs": [float(p) for p in e.probs],
            "flags": flags_to_document(report.flags),
        },
    }
    if accessible is not None:
        doc["accessible_info"] = {
            "lo": _bits(accessible.lo),
            "hi": _bits(accessible.hi),
            "note": accessible.note,
        }
    doc["charge"] = charge_to_document(report)
    return doc


def family_to_document(report: FamilyReport) -> dict:
    doc: dict = {
        "theta": {"value": report.theta, "unit": "radians", "provenance": "input"},
        "probs": list(report.probs),
        "entanglement_per_state": _bits(report.entanglement_per_state),
        "theorem1_upper": _bits(report.theorem1_bound),
        "refined_upper": _bits(report.refined_bound),
        "lower_bound": _bits(report.lower_bound),
    }
    if report.external_gate_cost is not None:
        doc["external_gate_cost"] = _bits(report.external_gate_cost, provenance="user-supplied")
    doc["charge"] = charge_to_document(report.charge)
    return doc


# Header of the rotated-family sweep CSV; one family_csv_row per theta.
CSV_HEADER = "theta,entanglement_per_state,theorem1_upper,refined_upper,lower_bound,verdict"


def family_csv_row(report: FamilyReport) -> str:
    """One sweep CSV row (no newline), in CSV_HEADER's column order."""
    return ",".join(
        [
            format_float(report.theta),
            format_float(report.entanglement_per_state),
            format_float(report.theorem1_bound),
            format_float(report.refined_bound),
            format_float(report.lower_bound),
            report.charge.verdict,
        ]
    )
