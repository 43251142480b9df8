import json
import re

import numpy as np
import pytest

from entcharge import (
    BipartiteDims,
    ParseError,
    ValidationError,
    bell_basis,
    equal_probs,
    generalized_bell_basis,
    make_ensemble,
    product_basis,
    rotated_basis,
    validate_state,
)
from entcharge.fileio import format_float, parse_ensemble, write_ensemble


def all_generator_outputs():
    return [
        bell_basis(equal_probs(4)),
        bell_basis([1, 0, 0, 0]),
        bell_basis([0.5, 0.25, 0.125, 0.125]),
        generalized_bell_basis(2, equal_probs(4)),
        generalized_bell_basis(3, [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]),
        product_basis(2, 2, equal_probs(4)),
        product_basis(3, 2, equal_probs(6)),
        rotated_basis(0.0, equal_probs(4)),
        rotated_basis(np.pi / 6, equal_probs(4)),
        rotated_basis(np.pi / 2, equal_probs(4)),
    ]


def test_format_float_canonicalizes_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(0.25) == "0.25"
    assert float(format_float(1 / 3)) == 1 / 3  # 17 digits round-trip


@pytest.mark.parametrize("e", all_generator_outputs(), ids=lambda e: e.label)
def test_round_trip_byte_identical(e):
    text = write_ensemble(e)
    again = write_ensemble(parse_ensemble(text))
    assert again == text
    third = write_ensemble(parse_ensemble(again))
    assert third == again


def test_parse_minimal_pure_file():
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [
        {"prob": 0.5, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}},
        {"prob": 0.5, "state": {"kind": "pure", "data": [[0, 0], [1, 0]]}}
     ]}
    """
    e = parse_ensemble(text)
    assert len(e.members) == 2
    assert e.dims.dA == 1 and e.dims.dB == 2


def test_parse_density_member():
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [
        {"prob": 1, "state": {"kind": "density",
         "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}
     ]}
    """
    e = parse_ensemble(text)
    assert not e.members[0][1].is_pure


def test_parse_rejects_bad_prob_sum_naming_trace_tol():
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [
        {"prob": 0.5, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}},
        {"prob": 0.4, "state": {"kind": "pure", "data": [[0, 0], [1, 0]]}}
     ]}
    """
    with pytest.raises(ParseError, match="trace_tol"):
        parse_ensemble(text)


def test_parse_rejects_unknown_fields_with_path():
    text = '{"schema_version": 1, "dims": {"dA": 1, "dB": 2}, "members": [], "extra": 1}'
    with pytest.raises(ParseError, match="unknown field 'extra'"):
        parse_ensemble(text)
    nested = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [{"prob": 1, "state": {"kind": "pure", "data": [[1, 0], [0, 0]], "oops": 2}}]}
    """
    with pytest.raises(ParseError, match=r"members\[0\].state: unknown field 'oops'"):
        parse_ensemble(nested)


@pytest.mark.parametrize(
    "dims,member,diagnostic",
    [
        ('{"dA": 1, "dB": 2, "dA": 2}', '{"prob": 1.0, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}}',
         "dims: duplicate field 'dA'"),
        ('{"dA": 1, "dB": 2}', '{"prob": 5.0, "prob": 1.0, "state": {"kind": "pure", "data": [[1, 0], [0, 0]]}}',
         r"members\[0\]: duplicate field 'prob'"),
    ],
    ids=["dims", "member"],
)
def test_parse_rejects_repeated_fields_with_path(dims, member, diagnostic):
    text = f'{{"schema_version": 1, "dims": {dims}, "members": [{member}]}}'
    with pytest.raises(ParseError, match=diagnostic):
        parse_ensemble(text)


@pytest.mark.parametrize("char", ["\n", "\r", "\t", "\x00", "\x1b", "\x7f", "\x85"])
def test_parse_rejects_control_characters_in_label(char):
    canonical = write_ensemble(bell_basis(equal_probs(4)))

    def with_label(label):
        return canonical.replace('"label": "bell"', f'"label": {json.dumps(label)}')

    with pytest.raises(ParseError, match=rf"^label: control character U\+{ord(char):04X} is not allowed$"):
        parse_ensemble(with_label("a" + char))
    assert parse_ensemble(with_label("Bell é — ψ")).label == "Bell é — ψ"


@pytest.mark.parametrize("char", ["\u2028", "\u2029"])
def test_parse_rejects_line_separators_in_label(char):
    canonical = write_ensemble(bell_basis(equal_probs(4)))
    text = canonical.replace('"label": "bell"', f'"label": {json.dumps("a" + char)}')
    with pytest.raises(ParseError, match=rf"^label: line separator U\+{ord(char):04X} is not allowed$"):
        parse_ensemble(text)


def test_make_ensemble_accepts_only_labels_that_round_trip():
    members = bell_basis(equal_probs(4)).members
    with pytest.raises(ValidationError, match=r"^label: control character U\+000A is not allowed$"):
        make_ensemble(members, label="a\nverdict: x")
    with pytest.raises(ValidationError, match=r"^label: line separator U\+2029 is not allowed$"):
        make_ensemble(members, label="a\u2029verdict: x")
    e = make_ensemble(members, label="Bell é — ψ")
    text = write_ensemble(e)
    assert write_ensemble(parse_ensemble(text)) == text


def test_bad_label_is_reported_before_a_dims_error():
    mismatched = [(0.5, validate_state(BipartiteDims(2, 2), [1, 0, 0, 0])),
                  (0.5, validate_state(BipartiteDims(1, 2), [1, 0]))]
    with pytest.raises(ValidationError, match=r"^label: control character U\+000A is not allowed$"):
        make_ensemble(mismatched, label="a\n")
    text = json.dumps({"schema_version": 1, "label": "a\n", "dims": {"dA": 2, "dB": 2},
                       "members": [{"prob": 1, "state": {"kind": "pure", "data": [[1, 0]]}}]})
    with pytest.raises(ParseError, match=r"^label: control character U\+000A is not allowed$"):
        parse_ensemble(text)


def test_parse_syntax_error_reports_line_and_column():
    with pytest.raises(ParseError, match="line 2, column"):
        parse_ensemble('{"schema_version": 1,\n  "dims": }')


def test_parse_rejects_wrong_schema_version():
    with pytest.raises(ParseError, match="schema_version"):
        parse_ensemble('{"schema_version": 2, "dims": {"dA": 1, "dB": 2}, "members": []}')


def test_parse_rejects_nonfinite_numbers():
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [{"prob": 1, "state": {"kind": "pure", "data": [[NaN, 0], [0, 0]]}}]}
    """
    with pytest.raises(ParseError, match="non-finite"):
        parse_ensemble(text)


def test_parse_rejects_negative_eigenvalue_density():
    text = """
    {"schema_version": 1, "dims": {"dA": 1, "dB": 2},
     "members": [{"prob": 1, "state": {"kind": "density",
       "data": [[[1.1, 0], [0, 0]], [[0, 0], [-0.1, 0]]]}}]}
    """
    with pytest.raises(ParseError, match="negative eigenvalue"):
        parse_ensemble(text)


def test_parse_rejects_dims_mismatch():
    text = """
    {"schema_version": 1, "dims": {"dA": 2, "dB": 3},
     "members": [{"prob": 1, "state": {"kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}}]}
    """
    with pytest.raises(ParseError, match="dims"):
        parse_ensemble(text)


@pytest.mark.parametrize(
    "kind,data,diagnostic",
    [
        ("pure", "[[1, 0, 0], [0, 0]]", "members[0].state.data[0]: expected a [re, im] pair"),
        ("pure", "[[1, 0], 5]", "members[0].state.data[1]: expected a [re, im] pair"),
        ("pure", "[[1, 0], [true, 0]]", "members[0].state.data[1][0]: expected a number"),
        ("pure", '[[1, 0], [0, "0"]]', "members[0].state.data[1][1]: expected a number"),
        ("pure", "[[1, 0], [0, null]]", "members[0].state.data[1][1]: expected a number"),
        ("pure", "[[1, 0], [[0], 0]]", "members[0].state.data[1][0]: expected a number"),
        ("pure", "[[1" + "0" * 400 + ", 0], [0, 0]]",
         "members[0].state.data[0][0]: integer too large to convert to a float"),
        ("density", "[[[1, 0], [0, 0]], [[0, 0]]]", "members[0].state.data: expected a square matrix"),
        ("density", "[[[1, 0], [0, 0]], 3]", "members[0].state.data[1]: expected a row of [re, im] pairs"),
        ("density", "[[[1, 0], [0, 0]], [[0, 0], [0, false]]]", "members[0].state.data[1][1][1]: expected a number"),
        ("density", "[[[1, 0], [0, 0]], [[0, 0], [0]]]", "members[0].state.data[1][1]: expected a [re, im] pair"),
    ],
    ids=["length", "non-list", "bool", "string", "null", "nested", "huge-int",
         "ragged-row", "row-non-list", "row-bool", "row-length"],
)
def test_parse_rejects_bad_pair(kind, data, diagnostic):
    text = f"""
    {{"schema_version": 1, "dims": {{"dA": 1, "dB": 2}},
     "members": [{{"prob": 1, "state": {{"kind": "{kind}", "data": {data}}}}}]}}
    """
    with pytest.raises(ParseError, match=f"^{re.escape(diagnostic)}$"):
        parse_ensemble(text)


def test_label_survives_round_trip():
    e = bell_basis(equal_probs(4))
    text = write_ensemble(e)
    assert parse_ensemble(text).label == "bell"


def test_family_document_units_and_provenance():
    import json

    from entcharge import rotated_family_report
    from entcharge.fileio import dumps_canonical, family_to_document

    fam = rotated_family_report(np.pi / 6, [0.25] * 4, gate_cost=0.95)
    doc = family_to_document(fam)
    parsed = json.loads(dumps_canonical(doc))
    assert parsed["theta"]["unit"] == "radians"
    assert parsed["entanglement_per_state"]["unit"] == "bits"
    assert parsed["entanglement_per_state"]["provenance"] == "computed"
    assert parsed["external_gate_cost"]["provenance"] == "user-supplied"
    assert parsed["charge"]["verdict"] == fam.charge.verdict


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")], ids=["nan", "inf", "-inf", "np-nan"]
)
def test_dumps_canonical_rejects_non_finite_numbers(value):
    from entcharge.fileio import dumps_canonical

    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical({"points": [{"value": value}]})


def test_report_document_annotation_provenance():
    import json

    from entcharge import analyze, product_basis
    from entcharge.fileio import dumps_canonical, report_document

    e = product_basis(2, 2, equal_probs(4))
    report = analyze(e)
    doc = report_document(e, report, source="mem", version="0.1.0")
    parsed = json.loads(dumps_canonical(doc))
    assert parsed["charge"]["known_charge"]["provenance"] == "annotated"
    assert parsed["charge"]["known_charge"]["value"] == 0.0
    assert parsed["charge"]["lower_bound"]["provenance"] == "computed"
