import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entcharge import (
    BipartiteDims,
    ParseError,
    ValidationError,
    analyze,
    bell_basis,
    equal_probs,
    generalized_bell_basis,
    make_ensemble,
    product_basis,
    rotated_basis,
    rotated_family_report,
    validate_state,
)
from entcharge import fileio
from entcharge.fileio import (
    dumps_canonical,
    family_to_document,
    format_float,
    parse_ensemble,
    report_document,
    write_ensemble,
)
from helpers import ensemble_to_document, random_density, random_pure_vector, reference_dumps


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


def _late_pairs(bad: dict[int, str]) -> str:
    """A 64-pair data list, [0, 0] everywhere but at the indices of bad."""
    return "[" + ", ".join(bad.get(k, "[0, 0]") for k in range(64)) + "]"


HUGE = "1" + "0" * 400


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
        # The same faults late in a 64-pair member, and the first of two.
        ("pure", _late_pairs({63: "[1, 0, 0]"}), "members[0].state.data[63]: expected a [re, im] pair"),
        ("pure", _late_pairs({40: "[true, 0]"}), "members[0].state.data[40][0]: expected a number"),
        ("pure", _late_pairs({47: '[0, "0"]'}), "members[0].state.data[47][1]: expected a number"),
        ("pure", _late_pairs({52: "[0, null]"}), "members[0].state.data[52][1]: expected a number"),
        ("pure", _late_pairs({58: "[[0], 0]"}), "members[0].state.data[58][0]: expected a number"),
        ("pure", _late_pairs({41: f"[{HUGE}, 0]"}), "members[0].state.data[41][0]: integer too large to convert to a float"),
        ("pure", _late_pairs({44: f"[0, {HUGE}]", 60: "[false, 0]"}),
         "members[0].state.data[44][1]: integer too large to convert to a float"),
        ("pure", _late_pairs({44: "[0, false]", 60: f"[{HUGE}, 0]"}), "members[0].state.data[44][1]: expected a number"),
    ],
    ids=["length", "non-list", "bool", "string", "null", "nested", "huge-int",
         "ragged-row", "row-non-list", "row-bool", "row-length",
         "late-length", "late-bool", "late-string", "late-null", "late-nested", "late-huge-int",
         "huge-int-before-bool", "bool-before-huge-int"],
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
    assert {name: b["provenance"] for name, b in parsed["charge"]["upper_bounds"].items()} == {
        "merging_AtoB": "computed",
        "merging_BtoA": "computed",
        "compress_teleport": "computed",
        "family_refined": "computed",
        "external_gate_cost": "user-supplied",
    }
    assert parsed["charge"]["verdict"] == fam.charge.verdict


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
     np.array([1 + 0j, complex(float("nan"), 0.5)]), np.array([0.5j, complex(0, float("inf"))])],
    ids=["nan", "inf", "-inf", "np-nan", "array-nan-real", "array-inf-imag"],
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


_UNIT = [[0.6, 0], [0, 0.8], [0, 0], [0, 0]]
_LONG = [[0.7, 0], [0, 0.8], [0, 0], [0, 0]]  # norm 1.063...
_NORM_ERROR = "pure state norm 1.063014581273465 deviates from 1 by 6.301e-02, beyond trace_tol=1e-09"
_NEGATIVE = {"kind": "density", "data": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [-0.5, 0], [0, 0], [0, 0]],
                                          [[0, 0], [0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0, 0]]]}


def _pure_member(data):
    return {"prob": 0.25, "state": {"kind": "pure", "data": data}}


@pytest.mark.parametrize(
    "members,diagnostic",
    [
        ([_pure_member(_UNIT), _pure_member(_LONG), {"prob": 0.25}], f"members[1].state: {_NORM_ERROR}"),
        ([_pure_member(_UNIT), {"prob": 0.25}, _pure_member(_LONG)], "members[1]: missing required field 'state'"),
        ([_pure_member(_LONG), {"prob": 0.25, "state": {"kind": "mixed", "data": []}}],
         f"members[0].state: {_NORM_ERROR}"),
        ([_pure_member(_UNIT), _pure_member(_LONG), {"prob": 0.25, "state": _NEGATIVE}],
         f"members[1].state: {_NORM_ERROR}"),
        ([_pure_member(_UNIT), {"prob": 0.25, "state": _NEGATIVE}, _pure_member(_LONG)],
         "members[1].state: negative eigenvalue -5.000000e-01 below -eigenvalue_clamp (-1e-12); "
         "not a valid density matrix"),
        ([_pure_member(_UNIT), _pure_member([[1, 0]]), _pure_member(_LONG)],
         "members[1].state: pure state has length 1, but dims 2x2 require 4"),
        ([_pure_member(_UNIT), _pure_member(_LONG), _pure_member([[1, 0]])], f"members[1].state: {_NORM_ERROR}"),
        ([_pure_member(_UNIT), _pure_member([[0.6, 0], [0, 0.9], [0, 0], [0, 0]]), _pure_member(_LONG)],
         "members[1].state: pure state norm 1.0816653826391966 deviates from 1 by 8.167e-02, beyond trace_tol=1e-09"),
        ([_pure_member(_LONG), _pure_member([[1e999, 0], [0, 0], [0, 0], [0, 0]])], f"members[0].state: {_NORM_ERROR}"),
        ([_pure_member([[1e999, 0], [0, 0], [0, 0], [0, 0]]), _pure_member(_LONG)],
         "members[0].state: pure-state amplitudes must be finite (no NaN/Inf)"),
    ],
    ids=["norm-then-missing-state", "missing-state-then-norm", "norm-then-bad-kind", "norm-then-density",
         "density-then-norm", "short-then-norm", "norm-then-short", "norm-then-norm", "norm-then-inf", "inf-then-norm"],
)
def test_parse_errors_name_the_first_bad_member(members, diagnostic):
    # Pure members are validated in one stack after the structural pass; the
    # error must still be the one of the first bad member in member order.
    text = json.dumps({"schema_version": 1, "dims": {"dA": 2, "dB": 2}, "members": members}).replace("Infinity", "1e999")
    with pytest.raises(ParseError, match=f"^{re.escape(diagnostic)}$"):
        parse_ensemble(text)


def test_huge_amplitude_is_a_norm_error_without_a_warning():
    # 1e200 squared overflows; the batched norm gives inf without an overflow
    # warning, and the error names that norm.
    import warnings

    text = json.dumps({"schema_version": 1, "dims": {"dA": 2, "dB": 2}, "members": [_pure_member([[1e200, 0]] + _UNIT[1:])]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as got:
            parse_ensemble(text)
    assert str(got.value) == "members[0].state: pure state norm inf deviates from 1 by inf, beyond trace_tol=1e-09"
    assert caught == []


# Labels that make_ensemble accepts: no character at which a line breaks.
_LABELS = st.none() | st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, -3.0, 2.0**53])
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX_ARRAYS = st.lists(st.tuples(_FLOATS, _FLOATS), max_size=5).map(
    lambda pairs: np.array([complex(re, im) for re, im in pairs], dtype=complex)
)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | _FLOATS | _FLOATS.map(np.float64) | st.text(max_size=6)
)
_DOCUMENTS = st.recursive(
    _SCALARS | _COMPLEX_ARRAYS,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _ensembles(draw):
    """A validated dA x dB ensemble, dA, dB in 1..4, of pure and density
    members, with a label that may hold quotes, backslashes or non-ASCII."""
    dA, dB = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dims = BipartiteDims(dA, dB)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["pure", "density"]), min_size=1, max_size=4))
    states = [
        validate_state(dims, random_pure_vector(rng, dims.joint) if kind == "pure" else random_density(rng, dims.joint))
        for kind in kinds
    ]
    return make_ensemble(zip(rng.dirichlet(np.ones(len(kinds))), states), label=draw(_LABELS))


@given(_ensembles())
@example(make_ensemble([(1.0, validate_state(BipartiteDims(1, 3), [0, -0.0, 1]))], label='q"uo\\te é 日本'))
@settings(max_examples=60, deadline=None)
def test_ensemble_files_and_reports_match_the_reference_renderer(e):
    assert write_ensemble(e) == reference_dumps(ensemble_to_document(e))
    doc = report_document(e, analyze(e), source=e.label or "mem", version="0.1.0")
    assert dumps_canonical(doc) == reference_dumps(doc)


@given(_DOCUMENTS)
@example({"a": np.array([complex(-0.0, 5e-324), complex(1e-300, 1e300), complex(3.0, -0.0)]), "b": [[]], "c": {}})
@example([np.array([], dtype=complex), 1, None, True, 'q"\\é'])
@settings(max_examples=200, deadline=None)
def test_raw_documents_match_the_reference_renderer(doc):
    assert dumps_canonical(doc) == reference_dumps(doc)


@given(st.floats(0, np.pi / 2), st.integers(0, 2**32 - 1), st.none() | st.floats(0, 1))
@settings(max_examples=25, deadline=None)
def test_family_documents_match_the_reference_renderer(theta, seed, gate):
    probs = np.random.default_rng(seed).dirichlet(np.ones(4))
    if gate is not None:  # a gate cost at or above the lower edge, which may bind the upper one
        lo, hi = rotated_family_report(theta, probs).charge.interval
        gate = lo + gate * (hi - lo + 0.5)
    doc = family_to_document(rotated_family_report(theta, probs, gate_cost=gate))
    assert dumps_canonical(doc) == reference_dumps(doc)


def test_writer_renders_each_member_in_a_few_calls(monkeypatch):
    # Each state's amplitudes are formatted in one pass, not one _render call
    # per number (a d=8 generalized Bell state has 64 amplitudes).
    calls = 0
    render = fileio._render

    def counted(*args):
        nonlocal calls
        calls += 1
        return render(*args)

    monkeypatch.setattr(fileio, "_render", counted)
    e = generalized_bell_basis(8, None)
    write_ensemble(e)
    assert calls < 8 * len(e.members)
