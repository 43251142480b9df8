"""Byte-level regression guard for the CLI.

tests/golden/ holds small canonical ensemble files (a generalized Bell basis,
a rotated-family point, a random orthogonal pure ensemble, an orthogonal
mixed-state ensemble, two non-orthogonal pure ensembles, one of them the
README's two-member pair, a non-orthogonal pure/density mix, a product
basis, and a generalized Bell basis tilted until every overlap sits just
within the orthogonality tolerance) next to the
exact `analyze` text and structured output and one `sweep rotated` CSV, plus the structured sweep of
the same points with a user-supplied gate cost. Any refactor of the
computation must reproduce them byte for byte. An estimate file per input
pins the structured output of `--accessible-info estimate`, so a change to
the POVM search or to its orthogonal short-circuit shows up as a diff: the
all-pure orthogonal inputs, the tilted generalized Bell basis among them,
whose short-circuit brackets the information between the pretty-good
measurement and the Holevo cap, the non-orthogonal pure ensembles, the
pure/density mix, whose Holevo chi has nonzero member entropies, and the
orthogonal mixed-state ensemble, which takes the search like every mixed
one. One pins the structured output under `--tolerance-profile strict`,
whose tolerance block and known-value annotation no other golden covers. The `validate` output of every
input under both tolerance profiles, and the `generate` output and written
file of each family, are pinned as well.
"""

from pathlib import Path

import pytest

from entcharge.cli import main
from entcharge.fileio import parse_ensemble, write_ensemble

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.analyze.txt"))
ESTIMATE_NAMES = sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.estimate.structured.json"))


def _run(argv, capsys, monkeypatch, cwd=GOLDEN) -> str:
    # The structured report records the input path as given, so run from the
    # golden directory with bare file names.
    monkeypatch.chdir(cwd)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_golden_set_is_complete():
    assert len(NAMES) == 9
    assert ESTIMATE_NAMES == NAMES


@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("structured", "structured.json")])
@pytest.mark.parametrize("name", NAMES)
def test_analyze_output_is_byte_identical(name, fmt, ext, capsys, monkeypatch):
    out = _run(["analyze", f"{name}.json", "--format", fmt], capsys, monkeypatch)
    assert out == (GOLDEN / f"{name}.analyze.{ext}").read_text()


def test_sweep_output_is_byte_identical(capsys, monkeypatch):
    argv = ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5707963267948966",
            "--steps", "9", "--probs", "0.1,0.2,0.3,0.4"]
    assert _run(argv, capsys, monkeypatch) == (GOLDEN / "sweep_rotated.csv").read_text()


@pytest.mark.parametrize(
    "fmt, golden",
    [([], "sweep_rotated.csv"), (["--format", "structured"], "sweep_rotated.gate.structured.json")],
    ids=["csv", "structured"],
)
def test_sweep_with_gate_cost_is_byte_identical(fmt, golden, capsys, monkeypatch):
    # A gate cost of 0.85 binds the upper edge at 8 of the 9 points; the CSV
    # does not show it, so it equals the plain sweep's.
    argv = ["sweep", "rotated", "--theta-min", "0", "--theta-max", "1.5707963267948966",
            "--steps", "9", "--probs", "0.1,0.2,0.3,0.4", "--gate-cost", "0.85", *fmt]
    assert _run(argv, capsys, monkeypatch) == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("name", ESTIMATE_NAMES)
def test_estimate_output_is_byte_identical(name, capsys, monkeypatch):
    argv = ["analyze", f"{name}.json", "--accessible-info", "estimate", "--restarts", "2",
            "--seed", "3", "--format", "structured"]
    assert _run(argv, capsys, monkeypatch) == (GOLDEN / f"{name}.estimate.structured.json").read_text()


def test_strict_profile_output_is_byte_identical(capsys, monkeypatch):
    argv = ["--tolerance-profile", "strict", "analyze", "product2x3.json", "--format", "structured"]
    assert _run(argv, capsys, monkeypatch) == (GOLDEN / "product2x3.strict.structured.json").read_text()


@pytest.mark.parametrize("profile,golden", [("default", "validate.txt"), ("strict", "validate.strict.txt")])
def test_validate_output_is_byte_identical(profile, golden, capsys, monkeypatch):
    out = "".join(
        _run(["--tolerance-profile", profile, "validate", f"{name}.json"], capsys, monkeypatch) for name in NAMES
    )
    assert out == (GOLDEN / golden).read_text()


def test_generate_output_is_byte_identical(tmp_path, capsys, monkeypatch):
    families = [("bell", []), ("gbell", ["--d", "3"]), ("product", ["--da", "2", "--db", "3"]),
                ("rotated", ["--theta", "0.3"])]
    out = ""
    for family, extra in families:
        written = f"generate.{family}.json"
        out += _run(["generate", family, *extra, "-o", written], capsys, monkeypatch, cwd=tmp_path)
        assert (tmp_path / written).read_text() == (GOLDEN / written).read_text()
    assert out == (GOLDEN / "generate.txt").read_text()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.endswith(".structured.json")))
def test_golden_input_files_round_trip_byte_identically(name):
    # The only pinned files with density members (mixedorth2x2, mixedpure2x3);
    # every other round trip starts from generator output, which is all pure.
    text = (GOLDEN / name).read_text()
    assert write_ensemble(parse_ensemble(text)) == text
