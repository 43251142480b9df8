import ast
import types
from pathlib import Path

import entcharge

# The public names of the entcharge package. A change here is a change of the
# public API and should be deliberate: new names are put to work by the CLI,
# and unused ones are deleted rather than kept for the tests.
PUBLIC_NAMES = [
    "BipartiteDims", "BipartiteState", "ChargeReport", "DEFAULT_TOLERANCES", "Ensemble",
    "EntchargeError", "FamilyReport", "InfoInterval", "MAX_JOINT_DIM", "OptimizerConfig",
    "ParseError", "Povm", "PreconditionError", "STRICT_TOLERANCES", "ShapeError",
    "StructureFlags", "Tolerances", "VERDICT_ENTANGLEMENT",
    "VERDICT_INDETERMINATE", "VERDICT_INFORMATION", "VERDICT_NEITHER", "ValidationError",
    "analyze", "average_state", "bell_basis", "binary_entropy",
    "density_of", "equal_probs",
    "estimate_accessible_info", "generalized_bell_basis",
    "is_canonical_product_basis",
    "lower_bound_general", "make_ensemble", "make_povm",
    "mutual_information_of_measurement", "pairwise_orthogonal", "parse_ensemble",
    "partial_trace", "product_basis", "reduced_ensemble",
    "rotated_basis", "rotated_family_report", "shannon_entropy",
    "upper_bound_merging", "validate_state", "von_neumann_entropy",
    "write_ensemble",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(entcharge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


# Public names that only code outside src/entcharge reads, each until a named
# change lands: the benchmark hooks pairwise_orthogonal until ROADMAP item 1a.
UNUSED_IN_SRC = {"pairwise_orthogonal"}


def _names_read_in_src() -> set[str]:
    """Every name that an ast.Name or ast.Attribute node reads in
    src/entcharge, outside __init__.py and outside the module-level def or
    class of that same name."""
    seen = set()
    for path in Path(entcharge.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def test_every_public_name_is_put_to_work_in_src():
    # A public name that nothing in the package reads serves only the tests:
    # put it to work or delete it.
    unused = sorted(set(PUBLIC_NAMES) - _names_read_in_src())
    assert unused == sorted(UNUSED_IN_SRC)
