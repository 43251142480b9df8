import types

import entcharge

# The public names of the entcharge package. A change here is a change of the
# public API and should be deliberate: new names are put to work by the CLI,
# and unused ones are deleted rather than kept for the tests.
PUBLIC_NAMES = [
    "BipartiteDims", "BipartiteState", "ChargeReport", "DEFAULT_TOLERANCES", "Ensemble",
    "EntchargeError", "FamilyReport", "InfoInterval", "MAX_JOINT_DIM", "OptimizerConfig",
    "ParseError", "Povm", "PreconditionError", "STRICT_TOLERANCES", "ShapeError",
    "StructureFlags", "Tolerances", "UnsupportedFormError", "VERDICT_ENTANGLEMENT",
    "VERDICT_INDETERMINATE", "VERDICT_INFORMATION", "VERDICT_NEITHER", "ValidationError",
    "analyze", "average_state", "bell_basis", "binary_entropy",
    "clamp_spectrum", "delta_epsilon", "density_of", "entanglement_entropy", "equal_probs",
    "estimate_accessible_info", "generalized_bell_basis",
    "holevo_chi", "is_canonical_product_basis", "is_product",
    "lower_bound_general", "lower_bound_pure", "make_ensemble", "make_povm",
    "mutual_information_of_measurement", "pairwise_orthogonal", "parse_ensemble",
    "partial_trace", "product_basis", "reduced_ensemble",
    "rotated_basis", "rotated_family_report", "schmidt_coefficients", "shannon_entropy",
    "shannon_of", "upper_bound_merging", "validate_state", "von_neumann_entropy",
    "write_ensemble",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(entcharge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
