"""Certified entanglement-charge bounds and nonlocality verdicts for
ensembles of bipartite quantum states."""

__version__ = "0.1.0"

from .accessible import (
    InfoInterval,
    OptimizerConfig,
    Povm,
    estimate_accessible_info,
    make_povm,
    mutual_information_of_measurement,
)
from .bounds import (
    ChargeReport,
    FamilyReport,
    VERDICT_ENTANGLEMENT,
    VERDICT_INDETERMINATE,
    VERDICT_INFORMATION,
    VERDICT_NEITHER,
    analyze,
    lower_bound_general,
    rotated_family_report,
    upper_bound_merging,
)
from .ensembles import (
    Ensemble,
    StructureFlags,
    average_state,
    make_ensemble,
    reduced_ensemble,
)
from .entropy import (
    binary_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .errors import (
    EntchargeError,
    ParseError,
    PreconditionError,
    ShapeError,
    ValidationError,
)
from .fileio import parse_ensemble, write_ensemble
from .generators import (
    bell_basis,
    equal_probs,
    generalized_bell_basis,
    is_canonical_product_basis,
    product_basis,
    rotated_basis,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    MAX_JOINT_DIM,
    STRICT_TOLERANCES,
    Tolerances,
    partial_trace,
)
from .states import (
    BipartiteDims,
    BipartiteState,
    density_of,
    pairwise_orthogonal,
    validate_state,
)
