"""Semi-biplanes from semi-planar (APN) function tables over finite abelian
groups: construction, structural verification, and exhaustive search."""

from .errors import (
    InvalidTransformError,
    NotSplitError,
    SearchBudgetError,
    TableParseError,
    TheoremViolationError,
    UnsupportedGroupError,
)
from .functions import (
    FuncTable,
    SemiPlanarityVerdict,
    delta,
    equivalence_transform,
    fiber_sizes,
    format_table,
    is_automorphism,
    is_bijection,
    is_semiplanar,
    limit_check,
    make_table,
    parse_table,
    s_set,
)
from .gf2 import FieldSpec, field_mul, field_pow, gold_table, inverse_table, make_field
from .groups import (
    GroupSpec,
    automorphisms,
    coset,
    index2_subgroups,
    is_subgroup,
    make_group,
)
from .incidence import (
    AxiomReport,
    ComponentPartition,
    Graph,
    Structure,
    common_lines,
    common_points,
    component_graph,
    components,
    export_dot,
    hypercube_graph,
    is_hypercube_graph,
    is_incident,
    lines_through_point,
    points_on_line,
    verify_axioms,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .search import (
    SearchOptions,
    SearchResult,
    exhaustive_search,
    orbit_reduce,
    search_and_classify,
)
from .splitting import (
    DivisibilityReport,
    SplitReport,
    classify_split,
    compute_t,
    line_classes,
    verify_difference_lemma,
    verify_divisible,
    verify_p_characterization,
    verify_phi_isomorphism,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
