"""Non-repetitive (square-free) graph colorings: exact counting of list
colorings, growth and path-count checks, closed-form color bounds, and a
randomized resampling colorer."""

from .bounds import (
    BoundFormula,
    CertifyReport,
    OptimizeResult,
    SeriesBound,
    SERIES_PRESETS,
    bound_names,
    certify_delta_inequalities,
    eval_bound,
    optimize,
    root_cubic,
)
from .counting import (
    ListAssignment,
    count_colorings,
    count_colorings_bruteforce,
    count_violations,
    enumerate_colorings,
)
from .corpus import builtin_corpus, path_dominance_records
from .graphs import (
    ElementId,
    ElementKind,
    GeneralizedGraph,
    Path,
    PathKind,
    complete_graph,
    count_paths_bound,
    count_paths_containing,
    cycle_graph,
    delete,
    edge,
    enumerate_paths_through,
    from_standard,
    graph_from_json,
    graph_to_json,
    path_graph,
    path_is_valid,
    petersen_graph,
    vertex,
)
from .growth import (
    CLAIM_FAMILIES,
    GrowthClaim,
    GrowthReport,
    builtin_claims,
    check_growth,
    claim_family,
    sweep,
)
from .repetition import (
    Regime,
    find_square,
    find_violating_path,
    is_valid,
)
from .resample import (
    RandomGraphSpec,
    ResampleRun,
    resample_color,
    success_profile,
)

__version__ = "0.1.0"
