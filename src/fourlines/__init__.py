"""Exact construction and search of small-volume log canonical surfaces.

The package builds surfaces by iterated blowups over four general lines
in the plane, tracks the combinatorics in a subdivided-K4 graph, solves
for discrepancies in exact rational arithmetic, certifies positivity of
the log canonical class, and searches the blowup tree for surfaces of
record small volume.
"""

from __future__ import annotations

from .certify import (
    AMPLE,
    BIG_NEF,
    NOT_CERTIFIED,
    NearCY,
    SurfaceReport,
    certify,
    check_weights,
    classify_near_cy,
    delta1,
    epsilon1,
    find_ample_weights,
    kc_degree,
    volume,
    volume_lattice,
)
from .closed_forms import (
    TSurface,
    effective_lower_bound_log10,
    t_enumerate_minimal,
    t_surface,
    t_surface_chains,
    weighted_hypersurface_k2,
)
from .graph import (
    EDGE_PAIRS,
    FormatError,
    GraphError,
    Insertion,
    VisibleGraph,
    new_base,
    parse,
    serialize,
)
from .invisible import (
    CandidateClass,
    crepant_check,
    pullback_coefficients,
    search_orthogonal,
    support,
    visible_intersections,
)
from .lattice import (
    DivisorClass,
    canonical_class,
    class_of,
    log_pullback,
    pairing,
)
from .search import (
    CY_STEP_UP,
    GENERIC,
    SearchConfig,
    SearchResult,
    cy_edge_enumerate,
    cy_step_up_search,
    generic_search,
    run_search,
    step_edge_enumerate,
)
from .singularities import (
    Chain,
    NotChainError,
    black_components,
    chain_determinant,
    check_log_terminal,
    orbifold_defect,
    solve_discrepancies,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLE",
    "BIG_NEF",
    "CY_STEP_UP",
    "CandidateClass",
    "Chain",
    "DivisorClass",
    "EDGE_PAIRS",
    "FormatError",
    "GENERIC",
    "GraphError",
    "Insertion",
    "NOT_CERTIFIED",
    "NearCY",
    "NotChainError",
    "SearchConfig",
    "SearchResult",
    "SurfaceReport",
    "TSurface",
    "VisibleGraph",
    "black_components",
    "canonical_class",
    "certify",
    "chain_determinant",
    "check_log_terminal",
    "check_weights",
    "class_of",
    "classify_near_cy",
    "crepant_check",
    "cy_edge_enumerate",
    "cy_step_up_search",
    "delta1",
    "effective_lower_bound_log10",
    "epsilon1",
    "find_ample_weights",
    "generic_search",
    "kc_degree",
    "log_pullback",
    "new_base",
    "orbifold_defect",
    "pairing",
    "parse",
    "pullback_coefficients",
    "run_search",
    "search_orthogonal",
    "serialize",
    "solve_discrepancies",
    "step_edge_enumerate",
    "support",
    "t_enumerate_minimal",
    "t_surface",
    "t_surface_chains",
    "visible_intersections",
    "volume",
    "volume_lattice",
    "weighted_hypersurface_k2",
    "__version__",
]
