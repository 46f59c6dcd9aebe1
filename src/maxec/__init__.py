"""Exact solvers, kernels, and generators for maximum edge 2-coloring.

The problem: color the edges of a simple graph with as many colors as
possible while every vertex is incident to at most two distinct colors
(or at most f(v) colors for a capacity map f with values in {1, 2}).
"""

from .graphs import (
    DEFAULT_PROFILE,
    EdgeColoring,
    Graph,
    GraphError,
    ValidityProfile,
    VerifyResult,
    character_subgraph,
    compress_colors,
    is_two_factor,
    palettes,
    verify_coloring,
)
from .formats import (
    FormatError,
    load_coloring,
    load_graph,
    load_instance,
    render_annotated,
    render_coloring,
    render_graph,
)
from .generators import (
    AnnotatedInstance,
    MCISInstance,
    gen_random,
    gen_two_factor,
    has_multicolored_independent_set,
    load_mcis,
    pendant_transform,
    reduce_mcis,
    render_mcis,
)
from .kernels import (
    FourCycleError,
    KernelResult,
    Lifting,
    NeighborhoodClass,
    Reduced,
    has_c4,
    kernelize_c4free,
    kernelize_dual,
    kernelize_standard,
    lift_coloring,
    neighborhood_classes,
)
from .matching import (
    Continue,
    ForcedNo,
    ForcedYes,
    Matching,
    matching_coloring,
    matching_preprocess,
    maximal_matching,
)
from .oracle import (
    DEFAULT_EDGE_LIMIT,
    OracleLimitError,
    SigmaResult,
    sigma_exact,
)
from .solver import SolveResult, SolveStats, solve_exact

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EDGE_LIMIT",
    "DEFAULT_PROFILE",
    "AnnotatedInstance",
    "Continue",
    "EdgeColoring",
    "ForcedNo",
    "ForcedYes",
    "FormatError",
    "FourCycleError",
    "Graph",
    "GraphError",
    "KernelResult",
    "Lifting",
    "MCISInstance",
    "Matching",
    "NeighborhoodClass",
    "OracleLimitError",
    "Reduced",
    "SigmaResult",
    "SolveResult",
    "SolveStats",
    "ValidityProfile",
    "VerifyResult",
    "character_subgraph",
    "compress_colors",
    "gen_random",
    "gen_two_factor",
    "has_c4",
    "has_multicolored_independent_set",
    "is_two_factor",
    "kernelize_c4free",
    "kernelize_dual",
    "kernelize_standard",
    "lift_coloring",
    "load_coloring",
    "load_graph",
    "load_instance",
    "load_mcis",
    "matching_coloring",
    "matching_preprocess",
    "maximal_matching",
    "neighborhood_classes",
    "palettes",
    "pendant_transform",
    "reduce_mcis",
    "render_annotated",
    "render_coloring",
    "render_graph",
    "render_mcis",
    "sigma_exact",
    "solve_exact",
    "verify_coloring",
    "__version__",
]
