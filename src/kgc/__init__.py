"""Additive-approximation k-geodesic centers of connected unweighted graphs,
with exact desk-scale oracles and hyperbolicity measurement.

The package namespace holds what the README and the command line use: the
graph files and generators, ``solve`` with the types of its result, the
exact oracle, the four-point hyperbolicity and the verifier's checks.  The
pipeline's stages live in their modules (``rooted_cover``,
``shallow_pairing``, ``solver``).
"""

from .graph_core import (
    CapExceededError,
    DELTA_VERTEX_CAP,
    Graph,
    GraphFormatError,
    GraphValidationError,
    apsp,
    cycle_graph,
    four_point_delta,
    grid_graph,
    load_graph,
    path_graph,
    random_connected,
    random_tree,
    serialize_graph,
    star_graph,
    subdivide,
)
from .geodesics import VertexPath, family_eccentricity, is_isometric
from .rooted_cover import RootedSolution, verify_packing
from .shallow_pairing import Pairing
from .solver import BoundReport, SolveResult, solve
from .oracle import OracleCaps, OracleResult, exact_optimum

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DELTA_VERTEX_CAP",
    "Graph",
    "GraphFormatError",
    "GraphValidationError",
    "apsp",
    "cycle_graph",
    "four_point_delta",
    "grid_graph",
    "load_graph",
    "path_graph",
    "random_connected",
    "random_tree",
    "serialize_graph",
    "star_graph",
    "subdivide",
    "VertexPath",
    "family_eccentricity",
    "is_isometric",
    "RootedSolution",
    "verify_packing",
    "Pairing",
    "BoundReport",
    "SolveResult",
    "solve",
    "OracleCaps",
    "OracleResult",
    "exact_optimum",
]
