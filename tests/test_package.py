"""The package namespace holds what the README and the command line use;
every other name is imported from its module."""

from __future__ import annotations

import kgc

PUBLIC = [
    "BoundReport",
    "CapExceededError",
    "DELTA_VERTEX_CAP",
    "DistanceMatrix",
    "Graph",
    "GraphFormatError",
    "GraphValidationError",
    "HalfInteger",
    "OracleCaps",
    "OracleResult",
    "PackingWitness",
    "Pairing",
    "RootedSolution",
    "SolveOptions",
    "SolveResult",
    "VertexPath",
    "apsp",
    "cycle_graph",
    "exact_optimum",
    "family_eccentricity",
    "four_point_delta",
    "generate",
    "grid_graph",
    "is_isometric",
    "load_graph",
    "path_graph",
    "random_connected",
    "random_tree",
    "serialize_graph",
    "solve",
    "star_graph",
    "subdivide",
    "verify_packing",
]


def test_public_surface_is_pinned():
    assert sorted(kgc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(kgc, name) is not None
