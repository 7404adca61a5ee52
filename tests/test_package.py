"""The package namespace holds what the README and the command line use;
every other name is imported from its module.  The solver's options and
the flags of ``kgc solve`` are pinned the same way, so an option is added
or removed only on purpose."""

from __future__ import annotations

import dataclasses
import re

import kgc
from kgc.cli import main

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


SOLVE_OPTIONS = ["tau_hat_doubled", "threads", "delta_max_vertices"]

SOLVE_FLAGS = [
    "--delta-cap",
    "--graph",
    "--help",
    "--output",
    "--tau-hat-doubled",
    "--threads",
    "-g",
    "-h",
    "-k",
    "-o",
]


def test_solve_options_are_pinned():
    assert [f.name for f in dataclasses.fields(kgc.SolveOptions)] == SOLVE_OPTIONS


def test_solve_flags_are_pinned(capsys):
    assert main(["solve", "--help"]) == 0
    text = capsys.readouterr().out
    assert sorted(set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text))) == SOLVE_FLAGS
