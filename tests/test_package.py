"""The package namespace holds what the README and the command line use;
every other name is imported from its module.  The keyword parameters of
``solve`` and the flags of ``kgc solve`` and ``kgc delta`` are pinned the
same way, so an option is added or removed only on purpose."""

from __future__ import annotations

import dataclasses
import inspect
import json
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
    "OracleCaps",
    "OracleResult",
    "PackingWitness",
    "Pairing",
    "RootedSolution",
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


SOLVE_KEYWORDS = ["tau_hat_doubled"]

SOLVE_FLAGS = [
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


DELTA_FLAGS = ["--graph", "--help", "--output", "-g", "-h", "-o"]


def test_solve_keywords_are_pinned():
    params = inspect.signature(kgc.solve).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == SOLVE_KEYWORDS


# the result types that solve writes field by field are named like its JSON
BOUND_REPORT = ["tau_hat_doubled", "tau_source", "lower", "upper"]
PAIRING = ["apex", "gamma_doubled", "pairs"]


def test_result_fields_are_named_like_their_json_keys():
    assert [f.name for f in dataclasses.fields(kgc.BoundReport)] == BOUND_REPORT
    assert [f.name for f in dataclasses.fields(kgc.Pairing)] == PAIRING
    data = kgc.solve(kgc.cycle_graph(6), 2).as_dict()
    assert sorted(data["bounds"]) == sorted(BOUND_REPORT)
    assert sorted(data["pairing"]) == sorted(PAIRING)
    # lists, not tuples, as a JSON round trip gives them back
    assert data == json.loads(json.dumps(data))


def _flags(capsys, command: str) -> list[str]:
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    return sorted(set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)))


def test_solve_flags_are_pinned(capsys):
    assert _flags(capsys, "solve") == SOLVE_FLAGS


def test_delta_flags_are_pinned(capsys):
    assert _flags(capsys, "delta") == DELTA_FLAGS
