from __future__ import annotations

import json
from pathlib import Path

from kgc import (
    DELTA_VERTEX_CAP,
    apsp,
    cycle_graph,
    grid_graph,
    load_graph,
    path_graph,
    random_connected,
    random_tree,
    serialize_graph,
    solve,
    star_graph,
    subdivide,
)
import numpy as np

import kgc.cli
import kgc.rooted_cover
from kgc import graph_core
import kgc.solver
from kgc import Graph, RootedSolution
from kgc.cli import main
from kgc.solver import bound_range
from conftest import (
    exists_covering_rpath,
    min_radius_for_root,
    solve_from,
    tree_corpus,
    tree_shapes,
)


def write_graph(tmp_path, g, name):
    path = tmp_path / name
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_star5(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    code, out, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["radius"] == 1
    assert data["bounds"]["tau_hat_doubled"] == 0
    assert data["rooted"]["packing_witness"]["R"] == 0


def test_solve_path_k1(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(5), "p5.txt")
    code, out, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "1")
    assert code == 0
    assert json.loads(out)["radius"] == 0


def test_solve_rejects_k0(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(5), "p5.txt")
    code, _, err = run_cli(capsys, "solve", "-g", gpath, "-k", "0")
    assert code == 1
    assert "k must be" in err


def test_solve_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "-g", str(tmp_path / "nope.txt"), "-k", "1")
    assert code == 1


def test_solve_bad_graph(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n0 1\n2 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "-g", str(bad), "-k", "1")
    assert code == 1
    assert "connected" in err


def test_delta_tree50(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--type", "tree", "--n", "50", "--seed", "7",
        "-o", str(tmp_path / "tree50.txt"),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "delta", "-g", str(tmp_path / "tree50.txt"))
    assert code == 0
    assert json.loads(out) == {"delta_doubled": 0}


def test_gen_grid_then_delta(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    code, _, _ = run_cli(capsys, "gen", "--type", "grid", "--w", "3", "--h", "3",
                         "-o", gpath)
    assert code == 0
    g = load_graph(Path(gpath).read_text())
    assert g.n == 9 and g.m == 12
    code, out, _ = run_cli(capsys, "delta", "-g", gpath)
    assert code == 0
    # brute-force derived: opposite corner pairs of the 3x3 grid force delta 2
    assert json.loads(out) == {"delta_doubled": 4}


def test_delta_cap_exit_code(tmp_path, capsys):
    # the cap applies to the largest biconnected block: a cycle is one block
    gpath = write_graph(tmp_path, cycle_graph(DELTA_VERTEX_CAP + 1), "c513.txt")
    code, _, err = run_cli(capsys, "delta", "-g", gpath)
    assert code == 2
    assert "cap" in err.lower()


def test_exact_long_path_exits_cap(tmp_path, capsys):
    # 1200 * 1201 / 2 vertex pairs, each with a geodesic, exceed the default
    # path cap; the oracle says so before enumerating anything
    gpath = write_graph(tmp_path, path_graph(1200), "p1200.txt")
    code, out, err = run_cli(capsys, "exact", "-g", gpath, "-k", "1")
    assert code == 2 and out == ""
    assert "more than 200000 geodesics" in err


def test_exact_rejects_caps_below_one(tmp_path, capsys):
    # a cap below 1 is invalid input (exit 1), not an exceeded cap (exit 2)
    gpath = write_graph(tmp_path, path_graph(3), "p3.txt")
    for flag, value in (("--max-paths", "-5"), ("--max-paths", "0"),
                        ("--max-combinations", "0"), ("--max-combinations", "-1")):
        code, out, err = run_cli(capsys, "exact", "-g", gpath, "-k", "1", flag, value)
        assert code == 1 and out == ""
        assert "caps must be >= 1" in err


def test_exact_star5(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    code, out, _ = run_cli(capsys, "exact", "-g", gpath, "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["radius"] == 1 and data["optimal"] is True


def test_verify_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    solved = str(tmp_path / "out.json")
    code, _, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "2", "-o", solved)
    assert code == 0
    radius = json.loads(Path(solved).read_text())["radius"]
    code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", solved,
                           "--radius", str(radius))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_wrong_radius(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    solved = str(tmp_path / "out.json")
    run_cli(capsys, "solve", "-g", gpath, "-k", "2", "-o", solved)
    code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", solved,
                           "--radius", "0")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_exact_output_round_trip(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(4), "star4.txt")
    out_json = str(tmp_path / "exact.json")
    code, _, _ = run_cli(capsys, "exact", "-g", gpath, "-k", "2", "-o", out_json)
    assert code == 0
    radius = json.loads(Path(out_json).read_text())["radius"]
    code, _, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", out_json,
                         "--radius", str(radius))
    assert code == 0


def test_verify_tampered_packing_fails(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    solved = tmp_path / "out.json"
    run_cli(capsys, "solve", "-g", gpath, "-k", "2", "-o", str(solved))
    data = json.loads(solved.read_text())
    data["rooted"]["packing_witness"]["R"] = 1  # packing only valid at 0
    solved.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", str(solved),
                           "--radius", str(data["radius"]))
    assert code == 1


def test_solve_large_tree_default_cap(tmp_path, capsys):
    gpath = write_graph(tmp_path, random_tree(600, 5), "tree600.txt")
    code, out, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "3")
    assert code == 0
    assert json.loads(out)["bounds"]["tau_source"] == "computed"


def test_tree_never_reaches_general_kernel(tmp_path, capsys, monkeypatch):
    # on a tree every kill is the closed-form distance test: the alignment
    # and ball rows of the general kernel are never built, in the root
    # search nor in verify's rooted check
    def unreachable(*args):
        raise AssertionError("general kill kernel reached on a tree")

    monkeypatch.setattr(kgc.rooted_cover._Greedy, "_survivors", unreachable)
    monkeypatch.setattr(kgc.rooted_cover._Greedy, "ball_bits", unreachable)
    g = random_tree(200, 19)
    assert kgc.rooted_cover.best_root(g, apsp(g), 3).radius > 0
    gpath = write_graph(tmp_path, g, "tree200.txt")
    solved = str(tmp_path / "out.json")
    code, _, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "3",
                         "--tau-hat-doubled", "0", "-o", solved)
    assert code == 0
    radius = json.loads(Path(solved).read_text())["radius"]
    code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", solved,
                           "--radius", str(radius))
    assert code == 0
    assert json.loads(out)["ok"] is True


def _verify_tampered(tmp_path, capsys, g, k, edit, *solve_args):
    """Solve g, check the artifact verifies, apply edit, verify again."""
    gpath = write_graph(tmp_path, g, "g.txt")
    solved = tmp_path / "out.json"
    run_cli(capsys, "solve", "-g", gpath, "-k", str(k), "-o", str(solved), *solve_args)
    data = json.loads(solved.read_text())
    argv = ("verify", "-g", gpath, "--cover", str(solved), "--radius", str(data["radius"]))
    assert run_cli(capsys, *argv)[0] == 0
    edit(data)
    solved.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_verify_rejects_more_than_k_paths(tmp_path, capsys):
    def extra_paths(data):
        data["paths"] *= 8  # copies stay isometric and keep the radius

    code, report = _verify_tampered(tmp_path, capsys, path_graph(9), 1, extra_paths)
    assert code == 1
    assert report["cover"]["within_k"] is False


def test_verify_rejects_witness_without_2k_distinct_vertices(tmp_path, capsys):
    def drop_one(data):
        data["rooted"]["packing_witness"]["vertices"].pop()

    def repeat_one(data):
        vertices = data["rooted"]["packing_witness"]["vertices"]
        vertices[-1] = vertices[0]

    for edit in (drop_one, repeat_one):
        code, report = _verify_tampered(tmp_path, capsys, star_graph(5), 2, edit)
        assert code == 1
        assert report["packing"]["shape_ok"] is False


def test_verify_rejects_witness_radius_off_rooted(tmp_path, capsys):
    def lower_radius(data):
        # a packing at R is one at R-1 as well, so only the rooted R rules it out
        assert data["rooted"]["packing_witness"]["R"] >= 1
        data["rooted"]["packing_witness"]["R"] -= 1

    spider = subdivide(star_graph(3), 3)  # rooted R is 3
    code, report = _verify_tampered(tmp_path, capsys, spider, 1, lower_radius)
    assert code == 1
    assert report["packing"]["shape_ok"] is False


def test_verify_rejects_witness_member_in_first_kill_set(tmp_path, capsys):
    g = random_tree(30, 7)
    D = apsp(g)

    def swap_in_killed(data):
        rooted = data["rooted"]
        vertices = rooted["packing_witness"]["vertices"]
        radius = rooted["packing_witness"]["R"]
        # a vertex that one r-path reaches within R together with the first member
        killed = [
            u for u in range(g.n)
            if u not in vertices
            and exists_covering_rpath(g, D, rooted["root"], vertices[0], u, radius)
        ]
        vertices[-1] = killed[0]

    code, report = _verify_tampered(tmp_path, capsys, g, 2, swap_in_killed)
    assert code == 1
    assert report["packing"]["shape_ok"] is True
    assert report["packing"]["ok"] is False


def test_verify_rejects_out_of_range_root(tmp_path, capsys):
    # -n wraps to the same row under numpy indexing; n would not index
    g = random_tree(30, 7)
    for shift in (-g.n, g.n):

        def move_root(data):
            data["rooted"]["root"] += shift

        code, report = _verify_tampered(tmp_path, capsys, g, 2, move_root)
        assert code == 1
        assert report["packing"]["shape_ok"] is False
        assert report["packing"]["ok"] is False


def test_verify_rejects_out_of_range_witness_vertex(tmp_path, capsys):
    g = random_tree(30, 7)
    for shift in (-g.n, g.n):

        def move_member(data):
            data["rooted"]["packing_witness"]["vertices"][0] += shift

        code, report = _verify_tampered(tmp_path, capsys, g, 2, move_member)
        assert code == 1
        assert report["packing"]["shape_ok"] is False
        assert report["packing"]["ok"] is False


def test_verify_rejects_out_of_range_path_vertex(tmp_path, capsys):
    g = random_tree(30, 7)
    for shift in (-g.n, g.n):

        def move_path_end(data):
            data["paths"][0][-1] += shift

        code, report = _verify_tampered(tmp_path, capsys, g, 2, move_path_end)
        assert code == 1
        assert report["cover"]["isometric"] is False
        assert report["cover"]["ok"] is False


def _assert_each_edit_fails(tmp_path, capsys, g, k, section, edits):
    """Each edit of a solved artifact ends in exit 1 with a report whose
    ``section`` check failed, not in a traceback."""
    for edit in edits:
        code, report = _verify_tampered(tmp_path, capsys, g, k, edit)
        assert code == 1
        assert report["ok"] is False
        assert report[section]["ok"] is False


def _edit(*keys, to=None):
    """An edit that replaces data[keys[0]]...[keys[-1]] by ``to`` of its
    value, or deletes that key when ``to`` is None."""

    def edit(data):
        *outer, last = keys
        for key in outer:
            data = data[key]
        if to is None:
            del data[last]
        else:
            data[last] = to(data[last])

    return edit


# float and str keep the value, so a check that casts with int() passes them
_NON_INTEGERS = (float, str, lambda v: [v], lambda v: None, lambda v: True)


def test_verify_fails_malformed_root(tmp_path, capsys):
    edits = [_edit("rooted", "root", to=t) for t in (None, *_NON_INTEGERS)]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "packing", edits)


def test_verify_fails_malformed_witness_radius(tmp_path, capsys):
    edits = [_edit("rooted", "packing_witness", "R", to=t) for t in (None, *_NON_INTEGERS)]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "packing", edits)


def test_verify_fails_malformed_witness_vertex(tmp_path, capsys):
    edits = [_edit("rooted", "packing_witness", "vertices", 0, to=t) for t in _NON_INTEGERS]
    edits += [
        _edit("rooted", "packing_witness", "vertices", to=t)
        for t in (None, len, lambda v: " ".join(map(str, v)))
    ]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "packing", edits)


def test_verify_fails_rooted_radius_without_witness(tmp_path, capsys):
    # rooted.R is 2: without a packing nothing shows it least, nor the
    # lower bound computed from it
    witness = ("rooted", "packing_witness")
    edits = [_edit(*witness, to=lambda v: None), _edit(*witness), _edit("rooted", "R", to=str)]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "packing", edits)


def test_verify_fails_non_list_path(tmp_path, capsys):
    non_lists = (len, str, lambda v: None, lambda v: {"0": v})
    edits = [_edit("paths", 0, to=t) for t in non_lists]
    edits.append(_edit("paths", to=len))
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "cover", edits)


def test_verify_fails_non_integer_path_vertex(tmp_path, capsys):
    edits = [_edit("paths", 0, 0, to=t) for t in _NON_INTEGERS]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "cover", edits)


def test_verify_rejects_edited_solve_radius(tmp_path, capsys):
    # the artifact's radius must be the paths' eccentricity (2 here), also
    # where --radius, left at 2, still bounds that eccentricity
    edits = [_edit("radius", to=t) for t in (lambda v: 0, lambda v: v - 1, lambda v: v + 1)]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "cover", edits)


def test_verify_rejects_edited_exact_radius(tmp_path, capsys):
    # an exact artifact's radius is its claimed optimum
    gpath = write_graph(tmp_path, random_tree(30, 7), "g.txt")
    artifact = tmp_path / "exact.json"
    run_cli(capsys, "exact", "-g", gpath, "-k", "2", "-o", str(artifact))
    data = json.loads(artifact.read_text())
    argv = ("verify", "-g", gpath, "--cover", str(artifact), "--radius", str(data["radius"]))
    assert run_cli(capsys, *argv)[0] == 0
    for claimed in (0, data["radius"] - 1, data["radius"] + 1):
        artifact.write_text(json.dumps({**data, "radius": claimed}))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["cover"]["ok"] is False


def test_verify_fails_missing_or_non_integer_radius(tmp_path, capsys):
    edits = [_edit("radius", to=t) for t in (None, *_NON_INTEGERS)]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "cover", edits)


def test_verify_fails_pairs_not_matching_paths(tmp_path, capsys):
    # the paths run between the distinct pairs, in order: [2, 19], [14, 21]
    def swap_pairs(data):
        pairs = data["pairing"]["pairs"]
        pairs[0], pairs[1] = pairs[1], pairs[0]

    edits = [swap_pairs, _edit("pairing", "pairs", 0, to=lambda p: p[::-1])]
    edits += [_edit("pairing", "pairs", 0, 0, to=t) for t in _NON_INTEGERS]
    edits += [
        _edit("pairing", "pairs", to=t)
        for t in (None, len, str, lambda v: v[:1], lambda v: [p + p for p in v])
    ]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "pairing", edits)


# solved at k = 3: apex 20, gamma_doubled 0, pairs [1, 26], [6, 18], [13, 19]
_PAIRING_GRAPH = dict(n=40, m=50, seed=3)


def test_verify_checks_pairing_apex_and_gamma(tmp_path, capsys):
    # apex 27 is a vertex, but its largest product over the pairs is 4
    edits = [_edit("pairing", "apex", to=t) for t in (lambda v: 27, lambda v: -1)]
    edits += [_edit("pairing", "apex", to=t) for t in (None, *_NON_INTEGERS)]
    edits += [_edit("pairing", "gamma_doubled", to=t) for t in (lambda v: 999, lambda v: -1)]
    edits += [_edit("pairing", "gamma_doubled", to=t) for t in (None, *_NON_INTEGERS)]
    g = random_connected(**_PAIRING_GRAPH)
    _assert_each_edit_fails(tmp_path, capsys, g, 3, "pairing", edits)


def test_verify_checks_pairing_partitions_the_profile(tmp_path, capsys):
    # the paths follow the distinct pairs in each edit, but there are not k
    # pairs, or their endpoints are not the rooted cover's profile
    def repeat_first(data):
        data["pairing"]["pairs"] = [data["pairing"]["pairs"][0]] * 3
        data["paths"] = data["paths"][:1]

    edits = [_edit("pairing", "pairs", to=lambda v: v + v[:1]), repeat_first]
    g = random_connected(**_PAIRING_GRAPH)
    _assert_each_edit_fails(tmp_path, capsys, g, 3, "pairing", edits)


def test_verify_checks_rooted_cover(tmp_path, capsys):
    # three geodesics out of root 2, at most 2k - 1 = 3
    edits = [
        _edit("rooted", "cover", to=lambda v: v + v[:1]),  # 4 paths
        _edit("rooted", "cover", 0, to=lambda p: p[::-1]),  # not from the root
        _edit("rooted", "cover", 2, to=lambda p: p + [p[-2]]),  # not isometric
        _edit("rooted", "cover", 0, 0, to=str),
        _edit("rooted", "cover", to=lambda v: []),
        _edit("rooted", "cover"),
        # a rooted path that is not a list
        *(_edit("rooted", "cover", 0, to=t) for t in (len, lambda p: p[0])),
        # a non-integer vertex at the root and at the far end; float keeps
        # the value, and (2.0,) == (2,), so only the shape guard rejects it
        *(_edit("rooted", "cover", 0, i, to=t) for i in (0, -1) for t in _NON_INTEGERS),
    ]
    _assert_each_edit_fails(tmp_path, capsys, random_tree(30, 7), 2, "rooted", edits)
    # the same edits on a graph with cycles, where the replay reads apsp
    g = random_connected(**_PAIRING_GRAPH)
    _assert_each_edit_fails(tmp_path, capsys, g, 3, "rooted", edits)


def _lower_rooted_radius(data):
    # rooted.R 2 lowered to 0 needs no witness, and bounds 0/1 match it
    data["rooted"].update(R=0, packing_witness=None)
    data["bounds"].update(lower=0, upper=1)


def test_verify_fails_rooted_radius_below_computed_upper(tmp_path, capsys):
    # with tau computed, upper 1 must bound the paths' eccentricity 2; the
    # greedy re-run at R 0 fails the rooted check as well
    g = random_tree(30, 7)
    code, report = _verify_tampered(tmp_path, capsys, g, 2, _lower_rooted_radius)
    assert code == 1 and report["ok"] is False
    assert report["cover"]["eccentricity"] == 2
    assert report["bounds"] == {"lower": 0, "upper": 1, "ok": False}
    assert report["rooted"]["ok"] is False and "packing" not in report


def test_verify_reruns_greedy_at_rooted_radius(tmp_path, capsys):
    # a supplied tau makes upper bound nothing, so the bounds pass; the
    # greedy from the root at R 0 returns a packing, not the rooted cover
    def relabel_tau(data):
        _lower_rooted_radius(data)
        data["bounds"]["tau_source"] = "supplied"

    g = random_tree(30, 7)
    tampers = [
        (_lower_rooted_radius, ("--tau-hat-doubled", "0")),
        (relabel_tau, ()),
    ]
    for edit, solve_args in tampers:
        code, report = _verify_tampered(tmp_path, capsys, g, 2, edit, *solve_args)
        assert code == 1 and report["ok"] is False
        assert report["bounds"]["ok"] is True and "packing" not in report
        assert report["rooted"]["ok"] is False
    # geodesics out of the root, but not the ones the greedy picks
    edits = [
        _edit("rooted", "cover", to=lambda v: v[:-1]),
        _edit("rooted", "cover", to=lambda v: v[::-1]),
    ]
    _assert_each_edit_fails(tmp_path, capsys, g, 2, "rooted", edits)


def test_verify_requires_paths(tmp_path, capsys):
    # only the shapes the CLI writes: a bare rooted solution, or paths
    # under "cover", are not verified
    g = random_tree(30, 7)
    gpath = write_graph(tmp_path, g, "g.txt")
    result = solve(g, 2)
    rooted = result.rooted.as_dict()
    artifact = tmp_path / "rooted.json"
    for payload in (
        rooted,
        {"k": 2, "rooted": rooted},
        {"k": 2, "cover": [list(p) for p in result.paths]},
    ):
        artifact.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact),
                                 "--radius", str(result.radius))
        assert code == 1 and out == "" and "nothing to verify" in err


def _bounds_edits(field):
    changes = (lambda v: v - 1, lambda v: v + 1, lambda v: -5, lambda v: 10**6, None)
    return [_edit("bounds", field, to=t) for t in (*changes, *_NON_INTEGERS)]


def test_verify_recomputes_bound_lower(tmp_path, capsys):
    g = random_tree(30, 7)  # tau is 0: lower is rooted.R, upper rooted.R + 1
    _assert_each_edit_fails(tmp_path, capsys, g, 2, "bounds", _bounds_edits("lower"))


def test_verify_recomputes_bound_upper(tmp_path, capsys):
    g = random_tree(30, 7)
    _assert_each_edit_fails(tmp_path, capsys, g, 2, "bounds", _bounds_edits("upper"))


def test_verify_recomputes_bounds_from_tau_hat(tmp_path, capsys):
    g = random_connected(30, 36, 5)  # tau > 0
    edits = _bounds_edits("tau_hat_doubled")
    edits.append(_edit("bounds", to=lambda v: [v["lower"], v["upper"]]))
    edits += [_edit("bounds", "tau_source", to=t) for t in (None, str.upper, lambda v: 0)]
    _assert_each_edit_fails(tmp_path, capsys, g, 2, "bounds", edits)


def _retau(tau, source):
    """An edit that sets the bound report's tau and source, with lower and
    upper recomputed from them, so only the tau itself can be wrong."""

    def edit(data):
        lower, upper = bound_range(data["rooted"]["R"], tau)
        data["bounds"] = {"tau_hat_doubled": tau, "tau_source": source,
                          "lower": lower, "upper": upper}

    return edit


def test_verify_recomputes_computed_tau(tmp_path, capsys):
    # tau 16, rooted.R 1, radius 2: each other tau keeps the bounds
    # consistent and upper >= 2, so only the recomputed tau rejects it;
    # verify cannot check a supplied tau, so the same values pass there
    g = random_connected(40, 50, 3)
    for tau in (0, 2, 22):
        code, report = _verify_tampered(tmp_path, capsys, g, 3, _retau(tau, "computed"))
        assert code == 1 and report["bounds"]["ok"] is False
        assert all(v["ok"] for key, v in report.items() if key not in ("ok", "bounds"))
        code, report = _verify_tampered(tmp_path, capsys, g, 3, _retau(tau, "supplied"))
        assert code == 0 and report["ok"] is True
    # past the four-point cap a computed tau cannot be recomputed: exit 2
    gpath = write_graph(tmp_path, cycle_graph(DELTA_VERTEX_CAP + 1), "c513.txt")
    solved = tmp_path / "big.json"
    run_cli(capsys, "solve", "-g", gpath, "-k", "2", "--tau-hat-doubled", "1024",
            "-o", str(solved))
    data = json.loads(solved.read_text())
    _retau(1024, "computed")(data)
    solved.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "-g", gpath, "--cover", str(solved),
                             "--radius", str(data["radius"]))
    assert code == 2 and out == "" and "cap" in err


def test_verify_reports_recomputed_bounds(tmp_path, capsys):
    g = random_connected(30, 36, 5)
    gpath = write_graph(tmp_path, g, "g.txt")
    solved = tmp_path / "out.json"
    run_cli(capsys, "solve", "-g", gpath, "-k", "2", "-o", str(solved))
    data = json.loads(solved.read_text())
    code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", str(solved),
                           "--radius", str(data["radius"]))
    assert code == 0
    bounds = data["bounds"]
    assert bounds["tau_hat_doubled"] > 0 and bounds["lower"] < bounds["upper"]
    assert json.loads(out)["bounds"] == {
        "lower": bounds["lower"], "upper": bounds["upper"], "ok": True
    }


def test_verify_rejects_malformed_top_level(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(4), "p4.txt")
    artifact = tmp_path / "bad.json"
    paths = [[0, 1, 2, 3]]
    # both shapes the CLI writes carry a k in [1, n]
    payloads = [paths, {"k": "2", "paths": paths}, {"paths": paths}, {"k": 0, "paths": paths},
                {"k": 5, "paths": paths}]
    for payload in payloads:
        artifact.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact),
                                 "--radius", "0")
        assert code == 1 and out == "" and err.startswith("error: ")


def test_byte_identical_reruns(tmp_path, capsys):
    gpath = write_graph(tmp_path, star_graph(5), "star5.txt")
    _, out1, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "2")
    _, out2, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "2")
    _, out3, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "2", "--threads", "4")
    assert out1 == out2 == out3


def test_gen_subdivide(tmp_path, capsys):
    gpath = str(tmp_path / "c6.txt")
    code, _, _ = run_cli(capsys, "gen", "--type", "cycle", "--n", "3",
                         "--subdivide", "2", "-o", gpath)
    assert code == 0
    g = load_graph(Path(gpath).read_text())
    assert g.n == 6 and g.m == 6


def test_gen_dispatch(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    for argv, expected in (
        (["--type", "grid", "--w", "3", "--h", "3"], grid_graph(3, 3)),
        (["--type", "random_tree", "--n", "9", "--seed", "2"], random_tree(9, 2)),
    ):
        code, _, _ = run_cli(capsys, "gen", *argv, "-o", str(gpath))
        assert code == 0
        assert gpath.read_text() == serialize_graph(expected)
    code, _, _ = run_cli(capsys, "gen", "--type", "moebius", "--n", "5")
    assert code == 1
    code, out, err = run_cli(capsys, "gen", "--type", "grid", "--w", "3")
    assert code == 1 and out == ""
    assert "--h" in err
    # a flag the family does not read exits 1 and is named, the first one
    # first; --seed 0 is the default and --subdivide every family reads
    code, out, err = run_cli(capsys, "gen", "--type", "path", "--n", "5", "--m", "9", "--w", "3")
    assert code == 1 and out == ""
    assert "--m" in err and "--w" not in err
    for argv, expected in (
        (["--type", "grid", "--w", "2", "--h", "3", "--seed", "0"], grid_graph(2, 3)),
        (["--type", "star", "--leaves", "3", "--subdivide", "2"], subdivide(star_graph(3), 2)),
    ):
        code, _, _ = run_cli(capsys, "gen", *argv, "-o", str(gpath))
        assert code == 0
        assert gpath.read_text() == serialize_graph(expected)
    code, _, err = run_cli(capsys, "gen", "--type", "grid", "--w", "2", "--h", "3", "--seed", "4")
    assert code == 1 and "--seed" in err


def test_gen_infeasible(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--type", "random", "--n", "5", "--m", "2",
                           "-o", str(tmp_path / "x.txt"))
    assert code == 1


def test_solve_rejects_threads_below_one(tmp_path, capsys):
    gpath = write_graph(tmp_path, path_graph(5), "p5.txt")
    for threads in ("0", "-3"):
        code, out, err = run_cli(capsys, "solve", "-g", gpath, "-k", "1",
                                 "--threads", threads)
        assert code == 1
        assert out == ""
        assert "threads must be >= 1" in err


def test_unknown_command_exit_one(capsys):
    code = main(["frobnicate"])
    assert code == 1


def test_memory_error_exits_cap_with_one_line(tmp_path, capsys, monkeypatch):
    # numpy's failed allocation and a bare MemoryError both end in one
    # error line and exit 2, as a resource cap does, with no traceback
    gpath = write_graph(tmp_path, cycle_graph(9), "c9.txt")
    for exc in (MemoryError("Unable to allocate 763. MiB for an array"), MemoryError()):
        def fail(g, exc=exc):
            raise exc

        monkeypatch.setattr(kgc.cli, "apsp", fail)
        code, out, err = run_cli(capsys, "delta", "-g", gpath)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(exc) in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _spy_apsp(monkeypatch):
    """Record every graph that reaches apsp from the CLI or the solver."""
    calls = []
    for module in (kgc.cli, kgc.solver):
        monkeypatch.setattr(module, "apsp", lambda g: calls.append(g) or apsp(g))
    return calls


def test_tree_commands_build_no_distance_matrix(tmp_path, capsys, monkeypatch):
    # solve with tau supplied and computed, verify of both, and delta read
    # a tree's rows from its index: apsp is never called
    calls = _spy_apsp(monkeypatch)
    g = random_tree(300, 23)
    gpath = write_graph(tmp_path, g, "tree.txt")
    for options in ((), ("--tau-hat-doubled", "0")):
        solved = str(tmp_path / "out.json")
        code, _, _ = run_cli(capsys, "solve", "-g", gpath, "-k", "3", "-o", solved, *options)
        assert code == 0
        radius = json.loads(Path(solved).read_text())["radius"]
        code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", solved,
                               "--radius", str(radius))
        assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "delta", "-g", gpath)
    assert code == 0 and json.loads(out) == {"delta_doubled": 0}
    assert calls == []
    # a graph with a cycle still goes through apsp
    gpath = write_graph(tmp_path, cycle_graph(9), "cycle.txt")
    assert run_cli(capsys, "delta", "-g", gpath)[0] == 0
    assert len(calls) == 1


def test_tree_verify_checks_isometry_of_the_artifact_paths_only(tmp_path, capsys, monkeypatch):
    # the greedy's replay is the whole check of the rooted cover, so verify
    # runs is_isometric once per artifact path, in order, each building one
    # row of the tree index, and never on a rooted path
    checked, built = [], []  # per isometry check, its path and the rows it built
    checking = []
    build, check = graph_core._TreeRows.__getitem__, kgc.cli.is_isometric

    def count_rows(self, ids):
        if checking:
            built[-1] += np.size(ids)
        return build(self, ids)

    def count_check(g, dist, path):
        checked.append(path)
        built.append(0)
        checking.append(path)
        try:
            return check(g, dist, path)
        finally:
            checking.pop()

    monkeypatch.setattr(graph_core._TreeRows, "__getitem__", count_rows)
    monkeypatch.setattr(kgc.cli, "is_isometric", count_check)
    gpath = write_graph(tmp_path, random_tree(200, 3), "tree.txt")
    for k in (3, 4):
        solved = str(tmp_path / "out.json")
        code, _, _ = run_cli(capsys, "solve", "-g", gpath, "-k", str(k),
                             "--tau-hat-doubled", "0", "-o", solved)
        data = json.loads(Path(solved).read_text())
        assert code == 0 and len(data["rooted"]["cover"]) >= 5
        checked.clear()
        built.clear()
        code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", solved,
                               "--radius", str(data["radius"]))
        assert code == 0 and json.loads(out)["ok"] is True
        assert checked == data["paths"]
        assert built == [1] * len(data["paths"])


def test_tree_verify_matches_the_matrix_path(tmp_path, capsys, monkeypatch):
    # verify's report on a tree, from rows of the index, is byte for byte
    # the report of the matrix path, forced by treating the tree as cyclic:
    # solved artifacts at their radius and one below, and artifacts with
    # the witness, the pairing apex or a path edited
    def edits(n):
        yield lambda d: None
        yield lambda d: d["rooted"]["packing_witness"] and d["rooted"]["packing_witness"].update(
            vertices=[(v + 1) % n for v in d["rooted"]["packing_witness"]["vertices"]])
        yield lambda d: d["pairing"].update(apex=(d["pairing"]["apex"] + 1) % n)
        yield lambda d: d["paths"][0].reverse()
        yield lambda d: d["paths"][0].append(d["paths"][0][0])

    trees = [*tree_corpus(12, 1, 120, seed=225), *tree_shapes()]
    artifacts = []
    for i, g in enumerate(trees):
        gpath = write_graph(tmp_path, g, f"t{i}.txt")
        for k, options in ((1, ()), (min(3, g.n), ("--tau-hat-doubled", "0"))):
            solved = tmp_path / f"t{i}k{k}.json"
            assert run_cli(capsys, "solve", "-g", gpath, "-k", str(k), "-o", str(solved), *options)[0] == 0
            for j, edit in enumerate(edits(g.n)):
                data = json.loads(solved.read_text())
                edit(data)
                edited = tmp_path / f"t{i}k{k}e{j}.json"
                edited.write_text(json.dumps(data))
                for claimed in (data["radius"], data["radius"] - 1):
                    artifacts.append(("verify", "-g", gpath, "--cover", str(edited),
                                      "--radius", str(claimed)))
    on_tree = [run_cli(capsys, *argv)[:2] for argv in artifacts]
    monkeypatch.setattr(Graph, "is_tree", lambda self: False)
    assert [run_cli(capsys, *argv)[:2] for argv in artifacts] == on_tree
    reports = [json.loads(out) for _, out in on_tree]
    assert {code for code, _ in on_tree} == {0, 1}
    assert not all(r["cover"]["isometric"] for r in reports)
    assert not all(r["pairing"]["ok"] for r in reports)
    assert not all(r.get("packing", {"ok": True})["ok"] for r in reports)


def _artifact_from_root(g, k, root, tau_hat_doubled):
    """An honest artifact whose rooted solution comes from ``root`` alone:
    the greedy's least radius there, its cover and witness, and the
    pairing, paths and bounds recomputed from them."""
    D = apsp(g)
    radius, cover, packing = min_radius_for_root(g, D, root, k)
    rooted = RootedSolution(root=root, radius=radius, cover=cover, packing=packing)
    return solve_from(g, D, rooted, k, tau_hat_doubled).as_dict()


def test_verify_certifies_the_least_rooted_radius_on_trees(tmp_path, capsys):
    # on random_tree(40, 1), k=2, the artifact from root 0 claims rooted.R
    # = 3 with a genuine cover and witness, while roots 2, 3, 7 and others
    # cover at 2; its bounds.lower of 3 exceeds the optimum of 2, so verify
    # must fail it, with tau supplied and with tau computed
    g = random_tree(40, 1)
    assert solve(g, 2).radius == solve(g, 2).rooted.radius == 2
    gpath = write_graph(tmp_path, g, "tree40.txt")
    artifact = tmp_path / "root0.json"
    for tau in (0, None):
        data = _artifact_from_root(g, 2, 0, tau)
        assert data["rooted"]["R"] == 3 and data["bounds"]["lower"] == 3
        artifact.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact),
                               "--radius", str(data["radius"]))
        report = json.loads(out)
        assert code == 1 and report["ok"] is False
        assert report["rooted"]["ok"] is False
        assert report["cover"]["ok"] and report["packing"]["ok"] and report["bounds"]["ok"]
    # the artifact from the best root passes
    data = _artifact_from_root(g, 2, solve(g, 2).rooted.root, None)
    artifact.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact),
                   "--radius", str(data["radius"]))[0] == 0


def test_verify_checks_the_artifact_before_any_distance_work(tmp_path, capsys, monkeypatch):
    # a malformed artifact exits 1 before apsp runs: not an object, no
    # paths, or a k that is not an integer in [1, n]
    calls = _spy_apsp(monkeypatch)
    gpath = write_graph(tmp_path, cycle_graph(8), "c8.txt")
    artifact = tmp_path / "bad.json"
    paths = [[0, 1, 2]]
    for payload in ([paths], {"k": 2}, {"k": "2", "paths": paths}, {"k": 0, "paths": paths},
                    {"k": 9, "paths": paths}, {"k": True, "paths": paths}):
        artifact.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact),
                                 "--radius", "3")
        assert code == 1 and out == "" and err.startswith("error: ")
    assert calls == []
    artifact.write_text(json.dumps({"k": 2, "paths": paths, "radius": 3}))
    assert run_cli(capsys, "verify", "-g", gpath, "--cover", str(artifact), "--radius", "3")[0] == 0
    assert len(calls) == 1


def test_exact_checks_its_caps_before_any_distance_work(tmp_path, capsys, monkeypatch):
    # 1200 * 1201 / 2 vertex pairs exceed the default path cap, and k 0 is
    # out of range: both exit before apsp builds the matrix
    calls = _spy_apsp(monkeypatch)
    gpath = write_graph(tmp_path, path_graph(1200), "p1200.txt")
    code, out, err = run_cli(capsys, "exact", "-g", gpath, "-k", "1")
    assert code == 2 and out == "" and "more than 200000 geodesics" in err
    code, out, err = run_cli(capsys, "exact", "-g", gpath, "-k", "0")
    assert code == 1 and out == "" and "k must be" in err
    assert calls == []
    gpath = write_graph(tmp_path, path_graph(4), "p4.txt")
    assert run_cli(capsys, "exact", "-g", gpath, "-k", "1")[0] == 0
    assert len(calls) == 1


def test_solve_rejects_threads_before_reading_the_graph(tmp_path, capsys, monkeypatch):
    # --threads 0 exits 1 before the graph file is opened or apsp runs
    calls = _spy_apsp(monkeypatch)
    reads = []
    monkeypatch.setattr(kgc.cli, "_read_graph", lambda path: reads.append(path))
    code, out, err = run_cli(capsys, "solve", "-g", str(tmp_path / "missing.txt"), "-k", "1",
                             "--threads", "0")
    assert code == 1 and out == "" and "threads must be >= 1" in err
    assert reads == [] and calls == []
