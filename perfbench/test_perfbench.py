"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root."""

from __future__ import annotations

import json
import random

import certify
import run
import tracer

cli = run.load_kgc_cli()

from kgc import apsp, four_point_delta, load_graph  # noqa: E402  (needs src/ on sys.path)
from kgc.solver import solve  # noqa: E402


def test_diameter_tau_bounds_four_point_delta(tmp_path):
    """tau_hat_doubled = 8 * diam, as cyclic-wide supplies it, is at least
    the computed bound 4 * doubled four-point delta."""
    w = run.WORKLOADS["cyclic-wide"]
    for seed in range(5):
        m = run.make_member(w, f"small{seed}", 40, 4, random.Random(seed), tmp_path)
        tau_doubled = int(m.options[m.options.index("--tau-hat-doubled") + 1])
        assert tau_doubled == 8 * certify.diameter(m.adj)
        delta = four_point_delta(apsp(load_graph(m.path.read_text())))
        assert tau_doubled >= 4 * delta.doubled


def test_checks_reject_tampered_certificates(tmp_path):
    w = run.WORKLOADS["tree-roots"]
    m = run.make_member(w, "t", 30, 2, random.Random(3), tmp_path)
    adj = certify.adjacency(m.n, m.edges)
    solved = solve(load_graph(m.path.read_text()), m.k).as_dict()
    ok = {"ok": True}
    assert certify.check(adj, m.k, True, solved, ok) == []

    def tampered(edit):
        art = json.loads(json.dumps(solved))
        edit(art)
        return certify.check(adj, m.k, True, art, ok)

    assert tampered(lambda a: a["paths"].extend(a["paths"] * m.k))
    assert tampered(lambda a: a.update(radius=a["radius"] + 1))
    assert tampered(lambda a: a["rooted"]["packing_witness"]["vertices"].pop())
    assert tampered(lambda a: a["rooted"]["packing_witness"].update(R=a["rooted"]["R"]))
    assert tampered(lambda a: a["paths"][0].append(a["paths"][0][0]))
    assert certify.check(adj, m.k, True, solved, {"ok": False})


def test_packing_check_matches_kgc():
    """The DAG-closure packing test agrees with kgc.verify_packing."""
    from kgc.rooted_cover import verify_packing

    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(6, 25)
        edges = run.random_connected_edges(n, n - 1 + rng.randrange(4), rng)
        adj = certify.adjacency(n, edges)
        g = load_graph(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        D = apsp(g)
        r, radius = rng.randrange(n), rng.randrange(3)
        vertices = rng.sample(range(n), 3)
        assert certify.packing_holds(adj, r, radius, vertices) == verify_packing(g, D, r, radius, vertices)


def test_missing_hook_target_is_reported_absent():
    import kgc.rooted_cover

    original = kgc.rooted_cover.cover_or_packing
    hooks = (
        ("kgc.rooted_cover", "no_such_function", "rooted_cover.gone", "rooted_cover"),
        ("kgc.no_such_module", "f", "nowhere.f", "cli"),
        ("kgc.rooted_cover", "cover_or_packing", "rooted_cover.cover_or_packing", "rooted_cover"),
    )
    tr = tracer.Tracer()
    with tracer.installed(tr, hooks, ()) as absent:
        assert absent == {"rooted_cover.gone", "nowhere.f"}
        assert kgc.rooted_cover.cover_or_packing is not original
    assert kgc.rooted_cover.cover_or_packing is original


def test_smoke_every_metric_produced(capsys):
    assert run.smoke(seed=1) == 0
