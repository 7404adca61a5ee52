from __future__ import annotations

from itertools import combinations

import pytest

import kgc.oracle
from kgc import (
    CapExceededError,
    OracleCaps,
    apsp,
    cycle_graph,
    family_eccentricity,
    grid_graph,
    is_isometric,
    path_graph,
    exact_optimum,
    random_tree,
    star_graph,
    solve,
)
from kgc.geodesics import enumerate_geodesics
from conftest import (
    check_rooted_relaxation,
    check_subdivision_lemma,
    naive_family_eccentricity,
    small_graph_corpus,
)


def brute_optimum(g, D, k):
    """Second, independent exhaustive solver: all geodesic k-subsets, no
    masks, no dominance, radius by direct distance scan."""
    paths = []
    seen = set()
    for s in range(g.n):
        for t in range(s, g.n):
            for p in enumerate_geodesics(g, D, s, t, cap=50_000):
                key = frozenset(p)
                if key not in seen:
                    seen.add(key)
                    paths.append(p)
    best = None
    for size in range(1, k + 1):
        for combo in combinations(paths, size):
            ecc = naive_family_eccentricity(D, combo)
            if best is None or ecc < best:
                best = ecc
    return best


def test_exact_optimum_examples():
    p5 = path_graph(5)
    assert exact_optimum(p5, apsp(p5), 1).optimum == 0

    s5 = star_graph(5)
    res = exact_optimum(s5, apsp(s5), 2)
    assert res.optimum == 1

    c8 = cycle_graph(8)
    assert exact_optimum(c8, apsp(c8), 1).optimum == 2


def test_exact_optimum_witness_verifies():
    for g in small_graph_corpus(10, 10, seed=231):
        D = apsp(g)
        for k in (1, 2):
            res = exact_optimum(g, D, k)
            assert 1 <= len(res.witness) <= k
            for p in res.witness:
                assert is_isometric(g, D, p)
            assert family_eccentricity(g, res.witness) == res.optimum
            assert res.stats["paths_enumerated"] >= g.n
            assert res.stats["combinations_tried"] >= 0


def test_exact_optimum_matches_independent_brute_force():
    for g in small_graph_corpus(8, 7, seed=241):
        D = apsp(g)
        for k in (1, 2):
            assert exact_optimum(g, D, k).optimum == brute_optimum(g, D, k)


def test_exact_optimum_infeasible_below():
    # re-confirm optimality directly: no k-subset covers at optimum - 1
    for g in small_graph_corpus(5, 7, seed=251):
        D = apsp(g)
        res = exact_optimum(g, D, 1)
        if res.optimum == 0:
            continue
        smaller = brute_optimum(g, D, 1)
        assert smaller == res.optimum  # brute force agrees nothing smaller works


def test_exact_optimum_caps():
    g = grid_graph(4, 4)
    D = apsp(g)
    with pytest.raises(CapExceededError):
        exact_optimum(g, D, 2, OracleCaps(max_paths=10))
    with pytest.raises(CapExceededError):
        exact_optimum(g, D, 2, OracleCaps(max_combinations=1))


def test_oracle_caps_reject_values_below_one():
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"caps must be >= 1, got .*max_paths={bad},"):
            OracleCaps(max_paths=bad)
        with pytest.raises(ValueError, match=f"caps must be >= 1, got .*max_combinations={bad}\\)"):
            OracleCaps(max_combinations=bad)
    assert OracleCaps(max_paths=1, max_combinations=1).max_combinations == 1


def test_exact_optimum_cap_below_pair_count_raises_before_enumerating(monkeypatch):
    # every pair s <= t of a path has exactly one geodesic: 15 on 5 vertices
    g = path_graph(5)
    D = apsp(g)
    assert exact_optimum(g, D, 1, OracleCaps(max_paths=15)).optimum == 0

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated although the pairs exceed the cap")

    monkeypatch.setattr(kgc.oracle, "enumerate_geodesics", refuse)
    with pytest.raises(CapExceededError, match="more than 14 geodesics"):
        exact_optimum(g, D, 1, OracleCaps(max_paths=14))


def test_exact_optimum_deterministic():
    g = grid_graph(3, 3)
    D = apsp(g)
    a = exact_optimum(g, D, 2)
    b = exact_optimum(g, D, 2)
    assert a == b


def test_solve_vs_oracle_never_below():
    for g in small_graph_corpus(10, 9, seed=261):
        D = apsp(g)
        for k in (1, 2):
            assert solve(g, k).radius >= exact_optimum(g, D, k).optimum


def test_rooted_relaxation_examples():
    for seed in (1, 5):
        g = random_tree(12, seed)
        report = check_rooted_relaxation(g, apsp(g), 2)
        assert report["ok"]
        assert report["slack"] <= 0 or report["tau_hat_doubled"] > 0

    s5 = star_graph(5)
    assert check_rooted_relaxation(s5, apsp(s5), 2)["ok"]

    g33 = grid_graph(3, 3)
    assert check_rooted_relaxation(g33, apsp(g33), 1)["ok"]


def test_rooted_relaxation_random():
    for g in small_graph_corpus(8, 9, seed=271):
        report = check_rooted_relaxation(g, apsp(g), 2)
        assert report["ok"]


def test_subdivision_lemma_examples():
    p3 = path_graph(3)
    rep = check_subdivision_lemma(p3, apsp(p3), 1, 2)
    assert rep["ok"]
    assert rep["optimum_base"] == 0 and rep["bound"] == 1

    s5 = star_graph(5)
    rep = check_subdivision_lemma(s5, apsp(s5), 2, 2)
    assert rep["ok"]
    assert rep["bound"] == 3

    c4 = cycle_graph(4)
    assert check_subdivision_lemma(c4, apsp(c4), 1, 3)["ok"]


def test_single_vertex_and_tiny_graphs():
    g = path_graph(1)
    res = exact_optimum(g, apsp(g), 1)
    assert res.optimum == 0 and res.witness == ((0,),)

    g2 = path_graph(2)
    res = exact_optimum(g2, apsp(g2), 2)
    assert res.optimum == 0
