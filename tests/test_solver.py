from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kgc import (
    DELTA_VERTEX_CAP,
    apsp,
    cycle_graph,
    exact_optimum,
    family_eccentricity,
    four_point_delta,
    grid_graph,
    is_isometric,
    path_graph,
    random_tree,
    solve,
    star_graph,
    subdivide,
)
from kgc.solver import bound_range, build_profile
from conftest import (
    reference_best_root,
    small_graph_corpus,
    solve_from,
    solve_tree,
    tree_corpus,
    tree_shapes,
)


def test_solve_path_k1():
    res = solve(path_graph(5), 1)
    assert res.radius == 0
    assert res.paths == ((0, 1, 2, 3, 4),)
    assert res.rooted.radius == 0
    assert res.bounds.lower == 0


def test_solve_star5_k2_matches_oracle():
    g = star_graph(5)
    res = solve(g, 2)
    assert res.radius == 1
    oracle = exact_optimum(g, apsp(g), 2)
    assert oracle.optimum == 1
    # the packing witness certifies no rooted family works at radius 0
    assert res.rooted.packing is not None
    assert res.rooted.as_dict()["packing_witness"]["R"] == 0


def test_solve_spider_k1_exact():
    g = subdivide(star_graph(3), 2)
    res = solve(g, 1)
    oracle = exact_optimum(g, apsp(g), 1)
    assert res.radius == oracle.optimum == 2


def test_solve_tree_examples():
    g = random_tree(20, 1)
    res = solve_tree(g, 2)
    assert res.radius == res.rooted.radius
    assert res.radius == exact_optimum(g, apsp(g), 2).optimum

    star = star_graph(4)
    res = solve_tree(star, 2)
    assert res.radius == 0
    assert res.radius == exact_optimum(star, apsp(star), 2).optimum

    assert solve_tree(path_graph(5), 3).radius == 0


def test_solve_tree_rejects_non_tree():
    from kgc import cycle_graph

    with pytest.raises(ValueError, match="not a tree"):
        solve_tree(cycle_graph(4), 1)


def test_solve_rejects_bad_k():
    g = path_graph(4)
    with pytest.raises(ValueError):
        solve(g, 0)
    with pytest.raises(ValueError):
        solve(g, 5)


def test_bound_range_matches_exact_rationals():
    # tau = t/2: lower = ceil(R - tau) clamped at 0, upper = floor(R + 5*tau + 1)
    for R in range(61):
        for t in range(201):
            tau = Fraction(t, 2)
            expected = (max(0, math.ceil(R - tau)), math.floor(R + 5 * tau + 1))
            assert bound_range(R, t) == expected
    # R - tau = -3/2, -1/2 and 1/2: ceiled to -1 (clamped), 0 and 1
    assert [bound_range(R, 3) for R in (0, 1, 2)] == [(0, 8), (0, 9), (1, 10)]


def test_profile_shape():
    res = solve(star_graph(5), 2)
    profile = build_profile(res.rooted.root, res.rooted.cover, 2)
    assert len(profile) == 4
    assert profile[0] == res.rooted.root
    # every non-root cover endpoint shows up
    for p in res.rooted.cover:
        assert p[-1] in profile


def test_result_structure_invariants():
    for g in small_graph_corpus(12, 11, seed=171):
        D = apsp(g)
        for k in (1, 2, 3):
            res = solve(g, k)
            assert 1 <= len(res.paths) <= k
            for p in res.paths:
                assert is_isometric(g, D, p)
            # radius is recomputed from the paths, never trusted
            assert res.radius == family_eccentricity(g, res.paths)
            assert res.radius <= res.bounds.upper
            assert len(res.pairing.pairs) == k


def test_guarantee_chain_random():
    # radius <= R_u + 5*tau + 1 whenever the pairing is at most 2*tau + 1/2
    for g in small_graph_corpus(15, 12, seed=181):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        for k in (1, 2):
            res = solve(g, k)
            cover_ecc = family_eccentricity(g, res.rooted.cover)
            # the greedy cover stays within 2*tau of the search radius
            assert 2 * cover_ecc <= 2 * res.rooted.radius + 2 * tau
            if res.pairing.gamma_doubled <= 2 * tau + 1:
                assert res.radius <= res.rooted.radius + (5 * tau) // 2 + 1
                # pairing recombination loses at most 3*tau + 1 over the cover
                assert 2 * res.radius <= 2 * cover_ecc + 3 * tau + 2


def test_tree_radius_equals_rooted_radius():
    for g in tree_corpus(10, 5, 25, seed=191):
        for k in (1, 2, 3):
            res = solve_tree(g, k)
            assert res.radius == res.rooted.radius


def test_supplied_tau_recorded():
    g = star_graph(4)
    res = solve(g, 1, tau_hat_doubled=6)
    assert res.bounds.tau_source == "supplied"
    assert res.bounds.tau_hat_doubled == 6
    res = solve(g, 1)
    assert res.bounds.tau_source == "computed"


def test_optimality_sandwich_small():
    for g in small_graph_corpus(10, 9, seed=211):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        for k in (1, 2):
            res = solve(g, k)
            opt = exact_optimum(g, D, k).optimum
            assert opt <= res.radius
            assert res.bounds.lower <= opt
            assert 2 * (res.radius - opt) <= 6 * tau + 2


def test_solve_tiny_graphs():
    res = solve(path_graph(1), 1)
    assert res.radius == 0 and res.paths == ((0,),)
    res = solve(path_graph(2), 1)
    assert res.radius == 0
    res = solve(path_graph(2), 2)
    assert res.radius == 0


def test_deterministic_serialization():
    for g in small_graph_corpus(5, 10, seed=221):
        a = json.dumps(solve(g, 2).as_dict(), sort_keys=True)
        b = json.dumps(solve(g, 2).as_dict(), sort_keys=True)
        assert a == b


def test_large_tree_solves_with_default_options():
    # every block of a tree is a single edge, so n past the cap is fine
    g = random_tree(600, 5)
    assert g.n > DELTA_VERTEX_CAP
    res = solve(g, 3)
    assert res.bounds.tau_source == "computed"
    assert res.bounds.tau_hat_doubled == 0
    assert res.radius == res.rooted.radius


def test_k1_on_trees_matches_closed_form_optimum():
    # beyond the oracle's reach: on a tree, D[u,x] + D[u,y] - D[x,y] is
    # twice the distance from u to the x-y path, so the doubled k = 1
    # optimum is the least over x, y of its largest value over u, computed
    # one row x at a time; solve is exact on trees with tau 0
    for n, seed in ((100, 31), (200, 32), (300, 33)):
        g = random_tree(n, seed)
        D = apsp(g).astype(np.int64)
        doubled = min(int(((D[x][:, None] + D).max(axis=0) - D[x]).min()) for x in range(n))
        assert 2 * solve(g, 1, tau_hat_doubled=0).radius == doubled


def test_k1_on_cycles_within_bounds_of_closed_form_optimum():
    # on an n-cycle one geodesic of ceil(n/2) - 1 hops covers best, so the
    # k = 1 optimum is ceil((ceil(n/2) - 1) / 2) = (n + 1) // 4: pinned
    # against the oracle on small cycles, then bracketed by the bound
    # report beyond its reach
    for n in range(3, 15):
        g = cycle_graph(n)
        assert exact_optimum(g, apsp(g), 1).optimum == (n + 1) // 4
    for n in (101, 150, 300, 512):
        res = solve(cycle_graph(n), 1)
        assert res.bounds.lower <= (n + 1) // 4 <= res.radius <= res.bounds.upper


def test_tree_solve_matches_the_matrix_path():
    # trees read rows of the tree index instead of apsp: the result must be
    # the one built over the full matrix with the one-root-at-a-time
    # search, with tau computed (0) and supplied, k = 1..5
    for g in [*tree_corpus(30, 1, 120, seed=224), *tree_shapes()]:
        D = apsp(g)
        for k in range(1, min(5, g.n) + 1):
            rooted = reference_best_root(g, D, k)
            for tau in (None, 0, 3):
                assert solve(g, k, tau_hat_doubled=tau) == solve_from(g, D, rooted, k, tau)


def test_tree_solve_builds_no_square_matrix():
    # a tree's solve holds rows of n entries, the pairing's per-position
    # summaries and one chunk of its products, not apsp's 4 n^2 bytes
    g = random_tree(3000, 1)
    tracemalloc.start()
    try:
        solve(g, 3, tau_hat_doubled=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 4 * g.n**2


def test_cyclic_solve_holds_one_two_byte_matrix():
    # apsp's int16 matrix (2 n^2 bytes), read in place by the root search,
    # the packed ball rows (n^2 / 8) and the stages' temporaries: 2.87 n^2
    # bytes on the 40x40 grid, where an int32 matrix and the root search's
    # int16 copy of it peaked at 6.39 n^2.  tau is 8 times the diameter 78
    g = grid_graph(40, 40)
    tracemalloc.start()
    try:
        solve(g, 3, tau_hat_doubled=624)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * g.n**2
