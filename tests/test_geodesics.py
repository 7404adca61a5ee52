from __future__ import annotations

import pytest

from kgc import (
    CapExceededError,
    apsp,
    cycle_graph,
    family_eccentricity,
    grid_graph,
    is_isometric,
    path_graph,
    star_graph,
)
from kgc.geodesics import enumerate_geodesics, shortest_path
from kgc.graph_core import SplitMix64
from conftest import (
    covering_reach,
    exists_covering_rpath,
    naive_family_eccentricity,
    path_through,
    small_graph_corpus,
)


def brute_covering_rpath(g, D, r, u, w, radius) -> bool:
    """Reference: enumerate every geodesic from r and test both distances."""
    for t in range(g.n):
        for p in enumerate_geodesics(g, D, r, t, cap=100_000):
            if min(int(D[u, x]) for x in p) <= radius and min(
                int(D[w, x]) for x in p
            ) <= radius:
                return True
    return False


def test_shortest_path_examples():
    g = path_graph(5)
    D = apsp(g)
    assert shortest_path(g, D, 0, 4) == (0, 1, 2, 3, 4)
    c4 = cycle_graph(4)
    assert shortest_path(c4, apsp(c4), 0, 2) == (0, 1, 2)  # neighbor 1 beats 3
    assert shortest_path(g, D, 2, 2) == (2,)


def test_shortest_path_always_isometric():
    for g in small_graph_corpus(8, 9, seed=21):
        D = apsp(g)
        for u in range(g.n):
            for v in range(g.n):
                p = shortest_path(g, D, u, v)
                assert is_isometric(D, p)
                assert len(p) == int(D[u, v]) + 1


def test_is_isometric_examples():
    g = path_graph(5)
    D = apsp(g)
    assert is_isometric(D, (0, 1, 2))
    assert is_isometric(D, (3,))
    c4 = cycle_graph(4)
    assert not is_isometric(apsp(c4), (1, 0, 2))  # detour: d(1,2)=1 < 2
    assert not is_isometric(D, (0, 2))  # not adjacent


def test_path_through_examples():
    g = path_graph(5)
    D = apsp(g)
    assert path_through(g, D, 0, 2, 4) == (0, 1, 2, 3, 4)
    s3 = star_graph(3)
    assert path_through(s3, apsp(s3), 1, 0, 2) == (1, 0, 2)
    assert path_through(g, D, 3, 3, 3) == (3,)


def test_path_through_rejects_non_between():
    c4 = cycle_graph(4)
    D = apsp(c4)
    with pytest.raises(ValueError):
        path_through(c4, D, 0, 1, 3)  # d(0,1)+d(1,3)=3 != d(0,3)=1


def test_path_through_postcondition_random():
    rng = SplitMix64(99)
    for g in small_graph_corpus(10, 10, seed=33):
        D = apsp(g)
        found = 0
        while found < 10:
            r, b = rng.below(g.n), rng.below(g.n)
            mids = [a for a in range(g.n) if int(D[r, a]) + int(D[a, b]) == int(D[r, b])]
            a = mids[rng.below(len(mids))]
            p = path_through(g, D, r, a, b)
            assert is_isometric(D, p)
            assert len(p) == int(D[r, b]) + 1
            assert a in p and b in p and p[0] == r
            found += 1


def test_exists_covering_rpath_star_examples():
    g = star_graph(3)
    D = apsp(g)
    assert not exists_covering_rpath(g, D, 1, 2, 3, 0)
    assert exists_covering_rpath(g, D, 1, 2, 3, 1)
    p5 = path_graph(5)
    assert exists_covering_rpath(p5, apsp(p5), 0, 2, 4, 0)


def test_exists_covering_rpath_matches_brute_force():
    for g in small_graph_corpus(8, 9, seed=51):
        D = apsp(g)
        diam = int(D.max())
        for r in range(g.n):
            for radius in range(diam + 1):
                reach = {
                    w: covering_reach(g, D, r, w, radius) for w in range(g.n)
                }
                for u in range(g.n):
                    for w in range(g.n):
                        expected = brute_covering_rpath(g, D, r, u, w, radius)
                        assert bool(reach[w][u]) == expected
                        assert exists_covering_rpath(g, D, r, u, w, radius) == expected


def test_family_eccentricity_examples():
    p5 = path_graph(5)
    assert family_eccentricity(p5, [(0, 1, 2, 3, 4)]) == 0
    s5 = star_graph(5)
    assert family_eccentricity(s5, [(1, 0, 2), (3, 0, 4)]) == 1  # leaf 5 left out
    c8 = cycle_graph(8)
    assert family_eccentricity(c8, [(0, 1, 2, 3, 4)]) == 2  # vertex 6 via either arc


def test_family_eccentricity_matches_naive():
    rng = SplitMix64(7)
    for g in small_graph_corpus(8, 9, seed=61):
        D = apsp(g)
        paths = []
        for _ in range(3):
            u, v = rng.below(g.n), rng.below(g.n)
            paths.append(shortest_path(g, D, u, v))
        assert family_eccentricity(g, paths) == naive_family_eccentricity(D, paths)


def test_family_eccentricity_rejects_empty():
    with pytest.raises(ValueError):
        family_eccentricity(path_graph(3), [])


def test_family_eccentricity_rejects_out_of_range_vertices():
    # -1 must not be read as the last vertex, nor n raise IndexError
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="out-of-range"):
            family_eccentricity(path_graph(5), [(bad,)])


def test_enumerate_geodesics_counts():
    p5 = path_graph(5)
    assert len(enumerate_geodesics(p5, apsp(p5), 0, 4)) == 1
    c4 = cycle_graph(4)
    assert enumerate_geodesics(c4, apsp(c4), 0, 2) == [(0, 1, 2), (0, 3, 2)]
    g = grid_graph(3, 3)
    assert len(enumerate_geodesics(g, apsp(g), 0, 8)) == 6  # C(4,2) lattice paths


def test_enumerate_geodesics_lex_order_and_cap():
    c4 = cycle_graph(4)
    D = apsp(c4)
    with pytest.raises(CapExceededError):
        enumerate_geodesics(c4, D, 0, 2, cap=1)
    assert enumerate_geodesics(c4, D, 1, 1) == [(1,)]


def test_enumerate_geodesics_past_the_recursion_limit():
    # one stack entry per path vertex, not one interpreter frame
    g = path_graph(1500)
    D = apsp(g)
    assert enumerate_geodesics(g, D, 0, 1499) == [tuple(range(1500))]
    assert enumerate_geodesics(g, D, 1499, 0) == [tuple(range(1499, -1, -1))]
    # a 2 x 700 ladder: one geodesic per rung crossed, in lexicographic order
    g = grid_graph(2, 700)
    paths = enumerate_geodesics(g, apsp(g), 0, 1399)
    assert len(set(paths)) == len(paths) == 700
    assert paths == sorted(paths)
    assert all(len(p) == 701 for p in paths)
