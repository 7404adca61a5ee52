from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import kgc.rooted_cover

from kgc import (
    Graph,
    apsp,
    cycle_graph,
    family_eccentricity,
    four_point_delta,
    grid_graph,
    is_isometric,
    path_graph,
    random_connected,
    random_tree,
    solve,
    star_graph,
    subdivide,
    verify_packing,
)
from kgc.graph_core import SplitMix64, tree_rows
from kgc.rooted_cover import best_root, cover_or_packing
from conftest import (
    caterpillar,
    min_radius_for_root,
    reference_best_root,
    reference_cover_or_packing,
    reference_survivors,
    reference_verify_packing,
    scan_root,
    small_graph_corpus,
    tree_corpus,
    tree_shapes,
)


def linear_best(g, D, k):
    """Exhaustive reference: first covering radius per root, min over roots."""
    best = None
    for r in range(g.n):
        outcomes = scan_root(g, D, r, k)
        radius = outcomes.index(True)
        if best is None or radius < best[0]:
            best = (radius, r)
    return best


def test_cover_star4_hand_trace():
    g = star_graph(4)
    D = apsp(g)
    out = cover_or_packing(g, D, 1, 0, 2)
    assert out.is_cover
    assert out.cover == ((1, 0, 2), (1, 0, 3), (1, 0, 4))
    assert family_eccentricity(g, out.cover) == 0


def test_packing_star5_hand_trace():
    g = star_graph(5)
    D = apsp(g)
    out = cover_or_packing(g, D, 1, 0, 2)
    assert not out.is_cover
    assert out.packing == (2, 3, 4, 5)
    assert verify_packing(g, D, 1, 0, out.packing)


def test_cover_path_single_geodesic():
    g = path_graph(5)
    D = apsp(g)
    out = cover_or_packing(g, D, 0, 0, 1)
    assert out.is_cover
    assert out.cover == ((0, 1, 2, 3, 4),)


def test_verify_packing_examples():
    g = star_graph(5)
    D = apsp(g)
    assert verify_packing(g, D, 1, 0, (2, 3, 4, 5))
    assert not verify_packing(g, D, 1, 1, (2, 3, 4, 5))  # (1,0,2) reaches 2 and 3
    assert verify_packing(g, D, 1, 3, (4,))
    assert verify_packing(g, D, 1, 3, ())


def test_packing_downward_monotone():
    rng = SplitMix64(321)
    for g in small_graph_corpus(10, 10, seed=121):
        D = apsp(g)
        diam = int(D.max())
        for _ in range(6):
            r = rng.below(g.n)
            radius = rng.below(diam + 1)
            k = 1 + rng.below(2)
            out = cover_or_packing(g, D, r, radius, k)
            if not out.is_cover:
                for smaller in range(radius + 1):
                    assert verify_packing(g, D, r, smaller, out.packing)


def test_min_radius_examples():
    p5 = path_graph(5)
    assert min_radius_for_root(p5, apsp(p5), 0, 1)[0] == 0

    s5 = star_graph(5)
    radius, cover, witness = min_radius_for_root(s5, apsp(s5), 1, 2)
    assert radius == 1
    assert witness is not None and witness.radius == 0
    assert witness.vertices == (2, 3, 4, 5)
    assert family_eccentricity(s5, cover) <= 1


def test_min_radius_spider_matches_linear_scan():
    g = subdivide(star_graph(3), 2)  # spider, 3 legs of length 2
    D = apsp(g)
    leaf = next(v for v in range(g.n) if len(g.adjacency[v]) == 1)  # a leg tip
    radius, _, _ = min_radius_for_root(g, D, leaf, 1)
    outcomes = scan_root(g, D, leaf, 1)
    assert radius == outcomes.index(True)


def test_min_radius_matches_linear_scan_random():
    for g in small_graph_corpus(10, 10, seed=131):
        D = apsp(g)
        for k in (1, 2):
            for r in range(0, g.n, 3):
                radius, cover, witness = min_radius_for_root(g, D, r, k)
                outcomes = scan_root(g, D, r, k)
                assert radius == outcomes.index(True)
                assert cover is not None and len(cover) <= 2 * k - 1
                if radius > 0:
                    assert witness is not None
                    assert verify_packing(g, D, r, witness.radius, witness.vertices)


def test_best_root_examples():
    p5 = path_graph(5)
    sol = best_root(p5, apsp(p5), 1)
    assert sol.radius == 0 and sol.root == 0  # tie broken to the lowest id

    s5 = star_graph(5)
    sol = best_root(s5, apsp(s5), 2)
    assert sol.radius == 1


def test_best_root_matches_exhaustive():
    corpus = small_graph_corpus(8, 12, seed=141) + [
        random_tree(15, 3),
        random_tree(20, 9),
        grid_graph(4, 3),
        cycle_graph(9),
    ]
    for g in corpus:
        D = apsp(g)
        for k in (1, 2):
            expected = linear_best(g, D, k)
            sol = best_root(g, D, k)
            assert (sol.radius, sol.root) == expected


def test_best_root_prune_and_threads_do_not_change_result():
    for g in small_graph_corpus(6, 12, seed=151):
        D = apsp(g)
        for k in (1, 2):
            baseline = reference_best_root(g, D, k, prune=False)
            assert best_root(g, D, k) == baseline
            assert solve(g, k).rooted == baseline


def test_dichotomy_random():
    rng = SplitMix64(654)
    for g in small_graph_corpus(12, 11, seed=161):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        diam = int(D.max())
        for _ in range(8):
            r = rng.below(g.n)
            radius = rng.below(diam + 1)
            k = 1 + rng.below(3)
            out = cover_or_packing(g, D, r, radius, k)
            if out.is_cover:
                assert 1 <= len(out.cover) <= 2 * k - 1
                for p in out.cover:
                    assert p[0] == r
                    assert is_isometric(g, D, p)
                ecc = family_eccentricity(g, out.cover)
                assert 2 * ecc <= 2 * radius + 2 * tau
            else:
                assert len(out.packing) == 2 * k
                assert verify_packing(g, D, r, radius, out.packing)


def test_cover_on_trees_is_tight():
    # zero thinness: the greedy cover at radius R really is an R-cover
    rng = SplitMix64(987)
    for seed in range(8):
        g = random_tree(8 + 4 * seed, seed)
        D = apsp(g)
        diam = int(D.max())
        for _ in range(4):
            r = rng.below(g.n)
            radius = rng.below(diam + 1)
            out = cover_or_packing(g, D, r, radius, 2)
            if out.is_cover:
                assert family_eccentricity(g, out.cover) <= radius


def test_threaded_tie_breaks_on_symmetric_graphs():
    # every root of a cycle ties; the lowest id must win with pruning too
    for g in (cycle_graph(12), star_graph(6)):
        D = apsp(g)
        for k in (1, 2):
            expected = reference_best_root(g, D, k, prune=False)
            assert best_root(g, D, k) == expected


def test_cover_or_packing_rejects_bad_k():
    g = path_graph(4)
    D = apsp(g)
    with pytest.raises(ValueError):
        cover_or_packing(g, D, 0, 1, 0)
    with pytest.raises(ValueError):
        cover_or_packing(g, D, 0, -1, 1)
    with pytest.raises(ValueError):
        best_root(g, D, 5)


def _two_cycles_with_pendant_trees():
    """C5 and C6 joined by a path, with pendant trees on both cycles and
    on the path: two cycle blocks and eight bridges."""
    edges = [(i, (i + 1) % 5) for i in range(5)]  # C5 on 0..4
    edges += [(4, 5), (5, 6)]  # the joining path
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]  # C6 on 6..11
    edges += [(0, 12), (12, 13), (12, 14), (8, 15), (15, 16), (5, 17)]
    return Graph.from_edges(18, edges)


def _differential_corpus():
    return [
        *tree_corpus(6, 8, 30, seed=171),
        *small_graph_corpus(8, 18, seed=172, max_m=26),
        grid_graph(4, 4),
        grid_graph(5, 2),
        grid_graph(6, 6),
        cycle_graph(7),
        cycle_graph(10),
        random_connected(6, 15, 173),  # K_6
        random_connected(14, 60, 174),
        random_connected(14, 60, 175),
        _two_cycles_with_pendant_trees(),
    ]


def test_cover_or_packing_matches_reference():
    # every root, radius and k: the row-restricted kill sets and the lazy
    # geodesics give exactly the outcome of the full-matrix greedy
    for g in _differential_corpus():
        D = apsp(g)
        diam = int(D.max())
        for r in range(g.n):
            for radius in range(diam + 1):
                for k in range(1, min(4, g.n) + 1):
                    expected = reference_cover_or_packing(g, D, r, radius, k)
                    assert cover_or_packing(g, D, r, radius, k) == expected


def test_best_root_matches_reference_kernel():
    # the lockstep search against one root at a time over the full-matrix
    # greedy, with and without pruning
    for g in _differential_corpus():
        D = apsp(g)
        for k in (1, 2, 3):
            found = best_root(g, D, k)
            for prune in (True, False):
                assert found == reference_best_root(g, D, k, prune=prune)


def test_survivors_match_full_ball_reference():
    # alignment rows from the sphere d(v, c) = R only, ball rows for the
    # aligned vertices outside the ball only, and the 2R-ball killed
    # outright, against a row for every ball member: every root with every
    # pick v, at every radius 1..diam and at diam + 1 > ecc(v), where the
    # sphere is empty.  At n = 64 the rows need no padding column.
    for g in [*_differential_corpus(), random_connected(64, 76, 176)]:
        D = apsp(g)
        greedy = kgc.rooted_cover._Greedy(D, g.n, False)
        dr = greedy.dist[np.repeat(np.arange(g.n), g.n)]
        v = np.tile(np.arange(g.n), g.n)
        ecc = D.max(axis=1)[v]
        for radius in range(1, int(D.max()) + 2):
            expected = reference_survivors(greedy, dr, v, radius)
            found = greedy._survivors(dr, v, radius)
            assert (found == expected).all()
            # the balls of v's ball members cover all of v's 2R-ball
            assert not found[2 * radius >= ecc].any()


def test_tree_kill_matches_general_kernel():
    # the closed-form kill d(u,v) - |d(r,u) - d(r,v)| <= 2R against the
    # alignment and ball rows of _survivors, forced by passing tree=False:
    # every root in one batch, every radius 0..n+1 and k = 1..3
    trees = [
        *tree_corpus(40, 3, 60, seed=191),
        path_graph(1),
        path_graph(2),
        path_graph(17),
        star_graph(9),
        subdivide(star_graph(3), 4),  # a spider with three legs of 5
        subdivide(star_graph(5), 2),
        caterpillar(8, 2),
        caterpillar(12, 1),
    ]
    for g in trees:
        D = apsp(g)
        fast = kgc.rooted_cover._Greedy(D, g.n, True)
        general = kgc.rooted_cover._Greedy(D, g.n, False)
        roots = np.arange(g.n)
        for radius in range(g.n + 2):
            for k in range(1, min(3, g.n) + 1):
                covered, picks = fast.run(roots, radius, k)
                expected_covered, expected_picks = general.run(roots, radius, k)
                assert (covered == expected_covered).all()
                assert picks == expected_picks


def test_tree_flag_is_false_off_trees(monkeypatch):
    # a cycle, a tree plus one edge (to the vertex farthest from 0, or at
    # distance 2, closing a triangle) and grids run the general kernel:
    # best_root and cover_or_packing take the flag from the graph
    flags = []
    init = kgc.rooted_cover._Greedy.__init__

    def spy(self, rows, n, tree):
        flags.append(tree)
        init(self, rows, n, tree)

    monkeypatch.setattr(kgc.rooted_cover._Greedy, "__init__", spy)
    tree = random_tree(30, 192)
    row = apsp(tree)[0]
    chords = [
        Graph.from_edges(tree.n, [*tree.edges(), (0, w)])
        for w in (int(row.argmax()), int((row == 2).argmax()))
    ]
    for g in (cycle_graph(9), *chords, grid_graph(4, 3), grid_graph(2, 2)):
        D = apsp(g)
        best_root(g, D, 1)
        cover_or_packing(g, D, 0, 1, 1)
    best_root(tree, apsp(tree), 1)
    assert flags == [False] * 10 + [True]


def test_greedy_reads_int32_distances_in_place():
    # _Greedy reads rows as given: apsp's int16 rows below n = 2^15, its
    # int32 rows from there on; force the int32 side on small graphs, tree
    # and general kill
    graphs = [
        *tree_corpus(8, 3, 40, seed=193),
        *small_graph_corpus(10, 30, seed=194, max_m=45),
        grid_graph(4, 3),
        cycle_graph(11),
    ]
    for g in graphs:
        D = apsp(g)
        narrow = kgc.rooted_cover._Greedy(D, g.n, g.is_tree())
        in_place = kgc.rooted_cover._Greedy(D.astype(np.int32), g.n, g.is_tree())
        assert narrow.dist[[0]].dtype == np.int16 and in_place.dist[[0]].dtype == np.int32
        roots = np.arange(g.n)
        for radius in range(g.n + 2):
            for k in range(1, min(3, g.n) + 1):
                covered, picks = in_place.run(roots, radius, k)
                expected_covered, expected_picks = narrow.run(roots, radius, k)
                assert (covered == expected_covered).all()
                assert picks == expected_picks


def test_tree_picks_decide_the_greedy():
    # the lemma: from every root r of a tree, at every radius R, the greedy
    # makes one pick per vertex of r-height R (one pick where none is), so
    # it covers exactly when at most 2k - 1 vertices have r-height R
    for g in [*tree_corpus(40, 1, 60, seed=195), *tree_shapes()]:
        D = apsp(g)
        greedy = kgc.rooted_cover._Greedy(D, g.n, True)
        radius, count = kgc.rooted_cover._tree_picks(g, D.max(axis=1))
        assert radius == D.max(axis=1).min()
        for R in range(g.n + 2):
            counts = count(R)
            for k in range(1, min(3, g.n) + 1):
                covered, found = greedy.run(np.arange(g.n), R, k)
                assert (covered == (counts < 2 * k)).all()
                for r in covered.nonzero()[0]:
                    assert len(found[r]) == max(counts[r], 1)


def test_tree_best_root_matches_reference():
    # the counted root search against one root at a time over the
    # full-matrix greedy: 320 random trees of 1-120 vertices (most of them
    # small, for time), paths, a star, spiders and caterpillars, k = 1..5
    trees = [
        *tree_corpus(300, 1, 40, seed=196),
        *tree_corpus(20, 41, 120, seed=197),
        *tree_shapes(),
    ]
    for g in trees:
        D = apsp(g)
        for k in range(1, min(5, g.n) + 1):
            assert best_root(g, D, k) == reference_best_root(g, D, k)


def test_radius0_picks_decide_the_greedy():
    # at radius 0 on any graph the picks are the vertices with no neighbour
    # farther from the root: every root of non-trees, k up to n/2
    graphs = [g for g in _differential_corpus() if not g.is_tree()]
    graphs += [g for g in small_graph_corpus(30, 25, seed=198) if not g.is_tree()]
    for g in graphs:
        D = apsp(g)
        greedy = kgc.rooted_cover._Greedy(D, g.n, False)
        roots = np.arange(g.n)
        counts = kgc.rooted_cover._radius0_picks(g, greedy.dist, roots)
        for k in range(1, g.n // 2 + 1):
            covered, found = greedy.run(roots, 0, k)
            assert (covered == (counts < 2 * k)).all()
            for r in covered.nonzero()[0]:
                assert len(found[r]) == counts[r]


def test_best_root_runs_one_root_on_trees_and_counts_at_radius_0(monkeypatch):
    # trees make at most two one-root runs (the cover and the witness), and
    # off trees no lockstep run happens at radius 0, where roots are counted
    calls, counted = [], []
    run = kgc.rooted_cover._Greedy.run
    radius0_picks = kgc.rooted_cover._radius0_picks

    def spy(self, roots, radius, k):
        calls.append((len(roots), radius))
        return run(self, roots, radius, k)

    monkeypatch.setattr(kgc.rooted_cover._Greedy, "run", spy)
    monkeypatch.setattr(
        kgc.rooted_cover, "_radius0_picks", lambda *a: counted.append(a) or radius0_picks(*a)
    )
    for g in [*tree_corpus(20, 1, 80, seed=199), *tree_shapes()]:
        D = apsp(g)
        for k in (1, 2, 3):
            calls.clear()
            sol = best_root(g, D, min(k, g.n))
            assert len(calls) <= 2 and all(size == 1 for size, _ in calls)
            assert calls[0] == (1, sol.radius)
    decided_at_0 = 0
    for g in [*small_graph_corpus(30, 30, seed=200), grid_graph(4, 4), cycle_graph(10)]:
        if g.is_tree():
            continue
        D = apsp(g)
        for k in (1, 2, 4, g.n // 2):
            calls.clear()
            counted.clear()
            sol = best_root(g, D, k)
            assert not any(size > 1 and radius == 0 for size, radius in calls)
            decided_at_0 += sol.radius == 0 and calls[-1] == (1, 0) and bool(counted)
    assert decided_at_0 >= 10


def _lockstep_outcomes(g, D, radius, k):
    greedy = kgc.rooted_cover._Greedy(D, g.n, g.is_tree())
    covered, picks = greedy.run(np.arange(g.n), radius, k)
    return [
        kgc.rooted_cover._outcome(g, D, r, bool(covered[r]), picks[r]) for r in range(g.n)
    ]


def _assert_lockstep_matches_reference():
    for g in _differential_corpus():
        D = apsp(g)
        for radius in range(int(D.max()) + 1):
            for k in range(1, min(4, g.n) + 1):
                outcomes = _lockstep_outcomes(g, D, radius, k)
                for r in range(g.n):
                    assert outcomes[r] == reference_cover_or_packing(g, D, r, radius, k)


def test_lockstep_greedy_matches_reference():
    # every root of a graph in one batch, every radius and k: each row ends
    # exactly as the full-matrix greedy from that root
    _assert_lockstep_matches_reference()


def test_lockstep_greedy_matches_reference_in_tiny_slices(monkeypatch):
    # a budget of 200 cells cuts every step's alignment rows (64 cells wide
    # on these graphs) into slices of 3 members and its ball rows into
    # slices of 25, so one root's rows span several slices
    monkeypatch.setattr(kgc.rooted_cover, "_CELLS", 200)
    _assert_lockstep_matches_reference()
    for g in _differential_corpus()[::3]:
        D = apsp(g)
        for k in (1, 2):
            assert best_root(g, D, k) == reference_best_root(g, D, k)


def test_slices_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(kgc.rooted_cover, "_CELLS", 12)
    for total in range(0, 40):
        for width in (1, 5, 12, 13, 64):
            rows = np.arange(total)
            parts = [rows[s] for s in kgc.rooted_cover._slices(total, width)]
            assert all(0 < p.size * width <= max(12, width) for p in parts)
            assert np.concatenate([rows[:0], *parts]).tolist() == rows.tolist()


def test_ball_bits_keep_the_last_radius(monkeypatch):
    # every radius's rows are D <= radius; asking for the kept radius again
    # returns the same array with no rebuild, and a new radius replaces it,
    # so radius 38, asked for again after 39, is built a second time
    g = path_graph(40)
    D = apsp(g)
    greedy = kgc.rooted_cover._Greedy(D, g.n, False)
    builds = []
    slices = kgc.rooted_cover._slices
    monkeypatch.setattr(
        kgc.rooted_cover, "_slices", lambda *a: builds.append(a) or slices(*a)
    )
    for step, radius in enumerate((*range(40), 38)):
        bits = greedy.ball_bits(radius)
        assert len(builds) == step + 1
        ball = np.unpackbits(bits, axis=1, count=g.n).astype(bool)
        assert (ball == (D <= radius)).all()
        assert greedy.ball_bits(radius) is bits
        assert len(builds) == step + 1


def test_best_root_covers_mid_chunk(monkeypatch):
    # graphs whose incumbent improves at least twice after root 0, once from
    # a root inside a lockstep chunk: the roots after it are probed again
    # at the new radius (trees take no lockstep chunks)
    calls = []
    run = kgc.rooted_cover._Greedy.run

    def spy(self, roots, radius, k):
        covered, picks = run(self, roots, radius, k)
        if len(roots) > 1:
            calls.append((len(roots), covered.nonzero()[0].tolist()))
        return covered, picks

    monkeypatch.setattr(kgc.rooted_cover._Greedy, "run", spy)
    for g, k in (
        (random_connected(40, 48, 7), 1),
        (random_connected(40, 48, 7), 2),
        (random_connected(60, 70, 19), 1),
        (random_connected(40, 48, 36), 1),
    ):
        D = apsp(g)
        calls.clear()
        assert best_root(g, D, k) == reference_best_root(g, D, k)
        assert sum(1 for _, hits in calls if hits) >= 2
        assert any(hits and 0 < hits[0] < size - 1 for size, hits in calls)


def test_best_root_allocates_no_square_matrices():
    # bounds in units of 4 n^2 bytes, an int32 matrix: per-root or
    # per-radius n x n temporaries would push the peak past it.  A tree
    # keeps only arrays of n entries and the two one-root greedy runs.  On
    # the small cyclic graph the cell-budget temporaries dominate; on the
    # 40x40 grid, the root search reads D in place and holds its packed
    # ball rows (n^2 / 8 bytes) and those temporaries: 0.38 n^2 bytes,
    # where an int16 copy of D peaked at 2.38 n^2
    cases = (
        (random_tree(700, 3), 0.1 * 4),
        (random_connected(400, 480, 3), 3.5 * 4),
        (grid_graph(40, 40), 1.0),
    )
    for g, bound in cases:
        D = apsp(g)
        tracemalloc.start()
        try:
            best_root(g, D, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.n**2


def test_verify_packing_matches_pairwise_reference():
    # one check per member against the covering-path test on every pair:
    # greedy packings, random sets, duplicates, empty and one-member sets
    rng = SplitMix64(5353)
    outcomes = {True: 0, False: 0}
    for g in _differential_corpus():
        D = apsp(g)
        for r in range(0, g.n, 3):
            for radius in range(4):
                sets = [(), (rng.below(g.n),), (r, r)]
                for k in (1, 2, 3):
                    packing = cover_or_packing(g, D, r, radius, min(k, g.n)).packing
                    if packing is not None:
                        sets += [packing, packing + packing[-1:], packing[1:]]
                for size in (2, 3, 5):
                    drawn = tuple(rng.below(g.n) for _ in range(size))
                    sets += [drawn, drawn + drawn[:1]]
                for vertices in sets:
                    expected = reference_verify_packing(g, D, r, radius, vertices)
                    assert verify_packing(g, D, r, radius, vertices) == expected
                    outcomes[expected] += 1
    assert min(outcomes.values()) >= 200


def test_tree_packing_matches_verify_packing(monkeypatch):
    # verify_packing's closed-form pair test on trees,
    # d(x,y) - |d(r,x) - d(r,y)| <= 2R, from the tree index, against its
    # ball alignment, forced by treating the tree as cyclic: every root of
    # each tree, R = 0..6, greedy packings and random vertex sets
    rng = SplitMix64(5454)
    outcomes = {True: 0, False: 0}
    for g in [*tree_corpus(12, 2, 30, seed=223), *tree_shapes()[:8]]:
        D = apsp(g)
        rows = tree_rows(g)
        for r in range(g.n):
            for radius in range(7):
                sets = [(), (r, r)]
                packing = cover_or_packing(g, D, r, radius, min(2, g.n)).packing
                if packing is not None:
                    sets += [packing, packing[1:]]
                for size in (2, 3, 5):
                    sets.append(tuple(rng.below(g.n) for _ in range(size)))
                for vertices in sets:
                    with monkeypatch.context() as patched:
                        patched.setattr(Graph, "is_tree", lambda self: False)
                        expected = verify_packing(g, D, r, radius, vertices)
                    assert verify_packing(g, rows, r, radius, vertices) == expected
                    outcomes[expected] += 1
    assert min(outcomes.values()) >= 200
