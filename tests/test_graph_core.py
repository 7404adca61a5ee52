from __future__ import annotations

import json
import tracemalloc

import pytest

from kgc import (
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
import numpy as np

from kgc import graph_core
from kgc.graph_core import SplitMix64, biconnected_blocks
from conftest import (
    gromov_product,
    naive_delta_doubled,
    reference_apsp,
    reference_pair_scan_delta_doubled,
    small_graph_corpus,
    tree_corpus,
)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_load_graph_path3():
    g = load_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_load_graph_comments_and_blanks():
    g = load_graph("# a path\n\n3 2\n0 1\n\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_load_graph_duplicate_edge():
    with pytest.raises(GraphValidationError, match="duplicate"):
        load_graph("2 1\n0 1\n0 1")
    with pytest.raises(GraphValidationError, match="duplicate"):
        load_graph("2 2\n0 1\n1 0")  # reversed duplicate


def test_load_graph_disconnected():
    with pytest.raises(GraphValidationError, match="connected"):
        load_graph("4 2\n0 1\n2 3")


def test_load_graph_too_few_edges_fails_before_allocating():
    # a 12-byte file must not build 10^8 adjacency lists to find out
    tracemalloc.start()
    try:
        with pytest.raises(GraphValidationError, match="connected"):
            load_graph("100000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_graph_loop():
    with pytest.raises(GraphValidationError, match="loop"):
        load_graph("2 2\n0 1\n1 1")


def test_load_graph_out_of_range():
    with pytest.raises(GraphValidationError, match="range"):
        load_graph("2 1\n0 2")


def test_load_graph_malformed():
    with pytest.raises(GraphFormatError):
        load_graph("2\n0 1")
    with pytest.raises(GraphFormatError):
        load_graph("2 1\n0 1 7")
    with pytest.raises(GraphFormatError):
        load_graph("2 2\n0 1")
    with pytest.raises(GraphFormatError):
        load_graph("")


def test_round_trip_identity():
    for g in small_graph_corpus(10, 12, seed=5):
        assert load_graph(serialize_graph(g)) == g


def test_single_vertex_graph():
    g = load_graph("1 0\n")
    assert g.n == 1 and g.m == 0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_star_layout():
    g = star_graph(4)
    assert g.n == 5 and g.m == 4
    assert g.adjacency[0] == (1, 2, 3, 4)
    assert all(g.adjacency[i] == (0,) for i in range(1, 5))


def test_grid_counts():
    g = grid_graph(3, 3)
    assert g.n == 9 and g.m == 12


def test_random_tree_is_tree_and_deterministic():
    g = random_tree(50, seed=7)
    assert g.n == 50 and g.m == 49
    assert g == random_tree(50, seed=7)
    assert g != random_tree(50, seed=8)


def test_random_connected_edge_count():
    g = random_connected(10, 20, seed=3)
    assert g.n == 10 and g.m == 20
    assert g == random_connected(10, 20, seed=3)


def test_random_connected_infeasible():
    with pytest.raises(GraphValidationError):
        random_connected(5, 3, seed=0)
    with pytest.raises(GraphValidationError):
        random_connected(4, 7, seed=0)


def test_splitmix_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
    assert all(0 <= SplitMix64(1).below(7) < 7 for _ in range(20))


# ---------------------------------------------------------------------------
# Subdivision
# ---------------------------------------------------------------------------


def test_subdivide_path_edge():
    g = subdivide(path_graph(2), 3)
    assert g.n == 4 and g.m == 3
    D = apsp(g)
    assert int(D[0, 1]) == 3  # originals pulled apart by the chain


def test_subdivide_triangle_to_hexagon():
    g = subdivide(cycle_graph(3), 2)
    assert g.n == 6 and g.m == 6
    D = apsp(g)
    assert max(int(D[u, v]) for u in range(6) for v in range(6)) == 3


def test_subdivide_star_to_spider():
    g = subdivide(star_graph(3), 2)
    assert g.n == 7 and g.m == 6
    D = apsp(g)
    assert sorted(int(D[0, leaf]) for leaf in (1, 2, 3)) == [2, 2, 2]


def test_subdivide_scales_original_distances():
    for g in small_graph_corpus(6, 9, seed=11):
        D = apsp(g)
        for length in (2, 3):
            H = subdivide(g, length)
            assert H.n == g.n + g.m * (length - 1)
            DH = apsp(H)
            for u in range(g.n):
                for v in range(g.n):
                    assert int(DH[u, v]) == length * int(D[u, v])


def test_subdivide_length_one_is_identity():
    g = grid_graph(3, 2)
    assert subdivide(g, 1) == g


# ---------------------------------------------------------------------------
# Metric layer
# ---------------------------------------------------------------------------


def test_apsp_examples():
    assert int(apsp(path_graph(3))[0, 2]) == 2
    D = apsp(cycle_graph(4))
    assert int(D[0, 2]) == 2 and int(D[0, 1]) == 1
    assert int(apsp(grid_graph(3, 3))[0, 8]) == 4


def _glue(g: Graph, at: int, h: Graph) -> Graph:
    """g with a copy of h hung from vertex ``at`` by an edge to h's vertex 0."""
    edges = [*g.edges(), (at, g.n), *((u + g.n, v + g.n) for u, v in h.edges())]
    return Graph.from_edges(g.n + h.n, edges)


def _caterpillar(spine: int, legs: int) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (1 + legs), edges)


def _pendant_heavy_corpus():
    """Trees, and cyclic graphs with long pendant paths and trees: most rows
    come from the bridge recurrence, not the core's search."""
    cycle_with_tails = _glue(_glue(cycle_graph(12), 0, path_graph(40)), 6, path_graph(25))
    grid_with_trees = _glue(grid_graph(5, 4), 0, random_tree(30, 1))
    grid_with_trees = _glue(grid_with_trees, 19, random_tree(25, 2))
    joined = _glue(cycle_graph(6), 0, path_graph(30))
    joined = _glue(joined, joined.n - 1, cycle_graph(7))  # two cycles, a 31-edge path
    return [
        path_graph(700),
        _caterpillar(20, 3),
        _caterpillar(60, 1),
        *tree_corpus(20, 3, 120, seed=41),
        cycle_with_tails,
        grid_with_trees,
        joined,
        _grid_with_pendant_tree(),
        _bridged_c5s(),
        *(random_connected(n, n * 6 // 5, n) for n in (10, 40, 120, 300)),
    ]


def _apsp_corpus():
    graphs = [
        path_graph(1),
        path_graph(2),
        star_graph(40),  # the centre has more edges than a 32-cell slice
        Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]),
        grid_graph(7, 5),
        subdivide(star_graph(4), 3),
        subdivide(cycle_graph(5), 4),
        subdivide(grid_graph(3, 3), 2),
    ]
    rng = SplitMix64(77)
    for _ in range(200):
        n = 2 + rng.below(30)
        m = (n - 1) + rng.below(n * (n - 1) // 2 - (n - 1) + 1)
        graphs.append(random_connected(n, m, rng.next_u64()))
    return [*graphs, *_pendant_heavy_corpus()]


def _assert_apsp_matches_reference(g):
    D = apsp(g)
    assert D.shape == (g.n, g.n)
    assert D.dtype == np.int32
    assert not D.flags.writeable
    assert np.array_equal(D, reference_apsp(g))


def test_apsp_matches_reference_bfs():
    # the dense graph's levels span many expansion slices
    for g in [*_apsp_corpus(), random_connected(120, 2500, 5)]:
        _assert_apsp_matches_reference(g)


def test_apsp_matches_reference_bfs_in_tiny_slices(monkeypatch):
    # slices of 32 cells: many pieces per level, and vertices with more
    # edges than a slice holds
    monkeypatch.setattr(graph_core, "_APSP_SLICE", 32)
    for g in _apsp_corpus():
        _assert_apsp_matches_reference(g)


def _two_core(g: Graph) -> list[int]:
    """Vertices left after deleting vertices of degree at most 1 until none
    is left (empty for a tree)."""
    alive = set(range(g.n))
    while True:
        low = {v for v in alive if sum(w in alive for w in g.adjacency[v]) <= 1}
        if not low:
            return sorted(alive)
        alive -= low


def test_apsp_searches_only_the_two_core(monkeypatch):
    seen = []
    search = graph_core._bfs

    def spy(deg, indices):
        sources = np.repeat(np.arange(deg.size), deg)
        seen.append((deg.size, set(zip(sources.tolist(), indices.tolist()))))
        return search(deg, indices)

    monkeypatch.setattr(graph_core, "_bfs", spy)
    for g in _apsp_corpus():
        seen.clear()
        apsp(g)
        ((size, edges),) = seen
        if g.is_tree():
            assert (size, edges) == (1, set())
            continue
        core = _two_core(g)
        index = {v: i for i, v in enumerate(core)}
        induced = {(index[u], index[w]) for u in core for w in g.adjacency[u] if w in index}
        assert (size, edges) == (len(core), induced)


def test_apsp_memory_beyond_the_matrix():
    # one search over all n sources peaks at about 1.36x on the tree and
    # 2.3x on the cyclic graph; a permuted copy of the matrix would add 1x
    for g, bound in ((random_tree(700, 3), 1.5), (random_connected(350, 420, 1), 2.5)):
        tracemalloc.start()
        try:
            D = apsp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * D.nbytes


def test_distance_matrix_axioms():
    for g in small_graph_corpus(8, 10, seed=2):
        D = apsp(g)
        n = g.n
        for u in range(n):
            assert D[u, u] == 0
            for v in range(n):
                assert D[u, v] == D[v, u]
                assert (D[u, v] == 1) == (v in g.adjacency[u])
                for w in range(n):
                    assert D[u, w] <= D[u, v] + D[v, w]


def test_gromov_product_examples():
    D = apsp(path_graph(3))
    assert gromov_product(D, 0, 2, 1) == 0
    assert gromov_product(D, 0, 1, 2) == 2
    D = apsp(star_graph(3))
    assert gromov_product(D, 1, 2, 0) == 0


def test_gromov_product_identity():
    for g in small_graph_corpus(5, 9, seed=9):
        D = apsp(g)
        for x in range(g.n):
            for y in range(g.n):
                for z in range(g.n):
                    gp = gromov_product(D, x, y, z)
                    assert gp >= 0
                    # (x|y)_z + (x|z)_y recovers d(y,z)
                    assert (
                        gp + gromov_product(D, x, z, y)
                        == 2 * int(D[y, z])
                    )


def test_four_point_delta_trees_are_zero():
    for seed in range(6):
        g = random_tree(5 + 7 * seed, seed)
        assert four_point_delta(apsp(g)) == 0


def test_four_point_delta_frozen_values():
    # brute-force derived: C4 and C6 give delta 1, C8 and the 3x3 grid give 2
    # (four_point_delta returns the doubled delta)
    assert four_point_delta(apsp(cycle_graph(4))) == 2
    assert four_point_delta(apsp(cycle_graph(6))) == 2
    assert four_point_delta(apsp(cycle_graph(8))) == 4
    assert four_point_delta(apsp(grid_graph(3, 3))) == 4
    assert four_point_delta(apsp(cycle_graph(5))) == 1  # 1/2


def test_four_point_delta_is_an_int_whose_doubled_is_itself():
    # callers written for the old boxed half-integer read `.doubled`
    for g in (path_graph(5), cycle_graph(5), grid_graph(3, 3)):
        delta = four_point_delta(apsp(g))
        assert isinstance(delta, int) and delta.doubled == delta
        assert type(4 * delta) is int and json.dumps(delta) == str(int(delta))


def _bridged_c5s() -> Graph:
    # two 5-cycles joined by the bridge path 4-10-11-5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(4, 10), (10, 11), (11, 5)]
    return Graph.from_edges(12, edges)


def _cycles_at_cut_vertex() -> Graph:
    # a 4-cycle, a 5-cycle and a 6-cycle sharing vertex 0
    edges, nxt = [], 1
    for length in (4, 5, 6):
        ring = [0, *range(nxt, nxt + length - 1)]
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        nxt += length - 1
    return Graph.from_edges(nxt, edges)


def _grid_with_pendant_tree() -> Graph:
    # 3x3 grid plus pendant trees at corners 8 and 0
    edges = list(grid_graph(3, 3).edges())
    edges += [(8, 9), (9, 10), (9, 11), (11, 12), (0, 13)]
    return Graph.from_edges(14, edges)


def _multi_block_graphs():
    return [
        *small_graph_corpus(40, 12, seed=21, max_m=12 + 2),  # sparse: many bridges
        _bridged_c5s(),
        _cycles_at_cut_vertex(),
        _grid_with_pendant_tree(),
    ]


def test_four_point_delta_matches_naive():
    for g in [*small_graph_corpus(12, 10, seed=4), *_multi_block_graphs()]:
        D = apsp(g)
        assert four_point_delta(D) == naive_delta_doubled(D)


def _clique(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_four_point_delta_matches_loose_stop_reference():
    # the block split and the stop at d(a,b) <= best against one scan of the
    # whole matrix that stops only at 2*d(a,b) <= best
    corpus = [
        *tree_corpus(3, 10, 40, seed=22),
        *(cycle_graph(n) for n in (4, 5, 6, 7, 12, 13, 30, 31)),
        *(grid_graph(w, 2) for w in (2, 3, 5, 8, 13, 20, 30, 40)),  # ladders
        grid_graph(3, 3),
        grid_graph(4, 5),
        grid_graph(7, 7),
        *(_clique(n) for n in (4, 5, 9, 16, 24)),
        *small_graph_corpus(12, 40, seed=23, max_m=50),  # sparse
        *(random_connected(n, n * (n - 1) // 3, 24 + n) for n in (8, 15, 30)),  # dense
        *_multi_block_graphs(),
    ]
    for g in corpus:
        D = apsp(g)
        assert four_point_delta(D) == reference_pair_scan_delta_doubled(D)


def test_pair_scan_needs_no_widening():
    # a block under the cap has distances below 512, so every sum of two
    # fits in int16 and the scan gives the same value on a two-byte copy
    scan = graph_core._pair_scan_delta_doubled
    for g in (cycle_graph(DELTA_VERTEX_CAP), grid_graph(20, 20)):
        D = apsp(g)
        assert scan(D.astype(np.int16)) == scan(D)


def _induced_connected(g: Graph, vertices: set[int]) -> bool:
    start = min(vertices)
    seen, todo = {start}, [start]
    while todo:
        for w in g.adjacency[todo.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen == vertices


def test_biconnected_blocks_partition_edges():
    for g in _multi_block_graphs():
        blocks = [set(b) for b in biconnected_blocks(apsp(g))]
        for u, v in g.edges():
            assert sum(u in b and v in b for b in blocks) == 1
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert len(a & b) <= 1
        # each block is 2-connected, and maximal: the blocks form a tree
        # through their cut vertices, so they add n - 1 vertices to a root
        for b in blocks:
            assert len(b) == 2 or all(_induced_connected(g, b - {x}) for x in b)
        assert sum(len(b) - 1 for b in blocks) == g.n - 1
    assert sorted(map(len, biconnected_blocks(apsp(_cycles_at_cut_vertex())))) == [4, 5, 6]


def test_biconnected_blocks_of_trees_are_edges():
    for seed in range(4):
        g = random_tree(30 + 10 * seed, seed)
        blocks = biconnected_blocks(apsp(g))
        assert sorted(map(tuple, blocks)) == sorted(g.edges())
    assert biconnected_blocks(apsp(path_graph(1))) == []


def test_four_point_delta_cap():
    # the cap applies to the largest biconnected block: a cycle is one block
    # of n vertices, while a path's blocks are single edges
    with pytest.raises(CapExceededError, match="four_point_delta cap:"):
        four_point_delta(apsp(cycle_graph(DELTA_VERTEX_CAP + 1)))
    assert four_point_delta(apsp(path_graph(DELTA_VERTEX_CAP + 1))) == 0


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(GraphValidationError):
        Graph.from_edges(0, [])
    with pytest.raises(GraphValidationError):
        Graph.from_edges(3, [(0, 1)])  # vertex 2 unreachable
