from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kgc import (
    apsp,
    cycle_graph,
    four_point_delta,
    grid_graph,
    path_graph,
    random_connected,
    random_tree,
    star_graph,
)
import conftest
import kgc.shallow_pairing
from kgc.graph_core import SplitMix64, _adjacency_lists, tree_rows
from kgc.rooted_cover import best_root
from kgc.shallow_pairing import (
    Pairing,
    min_gamma_pairing,
    paths_of_pairing,
    perfect_matching,
)
from kgc.solver import build_profile
from conftest import (
    fiber,
    gromov_product,
    max_matching,
    pairing_distance,
    pairing_graph,
    reference_min_gamma_pairing,
    small_graph_corpus,
    total_distance,
    tree_corpus,
)


def all_pairings(positions):
    """Every partition of the positions into pairs."""
    if not positions:
        yield []
        return
    first = positions[0]
    for i, partner in enumerate(positions[1:], start=1):
        rest = positions[1:i] + positions[i + 1 :]
        for tail in all_pairings(rest):
            yield [(first, partner)] + tail


def has_perfect_matching_brute(H) -> bool:
    return any(
        all(H[i, j] for i, j in pairing)
        for pairing in all_pairings(list(range(H.shape[0])))
    )


def brute_min_gamma(D, pi) -> int:
    """Exhaustive minimum doubled gamma over every (apex, pairing)."""
    best = None
    for v in range(len(D)):
        for pairing in all_pairings(list(range(len(pi)))):
            worst = max(
                gromov_product(D, pi[i], pi[j], v) for i, j in pairing
            )
            if best is None or worst < best:
                best = worst
    return best


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


def test_fiber_examples():
    g = star_graph(4)
    D = apsp(g)
    pi = (1, 2, 3, 4)
    for x in pi:
        assert fiber(D, 0, x, pi, 0) == ()
    assert fiber(D, 1, 2, pi, 0) == (3, 4)
    assert fiber(D, 1, 2, pi, 200) == ()  # tau_hat 100


def test_fiber_threshold_complements_pairing_graph():
    # membership in a fiber at tau is exactly non-adjacency at gamma = 2*tau + 1/2
    for g in small_graph_corpus(6, 9, seed=71):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        gamma = 2 * tau + 1
        rng = SplitMix64(11)
        pi = tuple(rng.below(g.n) for _ in range(6))
        for v in range(g.n):
            H = pairing_graph(D, v, pi, gamma)
            for i, x in enumerate(pi):
                in_fiber = set()
                fib = list(fiber(D, v, x, pi, tau))
                for j, y in enumerate(pi):
                    adjacent = bool(H[i, j]) if i != j else None
                    if i == j:
                        continue
                    # remove one occurrence bookkeeping: compare by product
                    gp = gromov_product(D, x, y, v)
                    assert adjacent == (gp <= gamma)
                    assert (gp >= 2 * tau + 2) == (not adjacent)


def test_fiber_small_somewhere():
    # some vertex keeps every fiber at half the profile size
    for g in small_graph_corpus(8, 10, seed=72):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        rng = SplitMix64(13)
        for k in (1, 2, 3):
            pi = tuple(rng.below(g.n) for _ in range(2 * k))
            assert any(
                all(len(fiber(D, v, x, pi, tau)) <= k for x in pi)
                for v in range(g.n)
            )


# ---------------------------------------------------------------------------
# Pairing graph and matching
# ---------------------------------------------------------------------------


def test_pairing_graph_star_complete():
    g = star_graph(4)
    D = apsp(g)
    H = pairing_graph(D, 0, (1, 2, 3, 4), 1)
    assert H.sum() == 12  # K4 off-diagonal


def test_pairing_graph_repeated_vertices():
    g = path_graph(5)
    D = apsp(g)
    H = pairing_graph(D, 2, (0, 4, 0, 4), 0)
    # (0|4)_2 = 0 but (0|0)_2 = 2 and (4|4)_2 = 2: only cross pairs adjacent
    expected = np.array(
        [
            [False, True, False, True],
            [True, False, True, False],
            [False, True, False, True],
            [True, False, True, False],
        ]
    )
    assert (H == expected).all()


def test_pairing_graph_all_products_positive_gamma_zero():
    # every product positive at the apex: the position graph is empty
    g = cycle_graph(6)
    D = apsp(g)
    H = pairing_graph(D, 0, (3, 3, 3, 3), 0)  # (3|3)_0 = 3
    assert not H.any()


def test_perfect_matching_examples():
    K4 = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(K4, False)
    assert perfect_matching(K4) == ((0, 1), (2, 3))

    C4 = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        C4[i, j] = C4[j, i] = True
    assert perfect_matching(C4) == ((0, 1), (2, 3))

    star = np.zeros((4, 4), dtype=bool)
    for leaf in (1, 2, 3):
        star[0, leaf] = star[leaf, 0] = True
    assert perfect_matching(star) is None


def test_perfect_matching_lex_least():
    # path 0-1-2-3: pairing {0,1},{2,3} is forced lowest
    P4 = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        P4[i, j] = P4[j, i] = True
    assert perfect_matching(P4) == ((0, 1), (2, 3))
    # forcing 0-2 keeps feasibility but 0-1 must win
    H = np.array(
        [
            [False, True, True, False],
            [True, False, False, True],
            [True, False, False, True],
            [False, True, True, False],
        ]
    )
    assert perfect_matching(H) == ((0, 1), (2, 3))


def test_matching_against_exhaustive_random():
    rng = SplitMix64(2024)
    for trial in range(300):
        size = 2 * (1 + rng.below(4))  # 2..8 positions
        H = np.zeros((size, size), dtype=bool)
        for i in range(size):
            for j in range(i + 1, size):
                if rng.below(100) < 45:
                    H[i, j] = H[j, i] = True
        got = perfect_matching(H)
        expected = has_perfect_matching_brute(H)
        assert (got is not None) == expected
        if got is not None:
            assert sorted(v for pair in got for v in pair) == list(range(size))
            assert all(H[i, j] for i, j in got)


def test_max_matching_odd_cycle_blossom():
    # C5 plus a pendant: forces blossom handling
    adj = [[1, 4], [0, 2], [1, 3], [2, 4], [0, 3, 5], [4]]
    mate = max_matching(adj)
    matched = sum(1 for x in mate if x != -1)
    assert matched == 6  # perfect: e.g. (0,1),(2,3),(4,5)


# ---------------------------------------------------------------------------
# Shallow pairings
# ---------------------------------------------------------------------------


def test_find_shallow_pairing_star():
    g = star_graph(4)
    D = apsp(g)
    p = min_gamma_pairing(D[[1, 2, 3, 4]], (1, 2, 3, 4))
    assert p.gamma_doubled == 0
    assert p.apex == 0
    assert p.pairs == ((1, 2), (3, 4))


def test_find_shallow_pairing_repeated_profile():
    g = path_graph(5)
    D = apsp(g)
    p = min_gamma_pairing(D[[0, 4, 0, 4]], (0, 4, 0, 4))
    assert p.gamma_doubled == 0
    assert p.apex == 0  # first id admitting a matching
    assert p.pairs == ((0, 4), (0, 4))


def test_find_shallow_pairing_avoids_duplicate_pair():
    g = star_graph(3)
    D = apsp(g)
    p = min_gamma_pairing(D[[1, 2, 3, 1]], (1, 2, 3, 1))
    assert p.gamma_doubled == 0
    # (1|1)_0 = 1 > 0, so the two copies of leaf 1 cannot pair together
    assert p.apex == 0
    assert p.pairs == ((1, 2), (1, 3))


def test_min_gamma_pairing_matches_exhaustive():
    g = cycle_graph(4)
    D = apsp(g)
    pi = (0, 1, 2, 3)
    p = min_gamma_pairing(D[list(pi)], pi)
    assert p.gamma_doubled == brute_min_gamma(D, pi)
    for x, y in p.pairs:
        assert gromov_product(D, x, y, p.apex) <= p.gamma_doubled


def test_min_gamma_pairing_random_matches_exhaustive():
    rng = SplitMix64(5150)
    for g in small_graph_corpus(8, 8, seed=81):
        D = apsp(g)
        pi = tuple(rng.below(g.n) for _ in range(4))
        p = min_gamma_pairing(D[list(pi)], pi)
        assert p.gamma_doubled == brute_min_gamma(D, pi)


def test_min_gamma_zero_on_trees():
    rng = SplitMix64(31)
    for seed in range(8):
        g = random_tree(6 + 4 * seed, seed)
        D = apsp(g)
        for k in (1, 2, 3):
            pi = tuple(rng.below(g.n) for _ in range(2 * k))
            assert min_gamma_pairing(D[list(pi)], pi).gamma_doubled == 0


def test_pairing_invariants_random():
    rng = SplitMix64(404)
    for g in small_graph_corpus(10, 12, seed=91):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        gamma = 2 * tau + 1  # 2*tau + 1/2
        for k in (1, 2, 3):
            pi = tuple(rng.below(g.n) for _ in range(2 * k))
            p = min_gamma_pairing(D[list(pi)], pi)
            # a pairing exists at this shallowness, and pairing graphs only
            # gain edges as gamma grows, so the least gamma is no larger
            assert p.gamma_doubled <= gamma
            assert sorted(v for pair in p.pairs for v in pair) == sorted(pi)
            for x, y in p.pairs:
                assert gromov_product(D, x, y, p.apex) <= p.gamma_doubled


def test_apex_near_pair_geodesics():
    # The apex sits within gamma + tau of every chosen pair geodesic, where
    # tau is the true thinness of the edge-segment geodesic space.  The
    # computed 4*delta bound uses vertex quadruples only and undershoots
    # that thinness by up to 1 on clique-like graphs (K_3: delta 0, but the
    # unit triangle is only 1-thin), hence the one-hop cushion here.
    rng = SplitMix64(77)
    for g in small_graph_corpus(10, 10, seed=101):
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        pi = tuple(rng.below(g.n) for _ in range(6))
        p = min_gamma_pairing(D[list(pi)], pi)
        for path in paths_of_pairing(g, D[[y for _, y in p.pairs]], p):
            reach = min(int(D[p.apex, x]) for x in path)
            assert 2 * reach <= p.gamma_doubled + tau + 2


def test_apex_on_pair_geodesics_in_trees():
    # zero-thinness case is sharp: a gamma-0 apex lies on every pair path
    rng = SplitMix64(78)
    for seed in range(6):
        g = random_tree(7 + 5 * seed, seed)
        D = apsp(g)
        pi = tuple(rng.below(g.n) for _ in range(6))
        p = min_gamma_pairing(D[list(pi)], pi)
        assert p.gamma_doubled == 0
        for path in paths_of_pairing(g, D[[y for _, y in p.pairs]], p):
            assert p.apex in path


def test_paths_of_pairing_examples():
    g = star_graph(4)
    D = apsp(g)
    p = min_gamma_pairing(D[[1, 2, 3, 4]], (1, 2, 3, 4))
    assert paths_of_pairing(g, D[[y for _, y in p.pairs]], p) == ((1, 0, 2), (3, 0, 4))
    p5 = path_graph(5)
    D5 = apsp(p5)
    pair = min_gamma_pairing(D5[[0, 4]], (0, 4))
    assert paths_of_pairing(p5, D5[[y for _, y in pair.pairs]], pair) == ((0, 1, 2, 3, 4),)


def test_total_and_pairing_distance_examples():
    p3 = path_graph(3)
    D = apsp(p3)
    assert total_distance(D, (0, 2), 1) == 2
    assert pairing_distance(D, [(0, 2)]) == 2
    s4 = star_graph(4)
    D4 = apsp(s4)
    assert total_distance(D4, (1, 2, 3, 4), 0) == 4
    assert pairing_distance(D4, [(1, 2), (3, 4)]) == 4


def test_weak_duality_random():
    # pairing distance never beats the total distance at any vertex
    rng = SplitMix64(8080)
    for g in small_graph_corpus(10, 12, seed=111):
        D = apsp(g)
        for _ in range(40):
            k = 1 + rng.below(3)
            pi = tuple(rng.below(g.n) for _ in range(2 * k))
            positions = list(range(2 * k))
            rng.shuffle(positions)
            pairs = [
                (pi[positions[2 * i]], pi[positions[2 * i + 1]]) for i in range(k)
            ]
            v = rng.below(g.n)
            assert pairing_distance(D, pairs) <= total_distance(D, pi, v)


def test_profile_validation():
    D = apsp(path_graph(4))
    with pytest.raises(ValueError):
        min_gamma_pairing(D[[0]], (0,))
    with pytest.raises(ValueError):
        min_gamma_pairing(D[[0, 1, 2]], (0, 1, 2))


# ---------------------------------------------------------------------------
# Apex screen and early-exit matching against the reference loop
# ---------------------------------------------------------------------------


def _profiles(rng, n, k):
    """A padded profile (a root, up to 2k-1 endpoints, copies of the root,
    as the solver builds it) and a random profile with repeats."""
    root = rng.below(n)
    ends = [rng.below(n) for _ in range(rng.below(2 * k))]
    padded = (root, *ends, *([root] * (2 * k - 1 - len(ends))))
    return padded, tuple(rng.below(n) for _ in range(2 * k))


def _pairing_corpus():
    return [
        *tree_corpus(4, 8, 30, seed=301),
        *small_graph_corpus(10, 24, seed=302, max_m=30),  # sparse cyclic
        *small_graph_corpus(5, 14, seed=303),  # up to complete
        random_connected(40, 48, 304),
        random_connected(60, 75, 305),
        cycle_graph(9),
        cycle_graph(16),
    ]


def test_min_gamma_pairing_matches_reference():
    rng = SplitMix64(3030)
    positive = 0
    for g in _pairing_corpus():
        D = apsp(g)
        for k in sorted({1, 2, 3, 5, min(24, g.n), 1 + rng.below(24)}):
            for pi in _profiles(rng, g.n, k):
                expected = reference_min_gamma_pairing(D, pi)
                assert min_gamma_pairing(D[list(pi)], pi) == expected
                positive += expected.gamma_doubled > 0
    assert positive >= 20


def _brute_max_matching_size(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    memo = {}

    def best(mask):
        if mask == 0:
            return 0
        if mask not in memo:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            out = best(rest)
            options = adj[v] & rest
            while options:
                w = (options & -options).bit_length() - 1
                options &= options - 1
                out = max(out, 1 + best(rest & ~(1 << w)))
            memo[mask] = out
        return memo[mask]

    return best((1 << n) - 1)


def test_matching_early_exit_matches_brute_force():
    rng = SplitMix64(7070)
    perfect = imperfect = 0
    for trial in range(2000):
        n = 1 + rng.below(10)
        edges = set()
        cycle = 3 + 2 * rng.below(4)  # odd cycles of length 3..9 force blossoms
        if cycle <= n:
            ring = list(range(n))
            rng.shuffle(ring)
            ring = ring[:cycle]
            edges |= {tuple(sorted((ring[i], ring[i - 1]))) for i in range(cycle)}
        density = rng.below(60)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.below(100) < density:
                    edges.add((a, b))
        adj = [[] for _ in range(n)]
        for a, b in sorted(edges):
            adj[a].append(b)
            adj[b].append(a)
        H = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            H[a, b] = H[b, a] = True
        size = _brute_max_matching_size(n, edges)
        mate = max_matching(adj)
        assert all(mate[mate[v]] == v and mate[v] in adj[v] for v in range(n) if mate[v] != -1)
        assert sum(m != -1 for m in mate) == 2 * size
        exists = perfect_matching(H) is not None
        assert exists == (2 * size == n)
        perfect += exists
        imperfect += not exists
    assert perfect >= 300 and imperfect >= 300


def _passes_leaf_screen(H) -> bool:
    """No two positions of degree 1 share their only neighbour."""
    leaves = H.sum(axis=1) == 1
    return bool((H[leaves].sum(axis=0) <= 1).all())


def _record(patch, module, name, log):
    """Patch the one-argument ``module.name`` to log its argument."""
    fn = getattr(module, name)
    patch.setattr(module, name, lambda H: log.append(H) or fn(H))


def test_min_gamma_pairing_screens_before_matching(monkeypatch):
    # work guard: only apexes with no isolated position and no two degree-1
    # positions sharing a neighbour reach the matching code, fewer of them
    # than the reference matches, and each of them is one perfect_matching
    # call (every apex graph passes through _adjacency_lists once)
    for seed in (1, 3, 5):
        g = random_connected(120, 144, seed)
        D = apsp(g)
        pi = build_profile(best_root(g, D, 9), 9)

        parent_calls = []
        with monkeypatch.context() as patch:
            _record(patch, conftest, "reference_perfect_matching", parent_calls)
            expected = reference_min_gamma_pairing(D, pi)

        calls, graphs = [], []
        with monkeypatch.context() as patch:
            _record(patch, kgc.shallow_pairing, "perfect_matching", calls)
            _record(patch, kgc.shallow_pairing, "_adjacency_lists", graphs)
            assert min_gamma_pairing(D[list(pi)], pi) == expected
        assert graphs and all(H.any(axis=1).all() for H in graphs)
        assert all(_passes_leaf_screen(H) for H in graphs)
        assert len(calls) == len(graphs) < len(parent_calls)


def _random_position_graph(rng, size, density):
    H = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.below(100) < density:
                H[i, j] = H[j, i] = True
    return H


def test_perfect_matching_matches_reference():
    # the warm-started extraction against full matchings of every remainder;
    # odd sizes, isolated positions and leaves sharing a neighbour give
    # graphs with no perfect matching
    rng = SplitMix64(6060)
    none = least = 0
    for trial in range(1500):
        size = 2 * (1 + rng.below(7)) - (rng.below(8) == 0)  # mostly even
        H = _random_position_graph(rng, size, 20 + rng.below(70))
        expected = conftest.reference_perfect_matching(H)
        assert perfect_matching(H) == expected
        none += expected is None
        # the least matching differs from the greedy-then-augment start
        if expected is not None:
            start = max_matching(_adjacency_lists(H))
            least += any(start[i] != j for i, j in expected)
    assert none >= 300 and least >= 150


def test_perfect_matching_existence_at_benchmark_sizes():
    # 16-48 positions, up to the 2k = 48 of cyclic-wide's k = 24: odd cycles
    # force blossoms, and isolated positions or leaves sharing their only
    # neighbour rule a perfect matching out; existence must agree with a
    # full maximum matching
    rng = SplitMix64(4848)
    found = {True: 0, False: 0}
    for trial in range(400):
        size = 2 * (8 + rng.below(17))
        H = _random_position_graph(rng, size, 6 + rng.below(24))
        order = list(range(size))
        rng.shuffle(order)
        for _ in range(1 + rng.below(3)):
            cycle = order[: 3 + 2 * rng.below(6)]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                H[a, b] = H[b, a] = True
            rng.shuffle(order)
        plant = rng.below(4)  # 0 and 1 plant nothing
        if plant == 2:
            H[order[0], :] = H[:, order[0]] = False
        elif plant == 3:
            for leaf in order[:2]:
                H[leaf, :] = H[:, leaf] = False
                H[leaf, order[2]] = H[order[2], leaf] = True
        exists = all(m != -1 for m in max_matching(_adjacency_lists(H)))
        got = perfect_matching(H)
        assert (got is not None) == exists
        if got is not None:
            assert sorted(v for pair in got for v in pair) == list(range(size))
            assert all(H[i, j] for i, j in got)
        found[exists] += 1
    assert found[True] >= 100 and found[False] >= 100


def test_min_gamma_pairing_matches_reference_past_the_leaf_screen(monkeypatch):
    # cyclic-wide shapes, where most apexes that fail have two degree-1
    # positions sharing their only neighbour
    rng = SplitMix64(9090)
    rejected = 0
    for seed in range(6):
        g = random_connected(50 + 10 * seed, 60 + 12 * seed, 900 + seed)
        D = apsp(g)
        k = 6 + rng.below(7)
        for pi in (build_profile(best_root(g, D, k), k), *_profiles(rng, g.n, k)):
            parent_calls, graphs = [], []
            with monkeypatch.context() as patch:
                _record(patch, conftest, "reference_perfect_matching", parent_calls)
                expected = reference_min_gamma_pairing(D, pi)
            with monkeypatch.context() as patch:
                _record(patch, kgc.shallow_pairing, "_adjacency_lists", graphs)
                assert min_gamma_pairing(D[list(pi)], pi) == expected
            rejected += len(parent_calls) - len(graphs)
    assert rejected >= 200


# ---------------------------------------------------------------------------
# The product pass in apex chunks
# ---------------------------------------------------------------------------


def test_min_gamma_pairing_matches_reference_across_chunk_boundaries(monkeypatch):
    # one apex per chunk, and chunks of a few apexes whose last one is cut
    # short, over the reference corpus and cyclic-wide shapes
    rng = SplitMix64(1212)
    cyclic = [random_connected(50 + 10 * s, 60 + 12 * s, 900 + s) for s in range(6)]
    for g in [*_pairing_corpus(), *cyclic]:
        D = apsp(g)
        width = next((w for w in range(2, g.n) if g.n % w), 1)
        for k in sorted({1, 2, 5, min(24, g.n), 1 + rng.below(24)}):
            for pi in _profiles(rng, g.n, k):
                expected = reference_min_gamma_pairing(D, pi)
                for cells in (1, width * len(pi) ** 2):
                    monkeypatch.setattr(kgc.shallow_pairing, "_CELLS", cells)
                    assert min_gamma_pairing(D[list(pi)], pi) == expected


def test_min_gamma_pairing_widens_int16_rows():
    # the products reach 2(n - 1) = 32798, past int16: the rows are cast to
    # a dtype that holds every sum before any sum, so int16 rows give the
    # pairing int32 rows give
    g = path_graph(16400)
    pi = (0, 0, 16399, 16399)
    rows = tree_rows(g)[list(pi)]
    expected = Pairing(apex=0, gamma_doubled=0, pairs=((0, 16399), (0, 16399)))
    assert min_gamma_pairing(rows.astype(np.int32), pi) == expected
    assert min_gamma_pairing(rows.astype(np.int16), pi) == expected


def test_min_gamma_pairing_memory_is_bounded_by_chunk_and_profile_rows():
    # The whole int32 (2k)^2 n product tensor takes 3.2 MB at k = 15 and
    # 13 MB at k = 30 on this grid.  The search holds one chunk of _CELLS
    # product keys with its pair mask and the copies its achieved count
    # makes (under 16 bytes a cell), and per position and apex its keyed
    # rows, two summaries, the partner slots and the screens' temporaries
    # (under 48 bytes).
    g = grid_graph(30, 30)
    D = apsp(g)
    rng = SplitMix64(3131)
    for k in (15, 30):
        bound = 16 * kgc.shallow_pairing._CELLS + 48 * 2 * k * g.n
        assert bound < 4 * (2 * k) ** 2 * g.n
        for pi in _profiles(rng, g.n, k):
            dv = D[list(pi)]
            tracemalloc.start()
            try:
                min_gamma_pairing(dv, pi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound
