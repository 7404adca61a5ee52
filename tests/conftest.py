"""Shared corpus builders, naive reference implementations, and the
lemma-level helpers the property tests check the paper's statements with."""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from kgc import (
    BoundReport,
    Graph,
    GraphFormatError,
    GraphValidationError,
    OracleCaps,
    Pairing,
    RootedSolution,
    SolveResult,
    apsp,
    exact_optimum,
    family_eccentricity,
    four_point_delta,
    path_graph,
    random_connected,
    random_tree,
    solve,
    star_graph,
    subdivide,
)
from kgc.geodesics import VertexPath, shortest_path
from kgc.graph_core import SplitMix64
from kgc.rooted_cover import (
    RootedOutcome,
    _Greedy,
    _or_into,
    _rooted_solution,
    _search_root,
    _slices,
)
from kgc.shallow_pairing import _augment, min_gamma_pairing
from kgc.solver import bound_range, build_profile


def small_graph_corpus(count: int, max_n: int, seed: int, max_m: int | None = None):
    """Deterministic mix of random connected graphs with n in [4, max_n]."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = 4 + rng.below(max_n - 3)
        cap = n * (n - 1) // 2
        if max_m is not None:
            cap = min(cap, max_m)
        m = (n - 1) + rng.below(cap - (n - 1) + 1)
        out.append(random_connected(n, m, rng.next_u64()))
    return out


def tree_corpus(count: int, min_n: int, max_n: int, seed: int):
    rng = SplitMix64(seed)
    return [
        random_tree(min_n + rng.below(max_n - min_n + 1), rng.next_u64())
        for _ in range(count)
    ]


def caterpillar(spine: int, legs: int) -> Graph:
    """Path of ``spine`` vertices with ``legs`` pendant leaves on each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + legs * i + j) for i in range(spine) for j in range(legs)]
    return Graph.from_edges(spine * (legs + 1), edges)


def tree_shapes():
    """Trees of fixed shape: one and two vertices, a path, a star, spiders
    and caterpillars."""
    return [
        path_graph(1),
        path_graph(2),
        path_graph(50),
        star_graph(9),
        subdivide(star_graph(3), 4),  # spiders
        subdivide(star_graph(5), 2),
        subdivide(star_graph(4), 7),
        caterpillar(8, 2),
        caterpillar(12, 1),
        caterpillar(5, 4),
    ]


def naive_delta_doubled(D) -> int:
    """Reference four-point hyperbolicity: plain quadruple loop."""
    best = 0
    for u, v, w, x in combinations(range(len(D)), 4):
        sums = sorted(
            (
                int(D[u, v]) + int(D[w, x]),
                int(D[u, w]) + int(D[v, x]),
                int(D[u, x]) + int(D[v, w]),
            )
        )
        best = max(best, sums[2] - sums[1])
    return best


def reference_pair_scan_delta_doubled(D) -> int:
    """Reference four-point delta: the pair scan over the whole matrix, with
    no split into blocks, stopping only once 2*d(a,b) is at most the
    running maximum (the doubled delta is at most twice either distance of
    a quadruple's largest-sum pairing)."""
    n = len(D)
    d = np.asarray(D, dtype=np.int64)
    pairs = [(int(d[a, b]), a, b) for a, b in combinations(range(n), 2)]
    pairs.sort(key=lambda t: -t[0])
    best = 0
    for dab, a, b in pairs:
        if 2 * dab <= best:
            break
        p1 = dab + d
        p2 = d[a][:, None] + d[b][None, :]
        p3 = p2.T
        mx = np.maximum(p1, np.maximum(p2, p3))
        mn = np.minimum(p1, np.minimum(p2, p3))
        best = max(best, int((2 * mx + mn - (p1 + p2 + p3)).max()))
    return best


def naive_family_eccentricity(D, paths) -> int:
    members = [v for p in paths for v in p]
    return max(min(int(D[v, x]) for x in members) for v in range(len(D)))


def reference_from_edges(n: int, edges) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reference graph builder: a pure-Python check of each edge in input
    order (range, loop, duplicate either way round), sorted neighbour
    tuples and a search for connectivity.  Returns ``(n, adjacency)``."""
    if n < 1:
        raise GraphValidationError("graph needs at least one vertex")
    edges = list(edges)
    if len(edges) < n - 1:
        raise GraphValidationError("graph is not connected")
    seen: set[tuple[int, int]] = set()
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphValidationError(f"loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphValidationError(f"duplicate edge {key}")
        seen.add(key)
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    reached = {0}
    todo = [0]
    while todo:
        for w in adjacency[todo.pop()]:
            if w not in reached:
                reached.add(w)
                todo.append(w)
    if len(reached) != n:
        raise GraphValidationError("graph is not connected")
    return n, adjacency


def reference_load_graph(source) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reference edge-list parser: one line at a time, each id through
    ``int``, then :func:`reference_from_edges`.  Returns ``(n, adjacency)``."""
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise GraphFormatError("empty input")
    header = data[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {data[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {data[0]!r}") from exc
    edges: list[tuple[int, int]] = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
    graph = reference_from_edges(n, edges)
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return graph


def graph_key(g: Graph):
    return (g.n, tuple(g.edges()))


def reference_apsp(g: Graph) -> np.ndarray:
    """Reference hop distances, read-only: one plain Python BFS per source."""
    n = g.n
    d = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = d[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
    d.setflags(write=False)
    return d


def reference_cover_or_packing(g, D, r, radius, k) -> RootedOutcome:
    """Reference greedy on full n x n matrices: ``aligned[a, b]`` is true
    when a and b lie on a common geodesic through r, ``ball[a, b]`` when
    d(a, b) <= radius, and a pick v kills every u whose ball meets a vertex
    aligned with v's ball.  Builds a geodesic at every pick."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    dr = D[r].astype(np.int64)
    aligned = D == np.abs(dr[:, None] - dr[None, :])
    ball = D <= radius
    alive = np.ones(g.n, dtype=bool)
    picks, sigmas = [], []
    while alive.any() and len(picks) < 2 * k:
        v = int(np.where(alive, dr, -1).argmax())
        picks.append(v)
        sigmas.append(shortest_path(g, D[v], r))
        if len(picks) == 2 * k:
            break
        near_geodesic = (aligned & ball[v][None, :]).any(axis=1)
        killed = (ball & near_geodesic[None, :]).any(axis=1)
        alive &= ~killed
    if len(picks) == 2 * k:
        return RootedOutcome(cover=None, packing=tuple(sorted(picks)))
    return RootedOutcome(cover=tuple(sigmas), packing=None)


def reference_survivors(greedy: _Greedy, dr: np.ndarray, v: np.ndarray, radius: int) -> np.ndarray:
    """``_Greedy._survivors`` with an alignment row for every member of
    each pick's ball, not only its sphere: row i kills every vertex whose
    ball meets a vertex aligned, through row i's root, with some b in
    v[i]'s ball."""
    n = greedy.n
    rows, members = (greedy.dist[v] <= radius).nonzero()
    near = np.zeros((v.size, greedy.pad), dtype=bool)
    for part in _slices(rows.size, greedy.pad):
        at, b = rows[part], members[part]
        gap = dr[at]
        gap -= dr[at, b][:, None]
        np.abs(gap, out=gap)
        aligned = np.zeros((at.size, greedy.pad), dtype=bool)
        np.equal(gap, greedy.dist[b], out=aligned[:, :n])
        _or_into(near, at, aligned)
    bits = greedy.ball_bits(radius)
    rows, members = near.nonzero()
    killed = np.zeros((v.size, bits.shape[1]), dtype=np.uint8)
    for part in _slices(rows.size, bits.shape[1]):
        _or_into(killed, rows[part], bits[members[part]])
    return np.unpackbits(~killed, axis=1, count=n).view(bool)


def reference_search_root(g, D, r, k, stop_at=None, first_probe=None):
    """Reference one-root binary search over ``reference_cover_or_packing``:
    packing seen at lo (-1 vacuously), cover at hi (n a priori).  The first
    probe goes to ``first_probe`` when it lies inside the bracket; the
    search gives up (None) once ``lo`` reaches ``stop_at``."""
    lo, hi = -1, g.n
    cover_at_hi = packing_at_lo = None
    while hi - lo > 1:
        if stop_at is not None and lo >= stop_at:
            return None
        if first_probe is not None and lo < first_probe < hi:
            mid = first_probe
        else:
            mid = (lo + hi) // 2
        first_probe = None
        out = reference_cover_or_packing(g, D, r, mid, k)
        if out.is_cover:
            hi, cover_at_hi = mid, out.cover
        else:
            lo, packing_at_lo = mid, out.packing
    if cover_at_hi is None:
        cover_at_hi = reference_cover_or_packing(g, D, r, hi, k).cover
    return hi, cover_at_hi, packing_at_lo if hi > 0 else None


def reference_best_root(g, D, k, prune=True) -> RootedSolution:
    """Reference root search: one root at a time in id order.  With
    pruning, each later root first probes one below the incumbent radius
    and stops once its bracket shows it cannot beat the incumbent (ties go
    to the lower id, which the incumbent always has)."""
    best = None
    for r in range(g.n):
        below = best[0] - 1 if prune and best is not None else None
        found = reference_search_root(g, D, r, k, below, below)
        if found is not None and (best is None or found[0] < best[0]):
            radius, cover, packing = found
            best = (radius, r, cover, packing)
    radius, root, cover, packing = best
    return RootedSolution(root=root, radius=radius, cover=cover, packing=packing)


def solve_from(g, D, rooted: RootedSolution, k: int, tau_hat_doubled=None) -> SolveResult:
    """The rest of ``solve`` from a given rooted solution, over the full
    matrix ``D``: the pairing of its profile, one canonical geodesic per
    pair, and the bounds, with tau four times the four-point delta unless
    supplied."""
    if tau_hat_doubled is None:
        tau, source = 4 * four_point_delta(D), "computed"
    else:
        tau, source = tau_hat_doubled, "supplied"
    profile = build_profile(rooted.root, rooted.cover, k)
    pairing = min_gamma_pairing(D[list(profile)], profile)
    paths = tuple(dict.fromkeys(shortest_path(g, D[y], x) for x, y in pairing.pairs))
    lower, upper = bound_range(rooted.radius, tau)
    return SolveResult(
        k=k,
        paths=paths,
        radius=family_eccentricity(g, paths),
        rooted=rooted,
        pairing=pairing,
        bounds=BoundReport(tau_hat_doubled=tau, tau_source=source, lower=lower, upper=upper),
    )


def max_matching(adj) -> list[int]:
    """Maximum-cardinality matching on a general graph, as mate[v] (-1 if
    unmatched): a greedy matching in vertex-id order, then one augmenting
    search from each exposed vertex in id order; a vertex the search fails
    from stays exposed, and the rest are still searched."""
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v], match[to] = to, v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment(adj, match, v)
    return match


def reference_perfect_matching(H):
    """Reference least perfect matching: existence by a full maximum
    matching on every candidate remainder, no early exit."""

    def matchable(active):
        index = {v: i for i, v in enumerate(active)}
        adj = [[index[w] for w in active if w != v and H[v, w]] for v in active]
        return all(m != -1 for m in max_matching(adj))

    remaining = list(range(H.shape[0]))
    if len(remaining) % 2 or not matchable(remaining):
        return None
    pairs = []
    while remaining:
        i = remaining[0]
        for j in remaining[1:]:
            rest = [v for v in remaining if v not in (i, j)]
            if H[i, j] and matchable(rest):
                pairs.append((i, j))
                remaining = rest
                break
    return tuple(pairs)


def reference_find_shallow_pairing(D, pi, gamma_doubled):
    """Reference per-apex loop: one pairing graph per vertex in id order,
    apexes with an isolated position skipped, the rest matched in full."""
    for v in range(len(D)):
        H = pairing_graph(D, v, pi, gamma_doubled)
        if not H.any(axis=1).all():
            continue
        matched = reference_perfect_matching(H)
        if matched is not None:
            pairs = sorted(tuple(sorted((pi[i], pi[j]))) for i, j in matched)
            return Pairing(apex=v, gamma_doubled=gamma_doubled, pairs=tuple(pairs))
    return None


def reference_min_gamma_pairing(D, pi):
    """Reference shallowest pairing: every achieved product, ascending,
    through the per-apex loop."""
    d = D.astype(np.int64)
    candidates = sorted(
        {
            int(d[pi[i], v] + d[pi[j], v] - d[pi[i], pi[j]])
            for i, j in combinations(range(len(pi)), 2)
            for v in range(len(D))
        }
    )
    for doubled in candidates:
        pairing = reference_find_shallow_pairing(D, pi, doubled)
        if pairing is not None:
            return pairing
    raise AssertionError("no pairing at the largest product")


def reference_verify_packing(g, D, r, radius, vertices) -> bool:
    """Reference packing check: the covering-path test on every pair."""
    members = sorted(set(vertices))
    return not any(
        exists_covering_rpath(g, D, r, x, y, radius)
        for x, y in combinations(members, 2)
    )


# Lemma-level helpers: the quantities the paper's statements are about,
# computed one at a time, for the property tests.


def gromov_product(D: np.ndarray, x: int, y: int, z: int) -> int:
    """Doubled (x|y)_z: 2 (x|y)_z = d(x,z) + d(z,y) - d(x,y), exactly."""
    return int(D[x, z]) + int(D[z, y]) - int(D[x, y])


def path_through(g: Graph, D: np.ndarray, r: int, a: int, b: int) -> VertexPath:
    """Geodesic from r to b through a; requires d(r,a) + d(a,b) = d(r,b)."""
    if int(D[r, a]) + int(D[a, b]) != int(D[r, b]):
        raise ValueError(f"{a} does not lie between {r} and {b}")
    return shortest_path(g, D[a], r) + shortest_path(g, D[b], a)[1:]


def exists_covering_rpath(g: Graph, D: np.ndarray, r: int, u: int, w: int, radius: int) -> bool:
    """True iff some isometric path ending at r passes within ``radius`` of
    both u and w (the vertex-pair reduction in ``kgc.geodesics``)."""
    dr = D[r]
    ball_u = np.flatnonzero(D[u] <= radius)
    ball_w = np.flatnonzero(D[w] <= radius)
    sub = D[np.ix_(ball_u, ball_w)] == np.abs(dr[ball_u][:, None] - dr[ball_w][None, :])
    return bool(sub.any())


def covering_reach(g: Graph, D: np.ndarray, r: int, w: int, radius: int) -> np.ndarray:
    """Boolean vector over vertices u of ``exists_covering_rpath(r, u, w, radius)``."""
    dr = D[r]
    ball_w = np.flatnonzero(D[w] <= radius)
    candidates = (D[:, ball_w] == np.abs(dr[:, None] - dr[ball_w][None, :])).any(axis=1)
    # u qualifies iff its radius-ball meets the candidate set
    return (D[:, np.flatnonzero(candidates)] <= radius).any(axis=1)


def fiber(D: np.ndarray, u: int, x: int, pi, tau_hat_doubled: int) -> tuple[int, ...]:
    """Profile members y with (x|y)_u >= 2*tau_hat + 1, in profile order.

    One occurrence of x itself is skipped (a member is never in its own
    fiber); any further duplicates count, with (x|x)_u = d(x,u).
    """
    threshold = 2 * tau_hat_doubled + 2  # doubled form of 2*tau_hat + 1
    out = []
    skipped_self = False
    for y in pi:
        if y == x and not skipped_self:
            skipped_self = True
            continue
        if int(D[x, u]) + int(D[u, y]) - int(D[x, y]) >= threshold:
            out.append(y)
    return tuple(out)


def pairing_graph(D: np.ndarray, v: int, pi, gamma_doubled: int) -> np.ndarray:
    """Boolean adjacency over profile positions: i ~ j iff 2 (pi[i]|pi[j])_v <= gamma_doubled.

    Distinct positions holding the same vertex x get (x|x)_v = d(x,v).
    The diagonal is False.
    """
    members = np.asarray(pi, dtype=np.int64)
    dv = D[members, v].astype(np.int64)
    cross = D[np.ix_(members, members)].astype(np.int64)
    adj = dv[:, None] + dv[None, :] - cross <= gamma_doubled
    np.fill_diagonal(adj, False)
    return adj


def total_distance(D: np.ndarray, pi, v: int) -> int:
    """Sum of distances from v to every profile member."""
    return int(sum(int(D[v, x]) for x in pi))


def pairing_distance(D: np.ndarray, pairing) -> int:
    """Sum of pair distances; never exceeds total_distance at any vertex."""
    pairs = pairing.pairs if isinstance(pairing, Pairing) else tuple(pairing)
    return int(sum(int(D[x, y]) for x, y in pairs))


def scan_root(g: Graph, D: np.ndarray, r: int, k: int, upto: int | None = None) -> list[bool]:
    """Greedy outcome (cover?) from root r at each radius 0..upto (default n)."""
    limit = g.n if upto is None else upto
    greedy = _Greedy(D, g.n, g.is_tree())
    return [bool(greedy.run([r], radius, k)[0][0]) for radius in range(limit + 1)]


def min_radius_for_root(g: Graph, D: np.ndarray, r: int, k: int):
    """Least greedy-covering radius for one root, the cover found there,
    and the packing witness one step below (None when the radius is 0)."""
    greedy = _Greedy(D, g.n, g.is_tree())
    _, picks = greedy.run([r], g.n, k)  # radius n covers
    found = _rooted_solution(g, D, r, *_search_root(greedy, r, k, g.n, picks[0]))
    return found.radius, found.cover, found.packing


def solve_tree(g: Graph, k: int) -> SolveResult:
    """Exact k-geodesic center of a tree (same pipeline, zero slack)."""
    if not g.is_tree():
        raise ValueError(f"not a tree: n={g.n}, m={g.m}")
    result = solve(g, k)
    if result.radius != result.rooted.radius:
        raise AssertionError(
            f"tree invariant broken: radius {result.radius} != rooted {result.rooted.radius}"
        )
    return result


def check_rooted_relaxation(g: Graph, D: np.ndarray, k: int, caps: OracleCaps | None = None) -> dict:
    """Re-root an optimal cover at each of its endpoints and measure how far
    the rooted family's eccentricity exceeds the optimum; the excess is
    bounded by the thinness estimate."""
    oracle = exact_optimum(g, D, k, caps)
    tau = 4 * four_point_delta(D)  # doubled
    endpoints = sorted({p[0] for p in oracle.witness} | {p[-1] for p in oracle.witness})
    worst = 0
    for r in endpoints:
        family = [shortest_path(g, D[x], r) for x in endpoints if x != r]
        if not family:
            family = [(r,)]
        worst = max(worst, family_eccentricity(g, family))
    ok = 2 * worst <= 2 * oracle.optimum + tau
    return {
        "optimum": oracle.optimum,
        "tau_hat_doubled": tau,
        "worst_rooted_eccentricity": worst,
        "slack": worst - oracle.optimum,
        "ok": ok,
    }


def check_subdivision_lemma(
    g: Graph, D: np.ndarray, k: int, length: int, caps: OracleCaps | None = None
) -> dict:
    """Subdividing every edge into ``length`` hops scales the optimum by at
    most length plus half a chain, and distances to subdivided geodesics
    contract back to the base graph; check both directions exactly."""
    base = exact_optimum(g, D, k, caps)
    H = subdivide(g, length)
    DH = apsp(H)
    sub = exact_optimum(H, DH, k, caps)
    bound = base.optimum * length + length // 2
    cover_ok = sub.optimum <= bound

    contraction_ok = True
    for u in range(g.n):
        for v in range(u + 1, g.n):
            P = shortest_path(H, DH[v], u)
            Q = [x for x in P if x < g.n]  # original vertices keep their ids
            for w in range(g.n):
                dP = min(int(DH[w, x]) for x in P)
                dQ = min(int(D[w, x]) for x in Q)
                # the binding case of: d(w,P) < (r+1)*length implies d(w,Q) <= r
                if dQ >= 2 and dP < dQ * length:
                    contraction_ok = False
    return {
        "optimum_base": base.optimum,
        "optimum_subdivided": sub.optimum,
        "bound": bound,
        "cover_ok": cover_ok,
        "contraction_ok": contraction_ok,
        "ok": cover_ok and contraction_ok,
    }
