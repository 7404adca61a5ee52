"""Shared corpus builders, naive reference implementations, and the
lemma-level helpers the property tests check the paper's statements with."""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from kgc import (
    DistanceMatrix,
    Graph,
    OracleCaps,
    PackingWitness,
    Pairing,
    RootedSolution,
    apsp,
    exact_optimum,
    family_eccentricity,
    four_point_delta,
    random_connected,
    random_tree,
    subdivide,
)
from kgc.geodesics import VertexPath, shortest_path
from kgc.graph_core import SplitMix64
from kgc.rooted_cover import RootedOutcome, _Greedy, _search_root, cover_or_packing


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


def naive_delta_doubled(D) -> int:
    """Reference four-point hyperbolicity: plain quadruple loop."""
    d = D.d
    best = 0
    for u, v, w, x in combinations(range(D.n), 4):
        sums = sorted(
            (
                int(d[u, v]) + int(d[w, x]),
                int(d[u, w]) + int(d[v, x]),
                int(d[u, x]) + int(d[v, w]),
            )
        )
        best = max(best, sums[2] - sums[1])
    return best


def naive_family_eccentricity(D, paths) -> int:
    members = [v for p in paths for v in p]
    return max(min(int(D.d[v, x]) for x in members) for v in range(D.n))


def graph_key(g: Graph):
    return (g.n, tuple(g.edges()))


def reference_apsp(g: Graph) -> DistanceMatrix:
    """Reference hop distances: one plain Python BFS per source."""
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
    return DistanceMatrix(n=n, d=d)


def reference_cover_or_packing(g, D, r, radius, k) -> RootedOutcome:
    """Reference greedy on full n x n matrices: ``aligned[a, b]`` is true
    when a and b lie on a common geodesic through r, ``ball[a, b]`` when
    d(a, b) <= radius, and a pick v kills every u whose ball meets a vertex
    aligned with v's ball.  Builds a geodesic at every pick."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    d = D.d
    dr = d[r].astype(np.int64)
    aligned = d == np.abs(dr[:, None] - dr[None, :])
    ball = d <= radius
    alive = np.ones(g.n, dtype=bool)
    picks, sigmas = [], []
    while alive.any() and len(picks) < 2 * k:
        v = int(np.where(alive, dr, -1).argmax())
        picks.append(v)
        sigmas.append(shortest_path(g, D, r, v))
        if len(picks) == 2 * k:
            break
        near_geodesic = (aligned & ball[v][None, :]).any(axis=1)
        killed = (ball & near_geodesic[None, :]).any(axis=1)
        alive &= ~killed
    if len(picks) == 2 * k:
        return RootedOutcome(cover=None, packing=tuple(sorted(picks)))
    return RootedOutcome(cover=tuple(sigmas), packing=None)


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
    witness = PackingWitness(radius=hi - 1, vertices=packing_at_lo) if hi > 0 else None
    return hi, cover_at_hi, witness


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
            radius, cover, witness = found
            best = (radius, r, cover, witness)
    radius, root, cover, witness = best
    return RootedSolution(root=root, radius=radius, cover=cover, packing_witness=witness)


def reference_perfect_matching(H):
    """Reference least perfect matching: existence by a full maximum
    matching on every candidate remainder, no early exit."""
    from kgc.shallow_pairing import _max_matching

    def matchable(active):
        index = {v: i for i, v in enumerate(active)}
        adj = [[index[w] for w in active if w != v and H[v, w]] for v in active]
        return all(m != -1 for m in _max_matching(adj))

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
    for v in range(D.n):
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
    d = D.d.astype(np.int64)
    candidates = sorted(
        {
            int(d[pi[i], v] + d[pi[j], v] - d[pi[i], pi[j]])
            for i, j in combinations(range(len(pi)), 2)
            for v in range(D.n)
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


def gromov_product(D: DistanceMatrix, x: int, y: int, z: int) -> int:
    """Doubled (x|y)_z: 2 (x|y)_z = d(x,z) + d(z,y) - d(x,y), exactly."""
    d = D.d
    return int(d[x, z]) + int(d[z, y]) - int(d[x, y])


def path_through(g: Graph, D: DistanceMatrix, r: int, a: int, b: int) -> VertexPath:
    """Geodesic from r to b through a; requires d(r,a) + d(a,b) = d(r,b)."""
    d = D.d
    if int(d[r, a]) + int(d[a, b]) != int(d[r, b]):
        raise ValueError(f"{a} does not lie between {r} and {b}")
    return shortest_path(g, D, r, a) + shortest_path(g, D, a, b)[1:]


def exists_covering_rpath(g: Graph, D: DistanceMatrix, r: int, u: int, w: int, radius: int) -> bool:
    """True iff some isometric path ending at r passes within ``radius`` of
    both u and w (the vertex-pair reduction in ``kgc.geodesics``)."""
    d = D.d
    dr = d[r]
    ball_u = np.flatnonzero(d[u] <= radius)
    ball_w = np.flatnonzero(d[w] <= radius)
    sub = d[np.ix_(ball_u, ball_w)] == np.abs(dr[ball_u][:, None] - dr[ball_w][None, :])
    return bool(sub.any())


def covering_reach(g: Graph, D: DistanceMatrix, r: int, w: int, radius: int) -> np.ndarray:
    """Boolean vector over vertices u of ``exists_covering_rpath(r, u, w, radius)``."""
    d = D.d
    dr = d[r]
    ball_w = np.flatnonzero(d[w] <= radius)
    candidates = (d[:, ball_w] == np.abs(dr[:, None] - dr[ball_w][None, :])).any(axis=1)
    # u qualifies iff its radius-ball meets the candidate set
    return (d[:, np.flatnonzero(candidates)] <= radius).any(axis=1)


def fiber(D: DistanceMatrix, u: int, x: int, pi, tau_hat_doubled: int) -> tuple[int, ...]:
    """Profile members y with (x|y)_u >= 2*tau_hat + 1, in profile order.

    One occurrence of x itself is skipped (a member is never in its own
    fiber); any further duplicates count, with (x|x)_u = d(x,u).
    """
    d = D.d
    threshold = 2 * tau_hat_doubled + 2  # doubled form of 2*tau_hat + 1
    out = []
    skipped_self = False
    for y in pi:
        if y == x and not skipped_self:
            skipped_self = True
            continue
        if int(d[x, u]) + int(d[u, y]) - int(d[x, y]) >= threshold:
            out.append(y)
    return tuple(out)


def pairing_graph(D: DistanceMatrix, v: int, pi, gamma_doubled: int) -> np.ndarray:
    """Boolean adjacency over profile positions: i ~ j iff 2 (pi[i]|pi[j])_v <= gamma_doubled.

    Distinct positions holding the same vertex x get (x|x)_v = d(x,v).
    The diagonal is False.
    """
    members = np.asarray(pi, dtype=np.int64)
    dv = D.d[members, v].astype(np.int64)
    cross = D.d[np.ix_(members, members)].astype(np.int64)
    adj = dv[:, None] + dv[None, :] - cross <= gamma_doubled
    np.fill_diagonal(adj, False)
    return adj


def total_distance(D: DistanceMatrix, pi, v: int) -> int:
    """Sum of distances from v to every profile member."""
    return int(sum(int(D.d[v, x]) for x in pi))


def pairing_distance(D: DistanceMatrix, pairing) -> int:
    """Sum of pair distances; never exceeds total_distance at any vertex."""
    pairs = pairing.pairs if isinstance(pairing, Pairing) else tuple(pairing)
    return int(sum(int(D.d[x, y]) for x, y in pairs))


def scan_root(g: Graph, D: DistanceMatrix, r: int, k: int, upto: int | None = None) -> list[bool]:
    """Greedy outcome (cover?) from root r at each radius 0..upto (default n)."""
    limit = g.n if upto is None else upto
    greedy = _Greedy(D)
    return [
        cover_or_packing(g, D, r, radius, k, greedy=greedy).is_cover
        for radius in range(limit + 1)
    ]


def min_radius_for_root(g: Graph, D: DistanceMatrix, r: int, k: int):
    """Least greedy-covering radius for one root, the cover found there,
    and the packing witness one step below (None when the radius is 0)."""
    greedy = _Greedy(D)
    cover = cover_or_packing(g, D, r, g.n, k, greedy=greedy).cover  # radius n covers
    return _search_root(greedy, g, D, r, k, g.n, cover)


def check_rooted_relaxation(g: Graph, D: DistanceMatrix, k: int, caps: OracleCaps | None = None) -> dict:
    """Re-root an optimal cover at each of its endpoints and measure how far
    the rooted family's eccentricity exceeds the optimum; the excess is
    bounded by the thinness estimate."""
    oracle = exact_optimum(g, D, k, caps)
    tau = 4 * four_point_delta(D)  # doubled
    endpoints = sorted({p[0] for p in oracle.witness} | {p[-1] for p in oracle.witness})
    worst = 0
    for r in endpoints:
        family = [shortest_path(g, D, r, x) for x in endpoints if x != r]
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
    g: Graph, D: DistanceMatrix, k: int, length: int, caps: OracleCaps | None = None
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
            P = shortest_path(H, DH, u, v)
            Q = [x for x in P if x < g.n]  # original vertices keep their ids
            for w in range(g.n):
                dP = min(int(DH.d[w, x]) for x in P)
                dQ = min(int(D.d[w, x]) for x in Q)
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
