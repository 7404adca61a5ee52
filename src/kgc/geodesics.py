"""Isometric paths: construction and queries, and the reduction behind the
rooted covering test.

A path is *isometric* (a geodesic) when its length equals the hop
distance between its endpoints; an *r-path* is an isometric path with r
as one endpoint.  The solver repeatedly needs the predicate

    some r-path comes within distance R of both u and w.

Quantifying over paths directly is hopeless, but the predicate collapses
to a condition on vertex pairs:

    exists a in B_R(u), b in B_R(w) with d(a,b) = |d(r,a) - d(r,b)|.

If such a pair exists, say with d(r,a) + d(a,b) = d(r,b), then gluing a
geodesic r->a to a geodesic a->b yields an isometric r-path through both
a and b, which is within R of u and w.  Conversely, given a witnessing
r-path P, pick on P a vertex a with d(u,a) <= R and a vertex b with
d(w,b) <= R; every vertex of P sits at distance from r equal to its
index, so d(a,b) = |d(r,a) - d(r,b)|.  Hence the reduction is exact.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .graph_core import CapExceededError, Graph

# A path is a tuple of pairwise-adjacent vertex ids; single vertices are
# valid length-0 paths.
VertexPath = tuple[int, ...]


def shortest_path(g: Graph, D: np.ndarray, u: int, v: int) -> VertexPath:
    """The canonical u->v geodesic: always step to the smallest-id neighbor
    that gets one hop closer to v."""
    path = [u]
    cur = u
    while cur != v:
        target = D[cur, v] - 1
        for w in g.adjacency[cur]:  # ascending, so first hit is smallest id
            if D[w, v] == target:
                path.append(w)
                cur = w
                break
    return tuple(path)


def is_isometric(D: np.ndarray, path: Sequence[int]) -> bool:
    """True iff consecutive vertices are adjacent and the endpoint distance
    equals the edge count (which forces all intermediate distances too)."""
    if len(path) == 0:
        return False
    for a, b in zip(path, path[1:]):
        if D[a, b] != 1:
            return False
    return int(D[path[0], path[-1]]) == len(path) - 1


def family_eccentricity(g: Graph, paths: Iterable[Sequence[int]]) -> int:
    """Smallest R such that the R-balls around the paths' vertices cover the
    whole graph: one multi-source BFS seeded with every path vertex."""
    seeds = {v for p in paths for v in p}
    if not seeds:
        raise ValueError("family_eccentricity needs at least one path")
    if not all(0 <= v < g.n for v in seeds):
        raise ValueError("paths contain out-of-range vertices")
    dist = [-1] * g.n
    queue = deque()
    for v in sorted(seeds):
        dist[v] = 0
        queue.append(v)
    farthest = 0  # the graph is connected, so the search reaches every vertex
    while queue:
        u = queue.popleft()
        du = dist[u]
        for x in g.adjacency[u]:
            if dist[x] < 0:
                dist[x] = du + 1
                farthest = du + 1
                queue.append(x)
    return farthest


def enumerate_geodesics(
    g: Graph, D: np.ndarray, s: int, t: int, cap: int = 1_000_000
) -> list[VertexPath]:
    """All distinct s->t geodesics in lexicographic vertex order.

    Depth-first over the shortest-path DAG with an explicit stack, so path
    length is not bounded by the recursion limit; raises CapExceededError
    as soon as more than ``cap`` paths would be produced.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    out: list[VertexPath] = []
    prefix: list[int] = []
    stack = [(s, 0)]  # (vertex, its index on the path); smallest id on top
    while stack:
        v, depth = stack.pop()
        del prefix[depth:]
        prefix.append(v)
        if v == t:
            if len(out) >= cap:
                raise CapExceededError(
                    f"more than {cap} geodesics between {s} and {t}"
                )
            out.append(tuple(prefix))
            continue
        nxt = D[v, t] - 1
        stack.extend((w, depth + 1) for w in reversed(g.adjacency[v]) if D[w, t] == nxt)
    return out
