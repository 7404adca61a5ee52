"""Certificate checks on one `kgc solve` artifact, computed from the graph
file's edges by the benchmark's own breadth-first searches, never with kgc's
functions.  `kgc verify` alone is not trusted: it accepts some tampered
certificates (too many paths, a short packing witness).

Pure Python on purpose.  A large numpy temporary freed in this process
raises glibc's dynamic mmap threshold, after which kgc's n x n arrays stop
being page-faulted afresh and ops run up to 40% faster; checks done with
numpy between passes would make later passes faster than the first.
"""

from __future__ import annotations

from collections import deque


def adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, sources, limit: int | None = None) -> list:
    """Hop distance from the nearest source; -1 beyond ``limit`` or unreached."""
    dist = [-1] * len(adj)
    queue = deque(sources)
    for s in sources:
        dist[s] = 0
    while queue:
        u = queue.popleft()
        du = dist[u]
        if limit is not None and du == limit:
            continue
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def diameter(adj) -> int:
    return max(max(bfs(adj, [v])) for v in range(len(adj)))


def _closure(start, step) -> set:
    seen = set(start)
    stack = list(start)
    while stack:
        for w in step[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def packing_holds(adj, r: int, radius: int, vertices) -> bool:
    """No isometric path from r passes within ``radius`` of two witnesses.

    A path from r comes near x and y iff some a near x and b near y lie on
    one geodesic from r, i.e. one reaches the other in the shortest-path DAG
    rooted at r.  So x and y clash iff y's ball meets the DAG ancestors or
    descendants of x's ball.
    """
    dr = bfs(adj, [r])
    down = [[w for w in adj[u] if dr[w] == dr[u] + 1] for u in range(len(adj))]
    up = [[w for w in adj[u] if dr[w] == dr[u] - 1] for u in range(len(adj))]
    balls = [
        {v for v, dv in enumerate(bfs(adj, [x], radius)) if dv >= 0} for x in vertices
    ]
    for i, ball in enumerate(balls):
        reach = _closure(ball, down) | _closure(ball, up)
        if any(not reach.isdisjoint(other) for other in balls[i + 1:]):
            return False
    return True


def check(adj, k: int, is_tree: bool, solved: dict, verified: dict) -> list:
    """Every way the artifact fails its certificate, as short messages."""
    n = len(adj)
    problems = []
    if verified.get("ok") is not True:
        problems.append("kgc verify did not report ok")
    radius = solved["radius"]
    paths = solved["paths"]
    if not 1 <= len(paths) <= k:
        problems.append(f"{len(paths)} paths for k={k}")
    if any(not p or not all(0 <= v < n for v in p) for p in paths):
        return problems + ["empty path or vertex out of range"]
    if not all(
        all(b in adj[a] for a, b in zip(p, p[1:])) and bfs(adj, [p[0]])[p[-1]] == len(p) - 1
        for p in paths
    ):
        problems.append("a path is not isometric")
    reach = bfs(adj, sorted({v for p in paths for v in p}))
    if min(reach) < 0 or max(reach) != radius:
        problems.append("family eccentricity differs from the reported radius")

    rooted = solved["rooted"]
    witness = rooted["packing_witness"]
    if rooted["R"] > 0:
        vertices = witness["vertices"] if witness else []
        if witness is None or witness["R"] != rooted["R"] - 1:
            problems.append("packing witness radius is not rooted.R - 1")
        elif len(vertices) != 2 * k or len(set(vertices)) != 2 * k:
            problems.append(f"packing witness has {len(set(vertices))} distinct vertices, not {2 * k}")
        elif not all(0 <= v < n for v in vertices):
            problems.append("packing witness vertex out of range")
        elif not packing_holds(adj, rooted["root"], witness["R"], vertices):
            problems.append("packing witness is not a packing")

    bounds = solved["bounds"]
    if not bounds["lower"] <= radius <= bounds["upper"]:
        problems.append("radius outside [lower, upper]")
    if is_tree and radius != rooted["R"]:
        problems.append("tree radius differs from rooted.R")
    return problems
