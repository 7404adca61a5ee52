"""Rooted cover-or-packing greedy and the per-root radius search.

For a root r and radius R, the greedy repeatedly grabs a farthest
still-alive vertex v, records the canonical geodesic r -> v, and kills
every vertex u such that a single r-path passes within R of both u and
v.  Two exits are possible:

* everything dies within 2k-1 picks: the recorded geodesics form a
  rooted cover whose eccentricity exceeds R by at most twice the graph's
  thinness;
* 2k vertices get picked: they form an (r, R)-packing -- no r-path's
  R-ball contains two of them (each pick survived all earlier kill
  sets), so no family of 2k-1 rooted paths can cover at radius R.

Packings survive any radius decrease (balls only shrink), which is what
makes the per-root binary search sound without assuming the greedy is
monotone in R: the packing found just below the returned radius
certifies that every smaller radius fails, for this root and for the
best root overall.

One kernel, ``_Greedy``, runs the greedy from one root or from many in
lockstep; ``best_root`` uses the batch to refute the roots that cannot
beat the incumbent, and the one-root call for every binary search.  On a
graph that is not a tree the one-root call holds its vertex sets as
Python ints, one bit a vertex.

Where the greedy's outcome follows from a count, ``best_root`` counts
instead of running it.  Call the r-height h_r(u) of a vertex u the
largest d(u, w) over the w with u on a geodesic from r to w, w = u
included.  On a tree the greedy from r at radius R covers exactly when
at most 2k-1 vertices have h_r(u) = R: the vertices of r-height >= R
form the least subtree at r whose R-neighbourhood is every vertex, its
leaves are the vertices of height exactly R, every family of r-paths
that covers at R ends in each of them, and each farthest-first pick
kills exactly what its own path covers.  At R = 0 the same holds on any
graph, where the picks are exactly the vertices with no neighbour
farther from r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, check_k, tree_eccentricities
from .geodesics import VertexPath, shortest_path


@dataclass(frozen=True)
class RootedOutcome:
    """Result of one greedy run: exactly one of cover / packing is set."""

    cover: tuple[VertexPath, ...] | None
    packing: tuple[int, ...] | None

    @property
    def is_cover(self) -> bool:
        return self.cover is not None


@dataclass(frozen=True)
class RootedSolution:
    """The rooted claim: a root, a radius at which the greedy covers from
    it, that cover, and the sorted 2k-vertex packing at ``radius - 1``,
    which shows that no 2k - 1 paths from the root cover below ``radius``
    (None at radius 0).  ``as_dict`` writes the packing as the JSON's
    ``packing_witness``."""

    root: int
    radius: int
    cover: tuple[VertexPath, ...]
    packing: tuple[int, ...] | None

    def as_dict(self) -> dict:
        witness = None
        if self.packing is not None:
            witness = {"R": self.radius - 1, "vertices": list(self.packing)}
        return {
            "root": self.root,
            "R": self.radius,
            "cover": [list(p) for p in self.cover],
            "packing_witness": witness,
        }



_CELLS = 1 << 16  # cells in any one score, kill or alignment temporary
_FIRST_CHUNK = 16  # roots probed together after a cover; doubles up to the budget


def _aligned_with_ball(d: np.ndarray, dr: np.ndarray, v: int, radius: int) -> np.ndarray:
    """Boolean vector of the vertices a aligned with some b in v's
    radius-ball on a geodesic through the root r, whose distance row is
    ``dr``: d(a,b) = |d(r,a) - d(r,b)|."""
    bv = (d[v] <= radius).nonzero()[0]
    gap = dr[bv, None] - dr[None, :]
    np.abs(gap, out=gap)
    return np.logical_or.reduce(gap == d[bv], axis=0)


def _slices(total: int, width: int):
    """Consecutive slices of ``total`` rows of ``width`` cells each, at most
    ``_CELLS`` cells a slice (one row where a row alone is wider)."""
    step = max(1, _CELLS // width)
    for lo in range(0, total, step):
        yield slice(lo, lo + step)


def _or_into(out: np.ndarray, rows: np.ndarray, block: np.ndarray) -> None:
    """OR each row of ``block`` into ``out[rows[i]]``; ``rows`` is sorted.
    Both are bool or byte rows padded to whole 64-bit words, so the OR
    runs on words."""
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    words = np.bitwise_or.reduceat(block.view(np.uint64), starts, axis=0)
    out.view(np.uint64)[rows[starts]] |= words


class _Greedy:
    """The cover-or-packing greedy from many roots in lockstep.

    Distances come from ``dist``, which ``[ids]`` turns into those
    vertices' distance rows: ``apsp(g)`` or, on a tree,
    ``graph_core.tree_rows(g)``.  A ``roots x n`` score matrix
    holds each root's distance to every alive vertex plus one, 0 once
    killed.  One row-wise argmax per step gives every running root its
    farthest alive vertex (ties to the lowest id), then the kill rows of
    all of them are built at once.  Callers pass at most ``max_roots()``
    roots, so score and kill rows stay under ``_CELLS`` cells.  Rows are
    read as given, in place: ``apsp``'s int16 rows below 2^15 vertices
    halve the memory traffic of the kill rows.  A tree's runs are one root
    of at most 2k steps, so they read only the rows of the root and of
    each pick.

    On a tree, and at radius 0 on any graph, a pick v kills exactly the u
    with d(u,v) - |d(r,u) - d(r,v)| <= 2R: one distance test per vertex.
    With c the branch point of u and v seen from r, an r-path passes
    within R of both exactly when min(d(u,c), d(v,c)) <= R (extend it to
    v or to u; one that branches off elsewhere is farther from one of
    them), and that minimum is half the left side.  At radius 0 the test
    is the alignment d(u,v) = |d(r,u) - d(r,v)| on any graph.  Only other
    graphs take ``_survivors``, so only they build alignment rows, the
    packed ball matrix and the per-member rows sliced to the cell budget.
    The caller says whether the graph is a ``tree``.

    A run from one root on such a graph takes ``_run_one`` instead: the
    same picks, with the alive set, the alignment rows and the ball rows
    as ints, so each pick costs a few numpy calls on one distance row and
    some int ORs instead of a lockstep step's sliced numpy rows.  At
    radius 0 it reads the picks off the root's peaks, from the CSR of
    the graph ``g``, and kills nothing.
    """

    def __init__(self, g: Graph, dist, tree: bool):
        self.g = g
        self.n = g.n
        self.tree = tree
        self.dist = dist
        self.pad = (self.n + 63) // 64 * 64  # row width of bool and bit rows
        self._ball: tuple[int, np.ndarray] | None = None  # last radius, its rows
        self._ball_ints: tuple[int, list[int]] | None = None  # the same rows as ints
        self._aligned_rows: tuple[int, dict[int, int]] | None = None  # last root, its rows

    def max_roots(self) -> int:
        return max(1, _CELLS // self.n)

    def ball_bits(self, radius: int) -> np.ndarray:
        """Rows of ``D <= radius`` packed eight vertices a byte; the rows of
        the last radius asked for are kept, a new radius replaces them."""
        if self._ball is None or self._ball[0] != radius:
            bits = np.zeros((self.n, self.pad // 8), dtype=np.uint8)
            for part in _slices(self.n, self.n):
                packed = np.packbits(self.dist[np.arange(self.n)[part]] <= radius, axis=1)
                bits[part, : packed.shape[1]] = packed
            self._ball = (radius, bits)
        return self._ball[1]

    def ball_ints(self, radius: int) -> list[int]:
        """The rows of :meth:`ball_bits` as ints (see :func:`_as_int`),
        likewise kept for the last radius asked for."""
        if self._ball_ints is None or self._ball_ints[0] != radius:
            packed = self.ball_bits(radius)
            data, width = packed.tobytes(), packed.shape[1]
            rows = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
            self._ball_ints = (radius, rows)
        return self._ball_ints[1]

    def _aligned(self, r: int, dr: np.ndarray, members: list[int]) -> int:
        """The vertices a aligned through the root r, whose distance row is
        ``dr``, with some c of ``members``: d(c,a) = |d(r,a) - d(r,c)|, as
        an int (see :func:`_as_int`).  Each c's row is kept for the last
        root asked for."""
        if self._aligned_rows is None or self._aligned_rows[0] != r:
            self._aligned_rows = (r, {})
        known = self._aligned_rows[1]
        missing = np.array([c for c in members if c not in known], dtype=np.intp)
        for part in _slices(missing.size, self.n):
            at = missing[part]
            gap = dr[None, :] - dr[at][:, None]
            np.abs(gap, out=gap)
            packed = np.packbits(gap == self.dist[at], axis=1)
            for c, row in zip(at.tolist(), packed):
                known[c] = int.from_bytes(row.tobytes(), "little")
        near = 0
        for c in members:
            near |= known[c]
        return near

    def _survivors(self, dr: np.ndarray, v: np.ndarray, radius: int) -> np.ndarray:
        """Rows of the vertices that survive the picks ``v`` at radius > 0
        on a graph that is not a tree:
        row i kills every vertex whose ball meets a vertex a aligned,
        through row i's root (distance row ``dr[i]``), with some b in v[i]'s
        ball B: d(a,b) = |d(r,a) - d(r,b)|.  That set is B plus the vertices
        aligned with the sphere S = {c : d(v,c) = radius}, so only S gets
        alignment rows: the geodesic from b to an aligned a outside B lies
        on one geodesic from r, and its last vertex c in B, whose next
        vertex is outside B, has d(v,c) = radius and is aligned with a.

        The balls of B's members make up exactly v's 2R-ball: each lies in
        it by the triangle inequality, and a vertex u with d(u,v) <= 2R is
        within R of the vertex at distance min(R, d(u,v)) from v on a u-v
        geodesic, which lies in B.  So the kill is the 2R-ball plus the
        balls of the aligned vertices outside B, and only those get ball
        rows: the nonzeros of each slice of sphere rows, masked to outside
        B, pick the ball rows ORed into the packed kill, with no merged row
        per pick in between (a vertex aligned with several sphere members
        is ORed once for each)."""
        n = self.n
        dv = self.dist[v]
        outside = dv > radius
        bits = self.ball_bits(radius)
        killed = np.zeros((v.size, bits.shape[1]), dtype=np.uint8)
        rows, members = np.divmod(np.flatnonzero(dv == radius), n)
        for part in _slices(rows.size, n):
            at, b = rows[part], members[part]
            gap = dr[at]
            gap -= dr[at, b][:, None]
            np.abs(gap, out=gap)
            aligned = gap == self.dist[b]
            aligned &= outside[at]
            i, a = np.divmod(np.flatnonzero(aligned), n)
            for sub in _slices(i.size, bits.shape[1]):
                _or_into(killed, at[i[sub]], bits[a[sub]])
        alive = np.unpackbits(~killed, axis=1, count=n).view(bool)
        alive &= dv > min(2 * radius, n)
        return alive

    def run(self, roots, radius: int, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """One greedy run per root at (radius, k): a boolean per root, true
        for a cover, and each root's picks in pick order.

        If the 2k-th pick happens the run is a packing even when that pick
        emptied the graph.  A pick within ``radius`` of the root ends the
        run as a cover: the root is aligned with every vertex, so all die.
        """
        if len(roots) == 1 and not self.tree:
            return self._run_one(int(roots[0]), radius, k)
        m = len(roots)
        covered = np.zeros(m, dtype=bool)
        picks = np.zeros((m, 2 * k), dtype=np.int64)
        length = np.full(m, 2 * k)
        live = np.arange(m)  # input position of each running row
        dr = self.dist[np.asarray(roots)]
        score = dr.astype(np.int32)  # distance from the root plus one while
        score += 1  # alive, 0 once killed; int32 rows take the fast argmax
        for step in range(2 * k):
            v = score.argmax(axis=1)  # argmax takes the lowest id
            at = np.arange(v.size)
            alive = score[at, v] > 0
            picks[live, step] = v
            if step == 2 * k - 1:
                covered[live[~alive]] = True
                length[live[~alive]] = step
                break
            stop = ~alive | (dr[at, v] <= radius)
            if stop.any():
                covered[live[stop]] = True
                length[live[stop]] = step + alive[stop]
                keep = ~stop
                live, v, dr, score = live[keep], v[keep], dr[keep], score[keep]
                if not live.size:
                    break
                at = np.arange(v.size)
            if radius == 0 or self.tree:  # u dies iff d(u,v) - |d(r,u) - d(r,v)| <= 2R
                gap = dr - dr[at, v][:, None]
                np.abs(gap, out=gap)
                gap -= self.dist[v]
                score *= gap < -min(2 * radius, self.n)
            else:
                score *= self._survivors(dr, v, radius)
        return covered, [tuple(p[:size].tolist()) for p, size in zip(picks, length)]

    def _run_one(self, r: int, radius: int, k: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """:meth:`run` from the one root r on a graph that is not a tree,
        on vertex sets held as ints (:func:`_as_int`).

        The alive vertices are one int.  The farthest alive vertex is the
        first alive one in the order of (-d(r,u), u), the argmax's tie rule;
        the first pick is the argmax itself, and the order is sorted only
        when a second pick is needed.  At radius 0 the picks are the first
        2k peaks in that order, the vertices with no neighbour farther from
        r (module docstring), read off :func:`_farthest_neighbour`.  At a
        larger radius a pick v kills ``_survivors``' kill set: v's 2R-ball,
        and when that leaves some vertex alive, the balls of the vertices
        aligned with the sphere {c : d(v,c) = radius} outside v's ball.
        Alignment rows are kept for the root, ball rows for the radius, so
        a binary search from one root builds each row once.
        """
        n = self.n
        dr = self.dist[r]
        far = dr.tolist()
        v = int(dr.argmax())
        if radius == 0 and far[v] > 0:
            peaks = np.flatnonzero(_farthest_neighbour(_degree_classes(self.g), dr) <= dr)
            picks = peaks[np.argsort(-dr[peaks], kind="stable")][: 2 * k]
            return np.array([picks.size < 2 * k]), [tuple(picks.tolist())]
        picks = [v]
        alive = _as_int(np.ones(n, dtype=bool))
        order: list[int] | None = None
        at = 0
        while far[v] > radius:
            dv = self.dist[v]
            alive &= ~_as_int(dv <= min(2 * radius, n))
            if not alive:
                break
            balls = self.ball_ints(radius)
            near = self._aligned(r, dr, np.flatnonzero(dv == radius).tolist())
            kill = 0
            for a in _members(near & ~balls[v], n):
                kill |= balls[a]
            alive &= ~kill
            if order is None:
                order = np.argsort(-dr, kind="stable").tolist()
            while at < n and not alive >> (order[at] ^ 7) & 1:
                at += 1
            if at == n:
                break
            v = order[at]
            picks.append(v)
            if len(picks) == 2 * k:
                return np.zeros(1, dtype=bool), [tuple(picks)]
        return np.ones(1, dtype=bool), [tuple(picks)]


def _as_int(row: np.ndarray) -> int:
    """A boolean row of vertices as an int, packed as ``np.packbits`` packs
    it: vertex u is bit ``u ^ 7``, the highest bit of a byte first."""
    return int.from_bytes(np.packbits(row).tobytes(), "little")


def _members(bits: int, n: int) -> list[int]:
    """The vertices of an int of :func:`_as_int`, ascending."""
    packed = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, count=n)).tolist()


def _geodesics(g: Graph, dist, r: int, picks) -> tuple[VertexPath, ...]:
    """The canonical geodesics r -> pick, one per pick, from the picks' rows."""
    return tuple(shortest_path(g, row, r) for row in dist[list(picks)])


def _outcome(g: Graph, dist, r: int, covered: bool, picks) -> RootedOutcome:
    """The canonical geodesics r -> pick of a cover, or the sorted packing."""
    if covered:
        return RootedOutcome(cover=_geodesics(g, dist, r, picks), packing=None)
    return RootedOutcome(cover=None, packing=tuple(sorted(picks)))


def cover_or_packing(g: Graph, dist, r: int, radius: int, k: int) -> RootedOutcome:
    """One greedy run at (root, radius) over the distances ``dist``
    (``apsp(g)`` or ``tree_rows(g)``): a rooted cover of at most 2k-1
    geodesics, or a packing of exactly 2k vertices.

    Farthest-first picks, ties to the smallest id; the one-root call of the
    lockstep kernel ``_Greedy``.  The canonical geodesics are built only
    when the greedy exits with a cover.
    """
    check_k(g, k)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    covered, picks = _Greedy(g, dist, g.is_tree()).run([r], radius, k)
    return _outcome(g, dist, r, bool(covered[0]), picks[0])


def verify_packing(g: Graph, dist, r: int, radius: int, vertices) -> bool:
    """True iff no single r-path's radius-ball reaches two of the vertices,
    over the distances ``dist`` (``apsp(g)`` or ``tree_rows(g)``).

    On a tree, from the rows of r and of the members: some r-path comes
    within ``radius`` of both x and y exactly when
    d(x,y) - |d(r,x) - d(r,y)| <= 2 radius (``_Greedy``'s kill test).
    Otherwise one check per member x, not per pair: some r-path comes
    within ``radius`` of x and of a later member y exactly when y's ball
    meets the vertices aligned with x's ball (the reduction in
    ``geodesics``).  It aligns the whole ball, so it does not rest on the
    greedy's sphere rows.
    """
    members = sorted(set(vertices))
    if g.is_tree():
        d = dist[[r, *members]]
        dr = d[0, members].astype(np.int64)
        close = d[1:, members] - np.abs(dr[:, None] - dr[None, :]) <= min(2 * radius, g.n)
        np.fill_diagonal(close, False)
        return not close.any()
    dr = dist[r]
    for i, x in enumerate(members[:-1]):
        near = _aligned_with_ball(dist, dr, x, radius)
        if (dist[members[i + 1 :]][:, near] <= radius).any():
            return False
    return True


def _search_root(greedy: _Greedy, r: int, k: int, hi: int, picks: tuple[int, ...]):
    """Binary search for the least radius at which the greedy covers from r,
    starting from the cover picks ``picks`` the caller has seen at radius
    ``hi``.

    Bracket invariant: packing observed at lo (lo = -1 counts vacuously),
    cover observed at hi.  Returns (radius, cover picks, packing picks at
    radius - 1, None at radius 0).
    """
    lo = -1
    packing: tuple[int, ...] | None = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        covered, found = greedy.run([r], mid, k)
        if covered[0]:
            hi, picks = mid, found[0]
        else:
            lo, packing = mid, found[0]
    return hi, picks, packing


def _degree_classes(g: Graph) -> list[tuple[np.ndarray, np.ndarray]]:
    """The vertices of each degree of a graph of at least two vertices, in
    ascending degree, each with its class x degree matrix of neighbours,
    read off the CSR."""
    degree = np.diff(g.indptr)
    classes = []
    # bincount, not np.unique, whose first call imports numpy.ma (1.2 MB)
    for size in np.flatnonzero(np.bincount(degree)).tolist():
        at = np.flatnonzero(degree == size)
        classes.append((at, g.indices[g.indptr[at, None] + np.arange(size)]))
    return classes


def _farthest_neighbour(classes, d: np.ndarray) -> np.ndarray:
    """For a distance row ``d``, or each row of a matrix of them, and each
    vertex u: the row's largest entry at a neighbour of u, taken one
    degree class of ``_degree_classes`` at a time, so the numpy calls grow
    with the number of distinct degrees, not of vertices."""
    out = np.empty_like(d)
    for at, nbr in classes:
        out[..., at] = d[..., nbr].max(axis=-1)
    return out


def _radius0_picks(g: Graph, dist, roots) -> np.ndarray:
    """The greedy's picks at radius 0 from each root, on a graph of at least
    two vertices: the vertices with no neighbour farther from the root.
    Distance rows come from ``dist``."""
    classes = _degree_classes(g)
    counts = np.empty(len(roots), dtype=np.intp)
    for part in _slices(len(roots), g.indices.size):
        d = dist[roots[part]]
        counts[part] = np.count_nonzero(_farthest_neighbour(classes, d) <= d, axis=1)
    return counts


def _tree_picks(g: Graph, ecc: np.ndarray):
    """On a tree, from every vertex's eccentricity ``ecc``: the tree's
    radius, and a function that maps a radius R to every root r's count of
    vertices of r-height R (module docstring).  The greedy from r at R
    makes that many picks, or one when there are none, so it covers when
    the count is at most 2k - 1.

    Let a1(u) be u's neighbour of least eccentricity, ties to the lowest
    id (u itself when n = 1).  That is u's first step towards every
    farthest vertex, except at the centre of a tree of even diameter,
    where two branches reach ecc(u) whichever a1 is.  So h_r(u) is ecc(u),
    except that it is top2(u), the largest d(u, w) over the w not behind
    a1(u), when r is behind a1(u), that is when d(a1(u), r) < d(u, r).
    Every edge joins some u to a1(u), and only the edge at the centre
    does so both ways; with that edge cut, a1 is the parent in a forest,
    u's descendants are exactly the vertices not behind a1(u), and top2(u)
    is the height of u's subtree.  So h_r(u) is ecc(u) for the u on r's
    path up the forest and top2(u) elsewhere, and each count is a sum
    along that path, taken for all roots at once by pointer doubling.
    """
    n = g.n
    ecc = np.asarray(ecc, dtype=np.intp)
    nbr, starts = g.indices, g.indptr[:-1]
    a1 = np.arange(n)
    if n > 1:
        a1 = np.minimum.reduceat(ecc[nbr] * n + nbr, starts) % n
    parent = np.append(np.where(a1[a1] == np.arange(n), n, a1), n)  # n: no parent
    height = [0] * (n + 1)
    up = parent.tolist()
    for u in np.argsort(-ecc, kind="stable").tolist():  # a parent's ecc is one less
        height[up[u]] = max(height[up[u]], height[u] + 1)
    top2 = np.array(height[:n])
    jumps = []  # parent, grandparent, 4th ancestor, ...
    while (parent < n).any():
        jumps.append(parent)
        parent = parent[parent]

    def count(radius: int) -> np.ndarray:
        path = np.append((ecc == radius).astype(np.intp) - (top2 == radius), 0)
        for jump in jumps:
            path += path[jump]
        return np.count_nonzero(top2 == radius) + path[:n]

    return int(ecc.min()), count


def _tree_root(g: Graph, ecc: np.ndarray, k: int) -> tuple[int, int]:
    """On a tree, from every vertex's eccentricity: the least radius at
    which the greedy covers from some root, and the lowest such root.

    The counts never rise as R grows (a leaf of the subtree of r-heights
    >= R + 1 has a leaf of the larger subtree below it), so the least R is
    binary-searched between 0 and the tree's radius, where a centre's
    count is 1.  So the greedy is monotone in R on trees, and this is the
    root and radius that probing every root finds; no root covers at
    R - 1, where the winner's run gives the packing witness.
    """
    lo, (hi, count) = -1, _tree_picks(g, ecc)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (count(mid) < 2 * k).any():
            hi = mid
        else:
            lo = mid
    return int((count(hi) < 2 * k).argmax()), hi


def tree_radius_is_least(g: Graph, dist, radius: int, k: int) -> bool:
    """On a tree, over the distances ``dist``: True iff the greedy covers
    from no root at ``radius - 1``, so no root's rooted radius is below
    ``radius`` (the greedy is monotone in R on trees, ``_tree_root``)."""
    if radius == 0:
        return True
    count = _tree_picks(g, tree_eccentricities(dist))[1]
    return not (count(radius - 1) < 2 * k).any()


def _rooted_solution(g: Graph, dist, root: int, radius: int, picks, packing) -> RootedSolution:
    """The canonical geodesics root -> pick of a cover at ``radius``, with
    the packing found one below it, sorted."""
    packing = None if packing is None else tuple(sorted(packing))
    return RootedSolution(root, radius, _geodesics(g, dist, root, picks), packing)


def best_root(g: Graph, dist, k: int) -> RootedSolution:
    """Search every root; return the minimum radius, ties to the lowest id.
    Distances come from ``dist`` (see ``_Greedy``).

    On a tree the root and radius come from counting (``_tree_root``) with
    the eccentricities of ``graph_core.tree_eccentricities``, and the
    greedy runs twice from that root: at the radius for the cover and one
    below it for the packing witness.

    Off trees, roots are probed once at one below the incumbent radius: a
    packing there means the root cannot beat the incumbent (a tie loses to
    the lower id).  The incumbent starts at n + 1, so the first probe is at
    radius n, where every root covers.  Probes run in lockstep, in chunks
    of consecutive roots that start at ``_FIRST_CHUNK`` and double up to
    the cell budget.  The lowest covering root of a chunk finishes its own
    binary search from that cover and becomes the incumbent; the roots
    after it are probed again at the new radius, and the chunk size
    resets.  Once the incumbent is 1, the remaining roots are decided by
    counting their picks at radius 0 (``_radius0_picks``), and the greedy
    runs once, for the first root that covers.  This is the result of a
    one-root-at-a-time search.  Geodesics and the packing witness are built
    once, for the winning root.

    On a tree the search reads a few distance rows and holds a few arrays
    of n entries.  Off trees it reads the rows in place and holds
    temporaries under the cell budget and the packed ball rows of the last
    radius it probed (n*n/8 bytes).
    """
    check_k(g, k)
    greedy = _Greedy(g, dist, g.is_tree())
    if greedy.tree:
        root, radius = _tree_root(g, tree_eccentricities(dist), k)
        _, picks = greedy.run([root], radius, k)
        packing = greedy.run([root], radius - 1, k)[1][0] if radius else None
        return _rooted_solution(g, dist, root, radius, picks[0], packing)
    incumbent = g.n + 1
    r, size = 0, min(_FIRST_CHUNK, greedy.max_roots())
    while r < g.n and incumbent > 1:
        roots = np.arange(r, min(g.n, r + size))
        covered, picks = greedy.run(roots, incumbent - 1, k)
        hits = covered.nonzero()[0]
        if not hits.size:
            r, size = r + roots.size, min(2 * size, greedy.max_roots())
            continue
        root = r + int(hits[0])
        incumbent, cover, packing = _search_root(greedy, root, k, incumbent - 1, picks[hits[0]])
        r, size = root + 1, min(_FIRST_CHUNK, greedy.max_roots())
    if incumbent == 1:
        counts = _radius0_picks(g, dist, np.arange(r, g.n))
        hits = (counts < 2 * k).nonzero()[0]
        if hits.size:
            root = r + int(hits[0])
            incumbent, cover, packing = 0, greedy.run([root], 0, k)[1][0], None
    return _rooted_solution(g, dist, root, incumbent, cover, packing)
