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
beat the incumbent, and the one-root call for every binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, check_k
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
class PackingWitness:
    radius: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class RootedSolution:
    root: int
    radius: int
    cover: tuple[VertexPath, ...]
    packing_witness: PackingWitness | None

    def as_dict(self) -> dict:
        witness = None
        if self.packing_witness is not None:
            witness = {
                "R": self.packing_witness.radius,
                "vertices": list(self.packing_witness.vertices),
            }
        return {
            "root": self.root,
            "R": self.radius,
            "cover": [list(p) for p in self.cover],
            "packing_witness": witness,
        }



_CELLS = 1 << 16  # cells in any one score, kill or alignment temporary
_FIRST_CHUNK = 4  # roots probed together after a cover; doubles up to the budget


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
    """The cover-or-packing greedy from many roots in lockstep, over one D.

    A ``roots x n`` score matrix holds each root's distance to every alive
    vertex plus one, 0 once killed.  One row-wise argmax per step gives every
    running root its farthest alive vertex (ties to the lowest id), then
    the kill rows of all of them are built at once.  Callers pass at most
    ``max_roots()`` roots, so score and kill rows stay under ``_CELLS``
    cells.  Distances are read from an int16 copy of ``D`` (half its bytes)
    when they fit, which halves the memory traffic of the kill rows.

    On a tree, and at radius 0 on any graph, a pick v kills exactly the u
    with d(u,v) - |d(r,u) - d(r,v)| <= 2R: one distance test per vertex.
    With c the branch point of u and v seen from r, an r-path passes
    within R of both exactly when min(d(u,c), d(v,c)) <= R (extend it to
    v or to u; one that branches off elsewhere is farther from one of
    them), and that minimum is half the left side.  At radius 0 the test
    is the alignment d(u,v) = |d(r,u) - d(r,v)| on any graph.  Only other
    graphs take ``_survivors``, so only they build alignment rows, the
    packed ball matrix and the per-member rows sliced to the cell budget.
    """

    def __init__(self, D: np.ndarray):
        self.n = len(D)
        self.d = D.astype(np.int16) if self.n < 2**15 else D
        self.tree = np.count_nonzero(D == 1) == 2 * (self.n - 1)  # n - 1 edges
        self.pad = (self.n + 63) // 64 * 64  # row width of bool and bit rows
        self._ball: tuple[int, np.ndarray] | None = None  # last radius, its rows

    def max_roots(self) -> int:
        return max(1, _CELLS // self.n)

    def ball_bits(self, radius: int) -> np.ndarray:
        """Rows of ``D <= radius`` packed eight vertices a byte; the rows of
        the last radius asked for are kept, a new radius replaces them."""
        if self._ball is None or self._ball[0] != radius:
            bits = np.zeros((self.n, self.pad // 8), dtype=np.uint8)
            for part in _slices(self.n, self.n):
                packed = np.packbits(self.d[part] <= radius, axis=1)
                bits[part, : packed.shape[1]] = packed
            self._ball = (radius, bits)
        return self._ball[1]

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
        rows."""
        d, n = self.d, self.n
        dv = d[v]
        rows, members = np.divmod(np.flatnonzero(dv == radius), n)
        near = np.zeros((v.size, self.pad), dtype=bool)
        for part in _slices(rows.size, self.pad):
            at, b = rows[part], members[part]
            gap = dr[at]
            gap -= dr[at, b][:, None]
            np.abs(gap, out=gap)
            aligned = np.zeros((at.size, self.pad), dtype=bool)
            np.equal(gap, d[b], out=aligned[:, :n])
            _or_into(near, at, aligned)
        near[:, :n] &= dv > radius
        bits = self.ball_bits(radius)
        rows, members = np.divmod(np.flatnonzero(near), self.pad)
        killed = np.zeros((v.size, bits.shape[1]), dtype=np.uint8)
        for part in _slices(rows.size, bits.shape[1]):
            _or_into(killed, rows[part], bits[members[part]])
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
        d = self.d
        m = len(roots)
        covered = np.zeros(m, dtype=bool)
        picks = np.zeros((m, 2 * k), dtype=np.int64)
        length = np.full(m, 2 * k)
        live = np.arange(m)  # input position of each running row
        dr = d[roots]
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
                gap -= d[v]
                score *= gap < -min(2 * radius, self.n)
            else:
                score *= self._survivors(dr, v, radius)
        return covered, [tuple(p[:size].tolist()) for p, size in zip(picks, length)]


def _outcome(g: Graph, D: np.ndarray, r: int, covered: bool, picks) -> RootedOutcome:
    """The canonical geodesics r -> pick of a cover, or the sorted packing."""
    if covered:
        return RootedOutcome(cover=tuple(shortest_path(g, D, r, v) for v in picks), packing=None)
    return RootedOutcome(cover=None, packing=tuple(sorted(picks)))


def cover_or_packing(g: Graph, D: np.ndarray, r: int, radius: int, k: int) -> RootedOutcome:
    """One greedy run at (root, radius): a rooted cover of at most 2k-1
    geodesics, or a packing of exactly 2k vertices.

    Farthest-first picks, ties to the smallest id; the one-root call of the
    lockstep kernel ``_Greedy``.  The canonical geodesics are built only
    when the greedy exits with a cover.
    """
    check_k(g, k)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    covered, picks = _Greedy(D).run([r], radius, k)
    return _outcome(g, D, r, bool(covered[0]), picks[0])


def verify_packing(g: Graph, D: np.ndarray, r: int, radius: int, vertices) -> bool:
    """True iff no single r-path's radius-ball reaches two of the vertices.

    One check per member x, not per pair: some r-path comes within
    ``radius`` of x and of a later member y exactly when y's ball meets the
    vertices aligned with x's ball (the reduction in ``geodesics``).
    It aligns the whole ball, so it does not rest on the greedy's sphere rows.
    """
    dr = D[r]
    members = sorted(set(vertices))
    for i, x in enumerate(members[:-1]):
        near = _aligned_with_ball(D, dr, x, radius)
        if (D[members[i + 1 :]][:, near] <= radius).any():
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


def _rooted_solution(
    g: Graph, D: np.ndarray, root: int, radius: int, picks, packing
) -> RootedSolution:
    """The canonical geodesics root -> pick of a cover at ``radius``, with
    the sorted packing found one below it as the witness."""
    witness = None
    if packing is not None:
        witness = PackingWitness(radius=radius - 1, vertices=tuple(sorted(packing)))
    cover = tuple(shortest_path(g, D, root, v) for v in picks)
    return RootedSolution(root=root, radius=radius, cover=cover, packing_witness=witness)


def best_root(g: Graph, D: np.ndarray, k: int) -> RootedSolution:
    """Search every root; return the minimum radius, ties to the lowest id.

    Roots are probed once at one below the incumbent radius: a packing
    there means the root cannot beat the incumbent (a tie loses to the
    lower id).  The incumbent starts at n + 1, so the first probe is at
    radius n, where every root covers.  Probes run in lockstep, in chunks
    of consecutive roots that start at ``_FIRST_CHUNK`` and double up to
    the cell budget.  The lowest covering root of a chunk finishes its own
    binary search from that cover and becomes the incumbent; the roots
    after it are probed again at the new radius, and the chunk size
    resets.  This is the result and the probe order of a one-root-at-a-time
    search.  Geodesics and the packing witness are built once, for the
    winning root.

    Beyond ``D`` the search holds an int16 copy of it and temporaries
    under the cell budget.  Off trees it also holds the packed ball rows of
    the last radius it probed (n*n/8 bytes) and slices the kill's
    per-member rows to the budget; a tree's kill is one distance test per
    vertex and builds neither.
    """
    check_k(g, k)
    greedy = _Greedy(D)
    incumbent = g.n + 1
    r, size = 0, min(_FIRST_CHUNK, greedy.max_roots())
    while r < g.n and incumbent > 0:
        roots = np.arange(r, min(g.n, r + size))
        covered, picks = greedy.run(roots, incumbent - 1, k)
        hits = covered.nonzero()[0]
        if not hits.size:
            r, size = r + roots.size, min(2 * size, greedy.max_roots())
            continue
        root = r + int(hits[0])
        incumbent, cover, packing = _search_root(greedy, root, k, incumbent - 1, picks[hits[0]])
        r, size = root + 1, min(_FIRST_CHUNK, greedy.max_roots())
    return _rooted_solution(g, D, root, incumbent, cover, packing)
