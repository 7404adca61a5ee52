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
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph_core import DistanceMatrix, Graph
from .geodesics import VertexPath, shortest_path

log = logging.getLogger(__name__)


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


def _aligned_with_ball(d: np.ndarray, dr: np.ndarray, v: int, radius: int) -> np.ndarray:
    """Boolean vector of the vertices a aligned with some b in v's
    radius-ball on a geodesic through the root r, whose distance row is
    ``dr``: d(a,b) = |d(r,a) - d(r,b)|."""
    bv = (d[v] <= radius).nonzero()[0]
    gap = dr[bv, None] - dr[None, :]
    np.abs(gap, out=gap)
    return np.logical_or.reduce(gap == d[bv], axis=0)


def cover_or_packing(
    g: Graph, D: DistanceMatrix, r: int, radius: int, k: int
) -> RootedOutcome:
    """One greedy run at (root, radius): a rooted cover of at most 2k-1
    geodesics, or a packing of exactly 2k vertices.

    Farthest-first picks, ties to the smallest id.  If the 2k-th pick
    happens the packing is returned even when it emptied the graph; the
    packing is always valid and the cover branch stays below 2k.

    Each pick's kill set is built from the rows of ``D`` it touches, never
    an n x n matrix: the pick's ball ``bv``, then the vertices a aligned
    with some b in ``bv`` on a geodesic through r (d(a,b) = |d(r,a) -
    d(r,b)|), then everything within ``radius`` of one of those (at radius
    0 that is the aligned set itself).  The canonical geodesics are built
    only when the greedy exits with a cover.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    d = D.d
    dr = d[r]
    score = dr.copy()  # distance from r while alive, -1 once killed
    picks: list[int] = []
    while len(picks) < 2 * k:
        v = int(score.argmax())  # argmax takes the lowest id
        if score[v] < 0:
            break  # everything is killed: cover
        picks.append(v)
        if len(picks) == 2 * k or dr[v] <= radius:
            # 2k picks: a packing, whatever the kill set.  Or r is in v's
            # ball and aligned with every vertex, so all die: a cover.
            break
        if radius == 0:  # balls are single vertices: v's aligned set dies
            score[d[v] == np.abs(dr - dr[v])] = -1
        else:
            near = _aligned_with_ball(d, dr, v, radius)  # holds v itself
            score[np.minimum.reduce(d[near], axis=0) <= radius] = -1
    if len(picks) == 2 * k:
        return RootedOutcome(cover=None, packing=tuple(sorted(picks)))
    cover = tuple(shortest_path(g, D, r, v) for v in picks)
    return RootedOutcome(cover=cover, packing=None)


def verify_packing(
    g: Graph, D: DistanceMatrix, r: int, radius: int, vertices
) -> bool:
    """True iff no single r-path's radius-ball reaches two of the vertices.

    One check per member x, not per pair: some r-path comes within
    ``radius`` of x and of a later member y exactly when y's ball meets the
    vertices aligned with x's ball (the reduction in ``geodesics``).
    """
    d = D.d
    dr = d[r]
    members = sorted(set(vertices))
    for i, x in enumerate(members[:-1]):
        near = _aligned_with_ball(d, dr, x, radius)
        if (d[members[i + 1 :]][:, near] <= radius).any():
            return False
    return True


def scan_root(g: Graph, D: DistanceMatrix, r: int, k: int, upto: int | None = None) -> list[bool]:
    """Linear scan diagnostic: greedy outcome (cover?) for each radius 0..upto."""
    limit = g.n if upto is None else upto
    return [cover_or_packing(g, D, r, radius, k).is_cover for radius in range(limit + 1)]


def _search_root(
    g: Graph,
    D: DistanceMatrix,
    r: int,
    k: int,
    stop_lo=None,
    first_probe: int | None = None,
):
    """Binary search for the least radius at which the greedy covers from r.

    Bracket invariant: packing observed at lo (lo = -1 counts vacuously),
    cover observed at hi (hi = n holds a priori: at radius n a single
    trivial path reaches everything).  Returns (radius, cover, witness),
    or None when ``stop_lo()`` tells us the root cannot win anymore.
    """
    lo, hi = -1, g.n
    cover_at_hi: tuple[VertexPath, ...] | None = None
    packing_at_lo: tuple[int, ...] | None = None
    while hi - lo > 1:
        if stop_lo is not None:
            threshold = stop_lo()
            if threshold is not None and lo >= threshold:
                return None
        if first_probe is not None and lo < first_probe < hi:
            mid = first_probe
        else:
            mid = (lo + hi) // 2
        first_probe = None
        out = cover_or_packing(g, D, r, mid, k)
        if out.is_cover:
            hi, cover_at_hi = mid, out.cover
        else:
            lo, packing_at_lo = mid, out.packing
    if cover_at_hi is None:
        out = cover_or_packing(g, D, r, hi, k)
        cover_at_hi = out.cover
        if cover_at_hi is None:  # pragma: no cover - radius n always covers
            raise AssertionError(f"no cover at radius {hi} from root {r}")
    witness = None
    if hi > 0:
        witness = PackingWitness(radius=hi - 1, vertices=packing_at_lo)
    return hi, cover_at_hi, witness


def min_radius_for_root(
    g: Graph, D: DistanceMatrix, r: int, k: int, *, debug_scan: bool = False
):
    """Least greedy-covering radius for one root, the cover found there,
    and the packing witness one step below (None when the radius is 0)."""
    radius, cover, witness = _search_root(g, D, r, k)
    if debug_scan:
        outcomes = scan_root(g, D, r, k)
        first = outcomes.index(True)
        if any(
            not outcomes[i] and outcomes[i - 1] for i in range(1, len(outcomes))
        ):
            log.warning("greedy outcome not monotone in radius for root %d", r)
        if first != radius:
            log.warning(
                "root %d: binary search radius %d vs first covering radius %d",
                r,
                radius,
                first,
            )
    return radius, cover, witness


class _Incumbent:
    """Thread-safe (radius, root) minimum with lexicographic replacement."""

    def __init__(self):
        self._lock = threading.Lock()
        self.snapshot: tuple[int, int] | None = None
        self._payload = None

    def offer(self, radius: int, root: int, payload) -> None:
        with self._lock:
            if self.snapshot is None or (radius, root) < self.snapshot:
                self.snapshot = (radius, root)
                self._payload = payload

    def best(self):
        return self._payload


def best_root(
    g: Graph,
    D: DistanceMatrix,
    k: int,
    *,
    prune: bool = True,
    threads: int = 1,
) -> RootedSolution:
    """Search every root; return the minimum radius, ties to the lowest id.

    With pruning on, a root is abandoned once its bracket proves it cannot
    beat the incumbent -- also accounting for ids, so ties still resolve
    exactly as in the unpruned search.  Thread count never changes the
    result, only the schedule.  Beyond ``D`` the search holds no n x n
    state: the incumbent is all the threads share.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    incumbent = _Incumbent()

    def run_root(r: int) -> None:
        stop_fn = None
        first_probe = None
        if prune:

            def stop_fn() -> int | None:
                snap = incumbent.snapshot
                if snap is None:
                    return None
                radius, holder = snap
                # larger ids lose ties, so they may stop one step earlier
                return radius - 1 if r > holder else radius

            snap = incumbent.snapshot
            if snap is not None:
                first_probe = snap[0] - 1
        res = _search_root(g, D, r, k, stop_fn, first_probe)
        if res is not None:
            radius, cover, witness = res
            incumbent.offer(radius, r, (radius, r, cover, witness))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_root, range(g.n)))
    else:
        for r in range(g.n):
            run_root(r)
    radius, root, cover, witness = incumbent.best()
    return RootedSolution(root=root, radius=radius, cover=cover, packing_witness=witness)
