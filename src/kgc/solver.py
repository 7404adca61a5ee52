"""End-to-end solver: best rooted cover, then shallow-pairing recombination
into at most k geodesics, with an auditable bound report.

The returned radius is always recomputed from the final paths.  With the
computed thinness bound tau (four times the four-point hyperbolicity) the
radius is within 5*tau + 1 of the rooted search radius and within
6*tau + 1 of the true optimum; on trees both slacks vanish and the result
is exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graph_core import Graph, apsp, check_k, four_point_delta, tree_rows
from .geodesics import VertexPath, family_eccentricity
from .rooted_cover import RootedSolution, best_root
from .shallow_pairing import Pairing, min_gamma_pairing, paths_of_pairing


@dataclass(frozen=True)
class BoundReport:
    tau_hat_doubled: int
    tau_source: str  # "computed" or "supplied"
    lower: int  # optimum >= this (integer, so the half-integer bound is ceiled)
    upper: int  # radius <= this


@dataclass(frozen=True)
class SolveResult:
    k: int
    paths: tuple[VertexPath, ...]
    radius: int
    rooted: RootedSolution
    pairing: Pairing
    bounds: BoundReport

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "radius": self.radius,
            "paths": [list(p) for p in self.paths],
            "rooted": self.rooted.as_dict(),
            "pairing": {**asdict(self.pairing), "pairs": [list(p) for p in self.pairing.pairs]},
            "bounds": asdict(self.bounds),
            "exact": False,  # a fixed key of the output contract; certifies nothing
        }


def build_profile(root: int, cover, k: int) -> tuple[int, ...]:
    """Even profile of length 2k: the root, the far endpoint of every path
    of its rooted cover, then copies of the root padding out short covers."""
    endpoints = [p[-1] for p in cover]
    return (root, *endpoints, *([root] * (2 * k - 1 - len(endpoints))))


def bound_range(rooted_radius: int, tau_doubled: int) -> tuple[int, int]:
    """The bound report's (lower, upper) for a rooted radius and a doubled
    thinness bound tau: the optimum is at least ``rooted_radius - tau``
    (ceiled, and never below 0), and the returned radius at most
    ``rooted_radius + 5*tau + 1`` (floored)."""
    lower = max(0, rooted_radius - tau_doubled // 2)
    upper = rooted_radius + 1 + 5 * tau_doubled // 2
    return lower, upper


def solve(g: Graph, k: int, *, tau_hat_doubled: int | None = None) -> SolveResult:
    """Approximate k-geodesic center of g.  ``tau_hat_doubled`` supplies a
    doubled thinness bound; by default it is computed as four times the
    doubled four-point delta.

    On a tree no distance matrix is built: every stage indexes its rows in
    ``tree_rows``, O(kn) in all, and the computed tau is 0, since every
    block of a tree is a bridge.  Other graphs index ``apsp``.
    """
    check_k(g, k)
    if tau_hat_doubled is not None and tau_hat_doubled < 0:
        raise ValueError("tau_hat_doubled must be >= 0")
    tree = g.is_tree()
    dist = tree_rows(g) if tree else apsp(g)
    if tau_hat_doubled is not None:
        tau = tau_hat_doubled
        tau_source = "supplied"
    else:
        # thinness is at most four times the four-point delta
        tau = 0 if tree else 4 * four_point_delta(dist)
        tau_source = "computed"

    rooted = best_root(g, dist, k)
    profile = build_profile(rooted.root, rooted.cover, k)
    pairing = min_gamma_pairing(dist[list(profile)], profile)
    pair_paths = paths_of_pairing(g, dist[[y for _, y in pairing.pairs]], pairing)
    paths = tuple(dict.fromkeys(pair_paths))  # drop duplicates, keep order
    radius = family_eccentricity(g, paths)

    lower, upper = bound_range(rooted.radius, tau)
    bounds = BoundReport(tau_hat_doubled=tau, tau_source=tau_source, lower=lower, upper=upper)
    return SolveResult(
        k=k, paths=paths, radius=radius, rooted=rooted, pairing=pairing, bounds=bounds
    )
