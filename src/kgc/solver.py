"""End-to-end solver: best rooted cover, then shallow-pairing recombination
into at most k geodesics, with an auditable bound report.

The returned radius is always recomputed from the final paths.  With the
computed thinness bound tau (four times the four-point hyperbolicity) the
radius is within 5*tau + 1 of the rooted search radius and within
6*tau + 1 of the true optimum; on trees both slacks vanish and the result
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graph_core import (
    DELTA_VERTEX_CAP,
    Graph,
    HalfInteger,
    apsp,
    four_point_delta,
    tau_hat_from_delta,
)
from .geodesics import VertexPath, family_eccentricity
from .rooted_cover import RootedSolution, best_root
from .shallow_pairing import Pairing, min_gamma_pairing, paths_of_pairing


@dataclass(frozen=True)
class SolveOptions:
    tau_hat_doubled: int | None = None  # None: compute 4 * four-point delta
    threads: int = 1  # validated (>= 1) only: the root search is single-threaded
    delta_max_vertices: int = DELTA_VERTEX_CAP

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class BoundReport:
    tau_hat: HalfInteger
    tau_source: str  # "computed" or "supplied"
    lower: int  # optimum >= this (integer, so the half-integer bound is ceiled)
    upper: int  # radius <= this

    def as_dict(self) -> dict:
        return {
            "tau_hat_doubled": self.tau_hat.doubled,
            "tau_source": self.tau_source,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass(frozen=True)
class SolveResult:
    k: int
    paths: tuple[VertexPath, ...]
    radius: int
    rooted: RootedSolution
    pairing: Pairing
    bounds: BoundReport
    exact: bool = False

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "radius": self.radius,
            "paths": [list(p) for p in self.paths],
            "rooted": self.rooted.as_dict(),
            "pairing": {
                "apex": self.pairing.apex,
                "gamma_doubled": self.pairing.gamma.doubled,
                "pairs": [list(p) for p in self.pairing.pairs],
            },
            "bounds": self.bounds.as_dict(),
            "exact": self.exact,
        }


def build_profile(rooted: RootedSolution, k: int) -> tuple[int, ...]:
    """Even profile of length 2k: the root, the far endpoint of every cover
    path, then copies of the root padding out short covers."""
    u = rooted.root
    endpoints = [p[-1] for p in rooted.cover]
    padding = (2 * k - 1) - len(endpoints)
    return (u, *endpoints, *([u] * padding))


def bound_range(rooted_radius: int, tau: HalfInteger) -> tuple[int, int]:
    """The bound report's (lower, upper) for a rooted radius and a thinness
    bound: the optimum is at least ``rooted_radius - tau`` (ceiled, and
    never below 0), and the returned radius at most
    ``rooted_radius + 5*tau + 1`` (floored)."""
    lower = max(0, HalfInteger(2 * rooted_radius - tau.doubled).ceil())
    upper = HalfInteger(2 * rooted_radius + 5 * tau.doubled + 2).floor()
    return lower, upper


def solve(g: Graph, k: int, options: SolveOptions | None = None) -> SolveResult:
    """Approximate k-geodesic center of g."""
    opts = options or SolveOptions()
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")
    D = apsp(g)
    if opts.tau_hat_doubled is not None:
        if opts.tau_hat_doubled < 0:
            raise ValueError("tau_hat_doubled must be >= 0")
        tau = HalfInteger(opts.tau_hat_doubled)
        tau_source = "supplied"
    else:
        delta = four_point_delta(D, max_vertices=opts.delta_max_vertices)
        tau = tau_hat_from_delta(delta)
        tau_source = "computed"

    rooted = best_root(g, D, k)
    pairing = min_gamma_pairing(D, build_profile(rooted, k))
    pair_paths = paths_of_pairing(g, D, pairing)
    paths = tuple(dict.fromkeys(pair_paths))  # drop duplicates, keep order
    radius = family_eccentricity(g, paths)

    lower, upper = bound_range(rooted.radius, tau)
    bounds = BoundReport(tau_hat=tau, tau_source=tau_source, lower=lower, upper=upper)
    return SolveResult(
        k=k, paths=paths, radius=radius, rooted=rooted, pairing=pairing, bounds=bounds
    )


def solve_tree(g: Graph, k: int, options: SolveOptions | None = None) -> SolveResult:
    """Exact k-geodesic center of a tree (same pipeline, zero slack)."""
    if not g.is_tree():
        raise ValueError(f"not a tree: n={g.n}, m={g.m}")
    result = solve(g, k, options)
    if result.radius != result.rooted.radius:
        raise AssertionError(
            f"tree invariant broken: radius {result.radius} != rooted {result.rooted.radius}"
        )
    return replace(result, exact=True)
