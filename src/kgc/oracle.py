"""Exact k-geodesic-center optimum by exhaustive search, for desk-scale
verification.

All geodesics are enumerated (deduplicated by vertex set, single vertices
included), coverage at each candidate radius is reduced to bitmasks, and
a branch-and-bound exact-cover search decides whether k masks suffice.
Caps on enumerated paths and on elementary mask operations keep runaway
instances from hanging; exceeding a cap raises, never degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import CapExceededError, Graph, check_k
from .geodesics import VertexPath, enumerate_geodesics


@dataclass(frozen=True)
class OracleCaps:
    max_paths: int = 200_000
    max_combinations: int = 100_000_000

    def __post_init__(self):
        if min(self.max_paths, self.max_combinations) < 1:
            raise ValueError(f"caps must be >= 1, got {self}")


@dataclass(frozen=True)
class OracleResult:
    k: int
    optimum: int
    witness: tuple[VertexPath, ...]
    stats: dict

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "radius": self.optimum,
            "paths": [list(p) for p in self.witness],
            "optimal": True,
            "stats": dict(self.stats),
        }


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise CapExceededError(
                f"combination search exceeded {self.limit} mask operations"
            )


def _all_geodesics(g: Graph, D: np.ndarray, caps: OracleCaps):
    """Every geodesic between every vertex pair (s <= t), deduplicated by
    vertex set; first occurrence in (s, t, lex) order is the canonical rep."""
    total = 0
    seen: set[frozenset[int]] = set()
    canon: list[VertexPath] = []
    for s in range(g.n):
        for t in range(s, g.n):
            remaining = caps.max_paths - total
            if remaining < 1:
                raise CapExceededError(f"more than {caps.max_paths} geodesics")
            paths = enumerate_geodesics(g, D, s, t, cap=remaining)
            total += len(paths)
            for p in paths:
                key = frozenset(p)
                if key not in seen:
                    seen.add(key)
                    canon.append(p)
    return canon, total


def check_exact_input(g: Graph, k: int, caps: OracleCaps) -> None:
    """What ``exact_optimum`` checks before it reads any distance: k is in
    [1, n], and the graph has no more vertex pairs s <= t than
    ``caps.max_paths`` allows geodesics, since every pair has one."""
    check_k(g, k)
    if g.n * (g.n + 1) // 2 > caps.max_paths:
        raise CapExceededError(f"more than {caps.max_paths} geodesics")


def _drop_dominated(masks: list[int]) -> list[int]:
    """Masks not strictly contained in another, in descending-popcount
    order (stable on first occurrence)."""
    order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))
    kept: list[int] = []
    for i in order:
        m = masks[i]
        if not any(m | K == K for K in kept):
            kept.append(m)
    return kept


def _feasible(masks: list[int], k: int, full: int, budget: _Budget) -> bool:
    """Can at most k masks OR to full?  Branches on the uncovered element
    with the fewest covering masks."""
    if full == 0:
        return True
    nbits = full.bit_length()
    cover_of: list[list[int]] = [[] for _ in range(nbits)]
    for i, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            cover_of[low.bit_length() - 1].append(i)
            mm ^= low
    maxpop = max((m.bit_count() for m in masks), default=0)

    def descend(acc: int, depth: int) -> bool:
        if acc == full:
            return True
        if depth == k:
            return False
        uncovered = full & ~acc
        if uncovered.bit_count() > (k - depth) * maxpop:
            return False
        pick: list[int] | None = None
        mm = uncovered
        while mm:
            low = mm & -mm
            options = cover_of[low.bit_length() - 1]
            if pick is None or len(options) < len(pick):
                pick = options
                if len(pick) <= 1:
                    break
            mm ^= low
        if not pick:
            return False
        ordered = sorted(pick, key=lambda i: (-(masks[i] & uncovered).bit_count(), i))
        for i in ordered:
            budget.spend()
            if descend(acc | masks[i], depth + 1):
                return True
        return False

    return descend(0, 0)


def _lex_witness(masks: list[int], k: int, full: int, budget: _Budget):
    """First cover (in ascending index order over the canonical mask list)
    that never picks a mask adding no new coverage; deterministic."""
    count = len(masks)
    suffix = [0] * (count + 1)
    sufpop = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
        sufpop[i] = max(sufpop[i + 1], masks[i].bit_count())
    chosen: list[int] = []

    def descend(start: int, acc: int):
        if acc == full:
            return tuple(chosen)
        if len(chosen) == k:
            return None
        slots = k - len(chosen)
        for i in range(start, count):
            if acc | suffix[i] != full:
                break  # suffixes only shrink
            if (full & ~acc).bit_count() > slots * sufpop[i]:
                break
            if masks[i] & ~acc == 0:
                continue
            budget.spend()
            chosen.append(i)
            got = descend(i + 1, acc | masks[i])
            if got is not None:
                return got
            chosen.pop()
        return None

    return descend(0, 0)


def exact_optimum(
    g: Graph, D: np.ndarray, k: int, caps: OracleCaps | None = None
) -> OracleResult:
    """Least radius at which k geodesics cover the graph, with a witness.

    Scans radii upward, so the run itself is the infeasibility proof for
    every smaller radius.
    """
    caps = caps or OracleCaps()
    check_exact_input(g, k, caps)
    paths, enumerated = _all_geodesics(g, D, caps)
    budget = _Budget(caps.max_combinations)
    full = (1 << g.n) - 1
    for radius in range(g.n):
        ball_bits = []
        for v in range(g.n):
            row = 0
            for u in range(g.n):
                if D[v, u] <= radius:
                    row |= 1 << u
            ball_bits.append(row)
        first_path: dict[int, VertexPath] = {}
        for p in paths:
            m = 0
            for v in p:
                m |= ball_bits[v]
            if m not in first_path:
                first_path[m] = p
        kept = _drop_dominated(list(first_path))
        if _feasible(kept, k, full, budget):
            picked = _lex_witness(kept, k, full, budget)
            if picked is None:  # pragma: no cover - feasible implies witness
                raise AssertionError("feasible radius without witness")
            witness = tuple(first_path[kept[i]] for i in picked)
            return OracleResult(
                k=k,
                optimum=radius,
                witness=witness,
                stats={
                    "paths_enumerated": enumerated,
                    "combinations_tried": budget.used,
                },
            )
    raise AssertionError("unreachable: the diameter radius always covers")
