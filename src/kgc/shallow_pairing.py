"""Shallow pairings: partitioning an even vertex profile into pairs that all
look "close to geodesic" from one apex vertex.

A pairing of an even profile is gamma-shallow when some apex v satisfies
(x|y)_v <= gamma for every pair {x,y}; small Gromov products mean v lies
near a geodesic between x and y, so the k pair-geodesics inherit the
coverage of 2k-1 paths rooted anywhere near v.  Profiles may repeat
vertices; positions are paired, not values, and (x|x)_v = d(x,v) falls
out of the product formula with no special case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph_core import Graph, _adjacency_lists
from .geodesics import VertexPath, shortest_path

Profile = Sequence[int]


@dataclass(frozen=True)
class Pairing:
    """A partition of an even profile into pairs, valid at one apex."""

    apex: int
    gamma_doubled: int
    pairs: tuple[tuple[int, int], ...]


def _augment(
    adj: Sequence[Sequence[int]], match: list[int], root: int, removed: Sequence[int] = ()
) -> bool:
    """One search of Edmonds' blossom algorithm from the exposed vertex
    ``root``: flip the first augmenting path found in ``match`` and return
    True, or return False with ``match`` untouched when no augmenting path
    starts at ``root``.  The vertices in ``removed`` count as deleted from
    the graph; they must be unmatched."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    for x in removed:
        parent[x] = -2  # unmatched and never a tree vertex: edges into x are skipped
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom to its base
                cur_base = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = parent[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def perfect_matching(H: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically least perfect matching of the position graph, or
    None when no perfect matching exists.  ``H`` is a symmetric boolean
    matrix with a False diagonal (no position is paired with itself).

    Existence comes first: a greedy matching in position order, then one
    augmenting-path search from each exposed position in order, returning
    None at the first that has none.  Such a position stays exposed in a
    maximum matching (Edmonds 1965), so no perfect matching exists.

    The least matching is extracted by fixing, for the lowest free
    position i, the smallest partner j that keeps the rest matchable.  It
    starts from one perfect matching ``mate`` and keeps it perfect on the
    free positions.  j = mate[i] always keeps the rest matchable.  Any
    other j leaves exactly mate[i] and mate[j] exposed once i and j are
    removed, so by Berge's lemma the rest is matchable exactly when one
    augmenting path joins them: each test is one search from mate[i].
    """
    nbrs = _adjacency_lists(H)
    mate = [-1] * len(nbrs)
    for v in range(len(nbrs)):
        if mate[v] == -1:
            for to in nbrs[v]:
                if mate[to] == -1:
                    mate[v], mate[to] = to, v
                    break
    for v in range(len(nbrs)):
        if mate[v] == -1 and not _augment(nbrs, mate, v):
            return None
    paired: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i in range(len(nbrs)):
        if mate[i] == -1:  # paired earlier
            continue
        for j in nbrs[i]:
            if j == mate[i]:
                break
            if mate[j] == -1:  # paired earlier
                continue
            a, b = mate[i], mate[j]
            mate[i] = mate[j] = mate[a] = mate[b] = -1
            if _augment(nbrs, mate, a, (*paired, i, j)):
                break
            mate[i], mate[a], mate[j], mate[b] = a, i, b, j
        mate[i] = mate[j] = -1
        paired += (i, j)
        pairs.append((i, j))
    return tuple(pairs)


# Stands in for the excluded (i, i) products: above every real product (at
# most 2(n-1)), so no position is ever paired with itself.
_NO_PAIR = np.iinfo(np.int32).max


def min_gamma_pairing(dv: np.ndarray, pi: Profile) -> Pairing:
    """Shallowest pairing: the least gamma (over ascending half-integers)
    admitting an apex and a perfect matching, with the first such apex in
    id order and its least perfect matching.  ``dv`` holds the distance
    rows of the profile's members in profile order (``D[list(pi)]``); the
    distances between members are those rows at the members' columns.

    Feasibility only changes at achieved Gromov-product values, so only
    those are probed, in ascending order; the largest product always
    succeeds (the pairing graph is then complete at any apex).  At each
    one, two screens run over all apexes at once before any matching: no
    position may be isolated, and no two positions of degree 1 may share
    their only neighbour, since a perfect matching pairs each with it.
    Each apex that passes gets one ``perfect_matching`` call, whose
    existence test rejects it or whose extraction is the answer.
    """
    if len(pi) < 2 or len(pi) % 2 != 0:
        raise ValueError(f"profile length must be even and >= 2, got {len(pi)}")
    # the doubled Gromov products (pi[i]|pi[j])_v as an int32 (i, j, v) tensor
    members = np.asarray(pi, dtype=np.int64)
    cross = dv[:, members]
    prod = dv[:, None, :] + dv[None, :, :] - cross[:, :, None]
    positions = np.arange(len(members))
    prod[positions, positions, :] = _NO_PAIR
    iu = np.triu_indices(len(pi), k=1)
    achieved = np.bincount(prod[iu].ravel())  # products are >= 0
    for doubled in achieved.nonzero()[0].tolist():
        H = prod <= doubled
        # int32 sums: numpy's default int64 accumulator makes the screen twice as slow
        degree = H.sum(axis=1, dtype=np.int32)
        leaf = degree == 1
        shared = (leaf[:, None, :] & H).sum(axis=0, dtype=np.int32).max(axis=0) > 1
        for v in ((degree.min(axis=0) > 0) & ~shared).nonzero()[0].tolist():
            matched = perfect_matching(H[:, :, v])
            if matched is not None:
                pairs = sorted(tuple(sorted((pi[i], pi[j]))) for i, j in matched)
                return Pairing(apex=v, gamma_doubled=doubled, pairs=tuple(pairs))
    raise AssertionError("unreachable: complete pairing graph at max product")


def paths_of_pairing(g: Graph, ends: np.ndarray, pairing: Pairing) -> tuple[VertexPath, ...]:
    """One canonical geodesic x -> y per pair (x, y), aligned with
    ``pairing.pairs``, from ``ends``, the distance rows of the pairs'
    second vertices in pair order; a pair {u,u} yields the single-vertex
    path (u,)."""
    return tuple(shortest_path(g, row, x) for (x, _), row in zip(pairing.pairs, ends))
