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
from typing import Iterable, Sequence

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


def _check_profile(pi: Profile) -> None:
    if len(pi) < 2 or len(pi) % 2 != 0:
        raise ValueError(f"profile length must be even and >= 2, got {len(pi)}")


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


def _max_matching(adj: Sequence[Sequence[int]], *, perfect: bool = False) -> list[int] | None:
    """Maximum-cardinality matching on a general graph (blossom contraction).

    Deterministic: starts from a greedy matching in vertex-id order, then
    augments from each exposed vertex in id order, scanning the given
    adjacency order.  Returns mate[v] (-1 if unmatched).  With ``perfect``
    it returns None at the first exposed vertex that has no augmenting
    path: such a vertex stays exposed in a maximum matching (Edmonds 1965),
    so no perfect matching exists.
    """
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v], match[to] = to, v
                    break
    for v in range(n):
        if match[v] == -1 and not _augment(adj, match, v) and perfect:
            return None
    return match


def perfect_matching(H: np.ndarray) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically least perfect matching of the position graph, or
    None when no perfect matching exists.  ``H`` is a symmetric boolean
    matrix with a False diagonal (no position is paired with itself).

    The least matching is extracted by fixing, for the lowest free
    position i, the smallest partner j that keeps the rest matchable.  It
    starts from one perfect matching ``mate`` and keeps it perfect on the
    free positions.  j = mate[i] always keeps the rest matchable.  Any
    other j leaves exactly mate[i] and mate[j] exposed once i and j are
    removed, so by Berge's lemma the rest is matchable exactly when one
    augmenting path joins them: each test is one search from mate[i].
    """
    nbrs = _adjacency_lists(H)
    mate = _max_matching(nbrs, perfect=True)
    if mate is None:
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


def _pairing_from_positions(
    pi: Profile, apex: int, gamma_doubled: int, matched: Iterable[tuple[int, int]]
) -> Pairing:
    pairs = sorted(tuple(sorted((pi[i], pi[j]))) for i, j in matched)
    return Pairing(apex=apex, gamma_doubled=gamma_doubled, pairs=tuple(pairs))


# Stands in for the excluded (i, i) products: above every real product (at
# most 2(n-1)), so no position is ever paired with itself.
_NO_PAIR = np.iinfo(np.int32).max


def _apex_products(D: np.ndarray, pi: Profile) -> tuple[np.ndarray, np.ndarray]:
    """The doubled Gromov products (pi[i]|pi[j])_v as an int32 (i, j, v)
    tensor with the diagonal excluded, and per apex v the least doubled
    gamma at which no position of the pairing graph is isolated."""
    _check_profile(pi)
    members = np.asarray(pi, dtype=np.int64)
    dv = D[members, :]  # 2k x n
    cross = D[np.ix_(members, members)]
    prod = dv[:, None, :] + dv[None, :, :] - cross[:, :, None]
    positions = np.arange(len(members))
    prod[positions, positions, :] = _NO_PAIR
    return prod, prod.min(axis=1).max(axis=0)


def _first_apex_pairing(
    pi: Profile, prod: np.ndarray, need: np.ndarray, doubled: int
) -> Pairing | None:
    """First apex (in id order) whose pairing graph at doubled gamma
    ``doubled`` has a perfect matching, with the least such matching.

    Two screens run over all apexes at once before any matching: no
    position may be isolated, and no two positions of degree 1 may share
    their only neighbour, since a perfect matching pairs each with it.
    Each apex that passes gets one ``perfect_matching`` call, whose
    existence test rejects it or whose extraction is the answer."""
    H = prod <= doubled
    # int32 sums: numpy's default int64 accumulator makes the screen twice as slow
    leaf = H.sum(axis=1, dtype=np.int32) == 1
    shared = (leaf[:, None, :] & H).sum(axis=0, dtype=np.int32).max(axis=0) > 1
    for v in ((need <= doubled) & ~shared).nonzero()[0].tolist():
        matched = perfect_matching(H[:, :, v])
        if matched is not None:
            return _pairing_from_positions(pi, v, doubled, matched)
    return None


def min_gamma_pairing(D: np.ndarray, pi: Profile) -> Pairing:
    """Shallowest pairing: the least gamma (over ascending half-integers)
    admitting an apex and a perfect matching.

    Feasibility only changes at achieved Gromov-product values, so only
    those are probed, in ascending order; the largest product always
    succeeds (the pairing graph is then complete at any apex).
    """
    prod, need = _apex_products(D, pi)
    iu = np.triu_indices(len(pi), k=1)
    achieved = np.bincount(prod[iu].ravel())  # products are >= 0
    for doubled in achieved.nonzero()[0].tolist():
        pairing = _first_apex_pairing(pi, prod, need, doubled)
        if pairing is not None:
            return pairing
    raise AssertionError("unreachable: complete pairing graph at max product")


def paths_of_pairing(g: Graph, D: np.ndarray, pairing: Pairing) -> tuple[VertexPath, ...]:
    """One canonical geodesic per pair, aligned with ``pairing.pairs``;
    a pair {u,u} yields the single-vertex path (u,)."""
    return tuple(shortest_path(g, D, x, y) for x, y in pairing.pairs)
