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


# Product cells built at once: the apexes go in chunks of _CELLS // (2k)^2
# (one apex where its own (2k)^2 cells are more).  From 2^14 to 2^20 cells
# the search took about the same time, while its memory grows with the
# chunk (README).
_CELLS = 1 << 16


def min_gamma_pairing(dv: np.ndarray, pi: Profile) -> Pairing:
    """Shallowest pairing: the least gamma (over ascending half-integers)
    admitting an apex and a perfect matching, with the first such apex in
    id order and its least perfect matching.  ``dv`` holds the distance
    rows of the profile's members in profile order (``D[list(pi)]``); the
    distances between members are those rows at the members' columns.

    Feasibility only changes at achieved Gromov-product values, so only
    those are probed, in ascending order; the largest product always
    succeeds (the pairing graph is then complete at any apex).  At each
    one, two screens drop apexes before any matching: no position may be
    isolated, and no two positions of degree 1 may share their only
    neighbour, since a perfect matching pairs each with it.  Each apex that
    passes gets one ``perfect_matching`` call on its pairing graph, whose
    existence test rejects it or whose extraction is the answer; the graphs
    are built from the passing apexes' columns of ``dv``, a chunk at a
    time.

    The screens need, per position i and apex v, only the least product
    over the other positions (the gamma from which i is not isolated), its
    least partner, and the second least product with repeats (i has degree
    1 exactly below it, its partner being its one neighbour).  One pass
    over the apexes, in chunks of ``_CELLS`` product cells, reduces each
    chunk to those summaries and counts its achieved products, so no array
    grows with (2k)^2 n.  A product p with partner j is keyed
    (p << shift) + j, in the least unsigned dtype that holds a sentinel
    above every key, so one min over partners gives both; with the
    diagonal and that partner set to the sentinel, a second min gives the
    second least.  The distances are cast to that dtype before any sum (no
    sum of two of them exceeds it), and differences wrap modulo its range,
    so every key is exact whatever the dtype of ``dv``.
    """
    size = len(pi)
    if size < 2 or size % 2 != 0:
        raise ValueError(f"profile length must be even and >= 2, got {size}")
    n = dv.shape[1]
    shift = (size - 1).bit_length()
    partner = (1 << shift) - 1  # the key bits that hold the partner
    top = (2 * n - 1) << shift  # above every key: products are at most 2(n-1)
    dtype = np.min_scalar_type(top)
    step = max(1, _CELLS // size**2)
    # the innermost memory axis: the chunk's apexes, or the positions when a
    # chunk holds fewer than half as many apexes (measured faster there)
    wide = 2 * step >= size
    rows = dv.astype(dtype) if wide else dv.T.astype(dtype, order="C").T
    rows <<= shift
    positions = np.arange(size)
    # cross[j, i] = (d(pi[i], pi[j]) << shift) - j, so rows[i, v] + rows[j, v]
    # - cross[j, i] is the key of pair (i, j) at apex v
    cross = rows[:, list(pi)] - positions.astype(dtype)[:, None]
    lower = np.tri(size, k=-1, dtype=bool)[:, :, None]  # pairs j > i, each pair once
    once = None  # lower, broadcast over a chunk in the memory order of its keys
    least = np.empty_like(rows)  # per (position, apex): least key
    second = np.empty_like(rows)  # and the least key past it
    achieved = np.zeros(2 * n - 1, dtype=np.intp)
    for lo in range(0, n, step):
        part = rows[:, lo : lo + step]
        width = part.shape[1]
        keys = np.empty((size, size, width) if wide else (size, width, size), dtype)
        if not wide:
            keys = keys.transpose(0, 2, 1)
        np.add(part, part[:, None, :], out=keys)  # keys[j, i, v], partner j outermost
        keys -= cross[:, :, None]
        if once is None or once.shape != keys.shape:  # first chunk, shorter last one
            once = np.empty_like(keys, dtype=bool)
            once[...] = lower
        found = keys.ravel("K")[once.ravel("K")]
        found >>= shift
        achieved += np.bincount(found, minlength=len(achieved))
        keys[positions, positions] = top
        first = keys.min(axis=0)
        keys[first & partner, positions[:, None], np.arange(width)] = top
        least[:, lo : lo + step] = first
        second[:, lo : lo + step] = keys.min(axis=0)
    need = least.max(axis=0) >> shift  # per apex, the least gamma with no isolated position
    # (partner, apex) slots of the least keys, to count shared partners
    slot = (least & partner).astype(np.intp) * n + np.arange(n)
    off_diagonal = ~np.eye(size, dtype=bool)
    levels = achieved.nonzero()[0]
    for doubled in levels[levels >= need.min()].tolist():
        bound = (doubled + 1) << shift  # a key is below it iff its product is <= doubled
        leaf = second >= bound
        shared = np.bincount(slot[leaf], minlength=slot.size).reshape(size, n).max(axis=0) > 1
        passing = ((need <= doubled) & ~shared).nonzero()[0]
        for lo in range(0, len(passing), step):
            apexes = passing[lo : lo + step]
            cols = rows[:, apexes].T
            graphs = cols[:, :, None] + cols[:, None, :] - cross < bound  # graphs[t, i, j]
            graphs &= off_diagonal
            for v, H in zip(apexes.tolist(), graphs):
                matched = perfect_matching(H)
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
