"""Graph representation, I/O, generators, the hop metric, Gromov products,
and four-point hyperbolicity.

Everything here is exact integer arithmetic.  Half-integral quantities
(Gromov products, hyperbolicity, shallowness thresholds) are carried as
doubled ints, named ``*_doubled`` like their JSON keys, so comparisons
against thresholds like ``2*tau + 1/2`` never involve floats.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

DELTA_VERTEX_CAP = 512
_APSP_SLICE = 1 << 14  # frontier cells and edges expanded per step of apsp

_MASK64 = (1 << 64) - 1


class GraphFormatError(ValueError):
    """Edge-list input that cannot be parsed."""


class GraphValidationError(ValueError):
    """Parsed input that violates the graph invariants."""


class CapExceededError(RuntimeError):
    """An operation would exceed its configured resource cap."""


class _DoubledInt(int):
    """An int whose ``.doubled`` is itself, so callers that still read
    ``four_point_delta(...).doubled`` (``perfbench/test_perfbench.py``)
    get the doubled value.  Delete it once they use the int directly."""

    @property
    def doubled(self) -> int:
        return int(self)


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph on vertices 0..n-1.

    Neighbor lists are sorted ascending; every deterministic tie-break in
    this package leans on that ordering.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        # fewer than n - 1 edges cannot connect n vertices; checked before
        # any per-vertex list exists, so a header like "100000000 0" is cheap
        edges = list(edges)
        if len(edges) < n - 1:
            raise GraphValidationError("graph is not connected")
        seen: set[tuple[int, int]] = set()
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphValidationError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphValidationError(f"duplicate edge {key}")
            seen.add(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        g = cls(n=n, m=len(seen), adjacency=tuple(tuple(sorted(ns)) for ns in neighbors))
        if not g._is_connected():
            raise GraphValidationError("graph is not connected")
        return g

    def _is_connected(self) -> bool:
        reached = [False] * self.n
        reached[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if not reached[w]:
                    reached[w] = True
                    count += 1
                    queue.append(w)
        return count == self.n

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for w in self.adjacency[u]:
                if u < w:
                    yield (u, w)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_tree(self) -> bool:
        return self.m == self.n - 1


def check_k(g: Graph, k: int) -> None:
    """The range of k that every solver entry point accepts: 1 <= k <= n."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")


def load_graph(source: str | bytes | IO) -> Graph:
    """Parse a graph from edge-list text.

    Format: optional '#' comment lines, a header line ``n m``, then one
    ``u v`` line per edge with ``0 <= u < v < n``.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise GraphFormatError("empty input")
    header = data[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {data[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {data[0]!r}") from exc
    edges: list[tuple[int, int]] = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
    g = Graph.from_edges(n, edges)  # range, loops, duplicates, connectivity
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return g


def serialize_graph(g: Graph) -> str:
    """Edge-list text for ``g``; inverse of :func:`load_graph`."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class SplitMix64:
    """Tiny splittable 64-bit PRNG; output is stable across Python versions."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def split(self) -> SplitMix64:
        return SplitMix64(self.next_u64())

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphValidationError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphValidationError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with center 0 and leaves 1..leaves."""
    if leaves < 0:
        raise GraphValidationError("star needs leaves >= 0")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(width: int, height: int) -> Graph:
    """width x height grid; vertex (row, col) has id row*width + col."""
    if width < 1 or height < 1:
        raise GraphValidationError("grid needs width, height >= 1")
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return Graph.from_edges(width * height, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    if n < 1:
        raise GraphValidationError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_connected(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a uniform spanning tree plus m-(n-1) extra edges."""
    if n < 1:
        raise GraphValidationError("graph needs n >= 1")
    if m < n - 1:
        raise GraphValidationError(f"m={m} < n-1={n - 1}: cannot be connected")
    if m > n * (n - 1) // 2:
        raise GraphValidationError(f"m={m} exceeds simple-graph maximum for n={n}")
    rng = SplitMix64(seed)
    tree = random_tree(n, rng.split().next_u64())
    tree_edges = set(tree.edges())
    spare = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree_edges
    ]
    rng.shuffle(spare)
    extra = spare[: m - (n - 1)]
    return Graph.from_edges(n, list(tree_edges) + extra)


def subdivide(g: Graph, length: int) -> Graph:
    """Replace every edge by a path of ``length`` edges.

    Original vertices keep their ids; chain vertices are appended
    edge-by-edge in lexicographic edge order, so the result is
    reproducible byte-for-byte.
    """
    if length < 1:
        raise GraphValidationError("subdivision length must be >= 1")
    edges = []
    nxt = g.n
    for u, v in g.edges():
        prev = u
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return Graph.from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# Metric layer
# ---------------------------------------------------------------------------


def apsp(g: Graph) -> np.ndarray:
    """Exact hop distances as a read-only n x n int32 array: a
    breadth-first search of the 2-core only, and a row recurrence across
    bridges for the trees that hang from it.

    Vertices of degree 1 are peeled until none is left, or on a tree until
    one vertex is left; each peeled vertex hangs from the one neighbour
    still present when it goes.  What remains is the 2-core, and only it
    gets the all-sources search (:func:`_bfs`).  A peeled vertex t lies in
    a pendant tree at depth h(t) below its core anchor a(t), and every path
    from t to the core runs through a(t), so a core row reads
    ``d(c, t) = d(c, a(t)) + h(t)``.  A peeled vertex v with parent p ends
    the bridge (p, v): row v is row p plus 1, minus 2 on v's subtree, which
    is one contiguous range of a preorder of the pendant trees.  Pendant
    rows are filled in that preorder, each from its parent's row, straight
    into the matrix.

    With no vertex of degree 1 the core is the whole graph and its search
    result is the matrix.  Otherwise the memory beyond the n x n result is
    the core's own c x c matrix, the search's sliced temporaries and a few
    arrays of n entries.
    """
    n = g.n
    adj = g.adjacency
    deg = list(map(len, adj))
    parent = [-1] * n  # stays -1 on the core
    children: list[list[int]] = [[] for _ in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    left = n
    while leaves and left > 1:
        v = leaves.pop()
        p = next(w for w in adj[v] if parent[w] < 0)
        parent[v] = p
        children[p].append(v)
        left -= 1
        deg[p] -= 1
        if deg[p] == 1:
            leaves.append(p)
    core = [v for v in range(n) if parent[v] < 0]
    cid = [-1] * n
    for i, v in enumerate(core):
        cid[v] = i
    # after peeling, a core vertex's degree counts its core neighbours only
    core_d = _bfs(
        np.fromiter((deg[v] for v in core), dtype=np.int64, count=len(core)),
        np.fromiter((cid[w] for v in core for w in adj[v] if cid[w] >= 0), dtype=np.int64),
    )
    if len(core) == n:
        core_d.setflags(write=False)
        return core_d

    order: list[int] = []  # preorder of the pendant trees
    todo = [v for a in core for v in children[a]]
    while todo:
        v = todo.pop()
        order.append(v)
        todo.extend(children[v])
    anchor, depth = cid[:], [0] * n
    for v in order:
        anchor[v] = anchor[parent[v]]
        depth[v] = depth[parent[v]] + 1
    size = [1] * n
    for v in reversed(order):
        size[parent[v]] += size[v]

    d = np.empty((n, n), dtype=np.int32)
    anchor_col = np.array(anchor, dtype=np.intp)
    depth_col = np.array(depth, dtype=np.int32)
    for i, a in enumerate(core):
        row = d[a]
        np.take(core_d[i], anchor_col, out=row)
        row += depth_col
    order_col = np.array(order, dtype=np.intp)
    for start, v in enumerate(order):
        row = d[v]
        np.add(d[parent[v]], 1, out=row)
        row[order_col[start : start + size[v]]] -= 2
    d.setflags(write=False)
    return d


def _bfs(deg: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Hop distances of a connected graph in CSR form (vertex v's
    neighbours are the ``deg[v]`` entries of ``indices`` after those of
    vertices 0..v-1): one breadth-first search from all sources at once,
    as a writeable int32 matrix.

    Level-synchronous over a flat frontier of cells ``source*n + vertex``:
    each level expands the frontier through CSR neighbour arrays, keeps the
    cells not yet reached, and writes them the next distance.  Expansion
    runs in slices of at most ``_APSP_SLICE`` cells and about as many
    edges, so beyond the matrix only the frontier and the level it reaches
    grow with n.
    """
    n = deg.size
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    flat = np.full(n * n, -1, dtype=np.int32)
    frontier = np.arange(0, n * n, n + 1, dtype=np.intp)  # the diagonal
    flat[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        reached = []
        for part in _frontier_slices(frontier, n, deg):
            vertex = part % n
            counts = deg[vertex]
            starts = indptr[vertex] - (np.cumsum(counts) - counts)
            pos = np.repeat(starts, counts)
            pos += np.arange(pos.size)
            cells = np.repeat(part - vertex, counts) + indices[pos]
            cells = cells[flat[cells] < 0]
            # deduplicate without sorting: of the slots naming the same cell,
            # exactly one reads back its own stamp
            stamp = np.arange(cells.size, dtype=np.int32)
            flat[cells] = stamp
            cells = cells[flat[cells] == stamp]
            flat[cells] = level
            reached.append(cells)
        frontier = np.concatenate(reached)
    return flat.reshape(n, n)


def _frontier_slices(frontier: np.ndarray, n: int, deg: np.ndarray):
    """Consecutive non-empty pieces of ``frontier`` of at most
    ``_APSP_SLICE`` cells and about as many edges (more only where one
    vertex alone has more)."""
    for lo in range(0, frontier.size, _APSP_SLICE):
        part = frontier[lo : lo + _APSP_SLICE]
        ends = np.cumsum(deg[part % n])
        cuts = np.searchsorted(ends, np.arange(_APSP_SLICE, int(ends[-1]), _APSP_SLICE))
        bounds = [0, *cuts.tolist(), part.size]
        for a, b in zip(bounds, bounds[1:]):
            if a < b:
                yield part[a:b]


def _adjacency_lists(M: np.ndarray) -> list[list[int]]:
    """Per row of a boolean matrix, the columns that hold True, ascending."""
    cols = M.nonzero()[1].tolist()  # row-major: row by row, ascending
    ends = np.count_nonzero(M, axis=1).cumsum().tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def biconnected_blocks(D: np.ndarray) -> list[list[int]]:
    """Vertex sets of the biconnected blocks of the graph behind ``D``, each
    sorted ascending.  A bridge is a block of two vertices; a single vertex
    has no blocks.

    Iterative Tarjan: the explicit stack keeps long paths from overflowing
    the recursion limit.  Edges are the entries of ``D`` equal to 1.
    """
    n = len(D)
    adj = _adjacency_lists(D == 1)
    disc = [-1] * n
    low = [0] * n
    blocks: list[list[int]] = []
    disc[0] = 0
    clock = 1
    pending = [0]  # discovered vertices not yet assigned to a block
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                pending.append(w)
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # nothing below v reaches above u: v's pending subtree and u
                # form one block
                block = [u]
                while block[-1] != v:
                    block.append(pending.pop())
                blocks.append(sorted(block))
    return blocks


def four_point_delta(D: np.ndarray) -> int:
    """Doubled four-point hyperbolicity, as an int: 2*delta, the largest
    gap over every vertex quadruple between the two larger of its three
    pairing distance-sums.

    Computed block by block, exactly.  Every biconnected block is an
    isometric subgraph, so the block's rows and columns of ``D`` are its
    own metric, and the four-point delta of a graph is the maximum over
    its blocks (Cohen, Coudert & Lancin, "On computing the Gromov
    hyperbolicity", ACM JEA 2015).  Blocks of fewer than 4 vertices add 0,
    so trees and other block graphs of small blocks need no scan, and
    ``DELTA_VERTEX_CAP`` caps the largest block, not n.

    Only a quadruple's largest-sum pairing can hold its delta, and the
    doubled delta is at most the smaller distance of that pairing: if
    S1 = d(a,b) + d(c,d) >= S2 >= S3 are the three sums, the doubled delta
    is S1 - S2, and S2 >= (S2 + S3) / 2 >= max(d(a,b), d(c,d)) by the
    triangle inequality.  So the doubled delta is at most the diameter,
    and so at most twice it, and :func:`_pair_scan_delta_doubled` can
    stop once its pairs are no farther apart than the best delta found.

    The result is an int; its ``.doubled`` is the same int.
    """
    blocks = biconnected_blocks(D)
    largest = max((len(b) for b in blocks), default=0)
    if largest > DELTA_VERTEX_CAP:
        raise CapExceededError(
            f"four_point_delta cap: largest biconnected block has {largest} "
            f"vertices, exceeds DELTA_VERTEX_CAP={DELTA_VERTEX_CAP}"
        )
    best = 0
    for block in blocks:
        if len(block) >= 4:
            best = max(best, _pair_scan_delta_doubled(D[np.ix_(block, block)]))
    return _DoubledInt(best)


def _pair_scan_delta_doubled(d: np.ndarray) -> int:
    """Doubled four-point delta of one distance matrix, in its own dtype.

    Pairs (a, b) are scanned in decreasing distance, ties in row-major
    order.  Against a pair, column (c, d) of one n x n array holds
    S1 - max(S2, S3), with S1 = d(a,b) + d(c,d) and S2, S3 the quadruple's
    other two sums.  When S1 is the largest sum this is the quadruple's
    doubled delta; otherwise it is at most 0, and so is every degenerate
    column (c = d, or c or d in {a, b}) by the triangle inequality.

    By the bound in :func:`four_point_delta`, a quadruple whose doubled
    delta exceeds the running maximum has both pairs of its largest-sum
    pairing farther apart than it, so the scan reaches the first of them,
    with the other as a column, before d(a,b) falls to the running
    maximum, where it stops.  No sum widens: a block of at most
    ``DELTA_VERTEX_CAP`` vertices has distances below 512, so every sum
    fits even in int16.
    """
    rows, cols = np.triu_indices(len(d), 1)
    dist = d[rows, cols]
    order = np.argsort(-dist, kind="stable")
    best = 0
    for dab, a, b in zip(dist[order].tolist(), rows[order].tolist(), cols[order].tolist()):
        if dab <= best:
            break
        s2 = d[a][:, None] + d[b][None, :]
        best = max(best, int((dab + d - np.maximum(s2, s2.T)).max()))
    return best
