"""Graph representation, I/O, generators, the hop metric, Gromov products,
and four-point hyperbolicity.

Everything here is exact integer arithmetic.  Half-integral quantities
(Gromov products, hyperbolicity, shallowness thresholds) are carried as
doubled ints, named ``*_doubled`` like their JSON keys, so comparisons
against thresholds like ``2*tau + 1/2`` never involve floats.
"""

from __future__ import annotations

import functools
import heapq
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected undirected graph on vertices 0..n-1, in
    CSR form: vertex v's neighbours are ``indices[indptr[v]:indptr[v + 1]]``.
    Both are read-only intp arrays, and each row is ascending; every
    deterministic tie-break in this package leans on that ordering.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """The graph with the given edges, each an unordered pair (u, v).
        The first edge in input order that is out of range, a loop or a
        repeat of an earlier edge, either way round, is reported."""
        return _from_ids(n, list(chain.from_iterable(edges)))

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours as a tuple of ints, ascending, for the
        readers that loop in Python."""
        nbrs, ends = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ends, ends[1:]))

    def __eq__(self, other) -> bool:  # n is indptr.size - 1
        return (
            isinstance(other, Graph)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        up = src < self.indices
        return zip(src[up].tolist(), self.indices[up].tolist())

    def is_tree(self) -> bool:
        return self.m == self.n - 1


def _from_ids(n: int, ids: list[int]) -> Graph:
    """:meth:`Graph.from_edges` with the edges' ids end to end,
    u0 v0 u1 v1 ..., the form :func:`load_graph` parses them in."""
    if n < 1:
        raise GraphValidationError("graph needs at least one vertex")
    # fewer than n - 1 edges cannot connect n vertices; checked before any
    # per-vertex array exists, so a header like "100000000 0" is cheap
    if len(ids) < 2 * (n - 1):
        raise GraphValidationError("graph is not connected")
    try:
        ends = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id past int64 is out of range like any other
        ends = np.array([min(max(x, -1), n) for x in ids], dtype=np.int64)
    u, v = ends[0::2], ends[1::2]
    # every arc as src * n + dst, sorted: with every id in range, the arcs
    # are distinct exactly when no edge is a loop or a repeat
    arcs = np.sort(np.concatenate((u * n + v, v * n + u)))
    if ends.min(initial=0) < 0 or ends.max(initial=0) >= n or (arcs[1:] == arcs[:-1]).any():
        # report the first edge in input order that is out of range, a loop
        # or a repeat of an earlier edge.  An id out of range makes a key
        # that may equal any other, but then the edge behind it is at
        # fault itself or comes after one that is
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _, first, key = np.unique(lo * n + hi, return_index=True, return_inverse=True)
        bad = (lo < 0) | (hi >= n) | (lo == hi) | (first[key] != np.arange(lo.size))
        at = 2 * int(bad.argmax())
        a, b = ids[at : at + 2]
        if not (0 <= a < n and 0 <= b < n):
            raise GraphValidationError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise GraphValidationError(f"loop at vertex {a}")
        raise GraphValidationError(f"duplicate edge {(min(a, b), max(a, b))}")
    indptr = np.searchsorted(arcs, np.arange(0, n * n + 1, n))
    indices = arcs % n
    indptr.setflags(write=False)
    indices.setflags(write=False)
    g = Graph(n, indptr, indices)
    if min(hops(g, [0])) < 0:
        raise GraphValidationError("graph is not connected")
    return g


def hops(g: Graph, sources: Iterable[int]) -> list[int]:
    """Each vertex's hop distance from the nearest of ``sources``, -1 where
    none reaches it: one breadth-first search."""
    adj = g.adjacency
    dist = [-1] * g.n
    queue = list(sources)
    for s in queue:
        dist[s] = 0
    for u in queue:  # the queue grows while the loop reads it
        step = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = step
                queue.append(w)
    return dist


def check_k(g: Graph, k: int) -> None:
    """The range of k that every solver entry point accepts: 1 <= k <= n."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {k}")


def load_graph(source: str | bytes | IO) -> Graph:
    """Parse a graph from edge-list text.

    Format: optional '#' comment lines and blank lines, a header line
    ``n m``, then one ``u v`` line per edge, ids read by ``int``, with
    ``0 <= u, v < n`` and ``u != v``.  Either order names the same edge,
    so a line that repeats an edge either way round is a duplicate.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    data = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not data:
        raise GraphFormatError("empty input")
    header = data[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {data[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {data[0]!r}") from exc
    ids: list[int] = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            ids += int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
    g = _from_ids(n, ids)  # range, loops, duplicates, connectivity
    if len(ids) != 2 * m:
        raise GraphFormatError(f"header declares {m} edges, found {len(ids) // 2}")
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
    """Exact hop distances as a read-only n x n array: a breadth-first
    search of the 2-core only, and a row recurrence across bridges for the
    trees that hang from it.  Every distance is below n, so the array is
    int16 when n < 2^15 and int32 otherwise; this is the one place the
    distance dtype is chosen.

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
    cid = np.full(n, -1, dtype=np.intp)
    cid[core] = np.arange(len(core))
    dtype = np.int16 if n < 2**15 else np.int32
    # the core's CSR: g's arcs between core vertices, renumbered, which
    # keeps every row ascending
    src = np.repeat(cid, np.diff(g.indptr))
    dst = cid[g.indices]
    kept = (src >= 0) & (dst >= 0)
    core_d = _bfs(np.searchsorted(src[kept], np.arange(len(core) + 1)), dst[kept], dtype)
    if len(core) == n:
        core_d.setflags(write=False)
        return core_d

    order: list[int] = []  # preorder of the pendant trees
    todo = [v for a in core for v in children[a]]
    while todo:
        v = todo.pop()
        order.append(v)
        todo.extend(children[v])
    anchor, depth = cid.tolist(), [0] * n
    for v in order:
        anchor[v] = anchor[parent[v]]
        depth[v] = depth[parent[v]] + 1
    size = [1] * n
    for v in reversed(order):
        size[parent[v]] += size[v]

    d = np.empty((n, n), dtype=dtype)
    anchor_col = np.array(anchor, dtype=np.intp)
    depth_col = np.array(depth, dtype=dtype)
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


def tree_rows(g: Graph) -> _TreeRows:
    """On a tree: an index that ``[ids]`` turns into those vertices'
    hop-distance rows, as ``apsp(g)[ids]`` would, one int32 row of n
    entries per id, with no n x n matrix.

    One pass from vertex 0 records each vertex's depth and preorder
    position.  d(s, c) = dep(s) + dep(c) - 2 dep(lca(s, c)), and along a
    preorder the lca is a range minimum (Bender & Farach-Colton, "The LCA
    problem revisited", LATIN 2000): for positions p < q, dep(lca) is the
    smaller of dep(p) and one less than the least depth at positions
    p+1..q.  Those positions all lie in the lca's subtree below it, and
    the lca's child towards the later vertex is one of them; when the
    vertex at p is the lca itself, they are all deeper than it.  So a row
    is two running minimums out from the source, forward and backward, and
    a few more passes over n entries.
    """
    n = g.n
    parent = [-1] * n
    depth = [0] * n
    order = []  # preorder from vertex 0
    todo = [0]
    while todo:
        v = todo.pop()
        order.append(v)
        for w in g.adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                depth[w] = depth[v] + 1
                todo.append(w)
    pre = np.empty(n, dtype=np.intp)
    pre[order] = np.arange(n)
    return _TreeRows(pre, np.array(depth, dtype=np.int32)[order])


@dataclass(frozen=True, eq=False)
class _TreeRows:
    """The index of :func:`tree_rows`: each vertex's preorder position, and
    the depth at each preorder position."""

    pre: np.ndarray
    dep: np.ndarray

    def __getitem__(self, ids) -> np.ndarray:
        pre, dep = self.pre, self.dep
        n = pre.size
        at = pre[np.asarray(ids, dtype=np.intp)]
        out = np.empty((at.size, n), dtype=np.int32)
        lca = np.empty(n, dtype=np.int32)  # by preorder position
        for row, p in zip(out, at.ravel().tolist()):
            after, before = lca[p + 1 :], lca[:p]
            np.minimum.accumulate(dep[p + 1 :], out=after)
            np.minimum.accumulate(dep[p:0:-1], out=before[::-1])
            lca -= 1
            np.minimum(after, dep[p], out=after)
            np.minimum(before, dep[:p], out=before)
            lca[p] = dep[p]
            lca *= -2
            lca += dep
            lca += dep[p]
            np.take(lca, pre, out=row)
        return out.reshape(*at.shape, n)


def tree_eccentricities(dist) -> np.ndarray:
    """On a tree, every vertex's eccentricity from three distance rows of
    ``dist`` (``tree_rows(g)`` or ``apsp(g)``): with a farthest from
    vertex 0 and b farthest from a, ecc(u) = max(d(u, a), d(u, b))."""
    from_a = dist[int(dist[0].argmax())]
    return np.maximum(from_a, dist[int(from_a.argmax())])


def _bfs(indptr: np.ndarray, indices: np.ndarray, dtype) -> np.ndarray:
    """Hop distances of a connected graph in CSR form (vertex v's
    neighbours are ``indices[indptr[v]:indptr[v + 1]]``, as in
    :class:`Graph`): one breadth-first search from all sources at once,
    as a writeable matrix of the signed integer ``dtype``, which must hold
    n - 1.

    Level-synchronous over a flat frontier of cells ``source*n + vertex``:
    each level expands the frontier through CSR neighbour arrays, keeps the
    cells not yet reached, and writes them the next distance.  Expansion
    runs in slices of at most ``_APSP_SLICE`` cells and about as many
    edges, so beyond the matrix only the frontier and the level it reaches
    grow with n.
    """
    deg = np.diff(indptr)
    n = deg.size
    flat = np.full(n * n, -1, dtype=dtype)
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
            # one reads back its own stamp.  Stamps wrap in a narrow dtype; a
            # piece of an int16 search has under 2^14 + max degree < 2^16
            # slots, so its stamps stay distinct.  A repeated stamp could
            # only keep a cell twice, which costs work, never a distance:
            # every stamped cell has a winner, and it gets ``level``.
            stamp = np.arange(cells.size).astype(dtype)
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
