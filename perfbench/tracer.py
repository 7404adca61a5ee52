"""Spans and call counts around kgc's public functions, recorded from outside
the program by replacing module attributes for the length of a traced pass.

Each hook patches a name where it is *called* (``kgc.cli.apsp``, not
``kgc.graph_core.apsp``), so the metric says which caller paid for the work.
A hook whose module or attribute no longer exists -- because a later change
removed or inlined the function -- is skipped and its metric reported as
absent; the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module holding the call site, attribute, metric name, layer).  The layer is
# the module of src/kgc that defines the function; it receives the self time.
SPAN_HOOKS = (
    ("kgc.cli", "cmd_solve", "cli.cmd_solve", "cli"),
    ("kgc.cli", "cmd_verify", "cli.cmd_verify", "cli"),
    ("kgc.cli", "load_graph", "graph_core.load_graph", "graph_core"),
    ("kgc.cli", "apsp", "graph_core.apsp", "graph_core"),
    ("kgc.solver", "apsp", "graph_core.apsp", "graph_core"),
    ("kgc.solver", "four_point_delta", "graph_core.four_point_delta", "graph_core"),
    ("kgc.cli", "solve", "solver.solve", "solver"),
    ("kgc.solver", "best_root", "rooted_cover.best_root", "rooted_cover"),
    ("kgc.rooted_cover", "cover_or_packing", "rooted_cover.cover_or_packing", "rooted_cover"),
    ("kgc.rooted_cover", "geodesic_alignment", "rooted_cover.geodesic_alignment", "geodesics"),
    ("kgc.cli", "verify_packing", "rooted_cover.verify_packing", "rooted_cover"),
    ("kgc.rooted_cover", "exists_covering_rpath", "geodesics.exists_covering_rpath", "geodesics"),
    ("kgc.solver", "min_gamma_pairing", "shallow_pairing.min_gamma_pairing", "shallow_pairing"),
    ("kgc.solver", "find_shallow_pairing", "shallow_pairing.find_shallow_pairing", "shallow_pairing"),
    ("kgc.shallow_pairing", "find_shallow_pairing", "shallow_pairing.find_shallow_pairing", "shallow_pairing"),
    ("kgc.shallow_pairing", "pairing_graph", "shallow_pairing.pairing_graph", "shallow_pairing"),
    ("kgc.shallow_pairing", "perfect_matching", "shallow_pairing.perfect_matching", "shallow_pairing"),
    ("kgc.solver", "paths_of_pairing", "shallow_pairing.paths_of_pairing", "shallow_pairing"),
    ("kgc.solver", "family_eccentricity", "geodesics.family_eccentricity", "geodesics"),
    ("kgc.cli", "family_eccentricity", "geodesics.family_eccentricity", "geodesics"),
    ("kgc.cli", "is_isometric", "geodesics.is_isometric", "geodesics"),
)

# Called tens of thousands of times per op; counted, with no span, so that
# tracing stays cheap and the span file small.
COUNT_HOOKS = (
    ("kgc.rooted_cover", "shortest_path", "rooted_cover.picks"),
)


class Tracer:
    """In-memory spans plus per-name and per-layer aggregates.

    Single-threaded by design: the benchmark runs kgc with ``--threads 1``,
    so spans nest strictly and a stack gives every span its parent.  Spans
    are kept in chunks of at most ``CHUNK`` entries so that no list buffer
    grows past glibc's 128 KiB mmap threshold (see certify.py for why that
    would speed up the program being measured).
    """

    CHUNK = 4096

    def __init__(self):
        self.op_id = 0
        self._chunks: list[list[tuple[int, int, int | None, str, int, int]]] = [[]]
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.layer_self_ns: Counter[str] = Counter()
        self._stack: list[list] = []
        self._next_id = 1

    def _enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, layer, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, parent, name, layer, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        self.layer_self_ns[layer] += duration - child_ns
        if self._stack:
            self._stack[-1][5] += duration
        if len(self._chunks[-1]) == self.CHUNK:
            self._chunks.append([])
        self._chunks[-1].append((self.op_id, span_id, parent, name, start, end))

    def spans(self):
        """(op id, span id, parent span id or None, name, start ns, end ns)."""
        for chunk in self._chunks:
            yield from chunk

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        self._enter(name, layer)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    fn = getattr(module, attr, None)
    return (module, fn) if callable(fn) else (None, None)


@contextlib.contextmanager
def installed(tracer: Tracer, span_hooks=SPAN_HOOKS, count_hooks=COUNT_HOOKS):
    """Patch every hook target that exists; yield the set of metric names
    none of whose targets exist; restore the originals on exit."""
    wanted = {hook[2] for hook in span_hooks} | {hook[2] for hook in count_hooks}
    found: set[str] = set()
    restore = []
    try:
        for module_name, attr, name, layer in span_hooks:
            module, fn = _resolve(module_name, attr)
            if module is not None:
                restore.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(fn, name, layer))
                found.add(name)
        for module_name, attr, name in count_hooks:
            module, fn = _resolve(module_name, attr)
            if module is not None:
                restore.append((module, attr, fn))
                setattr(module, attr, tracer.count(fn, name))
                found.add(name)
        yield wanted - found
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)
