"""Command-line front end.

Subcommands: solve, exact, delta, gen, verify.  Machine output is JSON
(half-integers as *_doubled integers, never floats).  Exit codes: 0
success / verified, 1 invalid input or failed verification, 2 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .graph_core import (
    CapExceededError,
    Graph,
    GraphFormatError,
    GraphValidationError,
    apsp,
    cycle_graph,
    four_point_delta,
    grid_graph,
    load_graph,
    path_graph,
    random_connected,
    random_tree,
    serialize_graph,
    star_graph,
    subdivide,
    tree_rows,
)
from .geodesics import family_eccentricity, is_isometric
from .oracle import OracleCaps, check_exact_input, exact_optimum
from .rooted_cover import cover_or_packing, tree_radius_is_least, verify_packing
from .solver import bound_range, build_profile, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2

# each `kgc gen --type`: its generator and the flags it reads, in call order
_FAMILIES = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "star": (star_graph, ("leaves",)),
    "grid": (grid_graph, ("w", "h")),
    "random_tree": (random_tree, ("n", "seed")),
    "random_connected": (random_connected, ("n", "m", "seed")),
    "tree": (random_tree, ("n", "seed")),
    "random": (random_connected, ("n", "m", "seed")),
}


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        return load_graph(handle)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def cmd_solve(args) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    g = _read_graph(args.graph)
    result = solve(g, args.k, tau_hat_doubled=args.tau_hat_doubled)
    _emit_json(result.as_dict(), args.output)
    return EXIT_OK


def cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    caps = OracleCaps(max_paths=args.max_paths, max_combinations=args.max_combinations)
    check_exact_input(g, args.k, caps)  # before apsp builds the n x n matrix
    result = exact_optimum(g, apsp(g), args.k, caps)
    _emit_json(result.as_dict(), args.output)
    return EXIT_OK


def cmd_delta(args) -> int:
    g = _read_graph(args.graph)
    # every block of a tree is a bridge, and blocks of fewer than 4 vertices add 0
    delta_doubled = 0 if g.is_tree() else four_point_delta(apsp(g))
    _emit_json({"delta_doubled": delta_doubled}, args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    make, flags = _FAMILIES[args.type]
    for flag in flags:
        if getattr(args, flag) is None:
            raise GraphValidationError(f"family {args.type!r} missing parameter --{flag}")
    # a flag is set when it differs from its default; every family reads
    # --subdivide, and --seed 0 is the default
    defaults = vars(build_parser().parse_args(["gen", "--type", args.type]))
    for flag, value in vars(args).items():
        if value != defaults[flag] and flag not in (*flags, "subdivide", "output"):
            raise GraphValidationError(f"family {args.type!r} does not read --{flag}")
    g = make(*(getattr(args, flag) for flag in flags))
    if args.subdivide is not None:
        g = subdivide(g, args.subdivide)
    _emit(serialize_graph(g), args.output)
    return EXIT_OK


def _is_vertex(v, n: int) -> bool:
    """True for a JSON integer (not a boolean) in ``[0, n)``."""
    return type(v) is int and 0 <= v < n


def _is_vertex_list(p, n: int) -> bool:
    """True for a JSON list of vertex ids."""
    return isinstance(p, list) and all(_is_vertex(v, n) for v in p)


def _field(obj, key: str):
    """``obj[key]``, or None when ``obj`` is not an object or lacks it."""
    return obj.get(key) if isinstance(obj, dict) else None


def _max_product(dist, pairs, apex: int) -> int:
    """The largest doubled Gromov product (x|y)_apex over the pairs, from
    the rows of the apex and of each pair's first vertex."""
    at_apex = dist[apex]
    firsts = dist[[x for x, _ in pairs]]
    return max(int(at_apex[x]) + int(at_apex[y]) - int(d[y]) for (x, y), d in zip(pairs, firsts))


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.cover, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("artifact must be a JSON object")

    # the artifacts the CLI writes, a solve result or an exact optimum,
    # both carry paths and k
    paths = data.get("paths")
    if paths is None:
        raise ValueError("nothing to verify: the artifact has no 'paths'")
    k = data.get("k")
    if type(k) is not int or not 1 <= k <= g.n:
        raise ValueError(f"artifact k must be an integer in [1, {g.n}], got {k!r}")
    report: dict = {}

    # a tree's distances come row by row from its index, with no matrix
    tree = g.is_tree()
    dist = tree_rows(g) if tree else apsp(g)

    # a malformed field fails its check instead of raising: paths must be
    # lists of vertex ids, the root and the witness members vertex ids, and
    # the radii integers
    count = len(paths) if isinstance(paths, list) else None
    shaped = count is not None and all(_is_vertex_list(p, g.n) for p in paths)
    within_k = count is not None and count <= k
    isometric = shaped and all(is_isometric(g, dist, p) for p in paths)
    ecc = family_eccentricity(g, paths) if shaped and any(paths) else None
    # the artifact's own radius (a solve's radius or an exact optimum) must
    # equal the paths' eccentricity, which --radius only bounds
    claimed = data.get("radius")
    cover_ok = (
        within_k
        and isometric
        and ecc is not None
        and ecc <= args.radius
        and type(claimed) is int
        and claimed == ecc
    )
    report["cover"] = {
        "paths": count,
        "within_k": within_k,
        "isometric": isometric,
        "eccentricity": ecc,
        "radius": args.radius,
        "ok": cover_ok,
    }
    ok = cover_ok

    rooted = data.get("rooted")
    root, rooted_radius = _field(rooted, "root"), _field(rooted, "R")
    root_ok = _is_vertex(root, g.n)
    rooted_ok = False
    if rooted is not None:
        # the rooted cover must be the very cover the greedy returns from the
        # root at rooted.R: 1 to 2k-1 canonical geodesics out of the root, so
        # a lowered rooted.R fails even with tau supplied; on a tree, no root
        # covers at rooted.R - 1 either, so rooted.R is the least rooted
        # radius and bounds.lower holds.  The shape comes first: (1.0,) ==
        # (1,), so a float id would pass the comparison
        rooted_cover = _field(rooted, "cover")
        count = len(rooted_cover) if isinstance(rooted_cover, list) else None
        rooted_ok = (
            count is not None
            and all(_is_vertex_list(p, g.n) for p in rooted_cover)
            and root_ok
            and type(rooted_radius) is int
            and rooted_radius >= 0
            and cover_or_packing(g, dist, root, rooted_radius, k).cover
            == tuple(map(tuple, rooted_cover))
            and (not tree or tree_radius_is_least(g, dist, rooted_radius, k))
        )
        report["rooted"] = {"paths": count, "ok": rooted_ok}
        ok = ok and rooted_ok

    pairing = data.get("pairing")
    if pairing is not None:
        # the paths run between the distinct pairs, in the pairs' order; the
        # pairs partition the 2k-vertex profile of the checked rooted cover,
        # so there are k of them; and the largest doubled Gromov product at
        # the apex is gamma, since with a smaller one the apex would have
        # matched at a lower achieved level
        pairs = _field(pairing, "pairs")
        apex, gamma = _field(pairing, "apex"), _field(pairing, "gamma_doubled")
        pairs_ok = (
            shaped
            and all(paths)
            and isinstance(pairs, list)
            and all(_is_vertex_list(p, g.n) and len(p) == 2 for p in pairs)
            and [(p[0], p[-1]) for p in paths] == list(dict.fromkeys(map(tuple, pairs)))
            and rooted_ok
            and sorted(v for p in pairs for v in p)
            == sorted(build_profile(root, rooted_cover, k))
            and _is_vertex(apex, g.n)
            and type(gamma) is int
            and _max_product(dist, pairs, apex) == gamma
        )
        report["pairing"] = {
            "pairs": len(pairs) if isinstance(pairs, list) else None,
            "ok": pairs_ok,
        }
        ok = ok and pairs_ok

    witness = _field(rooted, "packing_witness")
    # a rooted radius above 0 is shown least only by a witness
    if witness or (rooted is not None and rooted_radius != 0):
        witness_radius, vertices = _field(witness, "R"), _field(witness, "vertices")
        # the witness must be the 2k-vertex packing one step below the
        # rooted radius, or it does not show that radius is least
        shape_ok = (
            isinstance(vertices, list)
            and root_ok
            and all(_is_vertex(v, g.n) for v in vertices)
            and len(set(vertices)) == len(vertices) == 2 * k
            and type(witness_radius) is int
            and witness_radius >= 0
            and type(rooted_radius) is int
            and witness_radius == rooted_radius - 1
        )
        packing_ok = shape_ok and verify_packing(g, dist, root, witness_radius, vertices)
        report["packing"] = {
            "root": root,
            "R": witness_radius,
            "size": len(vertices) if isinstance(vertices, list) else None,
            "shape_ok": shape_ok,
            "ok": packing_ok,
        }
        ok = ok and packing_ok

    bounds = data.get("bounds")
    if bounds is not None:
        tau, source = _field(bounds, "tau_hat_doubled"), _field(bounds, "tau_source")
        expected = None
        if (
            type(tau) is int
            and tau >= 0
            and type(rooted_radius) is int
            and source in ("computed", "supplied")
        ):
            expected = bound_range(rooted_radius, tau)
        reported = (_field(bounds, "lower"), _field(bounds, "upper"))
        bounds_ok = all(type(x) is int for x in reported) and reported == expected
        lower, upper = expected or (None, None)
        # a computed tau must be the solver's own, four times the four-point
        # delta (past its cap, exit 2; 0 on a tree), and it makes upper a
        # bound on the paths' radius; a supplied one only if it holds, which
        # verify cannot tell
        if bounds_ok and source == "computed":
            delta = 0 if tree else four_point_delta(dist)
            bounds_ok = tau == 4 * delta and (ecc is None or ecc <= upper)
        report["bounds"] = {"lower": lower, "upper": upper, "ok": bounds_ok}
        ok = ok and bounds_ok

    report["ok"] = ok
    _emit_json(report, args.output)
    return EXIT_OK if ok else EXIT_INVALID


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kgc`` parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="kgc",
        description="Additive-approximation k-geodesic-center toolkit for "
        "connected unweighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("-g", "--graph", required=True, help="edge-list file")

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("solve", help="approximate k-geodesic center")
    add_graph(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--tau-hat-doubled", type=int, default=None,
                   help="supplied thinness bound (doubled); default computed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility, must be >= 1; the root search "
                   "is single-threaded, so this changes neither output nor schedule")
    add_output(p)

    p = sub.add_parser("exact", help="exact optimum by exhaustive search")
    add_graph(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--max-paths", type=int, default=OracleCaps.max_paths)
    p.add_argument("--max-combinations", type=int, default=OracleCaps.max_combinations)
    add_output(p)

    p = sub.add_parser("delta", help="four-point hyperbolicity (doubled)")
    add_graph(p)
    add_output(p)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("--type", required=True, choices=_FAMILIES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--leaves", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subdivide", type=int, default=None,
                   help="replace every edge by a path of this many hops")
    add_output(p)

    p = sub.add_parser("verify", help="re-check a cover/packing JSON artifact")
    add_graph(p)
    p.add_argument("--cover", required=True, help="JSON artifact to verify")
    p.add_argument("--radius", type=int, required=True)
    add_output(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        # the handler is looked up per call, not bound into the cached
        # parser, so a replaced ``cmd_*`` (as the benchmark's tracer does)
        # takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except (GraphFormatError, GraphValidationError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
