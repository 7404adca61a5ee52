"""kgc benchmark: `kgc solve` + `kgc verify` over seeded graph corpora.

    python3 perfbench/run.py --workload tree-roots --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One op is `kgc solve` followed by `kgc verify` on one graph file, both run
in-process through ``kgc.cli.main`` with ``--threads 1``.  The run measures
whole corpus passes until ``--seconds`` is used up, checks every op's
certificate outside the timed region, and prints one JSON line last:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` every op runs
untraced and then traced, and the per-layer metrics come from the traced
ones.  Run from the root of a checkout; see README.md in this directory for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import heapq
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
from certify import adjacency, check, diameter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
SETUP_REPS = 3
# Every graph is solved at least twice, which the byte-identity check needs:
# two passes untraced, or one pass that runs each op untraced then traced.
MIN_PASSES = {False: 2, True: 1}


@dataclass(frozen=True)
class Workload:
    family: str  # "tree" or "cyclic" (spanning tree plus m - n + 1 random edges)
    n: int
    count: int  # graphs in the corpus; one op each per pass
    ks: tuple[int, ...]  # k cycles through these over the corpus
    tau: str  # "computed" (kgc's four-point scan), "zero" (exact on trees), "diameter"


# Corpus sizes: two untraced passes take 30-40 s on a 2-vCPU Xeon VM, so a
# run fits in 36 s plus set-up.  More graphs would narrow the seed-to-seed spread of
# corpus_s and radius_sum, but would not fit.
WORKLOADS = {
    "tree-delta": Workload("tree", 120, 18, (2, 3, 4), "computed"),
    "tree-roots": Workload("tree", 700, 9, (2, 3, 4), "zero"),
    "cyclic-wide": Workload("cyclic", 350, 9, (24,), "diameter"),
}
# Small corpora for --smoke: every code path, in a few seconds.
TINY = {
    "tree-delta": dict(n=24, count=3),
    "tree-roots": dict(n=40, count=3),
    "cyclic-wide": dict(n=40, count=2, ks=(4,)),
}
CYCLIC_EDGE_FACTOR = 1.2
WARMUP_N = 24


@dataclass
class Member:
    name: str
    n: int
    edges: list
    k: int
    is_tree: bool
    path: Path
    options: list
    adj: list | None = None  # the benchmark's own adjacency lists, made when first needed


# ---------------------------------------------------------------------------
# Corpus: the benchmark's own generators, so kgc sees only graph files.
# ---------------------------------------------------------------------------


def random_tree_edges(n: int, rng: random.Random) -> list:
    """Uniform labelled tree from a random Pruefer sequence."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_connected_edges(n: int, m: int, rng: random.Random) -> list:
    """Uniform random tree plus uniformly drawn extra edges, m in total."""
    edges = set(random_tree_edges(n, rng))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def make_member(w: Workload, name: str, n: int, k: int, rng: random.Random, workdir: Path) -> Member:
    if w.family == "tree":
        edges = random_tree_edges(n, rng)
    else:
        edges = random_connected_edges(n, round(CYCLIC_EDGE_FACTOR * n), rng)
    path = workdir / f"{name}.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))
    member = Member(name, n, edges, k, w.family == "tree", path, [])
    if w.tau == "zero":
        member.options = ["--tau-hat-doubled", "0"]
    elif w.tau == "diameter":
        # doubled delta <= 2 * diam (four_point_delta's docstring), so
        # tau_hat_doubled = 4 * delta_doubled <= 8 * diam is a sound bound
        member.adj = adjacency(n, edges)
        member.options = ["--tau-hat-doubled", str(8 * diameter(member.adj))]
    return member


def make_corpus(w: Workload, seed: int, workdir: Path) -> list:
    rng = random.Random(f"kgc-bench/{seed}")
    return [
        make_member(w, f"g{i:02d}", w.n, w.ks[i % len(w.ks)], rng, workdir)
        for i in range(w.count)
    ]


# ---------------------------------------------------------------------------
# Ops and their certificates
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    error: str | None
    solve_bytes: bytes = b""
    verify_bytes: bytes = b""


def run_op(cli, m: Member, tracer=None) -> OpResult:
    solve_out = m.path.with_suffix(".solve.json")
    verify_out = m.path.with_suffix(".verify.json")
    solve_argv = ["solve", "-g", str(m.path), "-k", str(m.k), "--threads", "1",
                  "-o", str(solve_out), *m.options]

    def call(argv):
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main", "cli"):
            return cli.main(argv)

    start = time.perf_counter()
    try:
        rc = call(solve_argv)
        if rc == 0:
            radius = json.loads(solve_out.read_bytes())["radius"]
            rc = call(["verify", "-g", str(m.path), "--cover", str(solve_out),
                       "--radius", str(radius), "-o", str(verify_out)])
    except Exception as exc:  # any crash of the program is a failed op
        return OpResult(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if rc != 0:
        return OpResult(seconds, f"exit code {rc}")
    return OpResult(seconds, None, solve_out.read_bytes(), verify_out.read_bytes())


class Judge:
    """Certificate checks per op, with the first passing artifact of each
    graph kept as the reference that every later op must match byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple[bytes, bytes]] = {}

    def __call__(self, m: Member, res: OpResult) -> None:
        self.attempted += 1
        if res.error is None and m.name in self.reference:
            if (res.solve_bytes, res.verify_bytes) == self.reference[m.name]:
                return
            problems = ["output differs from the first op on the same graph"]
        elif res.error is None:
            if m.adj is None:
                m.adj = adjacency(m.n, m.edges)
            try:
                solved = json.loads(res.solve_bytes)
                problems = check(m.adj, m.k, m.is_tree, solved, json.loads(res.verify_bytes))
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed artifact: {type(exc).__name__}: {exc}"]
            if not problems:
                self.reference[m.name] = (res.solve_bytes, res.verify_bytes)
        else:
            problems = [res.error]
        if problems:
            self.failed += 1
            self.problems.append(f"{m.name} (n={m.n}, k={m.k}): {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# Set-up and measurement
# ---------------------------------------------------------------------------


IMPORT_PROBE = "import time; t = time.perf_counter(); import kgc.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Time to import kgc.cli (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(w: Workload, seed: int, workdir: Path, cli, judge: Judge):
    """One set-up: import, corpus generation and files, one tiny warm-up op."""
    imported = import_seconds()
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    corpus = make_corpus(w, seed, workdir)
    warm = make_member(w, "warmup", WARMUP_N, 2, random.Random(f"kgc-bench-warmup/{seed}"), workdir)
    judge(warm, run_op(cli, warm))
    return imported + time.perf_counter() - start, corpus


@dataclass
class Pass:
    op_seconds: list  # untraced, one per graph
    traced_seconds: list = field(default_factory=list)  # traced, one per graph
    tracer: tracing.Tracer | None = None
    absent: set = field(default_factory=set)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds) + sum(self.traced_seconds)


def run_pass(cli, corpus, judge: Judge, trace: bool) -> Pass:
    """One op per graph; with ``trace``, each untraced op is followed by the
    same op traced, so that the pair sees the same machine load."""
    gc.collect()
    done = Pass([])
    results = []
    if trace:
        done.tracer = tracing.Tracer()
    for i, m in enumerate(corpus):
        res = run_op(cli, m)
        done.op_seconds.append(res.seconds)
        results.append((m, res))
        if trace:
            tr = done.tracer
            tr.op_id = i
            with tracing.installed(tr) as done.absent, tr.span("op", "bench"):
                res = run_op(cli, m, tr)
            done.traced_seconds.append(res.seconds)
            results.append((m, res))
    for m, res in results:
        judge(m, res)
    return done


def measure(cli, corpus, judge: Judge, seconds: float, trace: bool) -> list:
    """Whole passes until the next one would overrun ``seconds`` (at least
    MIN_PASSES)."""
    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(cli, corpus, judge, trace))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES[trace] and elapsed + passes[-1].seconds > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(tr: tracing.Tracer, roots: int) -> dict:
    metrics = {}
    for name in dict.fromkeys(hook[2] for hook in tracing.SPAN_HOOKS):
        metrics[f"{name}.s"] = (tr.total_ns[name] / 1e9, "s")
        metrics[f"{name}.calls"] = (tr.calls[name], "count")
    metrics["rooted_cover.picks"] = (tr.calls["rooted_cover.picks"], "count")
    metrics["rooted_cover.probes_per_root"] = (
        tr.calls["rooted_cover.cover_or_packing"] / roots, "ratio")
    metrics["solver.solve.self_s"] = (tr.self_ns["solver.solve"] / 1e9, "s")
    for layer in ("cli", "graph_core", "rooted_cover", "geodesics", "shallow_pairing"):
        metrics[f"{layer}.self_s"] = (tr.layer_self_ns[layer] / 1e9, "s")
    return metrics


def corpus_seconds(runs) -> float:
    """Sum over the corpus of each op's median time across passes, so that
    a pass slowed by a burst of outside load does not move the result."""
    return sum(statistics.median(times) for times in zip(*runs))


def end_to_end_metrics(passes, setups, judge: Judge, corpus) -> dict:
    artifacts = [json.loads(judge.reference[m.name][0]) for m in corpus if m.name in judge.reference]
    return {
        "corpus_s": (corpus_seconds(p.op_seconds for p in passes), "s"),
        "solve_s_p50": (statistics.median(s for p in passes for s in p.op_seconds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "radius_sum": (sum(a["radius"] for a in artifacts), "hops"),
        "bound_gap_sum": (sum(a["bounds"]["upper"] - a["bounds"]["lower"] for a in artifacts), "hops"),
        "ok_ratio": (1 - judge.failed / judge.attempted, "ratio"),
    }


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def pin_allocator() -> bool:
    """Fix glibc malloc's thresholds for this process.

    By default glibc raises its mmap threshold after the first large free,
    and kgc's time per op then depends on the process's allocation history:
    one freed 4 MB array turns a 3.2 s tree-roots op into a 1.8 s one, and
    runs flip between the two regimes.  With fixed thresholds (n x n arrays
    served from the heap, the heap never trimmed) every op runs in one
    regime; page-fault cost is left out, and peak_rss_mb shows the memory.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, 256 << 20))


def load_kgc_cli():
    """kgc from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "kgc" / "cli.py").is_file():
        raise SystemExit(f"error: no kgc source under {src}; run from a kgc checkout")
    sys.path.insert(0, str(src))
    import kgc.cli

    return kgc.cli


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (metrics, samples, machine)."""
    allocator_pinned = pin_allocator()
    cli = load_kgc_cli()
    w = WORKLOADS[name]
    if tiny:
        w = dataclasses.replace(w, **TINY[name])
    workdir = TMP_DIR / f"{os.getpid()}-{name}"
    judge = Judge()
    try:
        setups = []
        for rep in range(SETUP_REPS):
            seconds_taken, corpus = set_up(w, seed, workdir / f"setup{rep}", cli, judge)
            setups.append(seconds_taken)
        passes = measure(cli, corpus, judge, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "allocator_pinned": allocator_pinned,
        "corpus": {"graphs": w.count, "n": w.n, "ks": list(w.ks), "tau": w.tau},
        "samples": {
            "corpus_s": len(passes),
            "solve_s_p50": sum(len(p.op_seconds) for p in passes),
            "setup_s": len(setups),
        },
        "passes": [{"op_seconds": p.op_seconds, "traced_seconds": p.traced_seconds} for p in passes],
        "attempted": judge.attempted,
        "failed": judge.failed,
        "problems": judge.problems[:20],
    }
    if trace:
        per_pass = [layer_metrics(p.tracer, sum(m.n for m in corpus)) for p in passes]
        metrics = {}
        deterministic = True
        for key, (value, unit) in per_pass[0].items():
            values = [pp[key][0] for pp in per_pass]
            if unit == "s":
                value = statistics.median(values)
            else:
                deterministic = deterministic and len(set(values)) == 1
            metrics[key] = (value, unit)
        metrics["trace_overhead"] = (
            corpus_seconds(p.traced_seconds for p in passes)
            / corpus_seconds(p.op_seconds for p in passes), "ratio")
        record["absent"] = sorted(passes[-1].absent)
        record["samples"]["per_layer"] = len(passes)
        record["counts_repeat"] = deterministic
        write_spans(name, seed, corpus, passes[-1].tracer)
    else:
        metrics = end_to_end_metrics(passes, setups, judge, corpus)
        deterministic = True
    record["correct"] = judge.failed == 0 and deterministic
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def write_spans(name: str, seed: int, corpus, tr) -> None:
    """Spans of the last traced pass, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    t0 = min((s[4] for s in tr.spans()), default=0)
    with open(OUT_DIR / f"{name}-spans.jsonl", "w", encoding="utf-8") as handle:
        header = {"workload": name, "seed": seed, "ops": [m.name for m in corpus]}
        handle.write(json.dumps(header) + "\n")
        for op, span_id, parent, span_name, start, end in tr.spans():
            handle.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": span_name,
                                     "start_ns": start - t0, "end_ns": end - t0}) + "\n")


def report(record: dict) -> None:
    """Human-readable lines, the record file, then the one-line result."""
    mach = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={mach['nproc']} cpu={mach['cpu']!r} python={mach['python']} numpy={mach['numpy']}")
    samples = record["samples"]
    for key, metric in record["metrics"].items():
        note = f"  (n={samples[key]})" if key in samples else ""
        print(f"{key:40s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"fail_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4f}")
    for missing in record.get("absent", []):
        print(f"absent: {missing} (hook target not found; reported as 0)")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def smoke(seed: int) -> int:
    """Every workload on tiny corpora, both modes; every metric named in
    BENCHMARK.json must be produced and every op must pass its checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for name in spec["workloads"]:
        for trace in (0, 1):
            record = run(name["name"], seed, 0.0, bool(trace), tiny=True)
            got = set(record["metrics"])
            ok = record["correct"] and got == want[trace]
            bad += not ok
            print(f"smoke {name['name']:12s} trace={trace} ops={record['attempted']} "
                  f"failed={record['failed']} missing={sorted(want[trace] - got)} "
                  f"extra={sorted(got - want[trace])} {'ok' if ok else 'FAIL'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, check metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
