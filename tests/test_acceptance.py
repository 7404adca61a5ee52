"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with ``pytest -s``).  Tolerances are pinned in the asserts.

Criteria:
  1. tree exactness          solve == oracle on 200 random trees
  2. additive guarantee      radius - optimum within 6*tau + 1 on 100 graphs
  3. certificate soundness   packing witnesses verify; optimum >= R_u - tau
  4. greedy dichotomy        verified cover or verified packing, 1000 tuples
  5. shallow pairing         existence at 2*tau + 1/2; weak duality x 10000
  6. subdivision bound       optimum scaling under edge subdivision, 50 graphs
  7. covering-test oracle    vertex-pair test == geodesic brute force, n <= 8
  8. performance sanity      grid(25,25) k=3 under 10 min; sub-quartic scaling
"""

from __future__ import annotations

import math
import time

import pytest

from kgc import (
    Graph,
    apsp,
    cycle_graph,
    exact_optimum,
    family_eccentricity,
    four_point_delta,
    grid_graph,
    is_isometric,
    path_graph,
    random_connected,
    random_tree,
    solve,
    star_graph,
    subdivide,
    verify_packing,
)
from kgc.geodesics import enumerate_geodesics
from kgc.graph_core import SplitMix64
from kgc.rooted_cover import cover_or_packing
from kgc.shallow_pairing import min_gamma_pairing
from conftest import (
    check_subdivision_lemma,
    covering_reach,
    exists_covering_rpath,
    graph_key,
    gromov_product,
    pairing_distance,
    solve_tree,
    total_distance,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} ({detail})")


# ---------------------------------------------------------------------------
# Shared instance corpora (built once per session)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_instances():
    """200 random trees, n in [5, 40], k cycling 1..3: solve + oracle."""
    rng = SplitMix64(0xACCE55)
    records = []
    start = time.perf_counter()
    for i in range(200):
        n = 5 + rng.below(36)
        g = random_tree(n, rng.next_u64())
        k = min(1 + i % 3, g.n)
        D = apsp(g)
        res = solve_tree(g, k)
        opt = exact_optimum(g, D, k).optimum
        records.append((g, D, k, res, opt))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def general_instances():
    """100 random connected graphs, n <= 14, m <= 25, k cycling 1..2."""
    rng = SplitMix64(0xBEEF)
    records = []
    start = time.perf_counter()
    for i in range(100):
        n = 6 + rng.below(9)
        cap = min(25, n * (n - 1) // 2)
        m = (n - 1) + rng.below(cap - (n - 1) + 1)
        g = random_connected(n, m, rng.next_u64())
        k = 1 + i % 2
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        res = solve(g, k)
        opt = exact_optimum(g, D, k).optimum
        records.append((g, D, k, tau, res, opt))
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Criterion 1: tree exactness
# ---------------------------------------------------------------------------


def test_criterion_1_tree_exactness(tree_instances):
    records, elapsed = tree_instances
    failures = [
        (g.n, k, res.radius, opt)
        for g, D, k, res, opt in records
        if res.radius != opt
    ]
    report(
        1,
        "tree exactness",
        not failures,
        f"{len(records) - len(failures)}/{len(records)} exact, "
        f"solved+oracled in {elapsed:.1f}s",
    )
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 2: additive guarantee on general graphs
# ---------------------------------------------------------------------------


def test_criterion_2_additive_guarantee(general_instances):
    records, elapsed = general_instances
    failures = []
    worst_doubled = 0
    for g, D, k, tau, res, opt in records:
        gap_doubled = 2 * (res.radius - opt)
        worst_doubled = max(worst_doubled, gap_doubled)
        if gap_doubled < 0 or gap_doubled > 6 * tau + 2:
            failures.append((g.n, g.m, k, res.radius, opt, tau))
    report(
        2,
        "additive guarantee",
        not failures,
        f"{len(records)} instances in {elapsed:.1f}s, "
        f"worst doubled gap {worst_doubled}",
    )
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 3: certificate soundness
# ---------------------------------------------------------------------------


def test_criterion_3_certificates(tree_instances, general_instances):
    packing_checked = 0
    lower_checked = 0
    failures = []
    combined = [(g, D, k, res, opt, 0) for g, D, k, res, opt in tree_instances[0]]
    combined += [
        (g, D, k, res, opt, tau) for g, D, k, tau, res, opt in general_instances[0]
    ]
    for g, D, k, res, opt, tau in combined:
        rooted = res.rooted
        if rooted.radius > 0:
            witness = rooted.packing_witness
            if (
                witness is None
                or witness.radius != rooted.radius - 1
                or len(witness.vertices) != 2 * k
                or not verify_packing(g, D, rooted.root, witness.radius, witness.vertices)
            ):
                failures.append(("packing", g.n, g.m, k))
            packing_checked += 1
        if 2 * opt < 2 * rooted.radius - tau:
            failures.append(("lower-bound", g.n, g.m, k, opt, rooted.radius))
        lower_checked += 1
    report(
        3,
        "certificate soundness",
        not failures,
        f"{packing_checked} packings, {lower_checked} lower bounds",
    )
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 4: cover-or-packing dichotomy
# ---------------------------------------------------------------------------


def test_criterion_4_dichotomy():
    rng = SplitMix64(0xD1C40)
    graphs = []
    while len(graphs) < 40:
        n = 5 + rng.below(8)  # 5..12
        m = (n - 1) + rng.below(min(2 * n, n * (n - 1) // 2) - (n - 1) + 1)
        graphs.append(random_connected(n, m, rng.next_u64()))
    tuples = 0
    failures = []
    while tuples < 1000:
        g = graphs[tuples % len(graphs)]
        D = apsp(g)
        tau = 4 * four_point_delta(D)
        r = rng.below(g.n)
        radius = rng.below(int(D.max()) + 1)
        k = 1 + rng.below(3)
        if k > g.n:
            continue
        out = cover_or_packing(g, D, r, radius, k)
        if out.is_cover:
            ok = (
                1 <= len(out.cover) <= 2 * k - 1
                and all(p[0] == r and is_isometric(g, D, p) for p in out.cover)
                and 2 * family_eccentricity(g, out.cover)
                <= 2 * radius + 2 * tau
            )
        else:
            ok = len(out.packing) == 2 * k and verify_packing(
                g, D, r, radius, out.packing
            )
        if not ok:
            failures.append((g.n, g.m, r, radius, k, out.is_cover))
        tuples += 1
    report(4, "greedy dichotomy", not failures, f"{tuples} tuples sampled")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 5: shallow pairing existence and weak duality
# ---------------------------------------------------------------------------


def test_criterion_5_shallow_pairing():
    rng = SplitMix64(0x5A110)
    graphs = []
    while len(graphs) < 25:
        n = 6 + rng.below(9)  # 6..14
        m = (n - 1) + rng.below(min(25, n * (n - 1) // 2) - (n - 1) + 1)
        graphs.append(random_connected(n, m, rng.next_u64()))
    taus = {}
    failures = []
    profiles = 0
    while profiles < 500:
        g = graphs[profiles % len(graphs)]
        key = graph_key(g)
        if key not in taus:
            taus[key] = (apsp(g), 4 * four_point_delta(apsp(g)))
        D, tau = taus[key]
        k = 1 + rng.below(4)
        pi = tuple(rng.below(g.n) for _ in range(2 * k))
        gamma = 2 * tau + 1  # 2*tau + 1/2
        # a pairing graph only gains edges as gamma grows, so a pairing
        # exists at this shallowness exactly when the least gamma is at most it
        pairing = min_gamma_pairing(D[list(pi)], pi)
        if pairing.gamma_doubled > gamma:
            failures.append(("missing", g.n, g.m, pi))
        if sorted(v for pair in pairing.pairs for v in pair) != sorted(pi):
            failures.append(("partition", g.n, pi))
        for x, y in pairing.pairs:
            if gromov_product(D, x, y, pairing.apex) > pairing.gamma_doubled:
                failures.append(("bound", g.n, pi, (x, y)))
        profiles += 1

    duality = 0
    while duality < 10_000:
        g = graphs[duality % len(graphs)]
        D, _ = taus[graph_key(g)]
        k = 1 + rng.below(4)
        pi = tuple(rng.below(g.n) for _ in range(2 * k))
        positions = list(range(2 * k))
        rng.shuffle(positions)
        pairs = [(pi[positions[2 * i]], pi[positions[2 * i + 1]]) for i in range(k)]
        v = rng.below(g.n)
        if pairing_distance(D, pairs) > total_distance(D, pi, v):
            failures.append(("duality", g.n, pi, v))
        duality += 1
    report(
        5,
        "shallow pairing",
        not failures,
        f"{profiles} profiles, {duality} duality samples",
    )
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 6: subdivision bound
# ---------------------------------------------------------------------------


def test_criterion_6_subdivision():
    rng = SplitMix64(0x5BD1)
    graphs: list[Graph] = [
        path_graph(3),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        star_graph(3),
        star_graph(5),
        grid_graph(2, 2),
        grid_graph(3, 2),
    ]
    while len(graphs) < 50:
        n = 4 + rng.below(4)  # 4..7
        m = (n - 1) + rng.below(min(n + 2, n * (n - 1) // 2) - (n - 1) + 1)
        graphs.append(random_connected(n, m, rng.next_u64()))
    failures = []
    checks = 0
    for i, g in enumerate(graphs):
        D = apsp(g)
        k = 1 + i % 2
        for length in (2, 3):
            rep = check_subdivision_lemma(g, D, k, length)
            if not rep["ok"]:
                failures.append((g.n, g.m, k, length, rep))
            checks += 1
    report(6, "subdivision bound", not failures, f"{checks} graph/length checks")
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 7: covering-test equivalence with geodesic brute force
# ---------------------------------------------------------------------------


def _covering_truth_table(g: Graph, D, r: int, radius: int) -> int:
    """Brute force: enumerate every geodesic out of r; bit n*u + w is set
    iff some geodesic's radius-ball holds both u and w."""
    n = g.n
    ball_bits = []
    for v in range(n):
        row = 0
        for u in range(n):
            if D[v, u] <= radius:
                row |= 1 << u
        ball_bits.append(row)
    masks = set()
    for t in range(n):
        for p in enumerate_geodesics(g, D, r, t, cap=200_000):
            m = 0
            for x in p:
                m |= ball_bits[x]
            masks.add(m)
    table = 0
    for m in masks:
        mm = m
        while mm:
            low = mm & -mm
            table |= m << (n * (low.bit_length() - 1))
            mm ^= low
    return table


def test_criterion_7_covering_test_equivalence():
    rng = SplitMix64(0x7E57)
    corpus: dict = {}
    for builder in (
        [path_graph(n) for n in range(2, 9)]
        + [cycle_graph(n) for n in range(3, 9)]
        + [star_graph(n) for n in range(1, 8)]
        + [grid_graph(2, 2), grid_graph(2, 3), grid_graph(2, 4)]
        + [subdivide(star_graph(3), 2)]
    ):
        corpus[graph_key(builder)] = builder
    while len(corpus) < 500:
        n = 4 + rng.below(5)  # 4..8
        m = (n - 1) + rng.below(n * (n - 1) // 2 - (n - 1) + 1)
        g = random_connected(n, m, rng.next_u64())
        corpus[graph_key(g)] = g

    graphs = list(corpus.values())
    disagreements = 0
    tuples = 0
    spot_calls = 0
    for idx, g in enumerate(graphs):
        D = apsp(g)
        n = g.n
        diam = int(D.max())
        spot_check = idx % 25 == 0  # exercise the public single-pair entry too
        for r in range(n):
            for radius in range(diam + 1):
                expected = _covering_truth_table(g, D, r, radius)
                got = 0
                for w in range(n):
                    reach = covering_reach(g, D, r, w, radius)
                    for u in range(n):
                        if reach[u]:
                            got |= 1 << (n * u + w)
                tuples += n * n
                if got != expected:
                    disagreements += 1
                if spot_check:
                    for u in range(n):
                        for w in range(n):
                            direct = exists_covering_rpath(g, D, r, u, w, radius)
                            spot_calls += 1
                            if direct != bool(expected >> (n * u + w) & 1):
                                disagreements += 1
    report(
        7,
        "covering-test equivalence",
        disagreements == 0,
        f"{len(graphs)} graphs, {tuples} tuples, {spot_calls} direct calls",
    )
    assert disagreements == 0


# ---------------------------------------------------------------------------
# Criterion 8: performance sanity
# ---------------------------------------------------------------------------


def _caterpillar(spine: int) -> Graph:
    """Path of ``spine`` vertices with a pendant leaf every 10 spine hops."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(5, spine, 10):
        edges.append((i, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


def test_criterion_8_performance():
    # 625-vertex grid: n exceeds the four-point cap, so the thinness bound
    # is supplied (min(w,h)-1 = 24 for the square grid, doubled 48, x4).
    g = grid_graph(25, 25)
    start = time.perf_counter()
    res = solve(g, 3, tau_hat_doubled=4 * 48)
    grid_elapsed = time.perf_counter() - start
    D = apsp(g)
    assert all(is_isometric(g, D, p) for p in res.paths)
    assert res.radius == family_eccentricity(g, res.paths)
    grid_ok = grid_elapsed < 600.0

    times = {}
    for n in (100, 200, 400):
        g = _caterpillar(n)
        start = time.perf_counter()
        solve(g, 2, tau_hat_doubled=0)  # caterpillars are trees
        times[n] = max(time.perf_counter() - start, 1e-4)
    slope = math.log(times[400] / times[100]) / math.log(4.0)
    scaling_ok = slope < 4.0
    report(
        8,
        "performance sanity",
        grid_ok and scaling_ok,
        f"grid(25,25) k=3 in {grid_elapsed:.1f}s; "
        f"path-like times {times[100]:.3f}/{times[200]:.3f}/{times[400]:.3f}s, "
        f"log-log slope {slope:.2f}",
    )
    assert grid_ok, f"grid solve took {grid_elapsed:.1f}s"
    assert scaling_ok, f"scaling slope {slope:.2f} >= 4"
