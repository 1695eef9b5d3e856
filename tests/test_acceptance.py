"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as
they print.  Every SGHG certificate any criterion produces is collected
and re-checked for the structural invariants at the end (criterion 11),
so the invariant sweep really covers the whole suite's output.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

from halinlab.certify import (
    HalinCertificate,
    is_generalized_halin,
    is_hist,
    sghg_invariants,
    verify_star_pack,
    wheel_minor,
)
from halinlab.constructive import (
    BipartiteHistPlan,
    DenseHistParams,
    TripartiteHistPlan,
    bipartite_hist,
    bipartite_plan_error,
    dense_hist,
    matching_lower_bound,
    tripartite_hist,
    tripartite_host,
    tripartite_plan_error,
)
from halinlab.extremal import confirm_sharpness
from halinlab.gadgets import (
    complete_instance,
    expected_forest_counts,
    expected_hit_counts,
    expected_tree_counts,
    insertion_forest,
    insertion_hit,
    insertion_tree,
)
from halinlab.graph import Graph, VertexSetPair, iter_all_graphs
from halinlab.hamiltonicity import (
    check_ore_plus,
    moon_moser_cycle,
    ore_ham_path,
    verify_walk,
)
from halinlab.io_formats import normalize_cycle
from halinlab.reduction import lift_certificate, project_certificate, reduce_instance
from halinlab.search import find_sghg, ham_path_oracle

from oracles import (
    max_matching_size,
    naive_sghg,
    random_graph,
    random_graph_min_degree,
)

#: (host, certificate) for every SGHG produced anywhere in this suite;
#: criterion 11 sweeps it last.
RECORDED_SGHGS: list[tuple[Graph, HalinCertificate]] = []


def _record(g: Graph, cert: HalinCertificate) -> None:
    assert is_generalized_halin(g, cert)
    RECORDED_SGHGS.append((g, cert))


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:2d} [PASS] {detail}")


def test_criterion_01_sharpness():
    for a, want_delta in ((3, 3), (4, 4)):
        started = time.monotonic()
        report = confirm_sharpness(a)
        elapsed = time.monotonic() - started
        m = report.instance
        assert report.confirmed, (a, report)
        assert m.predicted_delta == want_delta
        if a == 3:
            assert (m.n, 5 * m.predicted_delta) == (7, 2 * m.n + 1)
        else:
            assert (m.n, 5 * m.predicted_delta) == (9, 2 * m.n + 2)
        assert elapsed < 60, f"a={a} took {elapsed:.1f}s"
    _report(1, "K_{3,4} and K_{4,5}: no balanced-leaf HIST, no SGHG, "
               "metadata exact, each under 60 s")


def test_criterion_02_reduction_equivalence():
    started = time.monotonic()
    instances = 0
    for n in (3, 4, 5):
        for g in iter_all_graphs(n):
            for x, y in combinations(range(n), 2):
                has_path = ham_path_oracle(g, x, y) is not None
                gpp, _ = reduce_instance(g, x, y)
                result = find_sghg(gpp)
                assert result.status in ("found", "none")
                assert result.found == has_path, (n, g.edges(), x, y)
                if result.found:
                    _record(gpp, result.certificate)
                instances += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"corpus took {elapsed:.1f}s"
    _report(2, f"ham-path <=> SGHG on all {instances} labeled instances "
               f"(3<=n<=5, all terminal pairs) in {elapsed:.0f}s")


def test_criterion_03_forced_cycle():
    rng = random.Random(303)
    done = 0
    while done < 50:
        n = rng.choice([3, 4, 4, 5, 5, 5, 6, 6])
        g = random_graph(rng, n, rng.uniform(0.55, 0.9))
        x, y = rng.sample(range(n), 2)
        if ham_path_oracle(g, x, y) is None:
            continue
        gpp, trace = reduce_instance(g, x, y)
        result = find_sghg(gpp)
        assert result.found, (g.edges(), x, y)
        _record(gpp, result.certificate)
        assert normalize_cycle(result.certificate.leaf_cycle) == normalize_cycle(
            trace.cycle_order()
        ), (g.edges(), x, y)
        done += 1
    _report(3, "50 ham-path-positive instances (n <= 6): solver leaf cycle "
               "always equals the forced cycle up to rotation/reflection")


def test_criterion_04_lift_project_round_trip():
    rng = random.Random(404)
    done = 0
    while done < 100:
        n = rng.randrange(3, 9)
        g = random_graph(rng, n, rng.uniform(0.5, 0.9))
        x, y = rng.sample(range(n), 2)
        path = ham_path_oracle(g, x, y)
        if path is None:
            continue
        gpp, trace = reduce_instance(g, x, y)
        cert = lift_certificate(trace, path)
        _record(gpp, cert)
        back = project_certificate(gpp, trace, cert)
        assert back[0] == x and back[-1] == y
        assert sorted(back) == list(range(n))
        assert all(g.has_edge(a, b) for a, b in zip(back, back[1:]))
        done += 1
    _report(4, "lift then project recovered a valid terminal ham path on "
               "100 random positive instances")


def test_criterion_05_dense_hist():
    rng = random.Random(505)
    alpha = 0.05
    started = time.monotonic()
    for _ in range(100):
        n = rng.randrange(30, 121)
        floor = math.ceil((2 / 3 - alpha) * n)
        g = random_graph_min_degree(rng, n, floor, 0.75)
        root = rng.randrange(n)
        tree = dense_hist(g, DenseHistParams(alpha, root))
        assert is_hist(g, tree)
        assert tree.degree(root) >= (2 / 3 - alpha) * n - 1
        assert len(tree.internal()) <= (1 / 6 + alpha / 2) * n + 2
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(5, f"100 dense hosts (n in [30,120], alpha'=0.05): builder met "
               f"both postconditions in {elapsed:.1f}s")


def test_criterion_06_bipartite_hist():
    rng = random.Random(606)
    cases = 0
    for a in range(9, 41):
        host = Graph.complete_bipartite(a, a)
        plans = [
            BipartiteHistPlan(h, d, l)
            for h in range(1, 7)
            for d in range(3, 15)
            for l in range(0, 8)
            if bipartite_plan_error(a, a, BipartiteHistPlan(h, d, l)) is None
        ]
        for plan in rng.sample(plans, min(8, len(plans))):
            tree = bipartite_hist(a, a, plan)
            assert is_hist(host, tree), (a, plan)
            deg = tree.degrees()
            la = sum(1 for v in range(a) if deg[v] == 1)
            lb = sum(1 for v in range(a, 2 * a) if deg[v] == 1)
            assert la - lb == plan.imbalance, (a, plan)
            assert max(deg) <= plan.block_bound + 1, (a, plan)
            cases += 1
    assert cases >= 200, cases
    _report(6, f"{cases} feasible bipartite plans (|A|=|B| in 9..40): HIST, "
               "exact imbalance, max degree within bound+1")


def test_criterion_07_tripartite_hist():
    rng = random.Random(707)
    cases = 0
    nonempty_paths = 0
    attempts = [
        (a, b, f, l, TripartiteHistPlan(h, da, df))
        for a in (9, 10, 12, 15, 18, 22)
        for b in (a, a + 2, a + 4, a + 7)
        for f in (1, 2, 4, 6, 9)
        for l in (0, 1, 2, 4)
        for h in (1, 2, 3)
        for da, df in ((6, 2), (7, 3), (9, 4))
    ]
    rng.shuffle(attempts)
    for a, b, f, l, plan in attempts:
        if tripartite_plan_error(a, b, f, l, plan) is not None:
            continue
        host = tripartite_host(a, b, f)
        tree, path = tripartite_hist(a, b, f, l, plan)
        assert is_hist(host, tree), (a, b, f, l, plan)
        deg = tree.degrees()
        lb = sum(1 for v in range(a, a + b) if deg[v] == 1)
        laf = sum(
            1
            for v in list(range(a)) + list(range(a + b, a + b + f))
            if deg[v] == 1
        )
        assert lb == laf - l, (a, b, f, l, plan)
        f_leaves = {v for v in range(a + b, a + b + f) if deg[v] == 1}
        if f_leaves:
            assert path, (a, b, f, l, plan)
        if path:
            nonempty_paths += 1
            assert a <= path[0] < a + b and path[-1] >= a + b
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert host.has_edge(u, v)
            for i, p in enumerate(path):
                assert (p >= a + b) == (i % 2 == 1)
            assert {p for p in path if p >= a + b} == f_leaves
        cases += 1
        if cases >= 80:
            break
    assert cases >= 50, cases
    assert nonempty_paths >= 10, nonempty_paths
    _report(7, f"{cases} feasible tripartite plans: HIST, exact count "
               f"identity, alternating companion paths ({nonempty_paths} nonempty)")


def test_criterion_08_gadget_counts():
    for k in range(1, 9):
        inst = complete_instance(6 * k + 4, 6 * k + 4, k)
        for builder, formula in (
            (insertion_hit, expected_hit_counts),
            (insertion_tree, expected_tree_counts),
            (insertion_forest, expected_forest_counts),
        ):
            result = builder(inst)
            expected = formula(k)
            got = {key: result.counts[key] for key in expected}
            assert got == expected, (builder.__name__, k, got, expected)
    # Rows quoted from the closed forms for the smallest sizes:
    assert expected_hit_counts(1)["b_leaves"] == 2
    assert expected_hit_counts(1)["a_leaves"] == 3
    assert expected_hit_counts(3)["b_leaves"] == 7
    assert expected_tree_counts(1)["b_vertices"] == 2
    assert expected_tree_counts(5)["a_leaves"] == 9
    assert expected_forest_counts(1)["a_vertices"] == 6
    assert expected_forest_counts(2)["b_vertices"] == 6
    _report(8, "insertion builders match the closed-form vertex/leaf counts "
               "exactly for |I| in 1..8")


def test_criterion_09_matching_bound():
    rng = random.Random(909)
    done = 0
    while done < 200:
        n = rng.randrange(2, 61)
        g = random_graph(rng, n, rng.choice([0.08, 0.15, 0.3, 0.6]))
        if g.edge_count == 0:
            continue
        pack = matching_lower_bound(g)
        assert verify_star_pack(g, pack, {c for c, _ in pack.stars})
        size = len(pack.stars)
        assert 2 * g.max_degree() * size >= g.edge_count, (n, size)
        assert size <= max_matching_size(g), (n, size)
        done += 1
    _report(9, "200 random graphs (n <= 60): matching within "
               "[e/(2*maxdeg), maximum]")


def test_criterion_10_hamiltonicity():
    rng = random.Random(1010)
    # Targeted boundary hosts: complete, one missing edge (degree sum
    # exactly n+1), complete minus a perfect matching (n even).
    targeted = [Graph.complete(n) for n in (4, 5, 6, 7, 8)]
    targeted += [
        Graph(n, [e for e in Graph.complete(n).edges() if e != (0, 1)])
        for n in (5, 6, 7, 8)
    ]
    for n in (6, 8):
        pm = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        targeted.append(Graph(n, [e for e in Graph.complete(n).edges() if e not in pm]))
    sampled: list[Graph] = []
    while len(sampled) < 500:
        n = rng.randrange(5, 9)
        g = random_graph(rng, n, rng.uniform(0.6, 0.95))
        if check_ore_plus(g) is None:
            sampled.append(g)
    for g in targeted + sampled:
        assert check_ore_plus(g) is None
        for x, y in combinations(range(g.n), 2):
            p = ore_ham_path(g, x, y)
            assert verify_walk(g, p, closed=False, endpoints=(x, y))
    cycles = 0
    while cycles < 200:
        m = rng.randrange(2, 8)
        edges = [
            (i, m + j) for i in range(m) for j in range(m) if rng.random() < 0.85
        ]
        g = Graph(2 * m, edges)
        ok = all(
            g.has_edge(u, v) or g.degree(u) + g.degree(v) >= m + 1
            for u in range(m)
            for v in range(m, 2 * m)
        )
        if not ok:
            continue
        c = moon_moser_cycle(g, VertexSetPair(range(m), range(m, 2 * m)))
        assert verify_walk(g, c, closed=True)
        cycles += 1
    _report(10, f"{len(targeted) + len(sampled)} degree-sum hosts, all terminal "
                "pairs pathed; 200 bipartite hosts cycled; zero falsifications")


# Criterion 12 runs before 11 so its certificates join the sweep.
def test_criterion_12_solver_oracle_equivalence():
    rng = random.Random(1212)
    started = time.monotonic()
    agree = 0
    for _ in range(300):
        n = rng.randrange(4, 9)
        g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65, 0.8, 0.95]))
        ours = find_sghg(g)
        assert ours.status in ("found", "none")
        naive = naive_sghg(g)
        assert ours.found == (naive is not None), (n, g.edges())
        if ours.found:
            _record(g, ours.certificate)
        agree += 1
    elapsed = time.monotonic() - started
    assert elapsed < 900, f"took {elapsed:.1f}s"
    _report(12, f"solver agreed with the spanning-tree-enumeration oracle on "
                f"all {agree} random hosts (n <= 8) in {elapsed:.0f}s")


def test_criterion_11_structural_invariants():
    assert RECORDED_SGHGS, "earlier criteria recorded no certificates"
    for g, cert in RECORDED_SGHGS:
        report = sghg_invariants(g, cert)
        assert report.more_leaves_than_internal, (g, cert)
        assert report.tree_cycle_edge_disjoint, (g, cert)
        assert report.union_three_connected, (g, cert)
        order, _ = wheel_minor(cert)
        assert order >= -(-g.n // 2), (g, cert)
    _report(11, f"all {len(RECORDED_SGHGS)} SGHG certificates produced in this "
                "suite satisfy the four structural invariants")
