import math
import random

import pytest

from halinlab.certify import is_hist, verify_star_pack
from halinlab.constructive import (
    BipartiteHistPlan,
    DenseHistParams,
    TripartiteHistPlan,
    absorb_pair,
    bipartite_hist,
    bipartite_plan_error,
    dense_hist,
    matching_lower_bound,
    star_pack,
    tripartite_hist,
    tripartite_host,
    tripartite_plan_error,
)
from halinlab.errors import PreconditionError
from halinlab.graph import Graph, VertexSetPair, degree_between
from halinlab.reduction import build_g_double_prime, build_g_prime, lift_certificate

from oracles import (
    max_matching_size,
    random_graph,
    random_graph_min_degree,
    set_greedy_matching,
    star_pack_exists,
)


# -- dense host builder --------------------------------------------------------


def test_dense_hist_on_complete_hosts():
    for n in (7, 10, 25):
        g = Graph.complete(n)
        t = dense_hist(g, DenseHistParams(0.05, 0))
        assert is_hist(g, t)
        assert len(t.internal()) <= 2


def test_dense_hist_postconditions_random():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randrange(30, 80)
        alpha = 0.05
        floor = math.ceil((2 / 3 - alpha) * n)
        g = random_graph_min_degree(rng, n, floor, 0.75)
        root = rng.randrange(n)
        t = dense_hist(g, DenseHistParams(alpha, root))
        assert is_hist(g, t)
        assert t.degree(root) >= (2 / 3 - alpha) * n - 1
        assert len(t.internal()) <= (1 / 6 + alpha / 2) * n + 2


def test_dense_hist_k7_with_reduced_degree():
    # Keep min degree exactly at the ceil((2/3 - 0.05) * 7) = 5 floor.
    removed = [(0, 1), (2, 3), (4, 5)]
    g = Graph(7, [e for e in Graph.complete(7).edges() if e not in removed])
    assert g.min_degree() == 5
    t = dense_hist(g, DenseHistParams(0.05, 0))
    assert is_hist(g, t)


def test_dense_hist_rejects_sparse_host():
    with pytest.raises(PreconditionError):
        dense_hist(Graph.cycle(9), DenseHistParams(0.05, 0))


@pytest.mark.parametrize("alpha", [0.6, 0.0])
def test_dense_hist_rejects_alpha_outside_the_range(alpha):
    # K_8 is covered by the root's star, so no absorption step ever sees
    # alpha; the range holds whatever the host.
    with pytest.raises(PreconditionError, match=r"^alpha_prime must be in \(0, 0\.5\)$"):
        dense_hist(Graph.complete(8), DenseHistParams(alpha, 0))


def first_absorbable_pair(g, inside):
    """(u, w, anchor) by a plain scan: outside pairs in lexicographic
    order, each with its smallest common inside neighbour."""
    outside = [v for v in range(g.n) if v not in inside]
    for i, u in enumerate(outside):
        for w in outside[i + 1 :]:
            for c in sorted(inside):
                if g.has_edge(u, c) and g.has_edge(w, c):
                    return (u, w, c)
    return None


def test_absorb_pair_examples():
    g = Graph.complete(6)
    assert absorb_pair(g, {0, 1, 2, 3}, 0.009) == (4, 5, 0)
    with pytest.raises(PreconditionError, match=r"^host min degree 2 below required 4$"):
        absorb_pair(Graph.cycle(6), {0, 1, 2, 3}, 0.009)  # degree proviso
    with pytest.raises(PreconditionError):
        absorb_pair(g, {0, 1, 2}, 0.009)  # parity
    # Ids outside the host are rejected, not counted toward the size and
    # parity of the inside set: {0, 1} alone is below the size floor.
    for v1 in ({0, 1, 99, 100}, {-2, -1, 0, 1, 2, 3}):
        with pytest.raises(PreconditionError, match="vertices of the host"):
            absorb_pair(g, v1, 0.1)
    # Inside {0, 1, 2, 3} is a 4-cycle; 4 sees {0, 1}, 5 sees {2, 3},
    # 6 sees {1, 2} and 7 sees only outside vertices.  Every degree is
    # at least ceil((2/3 - 0.3) * 8) = 3, and (4, 5) share no inside
    # neighbour, so the first absorbable pair is (4, 6) through 1.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 5), (3, 5)]
    edges += [(1, 6), (2, 6), (4, 7), (5, 7), (6, 7)]
    h, inside = Graph(8, edges), {0, 1, 2, 3}
    assert absorb_pair(h, inside, 0.3) == first_absorbable_pair(h, inside) == (4, 6, 1)


def test_absorb_pair_random_within_provisos():
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randrange(40, 70)
        alpha = 0.008
        if 8 * alpha + 6 / n >= 1 / 3:
            continue
        floor = math.ceil((2 / 3 - alpha) * n)
        g = random_graph_min_degree(rng, n, floor, 0.8)
        k = floor + ((n - floor) % 2)
        inside = set(range(k))
        u, w, c = absorb_pair(g, inside, alpha)
        assert u not in inside and w not in inside and c in inside
        assert g.has_edge(u, c) and g.has_edge(w, c)
        assert (u, w, c) == first_absorbable_pair(g, inside)


# -- balanced bipartite builder ------------------------------------------------


def feasible_bipartite_plans(a: int):
    for hubs in range(1, 6):
        for bound in range(3, 14):
            for ell in range(0, 6):
                plan = BipartiteHistPlan(hubs, bound, ell)
                if bipartite_plan_error(a, a, plan) is None:
                    yield plan


def leaf_imbalance(t, a):
    deg = t.degrees()
    la = sum(1 for v in range(a) if deg[v] == 1)
    lb = sum(1 for v in range(a, 2 * a) if deg[v] == 1)
    return la - lb


def test_bipartite_hist_spec_cases():
    host = Graph.complete_bipartite(9, 9)
    t = bipartite_hist(9, 9, BipartiteHistPlan(2, 6, 0))
    assert is_hist(host, t) and leaf_imbalance(t, 9) == 0
    t = bipartite_hist(9, 9, BipartiteHistPlan(2, 6, 1))
    assert is_hist(host, t) and leaf_imbalance(t, 9) == 1
    assert bipartite_plan_error(9, 9, BipartiteHistPlan(2, 6, 2)) is not None
    with pytest.raises(PreconditionError):
        bipartite_hist(9, 9, BipartiteHistPlan(2, 6, 2))


def test_bipartite_hist_across_sizes():
    for a in (9, 12, 17, 25, 40):
        host = Graph.complete_bipartite(a, a)
        plans = list(feasible_bipartite_plans(a))
        assert plans
        for plan in plans[:15]:
            t = bipartite_hist(a, a, plan)
            assert is_hist(host, t), (a, plan)
            assert leaf_imbalance(t, a) == plan.imbalance
            assert max(t.degrees()) <= plan.block_bound + 1
            deg = t.degrees()
            assert sum(1 for v in range(a) if deg[v] >= 2) == plan.hub_count
            assert (
                sum(1 for v in range(a, 2 * a) if deg[v] >= 2)
                == plan.hub_count + plan.imbalance
            )


def test_bipartite_hist_rejects_unbalanced():
    with pytest.raises(PreconditionError):
        bipartite_hist(8, 9, BipartiteHistPlan(2, 6, 0))


# -- tripartite builder ----------------------------------------------------------


def test_tripartite_host_shape():
    h = tripartite_host(3, 4, 2)
    assert degree_between(h, VertexSetPair(range(3), range(3, 7)))[2] == 12
    assert degree_between(h, VertexSetPair(range(7, 9), range(3, 7)))[2] == 8
    assert degree_between(h, VertexSetPair(range(3), range(7, 9)))[2] == 0


def tripartite_checks(a, b, f, l, plan):
    tree, path = tripartite_hist(a, b, f, l, plan)
    host = tripartite_host(a, b, f)
    assert is_hist(host, tree)
    deg = tree.degrees()
    lb = sum(1 for v in range(a, a + b) if deg[v] == 1)
    laf = sum(
        1
        for v in list(range(a)) + list(range(a + b, a + b + f))
        if deg[v] == 1
    )
    assert lb == laf - l
    f_leaves = [v for v in range(a + b, a + b + f) if deg[v] == 1]
    if f_leaves:
        assert path, "companion path required when F keeps leaves"
    if path:
        assert len(set(path)) == len(path)
        assert a <= path[0] < a + b and path[-1] >= a + b
        for u, v in zip(path, path[1:]):
            assert host.has_edge(u, v)
        ff = [p for p in path if p >= a + b]
        bb = [p for p in path if a <= p < a + b]
        assert len(ff) == len(bb)
        assert set(ff) == set(f_leaves)
        for i, p in enumerate(path):
            assert (p >= a + b) == (i % 2 == 1)  # strict alternation
    return tree, path


def test_tripartite_cases():
    tripartite_checks(12, 12, 5, 4, TripartiteHistPlan(2, 8, 4))
    tripartite_checks(15, 20, 9, 0, TripartiteHistPlan(3, 7, 3))
    tripartite_checks(10, 12, 4, 0, TripartiteHistPlan(2, 6, 2))
    tree, path = tripartite_checks(10, 9, 1, 0, TripartiteHistPlan(2, 6, 1))
    assert path == ()  # F fully internal


def test_tripartite_rejects_excess_imbalance():
    # l' drops to zero when l swallows the surplus.
    err = tripartite_plan_error(12, 12, 5, 5, TripartiteHistPlan(2, 8, 4))
    assert err is not None
    with pytest.raises(PreconditionError):
        tripartite_hist(12, 12, 5, 5, TripartiteHistPlan(2, 8, 4))


# -- matching lower bound ---------------------------------------------------------


def test_matching_bound_examples():
    star = Graph.star(5)
    pack = matching_lower_bound(star)
    assert len(pack.stars) == 1
    pm = Graph(10, [(2 * i, 2 * i + 1) for i in range(5)])
    assert len(matching_lower_bound(pm).stars) == 5
    with pytest.raises(PreconditionError):
        matching_lower_bound(Graph.empty(3))


def test_matching_bound_random():
    rng = random.Random(33)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 31), rng.choice([0.15, 0.3, 0.6]))
        if g.edge_count == 0:
            continue
        pack = matching_lower_bound(g)
        assert verify_star_pack(g, pack, {c for c, _ in pack.stars})
        size = len(pack.stars)
        assert 2 * g.max_degree() * size >= g.edge_count
        assert size <= max_matching_size(g)


def test_matching_bound_is_the_set_greedy_matching():
    rng = random.Random(34)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 61), rng.choice([0.05, 0.2, 0.5, 0.8, 0.97]))
        if g.edge_count == 0:
            continue
        pack = matching_lower_bound(g)
        assert [(c, *sorted(tips)) for c, tips in pack.stars] == set_greedy_matching(g)


# -- exact star packs --------------------------------------------------------------


def test_star_pack_examples():
    k39 = Graph.complete_bipartite(3, 9)
    pack = star_pack(k39, set(range(3)), set(range(3, 12)), 3)
    assert pack is not None and verify_star_pack(k39, pack, {0, 1, 2})
    lopsided = Graph(3, [(0, 1)])
    assert star_pack(lopsided, {0}, {1, 2}, 2) is None
    single = Graph(2, [(0, 1)])
    pack = star_pack(single, {0}, {1}, 1)
    assert pack is not None and verify_star_pack(single, pack, {0})


def test_star_pack_long_augmenting_chain():
    # c_i sees t_i and t_(i+1); the last center sees only t_0, so its one
    # augmenting path reroutes every earlier center: 1500 levels deep.
    k = 1501
    edges = [(i, k + i) for i in range(k - 1)] + [(i, k + i + 1) for i in range(k - 1)]
    edges.append((k - 1, k))
    g = Graph(2 * k, edges)
    centers, tips = set(range(k)), set(range(k, 2 * k))
    pack = star_pack(g, centers, tips, 1)
    assert pack is not None and verify_star_pack(g, pack, centers)


def test_star_pack_is_none_exactly_when_no_flow_saturates_the_centers():
    rng = random.Random(36)
    for _ in range(400):
        n = rng.randrange(3, 15)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        order = rng.sample(range(n), n)
        split = rng.randrange(1, n)
        centers = set(order[: rng.randrange(1, split + 1)])
        tips = set(order[split:])
        arity = rng.randrange(1, 4)
        pack = star_pack(g, centers, tips, arity)
        assert (pack is not None) == star_pack_exists(g, centers, tips, arity)
        if pack is not None:
            assert verify_star_pack(g, pack, centers)


def test_star_pack_rejects_ids_outside_the_host():
    with pytest.raises(PreconditionError):
        star_pack(Graph.complete_bipartite(2, 2), {0, 7}, {2, 3}, 1)


def test_star_pack_boundary_degree_condition():
    # Exactly arity * |centers| tips reachable by everyone: must pack.
    k26 = Graph.complete_bipartite(2, 6)
    pack = star_pack(k26, {0, 1}, set(range(2, 8)), 3)
    assert pack is not None and verify_star_pack(k26, pack, {0, 1})


def test_star_pack_sufficient_condition_implication():
    rng = random.Random(34)
    for _ in range(40):
        nc = rng.randrange(1, 4)
        nt = rng.randrange(3 * nc, 3 * nc + 6)
        arity = rng.choice([1, 2, 3])
        edges = [
            (c, nc + t)
            for c in range(nc)
            for t in range(nt)
            if rng.random() < 0.7
        ]
        g = Graph(nc + nt, edges)
        centers = set(range(nc))
        tips = set(range(nc, nc + nt))
        if all(g.degree(c) >= arity * nc for c in centers):
            assert star_pack(g, centers, tips, arity) is not None


def test_star_pack_monotone_under_edge_addition():
    rng = random.Random(35)
    for _ in range(20):
        nc, nt, arity = 2, 7, rng.choice([2, 3])
        edges = [
            (c, nc + t) for c in range(nc) for t in range(nt) if rng.random() < 0.4
        ]
        g = Graph(nc + nt, edges)
        centers, tips = set(range(nc)), set(range(nc, nc + nt))
        before = star_pack(g, centers, tips, arity)
        missing = [
            (c, nc + t)
            for c in range(nc)
            for t in range(nt)
            if not g.has_edge(c, nc + t)
        ]
        if not missing:
            continue
        g2 = Graph(g.n, set(g.edges()) | set(missing[: len(missing) // 2 + 1]))
        after = star_pack(g2, centers, tips, arity)
        if before is not None:
            assert after is not None


# -- validation messages ---------------------------------------------------------


K8 = Graph.complete(8)
P3_TRACE = build_g_prime(Graph.path(3), 0, 2)[1]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: absorb_pair(K8, {0}, 0.1), "inside set too small"),
        (lambda: absorb_pair(K8, set(range(8)), 0.1), "outside set must be nonempty and even"),
        (lambda: dense_hist(Graph.cycle(4), DenseHistParams(0.4, 0)),
         "root degree too small for a star center"),
        (lambda: bipartite_hist(5, 5, BipartiteHistPlan(0, 3, 0)), "need hub_count >= 1"),
        (lambda: tripartite_hist(5, 9, 2, 0, TripartiteHistPlan(0, 4, 2)), "need hub_count >= 1"),
        (lambda: tripartite_hist(5, 9, 2, -1, TripartiteHistPlan(2, 4, 2)),
         "l must be nonnegative"),
        (lambda: tripartite_host(2, -1, 3), "part sizes must be nonnegative"),
        (lambda: tripartite_host(-3, 2, 1), "part sizes must be nonnegative"),
        (lambda: tripartite_host(1, 2, -1), "part sizes must be nonnegative"),
        (lambda: star_pack(K8, {0}, {0, 1}, 1), "centers and tip pool must be disjoint"),
        (lambda: star_pack(K8, {0}, {1, 2}, 0), "arity must be positive"),
        (lambda: build_g_double_prime(Graph.path(3), P3_TRACE),
         "graph does not match the stage-one trace"),
        (lambda: lift_certificate(P3_TRACE, (0, 0, 2)),
         "path must span the base graph exactly once"),
    ],
)
def test_builders_reject_inputs_outside_their_contract(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
