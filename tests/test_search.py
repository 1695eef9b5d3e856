import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halinlab.certify import is_generalized_halin, is_hist
from halinlab.errors import BudgetExhausted, PreconditionError
from halinlab.graph import (
    Graph,
    VertexSetPair,
    bipartition,
    iter_all_graphs,
    vertex_connectivity_at_least,
)
from halinlab.io_formats import parse_graph6
from halinlab.reduction import reduce_instance
from halinlab.search import (
    EXHAUSTIVE,
    UNBOUNDED,
    SearchBudget,
    _TreeSearch,
    balanced_leaf_hist_exists,
    find_hist,
    find_sghg,
    ham_path_oracle,
)

from oracles import brute_ham_path, iter_hists, naive_sghg, random_graph

PETERSEN = Graph(
    10,
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ],
)


def test_find_hist_examples():
    assert find_hist(Graph.cycle(5)).status == "none"
    r = find_hist(Graph.complete(4))
    assert r.found and r.certificate.edges == frozenset({(0, 1), (0, 2), (0, 3)})
    r = find_hist(Graph.complete_bipartite(3, 4))
    assert r.found and is_hist(Graph.complete_bipartite(3, 4), r.certificate)


def test_find_hist_canonical_is_lex_least():
    g = Graph.complete(5)
    r = find_hist(g, SearchBudget(mode="canonical"))
    assert sorted(r.certificate.edges) == min(
        sorted(t) for t in iter_hists(g)
    )


def test_find_sghg_examples():
    k4 = Graph.complete(4)
    r = find_sghg(k4)
    assert r.found and is_generalized_halin(k4, r.certificate)
    assert find_sghg(Graph.complete_bipartite(3, 4)).status == "none"
    k7 = Graph.complete(7)
    r = find_sghg(k7)
    assert r.found and is_generalized_halin(k7, r.certificate)


def test_sghg_found_implies_hist_found():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(4, 9), 0.6)
        if find_sghg(g).found:
            assert find_hist(g).found


def test_budget_unknown_is_distinct():
    k7 = Graph.complete(7)
    starved = find_sghg(k7, SearchBudget(node_limit=1))
    assert starved.status == "unknown"
    assert find_sghg(k7, SearchBudget(node_limit=10**7)).found


def test_budget_monotonicity():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, 7, 0.5)
        final = find_sghg(g)
        assert final.status in ("found", "none")
        for limit in (1, 10, 100, 1000, 10**8):
            partial = find_sghg(g, SearchBudget(node_limit=limit, mode="first"))
            assert partial.status in ("unknown", final.status)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"node_limit": 0},
        {"node_limit": -5},
        {"time_limit": 0},
        {"time_limit": -1.0},
        {"time_limit": float("nan")},
        {"time_limit": float("inf")},
        {"mode": "fastest"},
    ],
)
def test_budget_rejects_invalid_values(kwargs):
    with pytest.raises(PreconditionError):
        SearchBudget(**kwargs)


def test_budget_accepts_every_mode_string():
    modes = ["first", "canonical", "exhaustive"]
    assert [SearchBudget(mode=m).exhaustive for m in modes] == [False, False, True]
    for alias in ("canonical-first", "exhaustive-count"):
        with pytest.raises(PreconditionError):
            SearchBudget(mode=alias)


def test_budget_overrun_reports_no_partial_count():
    k7 = Graph.complete(7)
    partial = find_hist(k7, SearchBudget(node_limit=2000, mode="exhaustive"))
    assert partial.found and partial.solution_count is None
    assert is_hist(k7, partial.certificate)
    assert find_hist(k7, EXHAUSTIVE).solution_count == 427


# Node counts of the lexicographic search; a change to the branching order,
# the pruning or the leaf-cycle kernel's ticks moves them.
@pytest.mark.parametrize(
    "solver, g, budget, status, nodes, count",
    [
        (find_sghg, Graph.complete_bipartite(4, 5), UNBOUNDED, "none", 4_198, 0),
        (find_sghg, Graph.complete(6), EXHAUSTIVE, "found", 2_783, 342),
        (find_hist, Graph.complete(5), EXHAUSTIVE, "found", 131, 5),
        (find_sghg, Graph.complete(7), UNBOUNDED, "found", 13, None),
        (find_hist, Graph.complete_bipartite(3, 4), UNBOUNDED, "found", 10, None),
        (find_sghg, Graph.complete_bipartite(4, 4), EXHAUSTIVE, "found", 1_958, 96),
        # K_5 minus the edge 0-4, reduced for the terminals 0 and 4: 17
        # vertices and 32 edges, where the P-degree rule cuts deep.
        (find_sghg, reduce_instance(parse_graph6(b"D~["), 0, 4)[0], UNBOUNDED,
         "found", 5_091, None),
    ],
    # Fixed ids: a re-pin changes the numbers, never the test names.
    ids=["sghg-K4,5", "sghg-K6-exhaustive", "hist-K5-exhaustive", "sghg-K7", "hist-K3,4",
         "sghg-K4,4-exhaustive", "sghg-reduced-K5-minus-edge"],
)
def test_node_counts_are_pinned(solver, g, budget, status, nodes, count):
    r = solver(g, budget)
    assert (r.status, r.nodes, r.solution_count) == (status, nodes, count)


def test_large_inputs_stay_clear_of_the_recursion_limit():
    star = Graph.star(1500)
    r = find_hist(star)
    assert r.found and r.certificate.edges == frozenset(star.edges())
    assert ham_path_oracle(Graph.path(1500), 0, 1499) == tuple(range(1500))


def test_ham_path_oracle_examples():
    p4 = Graph.path(4)
    assert ham_path_oracle(p4, 0, 3) == (0, 1, 2, 3)
    assert ham_path_oracle(p4, 0, 2) is None
    star = Graph.star(3)
    assert ham_path_oracle(star, 1, 2) is None
    with pytest.raises(PreconditionError):
        ham_path_oracle(p4, 1, 1)


def test_ham_path_oracle_honours_its_budget():
    k36 = Graph.complete_bipartite(3, 6)  # no path between 0 and 1
    with pytest.raises(BudgetExhausted):
        ham_path_oracle(k36, 0, 1, SearchBudget(node_limit=10))
    assert ham_path_oracle(k36, 0, 1, SearchBudget(node_limit=10**6)) is None


def test_ham_path_oracle_on_petersen_adjacent_pair():
    # Computed by the oracle itself and frozen: the Petersen graph has no
    # Hamiltonian path between adjacent vertices (else a ham cycle).
    assert PETERSEN.has_edge(0, 1)
    assert ham_path_oracle(PETERSEN, 0, 1) is None
    # It is traceable though: some nonadjacent pair carries a path.
    assert ham_path_oracle(PETERSEN, 0, 7) is not None


def test_ham_path_oracle_against_permutations():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        x, y = rng.sample(range(n), 2)
        ours = ham_path_oracle(g, x, y)
        brute = brute_ham_path(g, x, y)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert sorted(ours) == list(range(n))
            assert ours[0] == x and ours[-1] == y
            assert all(g.has_edge(a, b) for a, b in zip(ours, ours[1:]))


def test_balanced_leaf_hist_examples():
    k34 = Graph.complete_bipartite(3, 4)
    assert balanced_leaf_hist_exists(k34, bipartition(k34)) is False
    k33 = Graph.complete_bipartite(3, 3)
    assert balanced_leaf_hist_exists(k33, bipartition(k33)) is True
    k22 = Graph.complete_bipartite(2, 2)
    assert balanced_leaf_hist_exists(k22, bipartition(k22)) is False


def test_balanced_leaf_hist_rejects_non_bipartition():
    g = Graph.complete(4)
    with pytest.raises(PreconditionError):
        balanced_leaf_hist_exists(g, VertexSetPair([0, 1], [2, 3]))


def test_exhaustive_agrees_with_naive_oracle_small():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.9]))
        ours = find_sghg(g)
        naive = naive_sghg(g)
        assert ours.found == (naive is not None), g.edges()
        if ours.found:
            assert is_generalized_halin(g, ours.certificate)


HOST_KINDS = (("any", 2), ("sparse", 3), ("bipartite", 1))
WITH_DENSE = (*HOST_KINDS, ("dense", 1))


@st.composite
def sghg_hosts(draw, max_n=8, kinds=HOST_KINDS):
    """Hosts on at most max_n vertices: arbitrary ones (about half the
    pairs), sparse ones (about a quarter), where vertices of degree at most
    2 are common, dense bipartite ones (about three quarters of the pairs
    across a drawn split) and, if asked for, dense ones (about three
    quarters of all pairs)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind, cut = draw(st.sampled_from(kinds))
    split = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if kind != "bipartite" or u < split <= v
    ]
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k >= cut])


@given(sghg_hosts(7, WITH_DENSE))
@settings(max_examples=200, deadline=None)
def test_find_hist_matches_tree_enumeration_oracle(g):
    expected = list(iter_hists(g))
    got = find_hist(g, EXHAUSTIVE)
    if expected:
        assert got.found
        assert got.solution_count == len(expected), g.edges()
        assert tuple(sorted(got.certificate.edges)) == min(expected)
    else:
        assert got.status == "none"


@given(sghg_hosts())
@settings(max_examples=200, deadline=None)
def test_find_sghg_agrees_with_naive_oracle(g):
    ours = find_sghg(g)
    assert ours.found == (naive_sghg(g) is not None), g.edges()
    if ours.found:
        assert is_generalized_halin(g, ours.certificate)


@st.composite
def reduced_hosts(draw):
    """Reduction instances of hosts on 4 vertices, any terminal pair."""
    pairs = list(combinations(range(4), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    x, y = draw(st.sampled_from(pairs))
    return reduce_instance(Graph(4, edges), x, y)[0]


def _sghg_without_p_rule(g, budget):
    """find_sghg with the P-degree rule switched off, root exit included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_p_degrees_ok", lambda self, pot, lost, suspects: True)
        return find_sghg(g, budget)


# Dense hosts on 8 or 9 vertices have too many SGHGs to count them all.
@given(st.one_of(
    st.tuples(sghg_hosts(9, WITH_DENSE), st.just(UNBOUNDED)),
    st.tuples(st.one_of(sghg_hosts(7, WITH_DENSE), reduced_hosts()),
              st.sampled_from([UNBOUNDED, EXHAUSTIVE])),
))
@settings(max_examples=200, deadline=None)
def test_p_degree_rule_cuts_only_dead_branches(case):
    g, budget = case
    ours = find_sghg(g, budget)
    plain = _sghg_without_p_rule(g, budget)
    assert (ours.status, ours.certificate, ours.solution_count) == (
        plain.status, plain.certificate, plain.solution_count
    ), g.edges()
    assert ours.nodes <= plain.nodes


@given(sghg_hosts(9, WITH_DENSE))
@settings(max_examples=150, deadline=None)
def test_sghg_union_is_3_connected(g):
    # The fact the P-degree rule rests on: from n = 4 on, T ∪ C is
    # 3-connected, so every vertex has at least 3 edges in it.
    r = find_sghg(g)
    if g.n >= 4 and r.found:
        cycle = r.certificate.leaf_cycle
        ring = zip(cycle, cycle[1:] + cycle[:1])
        union = Graph(g.n, set(r.certificate.tree.edges) | {tuple(sorted(e)) for e in ring})
        assert vertex_connectivity_at_least(union, 3), g.edges()


def test_low_degree_vertex_refutes_at_the_root():
    k5 = Graph.complete(5).edges()
    pendant = Graph(6, k5 + [(0, 5)])
    wedge = Graph(6, k5 + [(0, 5), (1, 5)])
    for g in (pendant, wedge):
        for mode in ("first", "canonical", "exhaustive"):
            r = find_sghg(g, SearchBudget(mode=mode))
            assert (r.status, r.nodes, r.solution_count) == ("none", 0, 0)
    # An SGHG has at least four vertices, so a smaller host is refuted at
    # the root whether or not the rule is on.
    for n in range(4):
        for g in iter_all_graphs(n):
            for budget in (UNBOUNDED, EXHAUSTIVE):
                r = find_sghg(g, budget)
                plain = _sghg_without_p_rule(g, budget)
                assert (r.status, r.nodes, r.solution_count) == ("none", 0, 0)
                assert (r.nodes, r.solution_count) == (plain.nodes, plain.solution_count)


def iter_nonisomorphic(n):
    from itertools import permutations

    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    seen = set()
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        orbit = set()
        for perm in permutations(range(n)):
            m = 0
            for u, v in edges:
                pu, pv = perm[u], perm[v]
                m |= 1 << index[(pu, pv) if pu < pv else (pv, pu)]
            orbit.add(m)
        seen |= orbit
        yield Graph(n, edges)


def test_exhaustive_agrees_with_naive_oracle_nonisomorphic():
    counts = {3: 4, 4: 11, 5: 34}
    for n, expected_graphs in counts.items():
        graphs = list(iter_nonisomorphic(n))
        assert len(graphs) == expected_graphs
        for g in graphs:
            assert find_sghg(g).found == (naive_sghg(g) is not None), g.edges()


def test_bipartite_balance_of_found_certificates():
    rng = random.Random(8)
    hits = 0
    for _ in range(200):
        a = rng.randrange(2, 5)
        b = rng.randrange(2, 5)
        g = random_graph(rng, a + b, 0.0)
        keep = [
            (u, a + v)
            for u in range(a)
            for v in range(b)
            if rng.random() < 0.9
        ]
        g = Graph(a + b, keep)
        sides = bipartition(g)
        if sides is None:
            continue
        r = find_sghg(g)
        if not r.found:
            continue
        hits += 1
        leaves = r.certificate.tree.leaves()
        assert len(leaves & sides.left) == len(leaves & sides.right)
    assert hits >= 3  # the corpus really exercised the property


def test_tiny_hosts():
    assert find_hist(Graph.empty(0)).status == "none"
    assert find_hist(Graph.empty(1)).found
    assert find_hist(Graph(2, [(0, 1)])).found
    assert find_sghg(Graph(2, [(0, 1)])).status == "none"
    assert find_sghg(Graph.complete(3)).status == "none"
    assert find_hist(Graph.complete(3)).status == "none"
