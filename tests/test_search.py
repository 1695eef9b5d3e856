import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halinlab.certify import is_generalized_halin, is_hist
from halinlab.errors import BudgetExhausted, PreconditionError
from halinlab.extremal import sharpness_instance
from halinlab.graph import (
    Graph,
    VertexSetPair,
    _bits,
    _reach,
    bipartition,
    iter_all_graphs,
    twin_masks,
    vertex_connectivity_at_least,
)
from halinlab.io_formats import parse_graph6
from halinlab.reduction import reduce_instance
from halinlab.search import (
    EXHAUSTIVE,
    UNBOUNDED,
    SearchBudget,
    MODES,
    _TreeSearch,
    _ham_walks,
    _leaf_balance_impossible,
    balanced_leaf_hist_exists,
    find_hist,
    find_sghg,
    ham_path_oracle,
)

from oracles import (
    blow_up,
    brute_ham_path,
    iter_hists,
    naive_sghg,
    random_graph,
    tree_degrees,
)

PETERSEN = Graph(
    10,
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ],
)

# 3K_2 joined to three vertices: twin classes {0, 1}, {2, 3}, {4, 5} and
# {6, 7, 8}, and no SGHG.
THREE_K2_JOIN_3 = Graph(
    9, [(0, 1), (2, 3), (4, 5)] + [(u, v) for u in range(6) for v in range(6, 9)]
)

# The 3-cube Q_3: vertices are 3-bit strings, adjacent when they differ in
# one bit.
CUBE = Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])


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


def test_time_limit_expires_as_unknown():
    # The full refutation of K_{5,7} takes 256,267 nodes, about a second rather
    # than the 0.05 s allowed; the deadline is read every 1,024 nodes.
    r = find_sghg(Graph.complete_bipartite(5, 7), SearchBudget(time_limit=0.05))
    assert (r.status, r.certificate, r.solution_count) == ("unknown", None, None)
    assert r.nodes > 0 and r.nodes % 1024 == 0


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
        # K_{a,b} and 3K_2 joined to three vertices, refuted with the orbit
        # exclusion on the exclude spine.
        (find_sghg, Graph.complete_bipartite(4, 5), UNBOUNDED, "none", 886, 0),
        (find_sghg, Graph.complete_bipartite(4, 6), UNBOUNDED, "none", 2_454, 0),
        (find_sghg, Graph.complete_bipartite(4, 7), UNBOUNDED, "none", 5_954, 0),
        (find_sghg, THREE_K2_JOIN_3, UNBOUNDED, "none", 2_948, 0),
        (find_sghg, Graph.complete(6), EXHAUSTIVE, "found", 2_492, 342),
        (find_hist, Graph.complete(5), EXHAUSTIVE, "found", 76, 5),
        (find_sghg, Graph.complete(7), UNBOUNDED, "found", 13, None),
        (find_hist, Graph.complete_bipartite(3, 4), UNBOUNDED, "found", 6, None),
        (find_sghg, Graph.complete_bipartite(4, 4), EXHAUSTIVE, "found", 1_291, 96),
        # K_5 minus the edge 0-4, reduced for the terminals 0 and 4: 17
        # vertices and 32 edges, where the P-degree rule cuts deep.
        (find_sghg, reduce_instance(parse_graph6(b"D~["), 0, 4)[0], UNBOUNDED,
         "found", 2_984, None),
        # Sparse cubic and 2-regular hosts, where HIST search lives on the
        # frozen-at-2 and exclusion dead-end rules.
        (find_hist, PETERSEN, EXHAUSTIVE, "found", 104, 10),
        (find_hist, CUBE, EXHAUSTIVE, "none", 63, 0),
        (find_hist, Graph.cycle(8), UNBOUNDED, "none", 4, 0),
        # Every HIST of K_{4,6}.  `balanced_leaf_hist_exists` used to walk
        # them all; the side degree count now refutes K_{4,6} first.
        (find_hist, Graph.complete_bipartite(4, 6), EXHAUSTIVE, "found", 36_701, 744),
    ],
    # Fixed ids: a re-pin changes the numbers, never the test names.
    ids=["sghg-K4,5", "sghg-K4,6", "sghg-K4,7", "sghg-3K2-join-3", "sghg-K6-exhaustive",
         "hist-K5-exhaustive", "sghg-K7", "hist-K3,4",
         "sghg-K4,4-exhaustive", "sghg-reduced-K5-minus-edge", "hist-petersen-exhaustive",
         "hist-Q3-exhaustive", "hist-C8", "hist-K4,6-exhaustive"],
)
def test_node_counts_are_pinned(solver, g, budget, status, nodes, count):
    r = solver(g, budget)
    assert (r.status, r.nodes, r.solution_count) == (status, nodes, count)


def test_reduction_corpus_node_totals_are_pinned():
    # Every labelled reduction instance on 3 and 4 vertices, every terminal
    # pair: (instances, found, total nodes).
    for n, pinned in ((3, (24, 6, 124)), (4, (384, 84, 8_748))):
        results = [
            find_sghg(reduce_instance(g, x, y)[0])
            for g in iter_all_graphs(n)
            for x, y in combinations(range(n), 2)
        ]
        assert (len(results), sum(r.found for r in results),
                sum(r.nodes for r in results)) == pinned


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
    with pytest.raises(PreconditionError, match="out of range"):
        ham_path_oracle(p4, 0, 4)


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


@st.composite
def masked_walks(draw):
    """A host on 2 to 9 vertices, a proper nonempty vertex subset, a start
    in it and, when the subset allows, either no end or an end in it."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, k in zip(pairs, keep) if k])
    within = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    start = draw(st.sampled_from(within))
    ends = [v for v in within if v != start]
    end = draw(st.one_of(st.none(), st.sampled_from(ends))) if ends else None
    return g, within, start, end


def _counted_walks(adj, within, start, end):
    ticks = []
    walks = list(_ham_walks(adj, within, start, end, lambda: ticks.append(None)))
    return walks, len(ticks)


@given(masked_walks())
@settings(max_examples=300, deadline=None)
def test_ham_walks_on_a_mask_match_the_induced_subgraph(case):
    # The reference re-numbers the subset into its own graph and maps each
    # walk back.  The re-numbering is monotone, so the start, the
    # smaller-neighbour-first order and the reflection rule all agree.
    g, within, start, end = case
    sub, ids = g.induced_subgraph(within)
    local = {v: i for i, v in enumerate(ids)}
    ref, ref_ticks = _counted_walks(
        sub._masks, (1 << sub.n) - 1, local[start], None if end is None else local[end]
    )
    mask = sum(1 << v for v in within)
    walks, ticks = _counted_walks(g._masks, mask, start, end)
    assert walks == [tuple(ids[j] for j in w) for w in ref], g.edges()
    assert ticks == ref_ticks


def _sides(a, b):
    """The sides of Graph.complete_bipartite(a, b), left first."""
    return VertexSetPair(range(a), range(a, a + b))


def _balanced_walk(g, left):
    """Is some HIST of g balanced on `left` and the rest?  Read off every
    HIST, with no side degree count: by plain enumeration up to 7
    vertices, by the tree search above that."""
    if g.n <= 7:
        trees = iter_hists(g)
    else:
        search = _TreeSearch(g, False, UNBOUNDED)
        search.found = True  # no orbit exclusion: every HIST is read
        trees = search.hists()
    for edges in trees:
        leaves = [v for v, d in enumerate(tree_degrees(g.n, edges)) if d == 1]
        if 2 * sum(1 for v in leaves if v in left) == len(leaves):
            return True
    return False


def test_balanced_leaf_hist_examples():
    # One vertex: the empty tree is a HIST with no leaves on either side.
    assert balanced_leaf_hist_exists(Graph(1, []), _sides(1, 0)) is True
    for a, b, balanced in [(1, 1, True), (1, 3, False), (2, 2, False),
                           (3, 4, False), (3, 3, True)]:
        g = Graph.complete_bipartite(a, b)
        assert balanced_leaf_hist_exists(g, bipartition(g)) is balanced, (a, b)
    # K_{3,3}'s answer comes from the walk: the count does not settle it.
    assert not _leaf_balance_impossible(3, 3)


def test_balanced_leaf_hist_agrees_with_the_walk_alone():
    # Every K_{a,b} with a + b <= 11, one side empty included, then random
    # bipartite hosts on sides drawn at random.
    hosts = [(Graph.complete_bipartite(a, n - a), set(range(a)))
             for n in range(12) for a in range(n + 1)]
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randrange(2, 11)
        left = {v for v in range(n) if rng.random() < 0.5}
        p = rng.choice([0.4, 0.7, 1.0])
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if (u in left) != (v in left) and rng.random() < p]
        hosts.append((Graph(n, edges), left))
    for g, left in hosts:
        sides = VertexSetPair(left, set(range(g.n)) - left)
        assert balanced_leaf_hist_exists(g, sides) is _balanced_walk(g, left), (
            g.n, sorted(left), g.edges())


def test_sharp_family_has_no_balanced_leaf_hist_by_search():
    # The count refutes these hosts before any walk; the walk alone still
    # confirms that none of their HISTs is balanced.
    for a, b in [(3, 4), (4, 5), (4, 6)]:
        assert _leaf_balance_impossible(a, b)
        g = Graph.complete_bipartite(a, b)
        search = _TreeSearch(g, False, UNBOUNDED)
        search.found = True  # no orbit exclusion: every HIST is read
        for _ in search.hists():
            leaves = search.leaf_set()
            assert 2 * sum(1 for v in leaves if v < a) != len(leaves), (a, b)
    # On K_{a,b} the count refutes exactly when 2b > 3(a - 1), the bound
    # `check_arithmetic` asserts, so it settles every sharpness instance.
    for a in range(2, 201):
        _, meta = sharpness_instance(a)
        assert _leaf_balance_impossible(meta.a, meta.b), a


def test_balanced_leaf_hist_budget_reaches_only_the_walk():
    starved = SearchBudget(node_limit=1, mode="canonical")
    # The count settles K_{4,7}: no walk, so no budget to run out of.
    assert balanced_leaf_hist_exists(Graph.complete_bipartite(4, 7), _sides(4, 7),
                                     starved) is False
    # It does not settle K_{3,3}, so the walk runs and hits the limit.
    with pytest.raises(BudgetExhausted):
        balanced_leaf_hist_exists(Graph.complete_bipartite(3, 3), _sides(3, 3), starved)


def test_balanced_leaf_hist_rejects_non_bipartition():
    g = Graph.complete(4)
    with pytest.raises(PreconditionError):
        balanced_leaf_hist_exists(g, VertexSetPair([0, 1], [2, 3]))
    with pytest.raises(PreconditionError, match="cover"):
        balanced_leaf_hist_exists(Graph.complete_bipartite(2, 3), VertexSetPair([0, 1], [2, 3]))


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
    # Each yield is a list of its own, not a view of the search's state:
    # read only once the traversal has ended, they still hold every HIST.
    search = _TreeSearch(g, False, EXHAUSTIVE)
    search.found = True
    trees = list(search.hists())
    assert sorted(tuple(sorted(t)) for t in trees) == sorted(expected)
    for cycle_mode in (False, True):
        for budget in (UNBOUNDED, EXHAUSTIVE):
            _check_traversal_restores(g, cycle_mode, budget)


def _check_traversal_restores(g, cycle_mode, budget):
    """Walk every HIST of g and check that each level's undo restored what
    it changed: a finished traversal leaves no tree degree and every host
    edge available.  In exhaustive mode `found` is set at the first HIST,
    as `_solve` does; otherwise the orbit rule stays on to the end, as in
    the balanced-leaf walk."""
    search = _TreeSearch(g, cycle_mode, budget)
    for _ in search.hists():
        search.found = budget.exhaustive
    assert search.tree == [0] * g.n, (cycle_mode, budget.mode, g.edges())
    assert search.avail == list(g._masks), (cycle_mode, budget.mode, g.edges())


def test_traversal_restores_the_state_on_twin_rich_hosts():
    # Orbit exclusions fire on these hosts, and each is undone when the
    # spine level that made it is left.
    for g in _twin_rich_hosts():
        for cycle_mode in (False, True):
            for mode in MODES:
                _check_traversal_restores(g, cycle_mode, SearchBudget(mode=mode))


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


def _leaf_cycle_rules(search, pot, com):
    """The leaf check with no P-degree rule, by a full rescan: at least 3
    potential leaves, side balance, and two potential-leaf neighbours for
    every committed leaf."""
    masks = search.g._masks
    side_a, side_b = search.sides
    return (
        pot.bit_count() >= 3
        and (com & side_a).bit_count() <= (pot & side_b).bit_count()
        and (com & side_b).bit_count() <= (pot & side_a).bit_count()
        and all((masks[x] & pot).bit_count() >= 2 for x in range(search.n) if com >> x & 1)
    )


def _sghg_without_p_rule(g, budget):
    """find_sghg with the P-degree rule switched off, root exit included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            _TreeSearch,
            "_leaves_ok",
            lambda self, pot, com, lost, suspects: _leaf_cycle_rules(self, pot, com),
        )
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


def _without_forcing(solver, g, budget):
    """solver with forced-edge propagation switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_forcing", False)
        return solver(g, budget)


def _check_forcing(solver, g, budget):
    ours = solver(g, budget)
    plain = _without_forcing(solver, g, budget)
    assert (ours.status, ours.certificate, ours.solution_count) == (
        plain.status, plain.certificate, plain.solution_count
    ), g.edges()
    assert ours.nodes <= plain.nodes, g.edges()
    if solver is find_hist and budget.exhaustive and g.n <= 7:
        assert ours.solution_count == len(list(iter_hists(g)))


@given(st.tuples(
    st.sampled_from([find_hist, find_sghg]),
    st.one_of(sghg_hosts(8, WITH_DENSE), reduced_hosts()),
    st.sampled_from([UNBOUNDED, EXHAUSTIVE]),
))
@settings(max_examples=200, deadline=None)
def test_forced_edges_cut_only_dead_branches(case):
    _check_forcing(*case)


def test_forced_edges_on_complete_bipartite_hosts():
    # Forced edges complete many HISTs here before the exclusions that
    # would commit their leaves, so SGHG search relies on the leaf check
    # before each walk: without it K_{3,4} took 61 nodes, against 42.
    for a in range(1, 5):
        for b in range(a, 7):
            for solver in (find_hist, find_sghg):
                for budget in (UNBOUNDED, EXHAUSTIVE):
                    _check_forcing(solver, Graph.complete_bipartite(a, b), budget)


def test_forcing_off_is_the_plain_search():
    # With propagation switched off, K_{4,5} and the Petersen graph take
    # the node counts pinned before it landed: the switch reaches the
    # kernel, and the rest of the search is as it was.  k5e's count is
    # that of the leaf-cycle check as it stands, with no component test;
    # K_{4,5}'s, 4,198 before, is that of the search with orbit exclusion.
    k5e = reduce_instance(parse_graph6(b"D~["), 0, 4)[0]
    for solver, g, budget, nodes in [
        (find_sghg, Graph.complete_bipartite(4, 5), UNBOUNDED, 1_868),
        (find_sghg, k5e, UNBOUNDED, 5_542),
        (find_hist, PETERSEN, EXHAUSTIVE, 201),
    ]:
        assert _without_forcing(solver, g, budget).nodes == nodes


def _exclusion_checks(solver, g, budget):
    """How many exclusion steps ask whether u still reaches v."""
    calls = 0
    check = _TreeSearch._joined

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return check(self, u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_joined", counted)
        solver(g, budget)
    return calls


def test_cycle_closing_exclusions_skip_the_connectivity_search():
    # An exclusion whose ends the included edges already join keeps `avail`
    # connected, so it runs no search.  Node counts cannot show the skip;
    # these call counts do (the root's whole-host check is not counted).
    # A spine exclusion asks once, after its whole orbit: on K_{4,5} the
    # one orbit step (19 edges) is cut by the degree rules before it asks,
    # where checking each orbit edge in turn took 5 searches.
    assert _exclusion_checks(find_sghg, Graph.complete_bipartite(4, 5), UNBOUNDED) == 594
    assert _exclusion_checks(find_sghg, Graph.complete(6), EXHAUSTIVE) == 381


def _with_whole_host_check(solver, g, budget):
    """solver with each exclusion step asking whether all of `avail` is
    still connected, and asserting that u reaches v iff it is."""
    local = _TreeSearch._joined

    def whole_host(self, u, v):
        connected = _reach(self.avail, 0, self.full) == self.full
        assert bool(local(self, u, v)) == connected, (g.edges(), u, v)
        return connected

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_joined", whole_host)
        return solver(g, budget)


def _twin_rich_hosts():
    """Hosts whose twin swaps generate many automorphisms: K_{a,b},
    blow-ups of paths, complete multipartite graphs, K_{a,b} with edges or
    a clique inside one side, 3K_2 joined to three vertices, and seeded
    blow-ups of small graphs into independent or clique classes."""
    hosts = [Graph.complete_bipartite(a, b)
             for a, b in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5))]
    hosts += [blow_up(Graph.path(5), (2, 1, 1, 3, 1)), blow_up(Graph.path(4), (1, 2, 3, 2))]
    hosts += [blow_up(Graph.complete(len(s)), s) for s in ((2, 2, 2), (1, 2, 3), (1, 1, 2, 3))]
    k35 = Graph.complete_bipartite(3, 5).edges()
    hosts += [Graph(8, k35 + [(0, 1)]), Graph(8, k35 + [(3, 4), (5, 6)]),
              blow_up(Graph.path(2), (3, 4), cliques={0})]
    hosts.append(THREE_K2_JOIN_3)
    rng = random.Random(30)
    while len(hosts) < 40:
        h = random_graph(rng, rng.randrange(2, 5), 0.6)
        sizes = [rng.randrange(1, 4) for _ in range(h.n)]
        if sum(sizes) <= 9:
            hosts.append(blow_up(h, sizes, {x for x in range(h.n) if rng.random() < 0.4}))
    return hosts


def _check_corpus():
    """(solver, host, budget) cases: seeded random hosts on 4 to 10
    vertices, the reduction instances of every host on 4 vertices, the
    twin-rich hosts in every mode, and K_{4,5}."""
    rng = random.Random(27)
    hosts = [random_graph(rng, n, p) for n in range(4, 11) for p in (0.3, 0.5, 0.7, 0.9)]
    cases = [
        (solver, g, budget)
        for g in hosts
        for solver in (find_hist, find_sghg)
        for budget in ((UNBOUNDED, EXHAUSTIVE) if g.n <= 7 else (UNBOUNDED,))
    ]
    cases += [
        (solver, reduce_instance(g, x, y)[0], UNBOUNDED)
        for g in iter_all_graphs(4)
        for x, y in combinations(range(4), 2)
        for solver in (find_hist, find_sghg)
    ]
    cases += [
        (solver, g, SearchBudget(mode=mode))
        for g in _twin_rich_hosts()
        for solver in (find_hist, find_sghg)
        for mode in MODES
        if mode != "exhaustive" or g.n <= 8
    ]
    k45 = Graph.complete_bipartite(4, 5)
    return cases + [(find_hist, k45, EXHAUSTIVE), (find_sghg, k45, UNBOUNDED)]


def test_exclusion_check_answers_as_the_whole_host_check():
    # `avail` is connected at the parent node, so after the exclusion of
    # (u, v) it is connected iff u still reaches v.
    for solver, g, budget in _check_corpus():
        ours = solver(g, budget)
        whole = _with_whole_host_check(solver, g, budget)
        assert (ours.status, ours.nodes, ours.certificate, ours.solution_count) == (
            whole.status, whole.nodes, whole.certificate, whole.solution_count
        ), g.edges()


def _with_full_leaf_check(g, budget, answers):
    """find_sghg with each leaf check answered by a full rescan, every
    committed leaf's two neighbours and every vertex's P-degree, asserting
    that the incremental check gives the same answer; each answer is
    added to `answers`."""
    local = _TreeSearch._leaves_ok

    def full(self, pot, com, lost, suspects):
        masks, avail = self.g._masks, self.avail
        answer = _leaf_cycle_rules(self, pot, com) and all(
            (avail[x] | (masks[x] & pot if pot >> x & 1 else 0)).bit_count() >= 3
            for x in range(self.n)
        )
        assert local(self, pot, com, lost, suspects) == answer, (g.edges(), pot, com)
        answers.add(answer)
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_leaves_ok", full)
        return find_sghg(g, budget)


def test_leaf_check_answers_as_the_full_check():
    # P only shrinks going down the tree and the parent node passed the
    # check, so only the vertices that lost a potential neighbour or an
    # `avail` edge, or were just committed, can newly fail it.
    answers = set()
    for solver, g, budget in _check_corpus():
        if solver is not find_sghg:
            continue
        ours = find_sghg(g, budget)
        full = _with_full_leaf_check(g, budget, answers)
        assert (ours.status, ours.nodes, ours.certificate, ours.solution_count) == (
            full.status, full.nodes, full.certificate, full.solution_count
        ), g.edges()
    assert answers == {False, True}


def _without_orbits(run):
    """run() with the spine's orbit exclusion switched off: every vertex
    its own twin class, so no orbit holds more than the level's own edge."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("halinlab.search.twin_masks", lambda g: [1 << v for v in range(g.n)])
        return run()


def _with_tree_in_avail(run):
    """run() asserting at every node that each tree edge is still
    available: the level scan never picks an excluded edge, and no orbit
    exclusion takes a tree edge."""
    tick = _TreeSearch.tick

    def checked(self):
        assert all(t & ~a == 0 for t, a in zip(self.tree, self.avail)), self.g.edges()
        tick(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "tick", checked)
        return run()


def test_orbit_exclusion_cuts_only_dead_branches():
    # A spine level's failed include subtree puts its edge in no solution,
    # and so every edge of its orbit: status, certificate and count stay.
    cut = False
    for solver, g, budget in _check_corpus():
        ours = _with_tree_in_avail(lambda: solver(g, budget))
        plain = _without_orbits(lambda: solver(g, budget))
        assert (ours.status, ours.certificate, ours.solution_count) == (
            plain.status, plain.certificate, plain.solution_count
        ), (solver.__name__, budget.mode, g.edges())
        assert ours.nodes <= plain.nodes, (solver.__name__, budget.mode, g.edges())
        cut = cut or ours.nodes < plain.nodes
    assert cut


def _swapped(masks, x, y):
    """Neighbour masks `masks` with vertices x and y exchanged."""
    out = list(masks)
    out[x], out[y] = out[y], out[x]
    flip = 1 << x | 1 << y
    return [m ^ flip if (m >> x ^ m >> y) & 1 else m for m in out]


def test_spine_state_is_invariant_under_twin_swaps():
    # A spine step excludes its edge's whole orbit, and forcing then runs
    # to a fixpoint that does not depend on the order of its steps.  So at
    # every orbit call `tree` and `avail` are invariant under each twin
    # swap: no orbit edge is in the tree, and one reach from u tells
    # whether `avail` stays connected after the whole orbit.
    orbit = _TreeSearch._orbit
    calls = fired = 0

    def checked(self, u, v):
        nonlocal calls, fired
        for x, y in swaps:
            assert _swapped(self.tree, x, y) == self.tree, (g.edges(), u, v, x, y)
            assert _swapped(self.avail, x, y) == self.avail, (g.edges(), u, v, x, y)
        drop = orbit(self, u, v)
        calls += 1
        fired += bool(drop)
        return drop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "_orbit", checked)
        for solver, g, budget in _check_corpus():
            classes = {c for c in twin_masks(g) if c & c - 1}
            swaps = [p for c in classes for p in combinations(_bits(c), 2)]
            solver(g, budget)
    assert fired and calls > fired


def _balanced_nodes(g, sides):
    """balanced_leaf_hist_exists(g, sides) and the nodes its walk took."""
    nodes = 0
    tick = _TreeSearch.tick

    def counted(self):
        nonlocal nodes
        nodes += 1
        tick(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TreeSearch, "tick", counted)
        return balanced_leaf_hist_exists(g, sides), nodes


def test_balanced_leaf_walk_keeps_its_answer_with_orbit_exclusion():
    # Twins of a connected bipartite host lie on one side, so a twin swap
    # keeps a HIST's leaf balance.  Blow-ups of small bipartite graphs into
    # independent classes that the side count does not settle.
    small = [Graph.path(3), Graph.path(4), Graph.path(5), Graph.cycle(4),
             Graph.cycle(6), Graph.star(3)]
    rng = random.Random(31)
    cut = False
    answers = []
    while len(answers) < 40:
        h = rng.choice(small)
        g = blow_up(h, [rng.randrange(1, 4) for _ in range(h.n)])
        sides = bipartition(g)
        if g.n > 9 or _leaf_balance_impossible(len(sides.left), len(sides.right)):
            continue
        ours, nodes = _balanced_nodes(g, sides)
        plain, plain_nodes = _without_orbits(lambda: _balanced_nodes(g, sides))
        assert ours is plain, g.edges()
        if g.n <= 7:
            assert ours is _balanced_walk(g, sides.left), g.edges()
        assert nodes <= plain_nodes, g.edges()
        cut = cut or nodes < plain_nodes
        answers.append(ours)
    assert cut and set(answers) == {False, True}


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
