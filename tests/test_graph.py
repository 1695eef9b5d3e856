import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halinlab.errors import PreconditionError
from halinlab.gadgets import InsertionInstance
from halinlab.graph import (
    Graph,
    VertexSetPair,
    _reach,
    bipartition,
    colour_classes,
    degree_between,
    edge_inside,
    twin_masks,
    vertex_connectivity,
    vertex_connectivity_at_least,
)
from halinlab.hamiltonicity import moon_moser_cycle
from halinlab.search import balanced_leaf_hist_exists

from oracles import blow_up, cut_connectivity_at_least, random_graph, to_networkx


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@st.composite
def edge_lists(draw, max_n=9):
    """(n, edges) of a simple graph, edges in shuffled order and each pair
    in either orientation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


def test_rejects_bad_edges():
    # Each edge is checked for range, then self-loop, then repetition; the
    # first bad edge decides the message.
    cases = [
        (3, [(0, 0)], "self-loop at vertex 0"),
        (3, [(0, 3)], "edge (0,3) out of range for n=3"),
        (3, [(-1, 2)], "edge (-1,2) out of range for n=3"),
        (3, [(3, 3)], "edge (3,3) out of range for n=3"),
        (3, [(0, 1), (1, 0)], "duplicate edge (0, 1)"),
        (3, [(2, 1), (0, 2), (1, 2)], "duplicate edge (1, 2)"),
        (3, [(1, 1), (0, 5)], "self-loop at vertex 1"),
        (3, [(0, 1), (0, 1), (0, 7)], "duplicate edge (0, 1)"),
        (-1, [], "vertex count must be nonnegative"),
    ]
    for n, edges, message in cases:
        with pytest.raises(PreconditionError) as err:
            Graph(n, edges)
        assert str(err.value) == message
    with pytest.raises(PreconditionError, match="^cycle needs at least 3 vertices$"):
        Graph.cycle(2)
    # A negative size raises rather than building some other graph.
    for build, message in [
        (lambda: Graph.complete(-1), "vertex count must be nonnegative"),
        (lambda: Graph.empty(-1), "vertex count must be nonnegative"),
        (lambda: Graph.path(-1), "vertex count must be nonnegative"),
        (lambda: Graph.complete_bipartite(-1, 3), "side sizes must be nonnegative"),
        (lambda: Graph.complete_bipartite(3, -1), "side sizes must be nonnegative"),
        (lambda: Graph.star(-1), "leaf count must be nonnegative"),
    ]:
        with pytest.raises(PreconditionError) as err:
            build()
        assert str(err.value) == message


@given(edge_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_queries_match_a_set_of_pairs(case, data):
    n, edges = case
    g = Graph(n, edges)
    pairs = {(min(e), max(e)) for e in edges}
    assert g.edges() == sorted(pairs)
    assert g.edge_count == len(pairs)
    nbrs = [{w for e in pairs if v in e for w in e if w != v} for v in range(n)]
    for v in range(n):
        assert g.neighbors(v) == nbrs[v] and isinstance(g.neighbors(v), frozenset)
        assert g.neighbor_mask(v) == sum(1 << w for w in nbrs[v])
        assert g.degree(v) == len(nbrs[v])
    assert g.min_degree() == min(map(len, nbrs), default=0)
    assert g.max_degree() == max(map(len, nbrs), default=0)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) is ((min(u, v), max(u, v)) in pairs)
    keep = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    sub, mapping = g.induced_subgraph(keep)
    assert mapping == sorted(keep)
    index = {v: i for i, v in enumerate(mapping)}
    assert sub.n == len(keep) and sub.edges() == sorted(
        (index[u], index[v]) for u, v in pairs if u in keep and v in keep
    )
    same = Graph(n, [(v, u) for u, v in reversed(edges)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(n + 1, edges)
    if edges:
        assert g != Graph(n, edges[1:])
        u, v = edges[0]
        message = rf"^duplicate edge \({min(u, v)}, {max(u, v)}\)$"
        with pytest.raises(PreconditionError, match=message):
            Graph(n, edges + [(v, u)])


def test_basic_queries():
    g = Graph.complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count == 6
    assert g.degree(0) == 3 and g.degree(2) == 2
    assert g.neighbors(0) == frozenset({2, 3, 4})
    assert not g.has_edge(0, 1)
    assert g.has_edge(4, 1)


@pytest.mark.parametrize("v", [-1, -5, 5, 99])
@pytest.mark.parametrize("query", ["degree", "neighbors", "neighbor_mask"])
def test_vertex_queries_reject_ids_outside_the_host(query, v):
    # A negative id would otherwise index from the end: degree(-1) was
    # the degree of vertex 4.
    g = Graph.complete_bipartite(2, 3)
    with pytest.raises(IndexError, match=rf"^vertex {v} out of range for n=5$"):
        getattr(g, query)(v)


def test_induced_subgraph_relabels():
    g = Graph.cycle(5)
    sub, mapping = g.induced_subgraph([1, 2, 4])
    assert mapping == [1, 2, 4]
    assert sub.edge_count == 1 and sub.has_edge(0, 1)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_degree_between_complete():
    g = Graph.complete(4)
    assert degree_between(g, VertexSetPair([0, 1], [2, 3])) == (2, 2, 4)


def test_degree_between_edgeless():
    g = Graph.empty(4)
    assert degree_between(g, VertexSetPair([0, 1], [2, 3])) == (0, 0, 0)


def test_degree_between_bipartite_sides():
    g = Graph.complete_bipartite(3, 4)
    a, b = range(3), range(3, 7)
    assert degree_between(g, VertexSetPair(a, b)) == (4, 4, 12)
    assert degree_between(g, VertexSetPair(b, a)) == (3, 3, 12)


def test_degree_between_rejects_overlap():
    g = Graph.complete(4)
    with pytest.raises(PreconditionError):
        VertexSetPair([0, 1], [1, 2])
    with pytest.raises(PreconditionError):
        degree_between(g, VertexSetPair([0], [9]))


def test_connectivity_examples():
    assert vertex_connectivity_at_least(Graph.complete(4), 3)
    assert not vertex_connectivity_at_least(Graph.path(3), 2)
    assert vertex_connectivity_at_least(Graph.complete_bipartite(3, 4), 3)
    assert not vertex_connectivity_at_least(Graph.complete_bipartite(3, 4), 4)
    with pytest.raises(PreconditionError, match="^k must be nonnegative$"):
        vertex_connectivity_at_least(Graph.complete(4), -1)


def test_connectivity_conventions():
    assert vertex_connectivity(Graph.empty(0)) == 0
    assert vertex_connectivity(Graph.empty(1)) == 0
    assert vertex_connectivity(Graph.complete(5)) == 4
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_connectivity_monotone_in_k():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        values = [vertex_connectivity_at_least(g, k) for k in range(g.n + 2)]
        assert values == sorted(values, reverse=True)


def test_connectivity_against_cut_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        for k in range(0, n + 1):
            assert vertex_connectivity_at_least(g, k) == cut_connectivity_at_least(
                g, k
            ), (g.edges(), n, k)


@given(graphs(max_n=10))
@settings(max_examples=80, deadline=None)
def test_connectivity_matches_the_cut_oracle(g):
    for k in range(g.n + 2):
        assert vertex_connectivity_at_least(g, k) == cut_connectivity_at_least(g, k)


def test_reach_stops_once_it_has_seen_the_stop_mask():
    rng = random.Random(27)
    for _ in range(300):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.random())
        start = rng.randrange(n)
        within = rng.getrandbits(n) | 1 << start
        inside = to_networkx(g).subgraph(v for v in range(n) if within >> v & 1)
        reach = sum(1 << v for v in nx.node_connected_component(inside, start))
        # The default stop mask is `within`: the whole reach.
        assert _reach(g._masks, start, within) == reach
        # Only `start`: nothing to search.
        assert _reach(g._masks, start, within, 1 << start) == 1 << start
        # Bits outside `within` are never seen, so the search runs to the end.
        outside = rng.getrandbits(n + 1) & ~within | 1 << n
        assert _reach(g._masks, start, within, rng.getrandbits(n) | outside) == reach
        stop = rng.getrandbits(n) & within
        got = _reach(g._masks, start, within, stop)
        assert got >> start & 1 and got & ~reach == 0, (g.edges(), start, within, stop)
        assert got == reach if stop & ~reach else stop & ~got == 0
    # It stops at the first level that sees the stop mask: on a path from
    # 0, one step to reach 1.
    path = Graph.path(10)
    assert _reach(path._masks, 0, (1 << 10) - 1, 1 << 1) == 0b11


@st.composite
def dense_hosts(draw):
    """K_n minus a sparse edge set, n from 5 to 12: most non-adjacent pairs
    keep many common neighbours, so the common-neighbour acceptance fires."""
    n = draw(st.integers(min_value=5, max_value=12))
    pairs = list(combinations(range(n), 2))
    removed = draw(st.sets(st.sampled_from(pairs), max_size=n))
    return Graph(n, [p for p in pairs if p not in removed])


@given(dense_hosts())
@settings(max_examples=15, deadline=None)
def test_common_neighbour_acceptance_matches_the_cut_oracle(g):
    expected = True
    for k in range(g.n + 2):
        # The oracle's answer stays False once a cut of size < k is found.
        expected = expected and cut_connectivity_at_least(g, k)
        assert vertex_connectivity_at_least(g, k) == expected


def test_two_cliques_through_two_hubs_are_2_connected_only():
    # Two K_6 on 0-5 and 6-11; the hubs 12 and 13 are adjacent to every
    # other vertex.  Each cross pair has exactly the two hubs in common,
    # and deleting both hubs separates the cliques.
    g = Graph(14, [(u, v) for u, v in combinations(range(14), 2)
                   if v >= 12 or (u < 6) == (v < 6)])
    assert g.min_degree() == 7
    assert vertex_connectivity_at_least(g, 2)
    assert not vertex_connectivity_at_least(g, 3)


def test_bipartition_examples():
    g = Graph.complete_bipartite(3, 4)
    pair = bipartition(g)
    assert {len(pair.left), len(pair.right)} == {3, 4}
    assert bipartition(Graph.complete(3)) is None
    pair = bipartition(Graph.cycle(6))
    assert len(pair.left) == len(pair.right) == 3


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_bipartition_puts_each_components_lowest_vertex_left(g):
    """A connected bipartite graph has one 2-colouring up to swapping the
    sides, so this pins the output down."""
    pair = bipartition(g)
    h = to_networkx(g)
    assert (pair is None) == (not nx.is_bipartite(h))
    assert (colour_classes(g) is None) == (pair is None)
    if pair is None:
        return
    left, right = colour_classes(g)
    assert pair == VertexSetPair(
        [v for v in range(g.n) if left >> v & 1], [v for v in range(g.n) if right >> v & 1]
    )
    assert edge_inside(g, pair.left, pair.right) is None
    assert all(min(component) in pair.left for component in nx.connected_components(h))


@given(graphs(max_n=10), st.lists(st.integers(0, 2), min_size=10, max_size=10))
@settings(max_examples=150, deadline=None)
def test_edge_inside_is_the_first_edge_within_a_part(g, labels):
    parts = [{v for v in range(g.n) if labels[v] == k} for k in range(3)]
    expected = next(
        (e for e in g.edges() if any(e[0] in p and e[1] in p for p in parts)), None
    )
    assert edge_inside(g, *parts) == expected
    assert edge_inside(g, parts[0]) == next(
        (e for e in g.edges() if set(e) <= parts[0]), None
    )


def test_each_caller_names_the_first_edge_inside_a_side():
    k4 = Graph.complete(4)
    pair = VertexSetPair([0, 3], [1, 2])
    with pytest.raises(PreconditionError, match="^edge 0-3 inside one side$"):
        moon_moser_cycle(k4, pair)
    with pytest.raises(PreconditionError, match="^edge 0-3 inside one partition side$"):
        balanced_leaf_hist_exists(k4, pair)
    with pytest.raises(PreconditionError, match="^edge 1-2 inside one class of the instance$"):
        InsertionInstance(k4, (0,), (1, 2), (3,))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_bipartition_has_no_internal_edges(g):
    pair = bipartition(g)
    if pair is None:
        return
    assert pair.left | pair.right == set(range(g.n))
    for side in (pair.left, pair.right):
        if side:
            assert degree_between(g, VertexSetPair(side, set(range(g.n)) - side))[
                2
            ] == g.edge_count
    for u, v in g.edges():
        assert (u in pair.left) != (v in pair.left)


@st.composite
def blow_ups(draw):
    """A graph on at most 4 vertices with each vertex blown up into a class
    of 1 to 3 independent or adjacent twins."""
    h = draw(graphs(4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=h.n, max_size=h.n))
    cliques = draw(st.sets(st.integers(0, max(0, h.n - 1)), max_size=h.n))
    return blow_up(h, sizes, cliques)


@given(st.one_of(graphs(), blow_ups()))
@settings(max_examples=200, deadline=None)
def test_twin_classes_match_a_pair_check(g):
    # u and v are twins iff N(u) - v == N(v) - u, adjacent or not; swapping
    # two twins maps the host's masks onto themselves.
    masks = g._masks
    classes = twin_masks(g)
    for u in range(g.n):
        pairs = [v for v in range(g.n) if masks[u] & ~(1 << v) == masks[v] & ~(1 << u)]
        assert classes[u] == sum(1 << v for v in pairs), (g.edges(), u)
        for v in pairs:
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            renamed = [sum(1 << swap[x] for x in range(g.n) if masks[w] >> x & 1)
                       for w in swap]
            assert renamed == list(masks), (g.edges(), u, v)
