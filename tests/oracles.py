"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: spanning trees by plain
include/exclude enumeration, Hamiltonian cycles by permutations,
connectivity by exhaustive vertex-cut enumeration with networkx deciding
each remainder, maximum matchings and star-pack existence via networkx.  None of it shares
pruning logic with the library's solvers.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import networkx as nx

from halinlab.graph import Graph, vertex_connectivity_at_least


def iter_spanning_trees(g: Graph):
    """All spanning trees as sorted edge tuples (include/exclude recursion)."""
    edges = g.edges()
    n = g.n
    if n == 0:
        return
    if n == 1:
        yield ()
        return

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i, picked, parent):
        if len(picked) == n - 1:
            yield tuple(sorted(picked))
            return
        if i == len(edges) or len(picked) + len(edges) - i < n - 1:
            return
        u, v = edges[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = dict(parent)
            child[ru] = rv
            yield from rec(i + 1, picked + [edges[i]], child)
        yield from rec(i + 1, picked, parent)

    yield from rec(0, [], {v: v for v in range(n)})


def tree_degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def iter_hists(g: Graph):
    for edges in iter_spanning_trees(g):
        if all(d != 2 for d in tree_degrees(g.n, edges)):
            yield edges


def perm_ham_cycle(g: Graph, verts) -> tuple[int, ...] | None:
    """Hamiltonian cycle on g[verts] by permutation scan (tiny sets only)."""
    verts = sorted(verts)
    if len(verts) < 3:
        return None
    first, rest = verts[0], verts[1:]
    for perm in permutations(rest):
        cycle = (first, *perm)
        if all(
            g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))
        ):
            return cycle
    return None


def naive_sghg(g: Graph):
    """(tree edges, cycle) via full spanning-tree scan, or None."""
    for edges in iter_hists(g):
        leaves = [v for v, d in enumerate(tree_degrees(g.n, edges)) if d == 1]
        cycle = perm_ham_cycle(g, leaves)
        if cycle is not None:
            return edges, cycle
    return None


def brute_ham_path(g: Graph, x: int, y: int) -> tuple[int, ...] | None:
    middle = [v for v in range(g.n) if v not in (x, y)]
    for perm in permutations(middle):
        path = (x, *perm, y)
        if all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
            return path
    return None


def pair_scan_ore_witness(g: Graph) -> tuple[int, int] | None:
    """First nonadjacent pair u < v, in lexicographic order, with
    d(u) + d(v) <= n: a scan over every vertex pair."""
    for u, v in combinations(range(g.n), 2):
        if not g.has_edge(u, v) and g.degree(u) + g.degree(v) <= g.n:
            return (u, v)
    return None


def pair_scan_moon_moser_witness(g: Graph, left, right) -> tuple[int, int] | None:
    """First nonadjacent cross pair (u, v), u over sorted `left` and then v
    over sorted `right`, with d(u) + d(v) <= |left|: a nested loop."""
    for u in sorted(left):
        for v in sorted(right):
            if not g.has_edge(u, v) and g.degree(u) + g.degree(v) <= len(left):
                return (u, v)
    return None


def set_greedy_matching(g: Graph) -> list[tuple[int, int]]:
    """Lex-least greedy matching on per-vertex neighbour sets: match u to
    its least live neighbour, then delete both ends from every set."""
    alive = [set(g.neighbors(v)) for v in range(g.n)]
    chosen = []
    for u in range(g.n):
        if not alive[u]:
            continue
        v = min(alive[u])
        chosen.append((u, v))
        for w in (u, v):
            for x in list(alive[w]):
                alive[x].discard(w)
            alive[w].clear()
    return chosen


def cut_connectivity_at_least(g: Graph, k: int) -> bool:
    """Exhaustive vertex-cut check (documented oracle for n <= 12)."""
    if k == 0:
        return True
    if g.n <= k:
        return False
    for size in range(k):
        for cut in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in cut]
            sub, _ = g.induced_subgraph(rest)
            if not nx.is_connected(to_networkx(sub)):
                return False
    return True


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def max_matching_size(g: Graph) -> int:
    return len(nx.max_weight_matching(to_networkx(g), maxcardinality=True))


def star_pack_exists(g: Graph, centers, tips, arity: int) -> bool:
    """Max flow source -> center (capacity arity) -> tip (1, host edges
    only) -> sink (1): a pack exists iff the flow saturates every center."""
    net = nx.DiGraph()
    net.add_nodes_from(["source", "sink"])
    for c in centers:
        net.add_edge("source", ("center", c), capacity=arity)
        for t in tips:
            if g.has_edge(c, t):
                net.add_edge(("center", c), ("tip", t), capacity=1)
    for t in tips:
        net.add_edge(("tip", t), "sink", capacity=1)
    return nx.maximum_flow_value(net, "source", "sink") == arity * len(centers)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def blow_up(h: Graph, sizes, cliques=()) -> Graph:
    """Each vertex x of h becomes a class of sizes[x] vertices, numbered
    class by class: a clique if x is in `cliques`, else an independent set.
    The classes of adjacent vertices of h are completely joined."""
    starts = [sum(sizes[:x]) for x in range(h.n + 1)]
    cls = [range(starts[x], starts[x + 1]) for x in range(h.n)]
    edges = [e for x in cliques for e in combinations(cls[x], 2)]
    edges += [(u, v) for x, y in h.edges() for u in cls[x] for v in cls[y]]
    return Graph(starts[-1], edges)


def random_graph_min_degree(rng: random.Random, n: int, dmin: int, p: float) -> Graph:
    """G(n,p) patched by joining deficient vertices to random non-neighbors."""
    g = random_graph(rng, n, p)
    edges = set(g.edges())
    for v in range(n):
        need = dmin - g.degree(v)
        if need <= 0:
            continue
        candidates = sorted(set(range(n)) - g.neighbors(v) - {v})
        rng.shuffle(candidates)
        for w in candidates[:need]:
            edges.add((min(v, w), max(v, w)))
    g = Graph(n, edges)
    if g.min_degree() < dmin:
        return random_graph_min_degree(rng, n, dmin, min(1.0, p + 0.1))
    return g


def full_draw_three_connected(
    n: int, min_degree: int, rng: random.Random, max_attempts: int
) -> Graph | None:
    """The threshold sampler as it was before its early exit: every attempt
    draws all of its pairs, then tests the floor and 3-connectivity."""
    if n < 4 or min_degree > n - 1:
        return None
    base_p = max(min_degree / (n - 1), 0.3)
    for attempt in range(max_attempts):
        p = min(1.0, base_p + (1.0 - base_p) * attempt / max_attempts)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        if g.min_degree() >= min_degree and vertex_connectivity_at_least(g, 3):
            return g
    return None
