"""Immutable simple undirected graphs over dense vertex ids 0..n-1.

Every other module consumes this representation.  Adjacency is stored
once, as one neighbour bitmask per vertex.  Graphs are hashable,
comparable and safe to share between threads; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError

Edge = tuple[int, int]


def _bits(mask: int) -> list[int]:
    """Ids of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Simple graph: no loops, no parallel edges, symmetric adjacency.

    Adjacency is stored once: bit w of `neighbor_mask(v)` is set iff vw is
    an edge.  `neighbors()` and `edges()` build a fresh set or list from the
    masks on each call (O(n) per vertex), so hot loops read `neighbor_mask`.
    `_from_masks` trusts its masks and checks nothing (see there).
    """

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                raise PreconditionError(f"duplicate edge {(min(u, v), max(u, v))}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> "Graph":
        """Graph over symmetric, loop-free neighbour masks, unchecked.

        Two callers build masks that cannot be otherwise: the graph6
        decoder, whose format cannot encode a loop or a bad edge, and the
        threshold lab's sampler, which draws each pair u < v once.
        """
        g = cls.__new__(cls)
        g._masks = tuple(masks)
        g.n = len(g._masks)
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def edges(self) -> list[Edge]:
        return [(u, v) for u, m in enumerate(self._masks) for v in _bits(m) if v > u]

    def has_edge(self, u: int, v: int) -> bool:
        # The range check comes first: a negative u would index from the end.
        return 0 <= u < self.n and 0 <= v < self.n and bool(self._masks[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.neighbor_mask(v)))

    def neighbor_mask(self, v: int) -> int:
        if not 0 <= v < self.n:  # a negative v would index from the end
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self._masks[v]

    def degree(self, v: int) -> int:
        return self.neighbor_mask(v).bit_count()

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self._masks), default=0)

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._masks), default=0)

    # One mask per vertex, so equal masks mean equal vertex counts too.
    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Subgraph induced on `vertices`; returns (graph, old-id list).

        Vertex i of the result corresponds to old id `mapping[i]`
        (mapping is sorted ascending).
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(keep), edges), keep

    # -- constructors -----------------------------------------------------

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, combinations(range(n), 2))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, ())

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        if a < 0 or b < 0:
            raise PreconditionError("side sizes must be nonnegative")
        return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise PreconditionError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def star(leaves: int) -> "Graph":
        if leaves < 0:
            raise PreconditionError("leaf count must be nonnegative")
        return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


@dataclass(frozen=True)
class VertexSetPair:
    """Two disjoint vertex subsets of a common host graph."""

    left: frozenset[int]
    right: frozenset[int]

    def __init__(self, left: Iterable[int], right: Iterable[int]):
        object.__setattr__(self, "left", frozenset(left))
        object.__setattr__(self, "right", frozenset(right))
        if self.left & self.right:
            raise PreconditionError("vertex sets must be disjoint")

    def validate_for(self, g: Graph) -> None:
        for v in self.left | self.right:
            if not 0 <= v < g.n:
                raise PreconditionError(f"vertex {v} out of range for n={g.n}")


def degree_between(g: Graph, p: VertexSetPair) -> tuple[int, int, int]:
    """(min, max) over `p.left` of degree into `p.right`, plus the
    number of edges between the two sets."""
    p.validate_for(g)
    right = sum(1 << v for v in p.right)
    degs = [(g.neighbor_mask(u) & right).bit_count() for u in p.left]
    return (min(degs), max(degs), sum(degs)) if degs else (0, 0, 0)


def bipartition(g: Graph) -> VertexSetPair | None:
    """2-coloring as a VertexSetPair, or None if an odd cycle exists.

    Within each connected component the lowest-indexed vertex lands on
    the left side, making the output deterministic.
    """
    classes = colour_classes(g)
    return None if classes is None else VertexSetPair(*map(_bits, classes))


def colour_classes(g: Graph) -> tuple[int, int] | None:
    """bipartition() as two bitmasks, by BFS one layer at a time: an odd
    cycle shows as an edge inside one layer."""
    masks = g._masks
    classes = [0, 0]
    rest = (1 << g.n) - 1
    while rest:
        frontier = rest & -rest
        parity = 0
        while frontier:
            classes[parity] |= frontier
            rest ^= frontier
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= masks[low.bit_length() - 1]
                frontier ^= low
            if grown & classes[parity]:
                return None
            frontier = grown & rest
            parity ^= 1
    return classes[0], classes[1]


def twin_masks(g: Graph) -> list[int]:
    """For each vertex, the bitmask of its twin class, itself included.

    Twins have equal open neighbourhoods (and are not adjacent) or equal
    closed ones (and are adjacent).  A vertex cannot have one twin of each
    kind, so the classes partition the vertices, and swapping two twins
    is an automorphism of g.
    """
    masks = g._masks
    opened: dict[int, int] = {}  # open neighbourhood -> its vertices
    closed: dict[int, int] = {}  # closed neighbourhood -> its vertices
    for v, mask in enumerate(masks):
        bit = 1 << v
        opened[mask] = opened.get(mask, 0) | bit
        closed[mask | bit] = closed.get(mask | bit, 0) | bit
    return [opened[mask] | closed[mask | 1 << v] for v, mask in enumerate(masks)]


def edge_inside(g: Graph, *parts: Iterable[int]) -> Edge | None:
    """The lexicographically first edge with both ends in one of `parts`
    (disjoint vertex sets of g), or None."""
    part_masks = [sum(1 << v for v in part) for part in parts]
    for u, mask in enumerate(g._masks):
        part = next((p for p in part_masks if p >> u & 1), 0)
        inside = mask & part & -(2 << u)  # above u: met at its lower end
        if inside:
            return u, (inside & -inside).bit_length() - 1
    return None


# -- vertex connectivity ---------------------------------------------------
#
# A graph whose non-adjacent pairs all have k common neighbours is
# accepted first, in one AND per pair.  Otherwise it is decided by
# separator enumeration: with n > k, g is k-connected iff it stays
# connected after deleting any k-1 vertices.  That costs C(n, k-1)
# bitmask searches of O(n) word operations each: exponential in k, and
# cheap for the k <= 3 that every library caller asks (the union of an
# SGHG's tree and leaf cycle, and the threshold lab's hosts).  Large
# sparse graphs pay most: a 300-vertex HIST-plus-leaf-cycle union at
# k = 3 takes about 4 s on a 2-CPU machine.


def _reach(
    masks: Sequence[int], start: int, within: int, stop: int | None = None
) -> int:
    """Bitmask of the vertices reachable from `start` inside `within`
    (a bitmask that contains `start`).

    The search ends as soon as it has seen every vertex of `stop`
    (default `within`).  With a smaller `stop` it may return only part
    of the reach: a part that holds all of `stop` when the reach does,
    and otherwise the whole reach.  So `_reach(masks, u, within, 1 << v)
    >> v & 1` asks whether u reaches v, and stops once it has.
    """
    if stop is None:
        stop = within
    seen = frontier = 1 << start
    while frontier and stop & ~seen:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    """True iff the vertex connectivity of g is at least k.

    Conventions: an empty or 1-vertex graph is 0-connected and K_n is
    (n-1)-connected, so the answer is monotone nonincreasing in k.

    With n > k, g is accepted at once if every non-adjacent pair has at
    least k common neighbours: a separator of fewer than k vertices
    splits some non-adjacent pair and misses one of its common
    neighbours, which still joins the two.  Dense hosts pass this in
    one AND per pair (K_n has no such pair).  At the first pair that
    fails, the separator enumeration decides.
    """
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    if k == 0:
        return True
    if g.n <= k:
        return False
    if g.min_degree() < k:
        return False
    masks = g._masks
    everyone = (1 << g.n) - 1
    if all(
        (masks[u] & masks[v]).bit_count() >= k
        for u in range(g.n)
        for v in _bits(everyone & ~masks[u] & -(2 << u))
    ):
        return True
    for cut in combinations(range(g.n), k - 1):
        rest = everyone - sum(1 << v for v in cut)
        start = (rest & -rest).bit_length() - 1
        if _reach(masks, start, rest) != rest:
            return False
    return True


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity (0 for empty/disconnected, n-1 for K_n).

    Exponential in the answer: it asks `vertex_connectivity_at_least`
    for k = 1, 2, ..., so it is meant for small graphs.
    """
    if g.n == 0:
        return 0
    k = 0
    while vertex_connectivity_at_least(g, k + 1):
        k += 1
    return k


def iter_all_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices (2^(n(n-1)/2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
