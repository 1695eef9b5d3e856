"""Exact solvers: HIST existence, SGHG existence, Hamiltonian path oracle.

One tree search serves every solver.  `_TreeSearch.hists` branches on
edges in lexicographic order (include before exclude) with an explicit
stack, so input size never meets the recursion limit, and yields at every
spanning HIST; the first one is the lexicographically least, which is why
the first and canonical modes coincide.  Degree state per
vertex drives the pruning: a vertex frozen at tree-degree 2 kills the
branch immediately, and in SGHG mode the evolving committed-leaf set must
stay cyclically feasible (two potential-leaf neighbors each, one
component) at every node.  An SGHG has at least 4 vertices, so SGHG
search refutes a smaller host, or one with a vertex of degree below 3,
before its first node.  It adds three leaf rules and a degree rule, all
kept up incrementally in the include and exclude steps:

- forced leaf: a vertex with deg <= 1 and deg + und <= 2 (tree degree
  and undecided edges) can only end as a leaf, so it is committed at once;
- leaf adjacency: the tree neighbour of a committed leaf is internal, so
  it leaves the potential leaves;
- bipartite balance: the leaf cycle alternates sides, so on a bipartite
  host with sides A, B neither |com & A| > |pot & B| nor
  |com & B| > |pot & A| may hold;
- P-degree: every vertex keeps at least 3 edges in P, the edges an SGHG
  below the node can still use: the tree-available ones (`avail`) plus
  every host edge between two potential leaves.  This also cuts a
  committed vertex outside the potential leaves: its P-degree is
  deg + und <= 2.

The P-degree rule rests on T ∪ C being 3-connected for n >= 4, like a
Halin graph.  Delete two vertices S.  Every component of T - S holds a
leaf of T outside S: one without would force a cycle in T or a vertex
with three neighbours in S.  C - S stays connected unless both vertices
of S are leaves, and then T - S is connected.  So every vertex of T ∪ C
has degree >= 3, and T ∪ C lies inside P: its tree edges in `avail`, its
cycle edges between final leaves, which stay potential.  Going down the
tree P only shrinks, and the parent node passed the rule, so a node
checks only the vertices whose P-degree may just have dropped: the ends
of an excluded edge, each vertex that just left the potential leaves,
and those of its potential-leaf neighbours whose edge to it is no longer
tree-available.  At the root P is the host, so a host vertex of degree
<= 2 refutes it before the first node, and no vertex starts committed.

Each rule cuts only subtrees that hold no SGHG, so every certificate and
every exhaustive count is the same as without them.  HIST search tracks
no leaves.

One Hamiltonian-walk kernel, `_ham_walks`, serves both the (x,y)-path
oracle and the leaf cycles of SGHG search; its nodes count against the
same kind of budget, through `_Meter`.

`_solve` maps a search into a `SearchResult` once for every solver.
Budgets make "unknown" a first-class outcome distinct from a proved
"none"; a certificate found before the budget ran out is still "found",
but its `solution_count` stays None, because a count is reported only
when an exhaustive search completed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .certify import HalinCertificate, TreeCertificate
from .errors import BudgetExhausted, PreconditionError
from .graph import Graph, VertexSetPair, _reach, colour_classes, edge_inside

#: Accepted search modes, in the order the CLI lists them.  "exhaustive"
#: enumerates and counts every solution; the others stop at the first,
#: which today is the canonical one.  "first" stays separate because only
#: it may give up lexicographic order, for most-constrained-first
#: branching; "canonical" never will.
MODES = ("first", "canonical", "exhaustive")


@dataclass(frozen=True)
class SearchBudget:
    """Limits and mode of one search, checked once, on construction."""

    node_limit: int | None = None
    time_limit: float | None = None
    mode: str = "first"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PreconditionError(f"unknown search mode {self.mode!r}")
        if self.node_limit is not None and self.node_limit < 1:
            raise PreconditionError(
                f"node limit must be at least 1, got {self.node_limit}"
            )
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise PreconditionError(
                f"time limit must be positive and finite, got {self.time_limit}"
            )

    @property
    def exhaustive(self) -> bool:
        return self.mode == "exhaustive"


#: No limits, first-found: a complete existence proof when it terminates.
UNBOUNDED = SearchBudget(mode="canonical")

#: No limits, enumerate and count every solution.
EXHAUSTIVE = SearchBudget(mode="exhaustive")


@dataclass
class SearchResult:
    """status is 'found', 'none' (proved), or 'unknown' (budget ran out)."""

    status: str
    certificate: TreeCertificate | HalinCertificate | None = None
    nodes: int = 0
    solution_count: int | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


# Steps of one level of the tree search's explicit stack.
_ENTER, _INCLUDED, _EXCLUDED = 0, 1, 2


class _Meter:
    """Counts search nodes against a budget's node and time limits."""

    def __init__(self, budget: SearchBudget):
        self.node_limit = budget.node_limit
        self.deadline = (
            None if budget.time_limit is None else time.monotonic() + budget.time_limit
        )
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted(f"node limit {self.node_limit} hit")
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExhausted("time limit hit")


class _TreeSearch(_Meter):
    """Edge include/exclude DFS enumerating spanning HISTs of g."""

    def __init__(self, g: Graph, cycle_mode: bool, budget: SearchBudget):
        super().__init__(budget)
        self.g = g
        self.n = g.n
        self.edges = g.edges()
        self.m = len(self.edges)
        self.cycle_mode = cycle_mode
        n = g.n
        self.deg = [0] * n
        self.und = [g.degree(v) for v in range(n)]
        self.avail = [g.neighbor_mask(v) for v in range(n)]
        self.full = (1 << n) - 1
        # A vertex with deg <= 1 and deg + und <= 2 can only end as a leaf;
        # SGHG search commits it as soon as deg + und reaches `room` (only
        # exclusions lower it).  HIST search tracks no leaves: with room 0
        # the exclude step runs only its dead-end check.
        self.room = 2 if cycle_mode else 0
        self.sides = (colour_classes(g) or (0, 0)) if cycle_mode else (0, 0)

    # -- bookkeeping -------------------------------------------------------

    def _connected_avail(self) -> bool:
        return _reach(self.avail, 0, self.full) == self.full

    def _cycle_feasible(self, pot: int, com: int) -> bool:
        """Can the committed leaves `com` still lie on one cycle through
        potential leaves `pot`?"""
        if pot.bit_count() < 3:
            return False
        if not com:
            return True
        side_a, side_b = self.sides
        if side_a and (
            (com & side_a).bit_count() > (pot & side_b).bit_count()
            or (com & side_b).bit_count() > (pot & side_a).bit_count()
        ):
            # The leaf cycle alternates sides, so |L & A| == |L & B|.
            return False
        masks = self.g._masks
        rest = com
        while rest:
            low = rest & -rest
            if (masks[low.bit_length() - 1] & pot).bit_count() < 2:
                return False
            rest ^= low
        # Two or more committed leaves must share a component of pot.
        if com & (com - 1) and com & ~_reach(masks, (com & -com).bit_length() - 1, pot):
            return False
        return True

    def _p_degrees_ok(self, pot: int, lost: int, suspects: int) -> bool:
        """Does every vertex whose P-degree may just have dropped keep at
        least 3?  P is `avail` plus every host edge inside `pot`; `lost`
        has just left `pot`, and `suspects` lost an `avail` edge."""
        avail, masks = self.avail, self.g._masks
        while lost:
            low = lost & -lost
            w = low.bit_length() - 1
            # w itself, and the potential leaves whose edge to w was in P
            # only because both ends were potential leaves.
            suspects |= low | (masks[w] & ~avail[w] & pot)
            lost ^= low
        while suspects:
            low = suspects & -suspects
            x = low.bit_length() - 1
            if (avail[x] | (masks[x] & pot if pot & low else 0)).bit_count() < 3:
                return False
            suspects ^= low
        return True

    # -- search ------------------------------------------------------------

    def hists(self) -> Iterator[list[tuple[int, int]]]:
        """Yield the include stack at every spanning HIST, in lexicographic
        order.  The stack and `deg` describe that HIST until the generator
        resumes."""
        n1, m, cycle_mode = self.n - 1, self.m, self.cycle_mode
        # An SGHG has at least 4 vertices.
        if self.n < (4 if cycle_mode else 1) or m < n1 or not self._connected_avail():
            return
        edges, deg, und, avail = self.edges, self.deg, self.und, self.avail
        tick, room, p_degrees_ok = self.tick, self.room, self._p_degrees_ok
        connected, cycle_feasible = self._connected_avail, self._cycle_feasible
        # At the root P is the host, so every vertex is checked once; after
        # this pass no vertex has host degree <= room, so none starts
        # committed.
        if cycle_mode and not p_degrees_ok(self.full, 0, self.full):
            return
        parent = list(range(self.n))
        rank = [1] * self.n
        included: list[tuple[int, int]] = []
        needy = 0  # vertices currently at tree-degree exactly 2
        # potential: vertices that may still end as leaves (deg <= 1 and,
        # in SGHG search, not the tree neighbour of a committed leaf);
        # committed: vertices that must end as leaves.
        potential, committed = self.full, 0
        # Level i decides edge i; these hold its step, the union-find root
        # it attached, and the leaf masks to restore when it is left.
        step = [_ENTER] * (m + 1)
        joined = [0] * m
        saved = [(0, 0)] * m
        i = 0
        while i >= 0:
            s = step[i]
            if s == _ENTER:
                tick()
                missing = n1 - len(included)
                if missing == 0:
                    if needy == 0:
                        yield included
                    i -= 1
                    continue
                if i == m or m - i < missing or needy > 2 * missing:
                    i -= 1
                    continue
                u, v = edges[i]
                saved[i] = (potential, committed)
                ru = u
                while parent[ru] != ru:
                    ru = parent[ru]
                rv = v
                while parent[rv] != rv:
                    rv = parent[rv]
                if ru != rv:
                    # Include branch.  Level i is revisited to undo it,
                    # whether or not the search descended into it.
                    if rank[ru] > rank[rv]:
                        ru, rv = rv, ru
                    parent[ru] = rv
                    rank[rv] += rank[ru]
                    joined[i] = ru
                    included.append((u, v))
                    feasible = True
                    for w in (u, v):
                        deg[w] += 1
                        und[w] -= 1
                        dw = deg[w]
                        if dw == 2:
                            needy += 1
                            potential &= ~(1 << w)
                            if und[w] == 0:
                                feasible = False
                        elif dw == 3:
                            needy -= 1
                        elif dw == 1 and und[w] < room:
                            # w is committed (deg + und did not change);
                            # its tree neighbour is internal.
                            potential &= ~(1 << (u ^ v ^ w))
                    if feasible and cycle_mode:
                        lost = saved[i][0] & ~potential
                        feasible = cycle_feasible(potential, committed) and (
                            not lost or p_degrees_ok(potential, lost, 0)
                        )
                    step[i] = _INCLUDED
                    if feasible:
                        i += 1
                        step[i] = _ENTER
                    continue
            else:  # back at level i: undo the branch just finished
                u, v = edges[i]
                potential, committed = saved[i]
                if s == _INCLUDED:
                    for w in (u, v):
                        dw = deg[w]
                        if dw == 2:
                            needy -= 1
                        elif dw == 3:
                            needy += 1
                        deg[w] -= 1
                        und[w] += 1
                    included.pop()
                    ru = joined[i]
                    rv = parent[ru]
                    parent[ru] = ru
                    rank[rv] -= rank[ru]
                else:
                    und[u] += 1
                    und[v] += 1
                    avail[u] |= 1 << v
                    avail[v] |= 1 << u
                    i -= 1
                    continue
            # exclude branch of edge i
            avail[u] &= ~(1 << v)
            avail[v] &= ~(1 << u)
            feasible = True
            for w in (u, v):
                uw = und[w] - 1
                und[w] = uw
                if uw <= room:
                    dw = deg[w]
                    if uw == 0:
                        if dw == 0 or dw == 2:
                            feasible = False
                    elif dw + uw == room and dw < 2:
                        committed |= 1 << w
                        if dw:  # its tree neighbour is internal
                            potential &= ~(1 << _tree_neighbour(included, w))
            if feasible:
                feasible = connected()
            if feasible and cycle_mode:
                feasible = cycle_feasible(potential, committed) and p_degrees_ok(
                    potential, saved[i][0] & ~potential, 1 << u | 1 << v
                )
            step[i] = _EXCLUDED
            if feasible:
                i += 1
                step[i] = _ENTER

    def leaf_set(self) -> list[int]:
        return [w for w in range(self.n) if self.deg[w] == 1]

    def leaf_cycles(self) -> Iterator[tuple[int, ...]]:
        """Hamiltonian cycles through the leaves of the current HIST, one
        per rotation/reflection class; their nodes count against the budget."""
        leaves = self.leaf_set()
        masks = self.g._masks
        adj = [
            sum(1 << j for j, w in enumerate(leaves) if masks[v] >> w & 1)
            for v in leaves
        ]
        for walk in _ham_walks(adj, 0, None, self.tick):
            yield tuple(leaves[j] for j in walk)


def _tree_neighbour(included: list[tuple[int, int]], w: int) -> int:
    """The other end of the one included edge at w (tree degree 1)."""
    return next(a ^ b ^ w for a, b in included if w == a or w == b)


# -- Hamiltonian walks -------------------------------------------------------


def _ham_walks(
    adj: Sequence[int],
    start: int,
    end: int | None,
    tick: Callable[[], None],
) -> Iterator[tuple[int, ...]]:
    """Hamiltonian walks of the graph with bitmask adjacency `adj`.

    With an `end`, yields every Hamiltonian start-end path; without one,
    every Hamiltonian cycle through `start`, once per reflection (second
    vertex smaller than the last).  Walks come in DFS order, smaller
    neighbor first; `tick` runs once per search node.
    """
    full = (1 << len(adj)) - 1
    endbit = 1 << (start if end is None else end)
    path: list[int] = []
    children: list[int] = []  # per path position: neighbors still to try
    used = 0
    cur = start
    while True:
        path.append(cur)
        used |= 1 << cur
        tick()
        todo = 0
        if used == full:
            # A path enters `end` only as its last vertex, so it ends there.
            if end is not None or (adj[cur] & endbit and path[1] < path[-1]):
                yield tuple(path)
        else:
            # Any unreached vertex that cannot be entered and left kills
            # this branch; so does a disconnection of the unreached region.
            free = ~used & full
            usable = free | (1 << cur) | endbit
            todo = adj[cur] & free
            rest = free
            while rest:
                low = rest & -rest
                need = 1 if low == endbit else 2
                if (adj[low.bit_length() - 1] & usable & ~low).bit_count() < need:
                    todo = 0
                    break
                rest ^= low
            if todo and free & ~_reach(adj, cur, free | 1 << cur):
                todo = 0
            if used | endbit != full:
                todo &= ~endbit
        children.append(todo)
        while not children[-1]:
            children.pop()
            used &= ~(1 << path.pop())
            if not children:
                return
        todo = children[-1]
        low = todo & -todo
        children[-1] = todo ^ low
        cur = low.bit_length() - 1


# -- public solvers -----------------------------------------------------------


def _solve(g: Graph, budget: SearchBudget, cycle_mode: bool) -> SearchResult:
    """Run the tree search and map its outcome to a result.  Each HIST is
    one solution, or in cycle mode each of its leaf cycles is one."""
    search = _TreeSearch(g, cycle_mode, budget)
    first = None
    count = 0
    try:
        for tree_edges in search.hists():
            for cycle in search.leaf_cycles() if cycle_mode else (None,):
                count += 1
                if first is None:
                    tree = TreeCertificate(g.n, tree_edges)
                    first = tree if cycle is None else HalinCertificate(tree, cycle)
                    if not budget.exhaustive:
                        return SearchResult("found", first, search.nodes)
    except BudgetExhausted:
        # A found certificate survives a later budget overrun; its count
        # would be partial, so none is reported.
        status = "unknown" if first is None else "found"
        return SearchResult(status, first, search.nodes)
    if first is None:
        return SearchResult("none", None, search.nodes, 0)
    return SearchResult("found", first, search.nodes, count)


def find_hist(g: Graph, budget: SearchBudget = UNBOUNDED) -> SearchResult:
    """Search for a spanning tree with no degree-2 vertex.

    Any mode that terminates without a budget overrun proves its answer;
    exhaustive mode additionally counts all solutions.
    """
    return _solve(g, budget, False)


def find_sghg(g: Graph, budget: SearchBudget = UNBOUNDED) -> SearchResult:
    """Search for a spanning generalized Halin subgraph certificate."""
    return _solve(g, budget, True)


def ham_path_oracle(
    g: Graph, x: int, y: int, budget: SearchBudget = UNBOUNDED
) -> tuple[int, ...] | None:
    """Exhaustive Hamiltonian (x,y)-path search; None proves nonexistence.

    The budget's node and time limits apply as in the tree search (its
    mode is ignored); an overrun raises BudgetExhausted.
    """
    if x == y:
        raise PreconditionError("endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise PreconditionError("endpoint out of range")
    return next(_ham_walks(g._masks, x, y, _Meter(budget).tick), None)


def balanced_leaf_hist_exists(
    g: Graph, partition: VertexSetPair, budget: SearchBudget = UNBOUNDED
) -> bool:
    """True iff some HIST has equally many leaves on both partition sides.

    Exhaustive over all HISTs of g; the partition must be a genuine
    bipartition (spanning, no internal edges).  A budget overrun raises
    BudgetExhausted.
    """
    left, right = partition.left, partition.right
    if left | right != set(range(g.n)) or left & right:
        raise PreconditionError("partition must cover the vertex set")
    if edge := edge_inside(g, left, right):
        raise PreconditionError("edge {}-{} inside one partition side".format(*edge))
    search = _TreeSearch(g, False, budget)
    for _ in search.hists():
        leaves = search.leaf_set()
        if 2 * sum(1 for v in leaves if v in left) == len(leaves):
            return True
    return False
