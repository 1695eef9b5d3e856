"""Exact solvers: HIST existence, SGHG existence, Hamiltonian path oracle.

One tree search serves every solver.  `_TreeSearch.hists` branches on
edges in lexicographic order (include before exclude) with an explicit
stack, so input size never meets the recursion limit, and yields at every
spanning HIST; the first one is the lexicographically least, which is why
the first and canonical modes coincide.  Tree degrees drive the pruning,
each read off the vertex's tree-neighbour mask as its bit count: a
vertex frozen at tree-degree 2 kills the branch at once, and in SGHG
mode the committed leaves must stay cyclically feasible (at least 3
potential leaves, two potential-leaf neighbours per committed leaf) at
every node.  No test asks that they share a component of the potential
leaves: a reach per node cost more time than the nodes it cut, and the
leaf walk still rejects disconnected leaves at its first node.
An SGHG has at least 4 vertices, so SGHG search refutes a smaller host,
or one with a vertex of degree below 3, before its first node.  It adds
three leaf rules and a degree rule, kept up as edges are decided:

- forced leaf: a vertex of tree degree <= 1 and |avail| <= 2 (its tree
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
  |avail| <= 2.

The P-degree rule rests on T ∪ C being 3-connected for n >= 4, like a
Halin graph.  Delete two vertices S.  Every component of T - S holds a
leaf of T outside S: one without would force a cycle in T or a vertex
with three neighbours in S.  C - S stays connected unless both vertices
of S are leaves, and then T - S is connected.  So every vertex of T ∪ C
has degree >= 3, and T ∪ C lies inside P: its tree edges in `avail`, its
cycle edges between final leaves, which stay potential.

One incremental check, `_leaves_ok`, applies the leaf-cycle and P-degree
rules at the root, at every node, and to each HIST's leaves before its
walk.  Going down the tree P and the potential leaves only shrink, and
the parent node passed the same check.  So past two bit counts (at least
3 potential leaves, the side balance) a node looks only at the vertices
whose counts may just have dropped: the ends of an excluded edge, each
vertex just committed, each vertex w that just left the potential
leaves, the committed leaves next to w, and those potential-leaf
neighbours of w whose edge to it is no longer tree-available.  At the
root P is the host and every vertex is looked at, so a host vertex of
degree <= 2 refutes it before the first node, and no vertex starts
committed.

Each rule cuts only subtrees that hold no SGHG, so every certificate and
every exhaustive count is the same as without them.  HIST search tracks
no leaves.

Both searches also decide an edge as soon as it is forced, by unit
propagation as in DPLL.  A spanning HIST has no vertex of tree degree 2
and none of degree 0, so:

- a vertex at tree degree 2 with exactly three edges in `avail` takes
  the third;
- a vertex at tree degree 0 with one edge in `avail` takes that edge.

Each level decides one edge, the lowest edge above its parent level's
that is still undecided: no earlier level forced it in or excluded it
with an orbit (below).  One step applies an edge (the level's own
include or exclude, an orbit exclusion, or a forced include) and runs
the same rules on each end at tree degree <= 2: the two degree rules,
which cut the node when a vertex has fewer edges left than it needs, the
forced leaf and leaf adjacency.  It repeats on each forced edge, up to a
fixpoint; a forced edge that would close a cycle cuts the node, and the
leaf check then runs on the new state.  The exclude branch of a forced
edge holds no HIST, so deciding the edge early cuts only dead subtrees:
HISTs, and so certificates, counts and the order solutions come in, are
the same as without it.  A HIST that forcing completes early skips the
exclusions that would have committed its leaves, so SGHG search runs the
leaf check on its leaves, all committed, before it walks them.

Every decided edge goes on one trail as (a, b, r): r is the union-find
root an include linked, or -1 for an exclusion.  Each level keeps one
record on the stack `saved`: the leaf masks, `needy` and the included
count to restore, `mark`, the trail length on entry, and its edge's
index, where the next level's scan starts.  A branch that comes back
restores them and pops the trail back to `mark`: each include gives back
its tree bits and its union-find link, each exclusion its `avail` bits.
The level's own edge is the first thing it puts on the trail, so
`trail[mark]` names the branch: after the include the level excludes,
after the exclusion its record is popped.  A tree edge stays in `avail`,
so bit v of `avail[u] ^ tree[u]` is set iff (u, v) is undecided: the
level scan needs one test per edge, and the edge list never changes.

Only the root asks whether the whole host is connected.  Below it,
`avail` was connected at the parent node, and a step removes from it the
level's own edge and, on the spine, its orbit (forced edges are only
included).  After the exclusion of (u, v), `avail` is connected iff u
still reaches v (a walk that used (u, v) can go round by a u-v path), so
the step asks just that, once, after its last exclusion, by a reach from
u that stops at the first neighbour of v it sees.  An exclusion of an
edge whose ends the included edges already join (it has no include
branch) asks nothing: `avail` stays as connected as at the parent node.

Orbit exclusion on the exclude spine.  A spine level is one whose
ancestors all took their exclude branch.  While no solution has been
found, every solution lies below each spine level; so once a spine
level's include subtree has failed, its edge e is in no solution, and
neither is any image of e under an automorphism of the host.  The search
uses the automorphisms that swap twins, vertices with equal open or
equal closed neighbour masks (`twin_masks`, built at the first spine
return).  With X and Y the twin classes of e's ends, e's orbit is X × Y,
or the pairs inside X when X = Y.  The level's exclude step excludes e
and every still-undecided orbit edge, each through the endpoint rules,
its ends suspects for the leaf check.  Only edges in no solution go, so
certificates, counts and the order solutions come in are unchanged.
`_solve` sets `found` at its first solution, and the rule stops there:
in exhaustive mode a failed include subtree no longer means "in no
solution".  On K_{a,b} the twin classes are the two sides, so the first
spine return excludes every edge and ends the refutation.

While `found` is False, `tree` and `avail` on the spine are invariant
under every twin swap.  They are at the root; a spine step excludes a
whole orbit, which each swap maps onto itself; and forcing then runs to
a fixpoint that does not depend on the order of its steps.  So no orbit
edge is in the tree (it would put e there), and the one reach from u
answers for the whole orbit: had a removed edge σ(e) joined two
components while u and v lie in one, D, then σ(D) would be a component
holding both ends of σ(e).  Nor does a spine level's edge close a cycle,
so the spine grows only where an include subtree failed.  On the spine
every tree edge is a forced include.  A vertex forces at most one edge,
and then all its `avail` edges are tree edges; so the ends of an
undecided edge have forced nothing, and a tree path of k edges between
them would need k forcing vertices among its k - 1 interior ones.

One Hamiltonian-walk kernel, `_ham_walks`, serves both the (x,y)-path
oracle and the leaf cycles of SGHG search.  It walks a vertex mask of the
host (every vertex, or the current leaves) on the host's own neighbour
masks, and its nodes count against the same kind of budget, through
`_Meter`.

`_solve` maps a search into a `SearchResult` once, for both `find_hist`
and `find_sghg`.  `balanced_leaf_hist_exists` keeps its own loop, because
it tests a predicate on each HIST and raises on a budget overrun.  It
first asks a side degree count, `_leaf_balance_impossible`: where the
count rules out a balanced HIST it answers False with no walk, and
elsewhere the walk over the HISTs decides.  It sets no `found`, since
it stops at its first balanced HIST, and the orbit rule holds for it
too: twins of a connected bipartite host lie on one side, so a twin swap
keeps a HIST's leaf balance.
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
from .graph import (
    Graph,
    VertexSetPair,
    _bits,
    _reach,
    colour_classes,
    edge_inside,
    twin_masks,
)
from .hamiltonicity import check_endpoints

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

    # Forced-edge propagation is always on; tests switch it off to check
    # that it cuts only dead branches.
    _forcing = True

    def __init__(self, g: Graph, cycle_mode: bool, budget: SearchBudget):
        super().__init__(budget)
        self.g = g
        self.n = g.n
        self.edges = g.edges()
        self.cycle_mode = cycle_mode
        n = g.n
        self.tree = [0] * n  # tree-neighbour masks; bit count = tree degree
        self.avail = [g.neighbor_mask(v) for v in range(n)]
        self.full = (1 << n) - 1
        # A vertex of tree degree <= 1 and |avail| (its tree and undecided
        # edges) <= 2 can only end as a leaf; SGHG search commits it once
        # |avail| reaches `room` (only exclusions lower it).  HIST search
        # tracks no leaves: with room 0 exclusions run only the dead-end check.
        self.room = 2 if cycle_mode else 0
        self.sides = (colour_classes(g) or (0, 0)) if cycle_mode else (0, 0)
        # Set by the caller once it has a solution: from then on a failed
        # include subtree no longer means "in no solution".
        self.found = False
        self.twins: list[int] | None = None  # built at the first spine return

    # -- bookkeeping -------------------------------------------------------

    def _joined(self, u: int, v: int) -> int:
        """1 if u still reaches v in `avail`, else 0: after the exclusion
        of (u, v) from a connected `avail`, whether it is still connected.

        It aims at w, v's highest neighbour in `avail`, which u reaches
        iff it reaches v.  The degree rules have already cut a node where
        v has no edge left.  Edges are decided lowest first, so high
        vertices keep most of theirs, and the reach tends to meet w
        sooner than v.
        """
        w = self.avail[v].bit_length() - 1
        return _reach(self.avail, u, self.full, 1 << w) >> w & 1

    def _leaves_ok(self, pot: int, com: int, lost: int, suspects: int) -> bool:
        """Can the committed leaves `com` still lie on one cycle through the
        potential leaves `pot`, with every vertex keeping at least 3 edges
        in P (`avail` plus every host edge inside `pot`)?  The parent node
        passed the same check, so only what may just have changed is
        looked at: `lost` has just left `pot`, and `suspects` lost an
        `avail` edge or were just committed."""
        if pot.bit_count() < 3:
            return False
        side_a, side_b = self.sides
        if side_a and (
            (com & side_a).bit_count() > (pot & side_b).bit_count()
            or (com & side_b).bit_count() > (pot & side_a).bit_count()
        ):
            # The leaf cycle alternates sides, so |L & A| == |L & B|.
            return False
        avail, masks = self.avail, self.g._masks
        while lost:
            low = lost & -lost
            w = low.bit_length() - 1
            # w itself, the committed leaves that lost w as a potential
            # cycle neighbour, and the potential leaves whose edge to w was
            # in P only because both ends were potential leaves.
            suspects |= low | (masks[w] & (com | ~avail[w] & pot))
            lost ^= low
        while suspects:
            low = suspects & -suspects
            x = low.bit_length() - 1
            near = masks[x] & pot
            if (avail[x] | (near if pot & low else 0)).bit_count() < 3:
                return False
            if com & low and near.bit_count() < 2:
                return False
            suspects ^= low
        return True

    def _orbit(self, u: int, v: int) -> list[tuple[int, int]]:
        """The undecided edges of (u, v)'s orbit under twin swaps, (u, v)
        itself left out.

        With X and Y the twin classes of u and v, the orbit is X × Y, or
        the pairs inside X when X = Y (a class of adjacent twins).  On the
        spine no orbit edge is in the tree (see the module docstring), so
        the ones still in `avail` are the undecided ones."""
        if self.twins is None:
            self.twins = twin_masks(self.g)
        xs, ys = self.twins[u], self.twins[v]
        if xs | ys == 1 << u | 1 << v:
            return []  # no other twins: the orbit is (u, v) alone
        avail = self.avail
        drop = []
        for a in _bits(xs):
            row = ys & -(2 << a) if xs == ys else ys
            drop += [(a, b) if a < b else (b, a) for b in _bits(avail[a] & row)]
        drop.remove((u, v))
        return drop

    # -- search ------------------------------------------------------------

    def hists(self) -> Iterator[list[tuple[int, int]]]:
        """Yield the included edges of every spanning HIST, in lexicographic
        order, each time as a new list.  The tree-neighbour masks `tree`,
        whose bit counts are the tree degrees, describe that HIST until it
        resumes.

        Until the caller sets `found`, the spine's orbit exclusion takes
        every HIST yielded so far as no solution: a caller that counts
        solutions sets it at the first one it keeps."""
        n1, cycle_mode, full = self.n - 1, self.cycle_mode, self.full
        edges, avail, tree = self.edges, self.avail, self.tree
        # An SGHG has at least 4 vertices.
        if self.n < (4 if cycle_mode else 1) or len(edges) < n1 or _reach(avail, 0, full) != full:
            return
        tick, room, leaves_ok = self.tick, self.room, self._leaves_ok
        joined, forcing, orbit = self._joined, self._forcing, self._orbit
        # At the root P is the host, so every vertex is checked once; after
        # this pass no vertex has host degree <= room, so none starts
        # committed.
        if cycle_mode and not leaves_ok(full, 0, 0, full):
            return
        parent = list(range(self.n))
        rank = [1] * self.n
        # The trail of decided edges: (a, b, r) for an include that linked
        # the union-find root r, (a, b, -1) for an exclusion.
        trail: list[tuple[int, int, int]] = []
        size = 0  # included edges
        needy = 0  # vertices currently at tree-degree exactly 2
        # potential: vertices that may still end as leaves (tree degree <= 1
        # and, in SGHG search, not the tree neighbour of a committed leaf);
        # committed: vertices that must end as leaves.
        potential, committed = full, 0
        # Level `spine` is the deepest spine level: every level above it
        # took its exclude branch, and keeps it until the search ends.
        # `drop` holds the orbit edges a spine level's exclude step has
        # still to exclude.
        spine = 0
        drop: list[tuple[int, int]] = []
        # One record per level: the leaf masks, `needy`, the included count
        # and the trail length to restore when a branch comes back, and the
        # index of the edge the level decides.  Level i is being entered iff
        # it has no record yet.
        saved: list[tuple[int, int, int, int, int, int]] = []
        i = 0
        while i >= 0:
            back = i < len(saved)
            if not back:
                tick()
                missing = n1 - size
                if missing == 0:
                    if needy == 0:
                        yield [(a, b) for a, b, r in trail if r >= 0]
                    i -= 1
                    continue
                if needy > 2 * missing:
                    i -= 1
                    continue
                # `avail` stays connected, so once no edge is undecided the
                # included edges span the host: an edge is still missing,
                # so this scan stops before the end of `edges`.
                e = saved[-1][5] + 1 if saved else 0
                u, v = edges[e]
                while not (avail[u] ^ tree[u]) >> v & 1:
                    e += 1
                    u, v = edges[e]
                ru = u
                while parent[ru] != ru:
                    ru = parent[ru]
                rv = v
                while parent[rv] != rv:
                    rv = parent[rv]
                saved.append((potential, committed, needy, size, len(trail), e))
                include = ru != rv
            else:  # back at level i: undo the branch that came back
                potential, committed, needy, size, mark, e = saved[i]
                # The level's own edge went on the trail first: r < 0 there
                # says the exclude branch came back.
                excluded = trail[mark][2] < 0
                while len(trail) > mark:
                    a, b, r = trail.pop()
                    if r < 0:
                        avail[a] |= 1 << b
                        avail[b] |= 1 << a
                    else:
                        tree[a] ^= 1 << b
                        tree[b] ^= 1 << a
                        q = parent[r]
                        parent[r] = r
                        rank[q] -= rank[r]
                if excluded:
                    saved.pop()
                    i -= 1
                    continue
                u, v = edges[e]
                include = False
                if i == spine:
                    # The level below is a spine level too.
                    spine += 1
                    if not self.found:
                        # A spine level's include subtree failed, and every
                        # solution lies below its parent, so no solution holds
                        # (u, v) or any edge of its orbit.
                        drop = orbit(u, v)
            # Include first: level i comes back to undo it, then excludes.
            suspects = 0 if include else 1 << u | 1 << v
            feasible = True
            force = 0  # vertices with exactly one undecided edge they need
            a, b = u, v
            # Decide (a, b): the level's own edge, then each orbit edge in
            # `drop`, then each forced include, to a fixpoint.  An include
            # links the roots ru and rv.
            while True:
                if include:
                    if rank[ru] > rank[rv]:
                        ru, rv = rv, ru
                    parent[ru] = rv
                    rank[rv] += rank[ru]
                    trail.append((a, b, ru))
                    size += 1
                    tree[a] |= 1 << b
                    tree[b] |= 1 << a
                else:
                    trail.append((a, b, -1))
                    avail[a] &= ~(1 << b)
                    avail[b] &= ~(1 << a)
                for w in (a, b):
                    # An include has already set w's bit for this edge.
                    dw = tree[w].bit_count()
                    if include:
                        if dw == 2:
                            needy += 1
                            potential &= ~(1 << w)
                        elif dw == 3:
                            needy -= 1
                    if dw > 2:
                        continue
                    aw = avail[w].bit_count()
                    if aw - dw < 2 and dw != 1:
                        # At tree degree 0 or 2, w needs every edge it has
                        # left.
                        if aw == dw:
                            feasible = False
                        else:
                            force |= 1 << w
                    elif aw <= room and dw < 2:
                        # w can only end as a leaf; its tree neighbour, if
                        # any, is internal.
                        committed |= 1 << w
                        potential &= ~tree[w]
                # A cycle-closing exclusion (on entry) keeps u and v joined
                # by included edges, all in avail, so it asks nothing.
                if not include and back:
                    if drop and feasible:
                        # Each orbit edge is excluded in turn; a cut on the
                        # spine ends the search, so what is left of `drop`
                        # is never read.
                        a, b = drop.pop()
                        suspects |= 1 << a | 1 << b
                        continue
                    # Also after a whole orbit: connected iff u reaches v.
                    feasible = feasible and joined(u, v)
                if not (feasible and force and forcing):
                    break
                rest = 0
                while force and not rest:
                    low = force & -force
                    force ^= low
                    a = low.bit_length() - 1
                    # Empty when an include at a already gave it its edge.
                    rest = avail[a] & ~tree[a]
                if not rest:
                    break
                b = rest.bit_length() - 1
                ru = a
                while parent[ru] != ru:
                    ru = parent[ru]
                rv = b
                while parent[rv] != rv:
                    rv = parent[rv]
                if ru == rv:
                    feasible = False
                    break
                if a > b:
                    a, b = b, a
                include = True
            if feasible and cycle_mode:
                # The parent node passed the leaf check with the potential
                # leaves in saved[i].  A vertex is first committed at the
                # exclusion of an edge at it (only exclusions lower |avail|),
                # so each vertex just committed is already a suspect.
                feasible = leaves_ok(
                    potential, committed, saved[i][0] & ~potential, suspects
                )
            if feasible:
                i += 1

    def leaf_set(self) -> list[int]:
        return [w for w, t in enumerate(self.tree) if t.bit_count() == 1]

    def leaf_cycles(self) -> Iterator[tuple[int, ...]]:
        """Hamiltonian cycles through the leaves of the current HIST, one
        per rotation/reflection class; their nodes count against the budget.
        Every leaf is final, so the walk starts only if the leaves pass the
        leaf check with all of them committed."""
        leaves = sum(1 << w for w in self.leaf_set())
        if not self._leaves_ok(leaves, leaves, 0, leaves):
            return iter(())
        start = (leaves & -leaves).bit_length() - 1
        return _ham_walks(self.g._masks, leaves, start, None, self.tick)


# -- Hamiltonian walks -------------------------------------------------------


def _ham_walks(
    adj: Sequence[int],
    within: int,
    start: int,
    end: int | None,
    tick: Callable[[], None],
) -> Iterator[tuple[int, ...]]:
    """Hamiltonian walks of the subgraph that bitmask adjacency `adj`
    induces on the vertex mask `within`.

    With an `end`, yields every Hamiltonian start-end path; without one,
    every Hamiltonian cycle through `start`, once per reflection (second
    vertex smaller than the last).  Walks come in DFS order, smaller
    neighbor first; `tick` runs once per search node.
    """
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
        if used == within:
            # A path enters `end` only as its last vertex, so it ends there.
            if end is not None or (adj[cur] & endbit and path[1] < path[-1]):
                yield tuple(path)
        else:
            # Any unreached vertex that cannot be entered and left kills
            # this branch; so does a disconnection of the unreached region.
            free = ~used & within
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
            if used | endbit != within:
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
                    search.found = True
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
    check_endpoints(g, x, y)
    return next(_ham_walks(g._masks, (1 << g.n) - 1, x, y, _Meter(budget).tick), None)


def _leaf_balance_impossible(a: int, b: int) -> bool:
    """Does the side degree count rule out a HIST with equally many leaves
    on both sides of a bipartition with sides of a and b vertices?

    Every tree edge joins the sides, so each side's tree degrees sum to
    n - 1; a side of s vertices, its non-leaves at tree degree >= 3, has
    at least ceil((3s - n + 1)/2) leaves.  Unless the other side is a
    single vertex, a side also holds a non-leaf: s leaves would sum to s,
    and s = n - 1 leaves one vertex on the other side.  On one vertex the
    empty tree is a HIST with no leaves, so the count says nothing there.
    """
    n = a + b
    if n < 2:
        return False
    least = max(-((n - 1 - 3 * s) // 2) for s in (a, b))
    return least > min(a - (b >= 2), b - (a >= 2))


def balanced_leaf_hist_exists(
    g: Graph, partition: VertexSetPair, budget: SearchBudget = UNBOUNDED
) -> bool:
    """True iff some HIST has equally many leaves on both partition sides.

    The partition must be a genuine bipartition (spanning, no internal
    edges).  When the side degree count (`_leaf_balance_impossible`)
    rules a balanced HIST out, the answer is False at once and the budget
    is not touched; otherwise a walk over the HISTs of g decides, and a
    budget overrun during it raises BudgetExhausted.  The walk's orbit
    exclusion skips only HISTs that a twin swap maps onto ones it has
    already ruled out; twins lie on one side, so they are not balanced
    either.
    """
    left, right = partition.left, partition.right
    if left | right != set(range(g.n)):
        raise PreconditionError("partition must cover the vertex set")
    if edge := edge_inside(g, left, right):
        raise PreconditionError("edge {}-{} inside one partition side".format(*edge))
    if _leaf_balance_impossible(len(left), len(right)):
        return False
    search = _TreeSearch(g, False, budget)
    for _ in search.hists():
        leaves = search.leaf_set()
        if 2 * sum(1 for v in leaves if v in left) == len(leaves):
            return True
    return False
