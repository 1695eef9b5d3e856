"""The three insertion builders that absorb extra vertices into a
bipartite pair, with their exact vertex and leaf count formulas.

Each builder consumes an InsertionInstance: a bipartite host (side_a,
side_b) plus a disjoint inserted set with declared adjacency into the
host.  Anchors are always the lexicographically smallest valid
candidates, so outputs are deterministic.  The declared degree
preconditions are strong enough that every selection step provably
succeeds; a failure after validation therefore raises
FalsificationError, and so does any mismatch between the built tallies
and the closed-form count predictions (flagged, never reconciled
silently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .certify import TreeCertificate
from .errors import FalsificationError, PreconditionError
from .graph import Graph, edge_inside

Edge = tuple[int, int]


@dataclass(frozen=True)
class InsertionInstance:
    """Bipartite host plus inserted vertices wired into it."""

    host: Graph
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    inserted: tuple[int, ...]

    def __post_init__(self):
        a, b, i = set(self.side_a), set(self.side_b), set(self.inserted)
        if a & b or a & i or b & i:
            raise PreconditionError("sides and inserted set must be disjoint")
        if a | b | i != set(range(self.host.n)):
            raise PreconditionError("sides and inserted set must cover the host")
        if edge := edge_inside(self.host, a, b, i):
            raise PreconditionError("edge {}-{} inside one class of the instance".format(*edge))

    @property
    def size(self) -> int:
        return len(self.inserted)

    def deg_into(self, v: int, side: tuple[int, ...]) -> int:
        return len(self.host.neighbors(v) & set(side))


def complete_instance(a_size: int, b_size: int, k: int) -> InsertionInstance:
    """Complete bipartite host with k inserted vertices seeing everything."""
    n = a_size + b_size + k
    edges = [(i, a_size + j) for i in range(a_size) for j in range(b_size)]
    for x in range(a_size + b_size, n):
        edges.extend((x, v) for v in range(a_size + b_size))
    return InsertionInstance(
        Graph(n, edges),
        tuple(range(a_size)),
        tuple(range(a_size, a_size + b_size)),
        tuple(range(a_size + b_size, n)),
    )


# -- expected count formulas ---------------------------------------------------


def expected_hit_counts(k: int) -> dict[str, int]:
    return {
        "a_vertices": 4 * k - 1,
        "b_vertices": 4 * k - 1,
        "a_leaves": 3 * k,
        "b_leaves": min(2 * k + 1, 3 * k - 1),
        "components": 1,
        "degree_two": 0,
    }


def expected_tree_counts(k: int) -> dict[str, int]:
    if k <= 2:
        leaves = 2 * k
    else:
        leaves = 2 * k - math.ceil((k - 3) / 2)
    return {
        "a_vertices": 3 * k,
        "b_vertices": 2 if k == 1 else 2 * k + 1,
        "a_leaves": leaves,
        "b_leaves": leaves,
        "components": 1,
        "degree_two": 1 if (k == 2 or (k > 2 and k % 2 == 0)) else 0,
    }


def expected_forest_counts(k: int) -> dict[str, int]:
    return {
        "a_vertices": 6 * k,
        "b_vertices": 3 * k,
        "a_leaves": 6 * k,
        "b_leaves": 0,
        "components": k,
        "degree_two": 0,
    }


@dataclass
class GadgetResult:
    certificate: TreeCertificate
    counts: dict[str, int] = field(default_factory=dict)


# -- shared machinery ----------------------------------------------------------


class _Picker:
    """Lexicographically smallest unused candidate, tracked per side."""

    def __init__(self, inst: InsertionInstance):
        self.host = inst.host
        self.used: set[int] = set()

    def take(self, around: int, pool: tuple[int, ...], count: int, what: str) -> list[int]:
        cands = sorted(self.host.neighbors(around) & set(pool) - self.used)
        if len(cands) < count:
            raise FalsificationError(
                f"anchor selection failed for {what}",
                {"around": around, "needed": count, "available": len(cands)},
            )
        picked = cands[:count]
        self.used.update(picked)
        return picked

    def hang(self, around: int, pool: tuple[int, ...], count: int, what: str) -> list[Edge]:
        """Edges from `around` to the vertices `take` picks for it."""
        return [(around, t) for t in self.take(around, pool, count, what)]

    def take_common(
        self, around: tuple[int, ...], pool: tuple[int, ...], what: str
    ) -> int:
        common = set(pool) - self.used
        for v in around:
            common &= self.host.neighbors(v)
        if not common:
            raise FalsificationError(
                f"no common anchor for {what}", {"around": list(around)}
            )
        pick = min(common)
        self.used.add(pick)
        return pick


def _tally(inst: InsertionInstance, edges: list[Edge], expected: dict[str, int], op: str) -> GadgetResult:
    cert = TreeCertificate(inst.host.n, edges, is_spanning=False)
    deg = cert.degrees()
    a, b = set(inst.side_a), set(inst.side_b)
    verts = cert.vertices()
    counts = {
        "a_vertices": sum(1 for v in verts if v in a),
        "b_vertices": sum(1 for v in verts if v in b),
        "a_leaves": sum(1 for v in verts if v in a and deg[v] == 1),
        "b_leaves": sum(1 for v in verts if v in b and deg[v] == 1),
        "degree_two": sum(1 for v in verts if deg[v] == 2),
        "components": len(verts) - len(cert.edges),
    }
    mismatch = {k: (counts[k], expected[k]) for k in expected if counts[k] != expected[k]}
    if mismatch:
        raise FalsificationError(
            f"{op} counts disagree with the closed-form prediction",
            {"mismatch": mismatch},
        )
    inserted_internal = all(deg[x] >= 3 for x in inst.inserted)
    if not inserted_internal:
        raise FalsificationError(f"{op} left an inserted vertex non-internal", {})
    return GadgetResult(cert, counts)


def _claws(
    inst: InsertionInstance, picker: _Picker, pool: tuple[int, ...]
) -> list[list[int]]:
    return [picker.take(x, pool, 3, f"claw at {x}") for x in sorted(inst.inserted)]


def _require_degrees(
    inst: InsertionInstance, members: tuple[int, ...], side: str, bound: int, label: str
) -> None:
    """Every member has at least `bound` neighbors in the named side."""
    pool = getattr(inst, side)
    for v in members:
        if inst.deg_into(v, pool) < bound:
            raise PreconditionError(f"deg({v}, {side}) < {label} = {bound}")


# -- Operation-style builders --------------------------------------------------


def validate_hit_instance(inst: InsertionInstance) -> None:
    """Exact degree preconditions for the bridged-HIT builder."""
    k = inst.size
    if k < 1:
        raise PreconditionError("need at least one inserted vertex")
    _require_degrees(inst, inst.inserted, "side_b", 3 * k, "3|I|")
    _require_degrees(inst, inst.side_b, "side_a", 4 * k - 1, "4|I|-1")
    if k >= 2:
        _require_degrees(inst, inst.side_a, "side_b", 4 * k - 1, "4|I|-1")
        # Consecutive claw anchors must share enough neighbors.
        sim = _Picker(inst)
        claws = _claws(inst, sim, inst.side_b)
        aset = set(inst.side_a)
        for i in range(k - 1):
            p, q = claws[i][2], claws[i + 1][0]
            common = inst.host.neighbors(p) & inst.host.neighbors(q) & aset
            if len(common) < k:
                raise PreconditionError(
                    f"anchors {p},{q} share only {len(common)} neighbors (< |I|)"
                )


def insertion_hit(inst: InsertionInstance) -> GadgetResult:
    """HIT absorbing the inserted set as internal vertices: claws into
    side_b, consecutive claws bridged through side_a connectors, side_a
    wedge and matching leaves balancing the counts."""
    validate_hit_instance(inst)
    k = inst.size
    picker = _Picker(inst)
    claws = _claws(inst, picker, inst.side_b)
    xs = sorted(inst.inserted)
    edges: list[Edge] = [
        (x, t) for x, tips in zip(xs, claws) for t in tips
    ]
    if k == 1:
        edges += picker.hang(claws[0][2], inst.side_a, 3, "terminal wedge")
        return _tally(inst, edges, expected_hit_counts(k), "insertion_hit")
    bridges = []
    for i in range(k - 1):
        y = picker.take_common(
            (claws[i][2], claws[i + 1][0]), inst.side_a, f"bridge {i}"
        )
        bridges.append(y)
        edges += [(claws[i][2], y), (claws[i + 1][0], y)]
    for i in range(k - 1):  # wedge pair per bridged third tip
        edges += picker.hang(claws[i][2], inst.side_a, 2, "wedge")
    for i in range(1, k):  # single leaf per bridged first tip
        edges += picker.hang(claws[i][0], inst.side_a, 1, "leaf")
    for y in bridges:  # one side_b leaf per bridge vertex
        edges += picker.hang(y, inst.side_b, 1, "bridge leaf")
    edges += picker.hang(claws[0][2], inst.side_a, 3, "terminal wedge")
    return _tally(inst, edges, expected_hit_counts(k), "insertion_hit")


def validate_tree_instance(inst: InsertionInstance) -> None:
    """Exact degree preconditions for the near-HIT tree builder."""
    k = inst.size
    if k < 1:
        raise PreconditionError("need at least one inserted vertex")
    _require_degrees(inst, inst.inserted, "side_a", 3 * k, "3|I|")
    _require_degrees(inst, inst.side_a, "side_b", 2 * k + 2, "2|I|+2")
    if k < 2:
        return
    sim = _Picker(inst)
    claws = _claws(inst, sim, inst.side_a)
    bset = set(inst.side_b)

    def common_of(tips: list[int]) -> int:
        s = bset.copy()
        for t in tips:
            s &= inst.host.neighbors(t)
        return len(s)

    for tips in _tree_anchor_groups(claws, k):
        if common_of(tips) < k:
            raise PreconditionError(
                f"anchor group {tips} shares fewer than |I| neighbors"
            )


def _tree_anchor_groups(claws: list[list[int]], k: int) -> list[list[int]]:
    """Connector anchor groups: one triple of third tips, then one group
    per absorbed pair of claws (a pair at the end when k is even)."""
    if k == 2:
        return [[claws[0][2], claws[1][0]]]
    groups = [[claws[0][2], claws[1][2], claws[2][2]]]
    h = math.ceil((k - 3) / 2)
    for j in range(1, h + 1):
        group = [claws[2 * j][1], claws[2 * j + 1][2]]
        if 2 * j + 2 < k:
            group.append(claws[2 * j + 2][2])
        groups.append(group)
    return groups


def insertion_tree(inst: InsertionInstance) -> GadgetResult:
    """Tree absorbing the inserted set with claws into side_a and shared
    connectors in side_b; carries exactly one degree-2 vertex when the
    inserted count is 2 or even, and none otherwise."""
    validate_tree_instance(inst)
    k = inst.size
    picker = _Picker(inst)
    claws = _claws(inst, picker, inst.side_a)
    xs = sorted(inst.inserted)
    edges: list[Edge] = [(x, t) for x, tips in zip(xs, claws) for t in tips]
    if k == 1:
        edges += picker.hang(claws[0][2], inst.side_b, 2, "terminal pair")
        return _tally(inst, edges, expected_tree_counts(k), "insertion_tree")
    if k == 2:
        y = picker.take_common((claws[0][2], claws[1][0]), inst.side_b, "joint")
        edges += [(claws[0][2], y), (claws[1][0], y)]
        for anchor in (claws[0][2], claws[1][0]):
            edges += picker.hang(anchor, inst.side_b, 2, "leaf pair")
        return _tally(inst, edges, expected_tree_counts(k), "insertion_tree")
    groups = _tree_anchor_groups(claws, k)
    matched: list[int] = [c[2] for c in claws]
    for tips in groups:
        y = picker.take_common(tuple(tips), inst.side_b, f"connector {tips}")
        edges.extend((t, y) for t in tips)
    h = math.ceil((k - 3) / 2)
    matched.extend(claws[2 * j][1] for j in range(1, h + 1))
    for t in matched:
        edges += picker.hang(t, inst.side_b, 1, "pendant")
    extras = 3 if k % 2 == 1 else 2
    edges += picker.hang(claws[0][2], inst.side_b, extras, "terminal leaves")
    return _tally(inst, edges, expected_tree_counts(k), "insertion_tree")


def validate_forest_instance(inst: InsertionInstance) -> None:
    """Exact degree preconditions for the star-of-stars forest builder."""
    k = inst.size
    if k < 1:
        raise PreconditionError("need at least one inserted vertex")
    _require_degrees(inst, inst.inserted, "side_b", 3 * k, "3|I|")
    _require_degrees(inst, inst.side_b, "side_a", 6 * k, "6|I|")


def insertion_forest(inst: InsertionInstance) -> GadgetResult:
    """Forest of one component per inserted vertex: a claw into side_b,
    each claw tip carrying a wedge of two side_a leaves."""
    validate_forest_instance(inst)
    picker = _Picker(inst)
    claws = _claws(inst, picker, inst.side_b)
    xs = sorted(inst.inserted)
    edges: list[Edge] = [(x, t) for x, tips in zip(xs, claws) for t in tips]
    for tips in claws:
        for t in tips:
            edges += picker.hang(t, inst.side_a, 2, "wedge")
    return _tally(inst, edges, expected_forest_counts(inst.size), "insertion_forest")
