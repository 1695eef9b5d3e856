"""Verifiers for every certificate the system produces.

All solvers and builders funnel their output through these checks, so the
rest of the code base only has to be fast, not trusted.  Each verifier
returns a Verdict carrying a reason code; `bool(verdict)` projects to the
plain accept/reject answer.

Each certificate type stores its canonical form on construction, so
builders hand it raw edges and tips and the verifiers read that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError
from .graph import Edge, Graph, vertex_connectivity_at_least
from .io_formats import CertificateDocument, normalize_cycle


def _norm_edges(edges: Iterable[Edge]) -> frozenset[Edge]:
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def cycle_edges(cycle: Sequence[int]) -> frozenset[Edge]:
    """The edges of the closed walk through `cycle`, each as (low, high)."""
    return _norm_edges(zip(cycle, [*cycle[1:], *cycle[:1]]))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    code: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


_OK = Verdict(True)


@dataclass(frozen=True)
class TreeCertificate:
    """An edge set claimed to be a (spanning) tree or forest of a host."""

    host_n: int
    edges: frozenset[Edge]  # built from any iterable of pairs
    is_spanning: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _norm_edges(self.edges))

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> list[int]:
        deg = [0] * self.host_n
        for u, v in self.edges:
            if u < 0 or v >= len(deg):  # a negative id would index from the end
                bad = u if u < 0 else v
                raise IndexError(f"vertex {bad} out of range for n={len(deg)}")
            deg[u] += 1
            deg[v] += 1
        return deg

    def vertices(self) -> set[int]:
        out: set[int] = set()
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def leaves(self) -> set[int]:
        return {v for v, d in enumerate(self.degrees()) if d == 1}

    def internal(self) -> set[int]:
        return {v for v, d in enumerate(self.degrees()) if d >= 2}

    def to_document(self) -> CertificateDocument:
        return CertificateDocument(
            "hist",
            {
                "host_n": self.host_n,
                "tree_edges": [list(e) for e in sorted(self.edges)],
                "spanning": self.is_spanning,
            },
        )

    @staticmethod
    def from_document(doc: CertificateDocument) -> "TreeCertificate":
        p = doc.payload_of("hist")
        return TreeCertificate(p["host_n"], p["tree_edges"], p["spanning"])


@dataclass(frozen=True)
class HalinCertificate:
    """A tree certificate plus a cyclic ordering of its leaves."""

    tree: TreeCertificate
    leaf_cycle: tuple[int, ...]  # built from any id sequence

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaf_cycle", normalize_cycle(tuple(self.leaf_cycle)))

    def to_document(self) -> CertificateDocument:
        return CertificateDocument(
            "sghg",
            {
                "host_n": self.tree.host_n,
                "tree_edges": [list(e) for e in sorted(self.tree.edges)],
                "leaf_cycle": list(self.leaf_cycle),
            },
        )

    @staticmethod
    def from_document(doc: CertificateDocument) -> "HalinCertificate":
        p = doc.payload_of("sghg")
        tree = TreeCertificate(p["host_n"], p["tree_edges"])
        return HalinCertificate(tree, p["leaf_cycle"])


@dataclass(frozen=True)
class StarPack:
    """Vertex-disjoint stars K_{1,k} with designated centers.

    arity 1 is a matching, 2 the wedge case, 3 the claw case.
    """

    host_n: int
    stars: tuple[tuple[int, frozenset[int]], ...]  # built from (center, tips) pairs
    arity: int

    def __post_init__(self) -> None:
        packed = tuple(sorted((c, frozenset(tips)) for c, tips in self.stars))
        object.__setattr__(self, "stars", packed)

    def centers(self) -> set[int]:
        return {c for c, _ in self.stars}

    def to_document(self) -> CertificateDocument:
        return CertificateDocument(
            "matching",
            {
                "host_n": self.host_n,
                "arity": self.arity,
                "stars": [
                    {"center": c, "tips": sorted(tips)} for c, tips in self.stars
                ],
            },
        )

    @staticmethod
    def from_document(doc: CertificateDocument) -> "StarPack":
        p = doc.payload_of("matching")
        stars = [(s["center"], s["tips"]) for s in p["stars"]]
        return StarPack(p["host_n"], stars, p["arity"])


# -- verifiers ---------------------------------------------------------------


def check_tree(g: Graph, t: TreeCertificate) -> Verdict:
    """Acyclicity, host membership and (when claimed) spanning."""
    if t.host_n != g.n:
        return Verdict(False, "host-mismatch", f"{t.host_n} != {g.n}")
    for u, v in t.edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            return Verdict(False, "vertex-out-of-range", f"{u}-{v}")
        if not g.has_edge(u, v):
            return Verdict(False, "tree-edge-not-in-host", f"{u}-{v}")
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sorted(t.edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            return Verdict(False, "not-acyclic", f"cycle closed by {u}-{v}")
        parent[ru] = rv
    if t.is_spanning:
        if len(t.edges) != g.n - 1:
            return Verdict(
                False, "not-spanning", f"{len(t.edges)} edges for n={g.n}"
            )
        # n-1 edges and acyclic means a single spanning component.
    return _OK


def is_hist(g: Graph, t: TreeCertificate) -> Verdict:
    """Spanning tree of g with no vertex of degree exactly 2."""
    base = check_tree(g, t)
    if not base:
        return base
    if not t.is_spanning:
        return Verdict(False, "not-spanning", "certificate does not span host")
    return _no_degree_two(t)


def is_hit_forest(g: Graph, t: TreeCertificate) -> Verdict:
    """Forest inside g whose vertices all avoid degree 2 (need not span)."""
    base = check_tree(g, t)
    return _no_degree_two(t) if base else base


def _no_degree_two(t: TreeCertificate) -> Verdict:
    """Reject at the smallest vertex of tree degree exactly 2."""
    deg = t.degrees()
    if 2 in deg:
        return Verdict(False, "degree-two-vertex", f"vertex {deg.index(2)}")
    return _OK


def is_generalized_halin(g: Graph, h: HalinCertificate) -> Verdict:
    """Tree is a HIST and the cycle passes through exactly its leaves."""
    cycle = h.leaf_cycle
    if len(cycle) < 3:
        return Verdict(False, "cycle-too-short", f"length {len(cycle)}")
    hist = is_hist(g, h.tree)
    if not hist:
        return Verdict(False, "not-a-hist", f"{hist.code}: {hist.detail}")
    cyc_set = set(cycle)
    if len(cyc_set) != len(cycle):
        return Verdict(False, "cycle-repeats-vertex", "")
    leaves = h.tree.leaves()
    missing = leaves - cyc_set
    if missing:
        return Verdict(False, "cycle-misses-leaf", f"vertex {min(missing)}")
    extra = cyc_set - leaves
    if extra:
        return Verdict(False, "cycle-uses-nonleaf", f"vertex {min(extra)}")
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(u, v):
            return Verdict(False, "cycle-edge-absent", f"{u}-{v}")
    return _OK


def wheel_minor(h: HalinCertificate) -> tuple[int, tuple[int, ...]]:
    """Order and rim of the wheel obtained by contracting the tree's
    internal vertices to a single hub.

    Precondition: the certificate already passed is_generalized_halin.
    """
    leaves = h.tree.leaves()
    if set(h.leaf_cycle) != leaves or len(h.leaf_cycle) < 3:
        raise PreconditionError("certificate not verified as generalized Halin")
    return len(leaves) + 1, h.leaf_cycle


def verify_star_pack(
    g: Graph, p: StarPack, required_centers: Iterable[int] | None = None
) -> Verdict:
    """Host size, disjointness, host edges, uniform arity and the
    declared centers."""
    if p.host_n != g.n:
        return Verdict(False, "host-mismatch", f"{p.host_n} != {g.n}")
    if p.arity < 1:
        return Verdict(False, "bad-arity", f"arity {p.arity}")
    seen: set[int] = set()
    for c, tips in p.stars:
        if len(tips) != p.arity:
            return Verdict(False, "bad-arity", f"center {c}")
        if c in tips:
            return Verdict(False, "center-in-tips", f"center {c}")
        members = {c} | tips
        if seen & members:
            return Verdict(False, "stars-overlap", f"near center {c}")
        seen |= members
        for t in tips:
            if not (0 <= t < g.n and 0 <= c < g.n):
                return Verdict(False, "vertex-out-of-range", f"{c}-{t}")
            if not g.has_edge(c, t):
                return Verdict(False, "star-edge-absent", f"{c}-{t}")
    if required_centers is not None and p.centers() != set(required_centers):
        return Verdict(False, "wrong-centers", "")
    return _OK


@dataclass
class SghgInvariantReport:
    """Structural facts every accepted SGHG must satisfy."""

    leaf_count: int
    internal_count: int
    more_leaves_than_internal: bool
    tree_cycle_edge_disjoint: bool
    union_three_connected: bool
    wheel_order: int
    wheel_order_at_least_half: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.more_leaves_than_internal
            and self.tree_cycle_edge_disjoint
            and self.union_three_connected
            and self.wheel_order_at_least_half
        )


def sghg_invariants(g: Graph, h: HalinCertificate) -> SghgInvariantReport:
    """Check the derived structural invariants on a verified certificate."""
    verdict = is_generalized_halin(g, h)
    if not verdict:
        raise PreconditionError(f"invalid certificate: {verdict.code}")
    leaves = h.tree.leaves()
    internal = h.tree.internal()
    cycle = cycle_edges(h.leaf_cycle)
    union = Graph(g.n, h.tree.edges | cycle)
    order, _ = wheel_minor(h)
    return SghgInvariantReport(
        leaf_count=len(leaves),
        internal_count=len(internal),
        more_leaves_than_internal=len(leaves) > len(internal),
        tree_cycle_edge_disjoint=not (h.tree.edges & cycle),
        union_three_connected=vertex_connectivity_at_least(union, 3),
        wheel_order=order,
        wheel_order_at_least_half=order >= -(-g.n // 2),
    )
