"""The hardness reduction pipeline with certificate lifting and projection.

Stage one attaches a pendant vertex to every non-terminal, so a spanning
tree free of degree-2 vertices must run a Hamiltonian path between the
terminals.  Stage two hangs a three-vertex chain gadget off each pendant
and threads one fixed cycle through the terminals and all gadget vertices;
that cycle is the only possible leaf cycle, which makes SGHG existence in
the output equivalent to Hamiltonian-path existence in the input.

Projection inverts lifting: stripping gadget and pendant vertices from a
verified certificate must leave a Hamiltonian path between the terminals.
A structural contradiction during stripping would falsify the equivalence
argument itself, so it aborts loudly instead of being patched over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .certify import HalinCertificate, TreeCertificate, is_generalized_halin
from .errors import FalsificationError, PreconditionError
from .graph import Graph
from .io_formats import CertificateDocument, emit_certificate

Edge = tuple[int, int]


@dataclass(frozen=True)
class ReductionTrace:
    """Vertex correspondence linking the base graph to both stages.

    Ids are assigned densely: base vertices keep their ids, pendant i sits
    at base_n + i, and gadget triple i occupies base_n + t + 3i .. +3i+2,
    following the ascending order of the non-terminal vertices.
    """

    base_n: int
    terminals: tuple[int, int]
    z_order: tuple[int, ...]
    pendant_ids: tuple[int, ...]
    gadget_ids: tuple[tuple[int, int, int], ...] = ()
    cycle_edges: frozenset[Edge] = frozenset()

    @property
    def t(self) -> int:
        return len(self.z_order)

    def cycle_order(self) -> tuple[int, ...]:
        """The fixed cycle as a vertex sequence: x, gadget chains, y."""
        x, y = self.terminals
        seq = [x]
        for triple in self.gadget_ids:
            seq.extend(triple)
        seq.append(y)
        return tuple(seq)

    def to_document(self) -> CertificateDocument:
        return CertificateDocument(
            "reduction-trace",
            {
                "base_n": self.base_n,
                "terminals": list(self.terminals),
                "z_order": list(self.z_order),
                "pendant_ids": list(self.pendant_ids),
                "gadget_ids": [list(t) for t in self.gadget_ids],
                "cycle_edges": [list(e) for e in sorted(self.cycle_edges)],
            },
        )

    @staticmethod
    def from_document(doc: CertificateDocument) -> "ReductionTrace":
        """Rebuild the trace from its terminals (ids are dense, and z_order
        lists every non-terminal); every field must match the rebuild."""
        p = doc.payload_of("reduction-trace")
        text = emit_certificate(doc)  # validates the fields read below
        _, trace = reduce_instance(Graph.empty(len(p["z_order"]) + 2), *p["terminals"])
        if emit_certificate(trace.to_document()) != text:
            raise PreconditionError("reduction trace does not match its terminals")
        return trace


def build_g_prime(g: Graph, x: int, y: int) -> tuple[Graph, ReductionTrace]:
    """Attach one pendant neighbor to every non-terminal vertex."""
    n = g.n
    if x == y or not (0 <= x < n and 0 <= y < n):
        raise PreconditionError("terminals must be two distinct vertices of g")
    if n < 3:
        raise PreconditionError(
            "reduction needs at least one non-terminal vertex (n >= 3)"
        )
    z_order = tuple(v for v in range(n) if v not in (x, y))
    pendant_ids = tuple(n + i for i in range(len(z_order)))
    edges = list(g.edges())
    edges.extend((z, p) for z, p in zip(z_order, pendant_ids))
    gp = Graph(n + len(z_order), edges)
    return gp, ReductionTrace(n, (x, y), z_order, pendant_ids)


def build_g_double_prime(gp: Graph, trace: ReductionTrace) -> tuple[Graph, ReductionTrace]:
    """Add a 3-vertex chain gadget per pendant plus the forced cycle."""
    t = trace.t
    base = trace.base_n + t
    if gp.n != base:
        raise PreconditionError("graph does not match the stage-one trace")
    gadget_ids = tuple(
        (base + 3 * i, base + 3 * i + 1, base + 3 * i + 2) for i in range(t)
    )
    edges = set(gp.edges())
    for zp, (g1, g2, g3) in zip(trace.pendant_ids, gadget_ids):
        edges.update([(zp, g1), (zp, g2), (zp, g3), (g1, g2), (g2, g3)])

    full = replace(trace, gadget_ids=gadget_ids)
    order = full.cycle_order()
    cycle_edges = {
        (a, b) if a < b else (b, a) for a, b in zip(order, order[1:] + order[:1])
    }
    edges.update(cycle_edges)
    return Graph(base + 3 * t, edges), replace(full, cycle_edges=frozenset(cycle_edges))


def reduce_instance(g: Graph, x: int, y: int) -> tuple[Graph, ReductionTrace]:
    """Both stages at once: the SGHG instance for a ham-path question."""
    gp, partial = build_g_prime(g, x, y)
    return build_g_double_prime(gp, partial)


def lift_certificate(trace: ReductionTrace, path: tuple[int, ...]) -> HalinCertificate:
    """Turn a Hamiltonian terminal path of the base graph into an SGHG
    certificate of the stage-two graph."""
    x, y = trace.terminals
    if not path or (path[0], path[-1]) != (x, y):
        raise PreconditionError("path must run from x to y")
    if sorted(path) != list(range(trace.base_n)):
        raise PreconditionError("path must span the base graph exactly once")
    if not trace.gadget_ids:
        raise PreconditionError("trace lacks stage-two gadget ids")
    edges: list[Edge] = list(zip(path, path[1:]))
    for z, zp, triple in zip(trace.z_order, trace.pendant_ids, trace.gadget_ids):
        edges.append((z, zp))
        edges.extend((zp, gv) for gv in triple)
    host_n = trace.base_n + 4 * trace.t
    tree = TreeCertificate(host_n, edges)
    return HalinCertificate(tree, trace.cycle_order())


def project_certificate(
    gpp: Graph, trace: ReductionTrace, h: HalinCertificate
) -> tuple[int, ...]:
    """Strip gadget and pendant vertices from a verified SGHG certificate,
    recovering a Hamiltonian terminal path of the base graph."""
    verdict = is_generalized_halin(gpp, h)
    if not verdict:
        raise PreconditionError(f"certificate rejected: {verdict.code}")
    gadget_vertices = {v for triple in trace.gadget_ids for v in triple}
    pendants = set(trace.pendant_ids)

    def dump(**extra) -> dict:
        return {"trace": trace.to_document().payload, **extra}

    leaves = h.tree.leaves()
    if not gadget_vertices <= leaves:
        raise FalsificationError(
            "a gadget vertex is internal in a verified certificate", dump()
        )
    remaining = [e for e in h.tree.edges if not (set(e) & gadget_vertices)]
    # Every pendant must now hang off its non-terminal with degree 1.
    deg: dict[int, int] = {}
    for u, v in remaining:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    for z, zp in zip(trace.z_order, trace.pendant_ids):
        if deg.get(zp, 0) != 1 or (min(z, zp), max(z, zp)) not in remaining:
            raise FalsificationError(
                "pendant vertex not attached as forced", dump(pendant=zp)
            )
    path_edges = [e for e in remaining if not (set(e) & pendants)]
    # The leftovers must chain the base vertices from x to y.
    adj: dict[int, list[int]] = {}
    for u, v in path_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    x, y = trace.terminals
    if len(path_edges) != trace.base_n - 1 or set(adj) != set(range(trace.base_n)):
        raise FalsificationError("stripped tree is not a spanning path", dump())
    for v, nb in adj.items():
        want = 1 if v in (x, y) else 2
        if len(nb) != want:
            raise FalsificationError(
                "stripped tree has a branch vertex", dump(vertex=v)
            )
    seq = [x]
    prev = None
    while seq[-1] != y:
        nxt = [w for w in adj[seq[-1]] if w != prev]
        if len(nxt) != 1:
            raise FalsificationError("path reconstruction stalled", dump())
        prev = seq[-1]
        seq.append(nxt[0])
    if len(seq) != trace.base_n:
        raise FalsificationError("path misses base vertices", dump())
    return tuple(seq)
