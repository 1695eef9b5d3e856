"""The hardness reduction pipeline with certificate lifting and projection.

Stage one attaches a pendant vertex to every non-terminal, so a spanning
tree free of degree-2 vertices must run a Hamiltonian path between the
terminals.  Stage two hangs a three-vertex chain gadget off each pendant
and threads one fixed cycle through the terminals and all gadget vertices;
that cycle is the only possible leaf cycle, which makes SGHG existence in
the output equivalent to Hamiltonian-path existence in the input.  Every
vertex id derives from the base order and the terminals (`ReductionTrace`).

Projection inverts lifting exactly.  With the leaf cycle forced, every
gadget vertex is a leaf on its pendant and every pendant hangs off its
non-terminal.  x and y are leaves and every other base vertex has tree
degree at least 3, one edge going to its pendant, so the base edges of the
tree form a tree whose only leaves are x and y: a Hamiltonian x-y path.
Every SGHG of the output is thus the lift of one path; projection walks
it and checks that it lifts back to the certificate.  A mismatch would
falsify the argument itself, so it aborts loudly instead of being patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import HalinCertificate, TreeCertificate, cycle_edges, is_generalized_halin
from .errors import FalsificationError, PreconditionError
from .graph import Edge, Graph
from .io_formats import CertificateDocument, emit_certificate


@dataclass(frozen=True)
class ReductionTrace:
    """Vertex correspondence linking the base graph to both stages.

    Only base_n and the terminals are stored; every other id derives from
    them.  Base vertices keep their ids; with the t = base_n - 2
    non-terminals in ascending order, pendant i sits at base_n + i and
    gadget triple i at base_n + t + 3i .. +3i+2, so host_n = base_n + 4t.
    """

    base_n: int
    terminals: tuple[int, int]

    @property
    def t(self) -> int:
        return self.base_n - 2

    @property
    def z_order(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.base_n) if v not in self.terminals)

    @property
    def pendant_ids(self) -> tuple[int, ...]:
        return tuple(range(self.base_n, self.base_n + self.t))

    @property
    def gadget_ids(self) -> tuple[tuple[int, int, int], ...]:
        base = self.base_n + self.t
        return tuple((base + 3 * i, base + 3 * i + 1, base + 3 * i + 2) for i in range(self.t))

    @property
    def host_n(self) -> int:
        return self.base_n + 4 * self.t

    def cycle_order(self) -> tuple[int, ...]:
        """The fixed cycle as a vertex sequence: x, gadget chains, y."""
        x, y = self.terminals
        return (x, *(v for triple in self.gadget_ids for v in triple), y)

    def to_document(self) -> CertificateDocument:
        cycle = sorted(cycle_edges(self.cycle_order()))
        return CertificateDocument(
            "reduction-trace",
            {
                "base_n": self.base_n,
                "terminals": list(self.terminals),
                "z_order": list(self.z_order),
                "pendant_ids": list(self.pendant_ids),
                "gadget_ids": [list(t) for t in self.gadget_ids],
                "cycle_edges": [list(e) for e in cycle],
            },
        )

    @staticmethod
    def from_document(doc: CertificateDocument) -> "ReductionTrace":
        """Rebuild the trace from its terminals (z_order lists every
        non-terminal, which bounds the rebuild by the document's own
        length); every field must match the rebuild."""
        p = doc.payload_of("reduction-trace")
        text = emit_certificate(doc)  # validates the fields read below
        _, trace = build_g_prime(Graph.empty(len(p["z_order"]) + 2), *p["terminals"])
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
    trace = ReductionTrace(n, (x, y))
    edges = list(g.edges())
    edges.extend(zip(trace.z_order, trace.pendant_ids))
    return Graph(n + trace.t, edges), trace


def build_g_double_prime(gp: Graph, trace: ReductionTrace) -> tuple[Graph, ReductionTrace]:
    """Add a 3-vertex chain gadget per pendant plus the forced cycle."""
    if gp.n != trace.base_n + trace.t:
        raise PreconditionError("graph does not match the stage-one trace")
    edges = set(gp.edges())
    for zp, (g1, g2, g3) in zip(trace.pendant_ids, trace.gadget_ids):
        edges.update([(zp, g1), (zp, g2), (zp, g3), (g1, g2), (g2, g3)])
    edges.update(cycle_edges(trace.cycle_order()))
    return Graph(trace.host_n, edges), trace


def reduce_instance(g: Graph, x: int, y: int) -> tuple[Graph, ReductionTrace]:
    """Both stages at once: the SGHG instance for a ham-path question."""
    return build_g_double_prime(*build_g_prime(g, x, y))


def lift_certificate(trace: ReductionTrace, path: tuple[int, ...]) -> HalinCertificate:
    """Turn a Hamiltonian terminal path of the base graph into an SGHG
    certificate of the stage-two graph."""
    x, y = trace.terminals
    if not path or (path[0], path[-1]) != (x, y):
        raise PreconditionError("path must run from x to y")
    if sorted(path) != list(range(trace.base_n)):
        raise PreconditionError("path must span the base graph exactly once")
    edges: list[Edge] = list(zip(path, path[1:]))
    for z, zp, triple in zip(trace.z_order, trace.pendant_ids, trace.gadget_ids):
        edges.append((z, zp))
        edges.extend((zp, gv) for gv in triple)
    return HalinCertificate(TreeCertificate(trace.host_n, edges), trace.cycle_order())


def project_certificate(
    gpp: Graph, trace: ReductionTrace, h: HalinCertificate
) -> tuple[int, ...]:
    """Recover the Hamiltonian terminal path of the base graph whose lift
    is the verified SGHG certificate h."""
    verdict = is_generalized_halin(gpp, h)
    if not verdict:
        raise PreconditionError(f"certificate rejected: {verdict.code}")
    n = trace.base_n
    base = Graph(n, [e for e in h.tree.edges if max(e) < n])
    x, y = trace.terminals
    # The base edges lie in a tree, so a walk that never steps back ends.
    walk = [x]
    while walk[-1] != y:
        nxt = base.neighbors(walk[-1]).difference(walk[-2:-1])
        if len(nxt) != 1:
            break
        walk.extend(nxt)
    path = tuple(walk)
    if len(path) == n and path[-1] == y and lift_certificate(trace, path) == h:
        return path
    raise FalsificationError(
        "verified certificate is not the lift of a terminal path",
        {"trace": trace.to_document().payload, "walk": walk},
    )
