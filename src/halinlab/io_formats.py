"""Interchange formats: graph6, plain edge lists, certificate documents.

graph6 follows the standard bit packing: 6 bits per character, offset 63,
adjacency bits in upper-triangle column order.  Certificate documents are
UTF-8 JSON records with sorted keys so re-emission is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError, PreconditionError
from .graph import Graph

# -- graph6 -----------------------------------------------------------------


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(
            ((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)
        )
    raise PreconditionError("n too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Decode the vertex-count header; returns (n, bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 string", 0)
    c = data[0]
    if c == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise ParseError("truncated long-form header", len(data))
            vals = [b - 63 for b in data[2:8]]
            if any(v < 0 or v > 63 for v in vals):
                raise ParseError("corrupt long-form header", 2)
            n = 0
            for v in vals:
                n = n << 6 | v
            return n, 8
        if len(data) < 4:
            raise ParseError("truncated medium-form header", len(data))
        vals = [b - 63 for b in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise ParseError("corrupt medium-form header", 1)
        return vals[0] << 12 | vals[1] << 6 | vals[2], 4
    if not 63 <= c <= 125:
        raise ParseError(f"invalid header byte {c}", 0)
    return c - 63, 1


def emit_graph6(g: Graph) -> bytes:
    """Encode a graph as graph6 bytes; round-trips through parse_graph6."""
    out = bytearray(_encode_n(g.n))
    bits: list[int] = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)


def parse_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 value (optionally prefixed with '>>graph6<<')."""
    data = text.encode("ascii") if isinstance(text, str) else text
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<") :]
    n, used = _decode_n(data)
    body = data[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ParseError(
            f"truncated bit stream: need {need} bytes, have {len(body)}",
            used + len(body),
        )
    if len(body) > need:
        raise ParseError("trailing bytes after graph6 payload", used + need)
    bits: list[int] = []
    for i, c in enumerate(body):
        if not 63 <= c <= 126:
            raise ParseError(f"out-of-range character {c}", used + i)
        val = c - 63
        bits.extend((val >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    if any(bits[idx:]):
        raise ParseError("nonzero padding bits", used + need - 1)
    return Graph(n, edges)


# -- edge lists ---------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus one "u v" pair per line."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n <edge count>'", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("non-integer header", 1) from None
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[tuple[int, int]] = []
    seen = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer vertex id", lineno) from None
        if u == v:
            raise ParseError(f"self-loop {u}-{v}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge {u}-{v}", lineno)
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ParseError(f"duplicate edge {u}-{v}", lineno)
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_graph(path: str, fmt: str | None = None) -> Graph:
    """Read a graph file; format inferred from suffix unless given."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    if fmt == "graph6":
        return parse_graph6(raw)
    if fmt == "edgelist":
        return parse_edge_list(raw.decode("utf-8"))
    raise PreconditionError(f"unknown graph format {fmt!r}")


# -- certificate documents ----------------------------------------------------

KINDS = ("hist", "sghg", "matching", "reduction-trace", "experiment-report")

_REQUIRED_FIELDS = {
    "hist": ("host_n", "tree_edges", "spanning"),
    "sghg": ("host_n", "tree_edges", "leaf_cycle"),
    "matching": ("host_n", "arity", "stars"),
    "reduction-trace": (
        "base_n",
        "terminals",
        "z_order",
        "pendant_ids",
        "gadget_ids",
        "cycle_edges",
    ),
    "experiment-report": ("parameters", "trials"),
}


def normalize_cycle(seq: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to the minimum element and normalize direction.

    The canonical form starts at the smallest vertex and continues toward
    the smaller of its two cycle neighbors, so rotations and reflections
    of the same cycle all map to one tuple.
    """
    if not seq:
        return ()
    k = len(seq)
    i = seq.index(min(seq))
    fwd = tuple(seq[(i + j) % k] for j in range(k))
    rev = tuple(seq[(i - j) % k] for j in range(k))
    return min(fwd, rev)


@dataclass
class CertificateDocument:
    """Typed record for everything the CLI reads and writes."""

    kind: str
    payload: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown certificate kind {self.kind!r}")
        if not isinstance(self.payload, dict):
            raise PreconditionError(f"{self.kind} payload must be an object")
        for key in _REQUIRED_FIELDS[self.kind]:
            if key not in self.payload:
                raise PreconditionError(
                    f"{self.kind} document missing field {key!r}"
                )
        if self.kind == "experiment-report":
            return
        bound = self._id_bound()
        for v in self._referenced_vertices():
            if not _is_int(v):
                raise PreconditionError(f"vertex id {v!r} is not an integer")
            if not 0 <= v < bound:
                raise PreconditionError(f"vertex id {v} outside declared range")

    def _id_bound(self) -> int:
        if self.kind == "reduction-trace":
            n = self.payload["base_n"]
            t = len(_entries(self.payload["z_order"], "z_order"))
        else:
            n, t = self.payload["host_n"], 0
        if not _is_int(n):
            raise PreconditionError(f"vertex count {n!r} is not an integer")
        return n + 4 * t

    def _referenced_vertices(self):
        p = self.payload
        if self.kind in ("hist", "sghg"):
            yield from _tuples(p["tree_edges"], "tree_edges", 2)
            yield from _entries(p.get("leaf_cycle", ()), "leaf_cycle")
        elif self.kind == "matching":
            for star in _entries(p["stars"], "stars"):
                if not isinstance(star, dict) or not {"center", "tips"} <= star.keys():
                    raise PreconditionError("every star needs a center and tips")
                yield star["center"]
                yield from _entries(star["tips"], "tips")
        elif self.kind == "reduction-trace":
            yield from _tuples([p["terminals"]], "terminals", 2)
            yield from _entries(p["z_order"], "z_order")
            yield from _entries(p["pendant_ids"], "pendant_ids")
            yield from _tuples(p["gadget_ids"], "gadget_ids", 3)
            yield from _tuples(p["cycle_edges"], "cycle_edges", 2)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _entries(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise PreconditionError(f"{what} must be a list")
    return value


def _tuples(value, what: str, size: int):
    """Flattened entries of a list whose items are lists of `size` ids."""
    for item in _entries(value, what):
        if not isinstance(item, (list, tuple)) or len(item) != size:
            raise PreconditionError(f"{what} entry {item!r} is not {size} ids")
        yield from item


def emit_certificate(doc: CertificateDocument) -> str:
    """Deterministic, byte-stable serialization (sorted keys, sorted edges)."""
    doc.validate()
    payload = _canonical(doc.payload)
    record = {"kind": doc.kind, "payload": payload}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def parse_certificate(text: str) -> CertificateDocument:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from None
    if not isinstance(record, dict) or "kind" not in record:
        raise ParseError("certificate record must be an object with 'kind'")
    doc = CertificateDocument(record["kind"], record.get("payload", {}))
    doc.validate()
    return doc


def _canonical(value):
    """Sort edge lists, normalize cycles, and recurse through containers."""
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            v = value[k]
            if k.endswith("_edges") or k == "edges":
                v = sorted([sorted(e) for e in v])
            elif k == "leaf_cycle":
                v = list(normalize_cycle(list(v)))
            else:
                v = _canonical(v)
            out[k] = v
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value
