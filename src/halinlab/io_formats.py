"""Interchange formats: graph6, plain edge lists, certificate documents.

graph6 follows the standard bit packing: 6 bits per character, offset 63,
most significant bit first, adjacency bits in upper-triangle column order.
That is base64 with the alphabet shifted, so both codec halves translate
the body to base64 and let the C codec move the whole bit stream at once.
The decoder lifts each vertex's column of the triangle into one row of a
square bit matrix, transposes the square (Warren, Hacker's Delight, 7-3:
delta swaps inside 8 x 8 blocks, then strided byte slices move the
blocks), ORs the square with its transpose to get every neighbour
bitmask, and hands the masks to the trusted, unchecked `Graph._from_masks`:
graph6 cannot encode a bad edge.  Certificate documents are UTF-8 JSON
records with sorted keys so re-emission is byte-stable; the `_SCHEMAS`
table describes every kind once, and validation, canonical emission and
the id range checks all read it.  Validation checks each field across
all records at once and falls back to a per-item scan, which names the
first fault, only when that bulk check fails.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass, field
from itertools import chain

from .errors import ParseError, PreconditionError
from .graph import Graph

# -- graph6 -----------------------------------------------------------------


def _encode_n(n: int) -> bytes:
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
    if data[0] != 126:
        if not 63 <= data[0] <= 125:
            raise ParseError(f"invalid header byte {data[0]}", 0)
        return data[0] - 63, 1
    form, start, end = ("long", 2, 8) if data[1:2] == b"~" else ("medium", 1, 4)
    if len(data) < end:
        raise ParseError(f"truncated {form}-form header", len(data))
    n = 0
    for i in range(start, end):
        if not 63 <= data[i] <= 126:
            raise ParseError(f"corrupt {form}-form header", i)
        n = n << 6 | data[i] - 63
    return n, end


# Byte 63 + k of graph6 is the base64 symbol of value k.  Every byte outside
# 63..126 goes to "!", which no base64 decoder accepts: "+", "/", "0"-"9"
# and "=" are invalid in graph6 but valid in base64, so an identity
# default would decode them silently.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes(_B64[c - 63] if 63 <= c <= 126 else ord("!") for c in range(256))
_FROM_B64 = bytes.maketrans(_B64, bytes(range(63, 127)))


def emit_graph6(g: Graph) -> bytes:
    """Encode a graph as graph6 bytes; round-trips through parse_graph6."""
    # Column v of the upper triangle lists rows u < v: the low v bits of
    # v's neighbour mask, lowest row first.
    bits = "".join(
        format(g.neighbor_mask(v) & ((1 << v) - 1), f"0{v}b")[::-1]
        for v in range(1, g.n)
    )
    need = (len(bits) + 5) // 6
    # Zero bits up to a multiple of 24 make whole 3-byte base64 groups, so
    # the encoder writes no "="; the cut to `need` drops the filler symbols.
    # Below n = 2 the triangle is empty, and "0" stands in for its value.
    bits += "0" * (-len(bits) % 24)
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return _encode_n(g.n) + base64.b64encode(raw).translate(_FROM_B64)[:need]


def parse_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 value (optionally prefixed with '>>graph6<<')."""
    try:
        data = (text.encode("ascii") if isinstance(text, str) else text).strip()
    except UnicodeEncodeError as exc:
        raise ParseError("graph6 text is not ASCII", exc.start) from None
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<") :]
    n, used = _decode_n(data)
    body = data[used:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise ParseError(
            f"truncated bit stream: need {need} bytes, have {len(body)}",
            used + len(body),
        )
    if len(body) > need:
        raise ParseError("trailing bytes after graph6 payload", used + need)
    # "A" (value 0) fills the symbols out to whole 4-symbol groups.
    sym = body.translate(_TO_B64)
    try:
        raw = base64.b64decode(sym + b"A" * (-len(sym) % 4), validate=True)
    except binascii.Error:
        i = next(i for i, c in enumerate(body) if not 63 <= c <= 126)
        raise ParseError(f"out-of-range character {body[i]}", used + i) from None
    # The spare low bits are graph6's own padding and the "A" filler.
    spare = 8 * len(raw) - nbits
    if int.from_bytes(raw, "big") & ((1 << spare) - 1):
        raise ParseError("nonzero padding bits", used + need - 1)
    return Graph._from_masks(_triangle_masks(raw, n))


# _REVERSED[b] is byte b with its bit order reversed.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _triangle_masks(raw: bytes, n: int) -> list[int]:
    """The n neighbour masks of a graph6 bit stream, most significant bit
    first in `raw`.

    Column v of the upper triangle (stream bits v(v-1)/2 on, rows u < v)
    becomes row v of a W x W bit matrix, W = 8 * ceil(n / 8), stored as
    one little-endian integer: bit v * W + u is the pair (u, v), u < v.
    Its transpose holds each pair at bit u * W + v, and the OR of the two
    is the adjacency matrix.
    """
    wb = (n + 7) >> 3 or 1  # bytes per row; n = 0 still gets one 8 x 8 block
    w = wb << 3
    from_bytes = int.from_bytes  # bound once: called twice per vertex
    # Reversing each byte makes stream bit t little-endian bit t.
    stream = raw.translate(_REVERSED)
    rows = []
    start = 0
    for v in range(n):
        col = from_bytes(stream[start >> 3 : (start + v + 7) >> 3], "little")
        rows.append((col >> (start & 7) & ~(-1 << v)).to_bytes(wb, "little"))
        start += v
    rows.append(bytes(wb * (w - n)))
    square = from_bytes(b"".join(rows), "little")
    # Transpose every 8 x 8 block in place: three delta swaps exchange the
    # off-diagonal k x k quarters of each 2k x 2k block, k = 4, 2, 1.  Bit
    # (i, j) of a block, i & k clear and j & k set, trades with (i + k, j - k).
    blocks = square
    for k, quarter in ((4, 0xF0), (2, 0xCC), (1, 0xAA)):
        shift = k * (w - 1)
        half = bytes([quarter]) * (wb * k) + bytes(wb * k)  # k rows with i & k clear, k without
        mask = from_bytes(half * (w // (2 * k)), "little")
        t = (blocks ^ blocks >> shift) & mask
        blocks ^= t ^ t << shift
    # Then move block (C, R) to (R, C): byte C of row 8R + i in the
    # transpose is byte R of row 8C + i, a slice with a stride of 8 rows.
    flat = blocks.to_bytes(w * wb, "little")
    moved = b"".join(flat[i * wb + r :: w] for r in range(wb) for i in range(8))
    full = (square | from_bytes(moved, "little")).to_bytes(w * wb, "little")
    return [from_bytes(full[i : i + wb], "little") for i in range(0, n * wb, wb)]


# -- edge lists ---------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus one "u v" pair per line.  Blank lines are
    skipped; an error's offset is its physical 1-based line number."""
    stripped = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    lines = [(lineno, ln) for lineno, ln in stripped if ln]
    if not lines:
        raise ParseError("empty edge list")
    head_line, head = lines[0][0], lines[0][1].split()
    if len(head) != 2:
        raise ParseError("header must be 'n <edge count>'", head_line)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("non-integer header", head_line) from None
    if n < 0:
        raise ParseError(f"negative vertex count {n}", head_line)
    if m < 0:
        raise ParseError(f"negative edge count {m}", head_line)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[tuple[int, int]] = []
    seen = set()
    for lineno, ln in lines[1:]:
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
        return parse_edge_list(_utf8(raw))
    raise PreconditionError(f"unknown graph format {fmt!r}")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not UTF-8", exc.start) from None


# -- certificate documents ----------------------------------------------------

# Every document kind, field by field.  Shapes: "count" is the host's
# vertex count, and every id in a document that has one must lie below
# it; "int" an integer, "flag" a boolean, "id" one vertex id, "ids" a
# list of distinct ids, "pair" two ids, "pairs" a list of distinct unordered id
# pairs (emitted sorted), "triples" a list of id triples, "cycle" a
# cyclic id sequence (emitted normalized), "json" free JSON, and a dict
# a list of records with those fields.
_SCHEMAS = {
    "hist": {"host_n": "count", "tree_edges": "pairs", "spanning": "flag"},
    "sghg": {"host_n": "count", "tree_edges": "pairs", "leaf_cycle": "cycle"},
    "matching": {
        "host_n": "count",
        "arity": "int",
        "stars": {"center": "id", "tips": "ids"},
    },
    "reduction-trace": {
        "base_n": "int",
        "terminals": "pair",
        "z_order": "ids",
        "pendant_ids": "ids",
        "gadget_ids": "triples",
        "cycle_edges": "pairs",
    },
    "experiment-report": {"parameters": "json", "trials": "json", "rates": "json"},
}

KINDS = tuple(_SCHEMAS)


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
        """Check the payload against its kind's schema (PreconditionError)."""
        if self.kind not in KINDS:  # a tuple: an unhashable kind is unknown too
            raise PreconditionError(f"unknown certificate kind {self.kind!r}")
        schema = _SCHEMAS[self.kind]
        ids = _bulk_record_ids([self.payload], schema)
        if ids is None:  # the per-item scan names the first fault
            ids = _record_ids(self.payload, schema, f"{self.kind} payload")
        for n in (self.payload[k] for k, shape in schema.items() if shape == "count"):
            if ids and not (0 <= min(ids) and max(ids) < n):
                raise PreconditionError(f"a vertex id lies outside 0..{n - 1}")

    def payload_of(self, kind: str) -> dict:
        """The payload, once the document is known to be of `kind`."""
        if self.kind != kind:
            raise PreconditionError(f"expected a {kind} document, got {self.kind!r}")
        return self.payload


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_SCALARS = {
    "count": lambda v: _is_int(v) and v >= 0,
    "int": _is_int,
    "id": _is_int,
    "flag": lambda v: isinstance(v, bool),
    "json": lambda v: True,
}


def _record_ids(record, schema: dict, what: str) -> list[int]:
    """Check a record's fields against `schema`; return the ids it names."""
    if not isinstance(record, dict):
        raise PreconditionError(f"{what} must be an object")
    if record.keys() != schema.keys():
        raise PreconditionError(f"{what} has fields {list(record)}, expected {list(schema)}")
    ids: list[int] = []
    for key, shape in schema.items():
        ids += _field_ids(record[key], shape, f"{what} field {key!r}")
    return ids


def _field_ids(value, shape, what: str) -> list[int]:
    """Check one field against its shape; return the ids it names."""
    if isinstance(shape, dict):
        return [v for rec in _list(value, what) for v in _record_ids(rec, shape, what)]
    if shape in _SCALARS:
        if not _SCALARS[shape](value):
            raise PreconditionError(f"{what} is not a valid {shape}: {value!r}")
        return [value] if shape == "id" else []
    if shape == "pair":
        ids = _list(value, what, 2)
    elif shape in ("pairs", "triples"):
        size = 2 if shape == "pairs" else 3
        ids = [v for item in _list(value, what) for v in _list(item, what, size)]
    else:
        ids = _list(value, what)
    bad = [v for v in ids if not _is_int(v)]
    if bad:
        raise PreconditionError(f"{what}: vertex id {bad[0]!r} is not an integer")
    if shape == "pairs" and len(set(map(frozenset, value))) != len(value):
        raise PreconditionError(f"{what} repeats a pair")
    if shape == "ids" and len(set(ids)) != len(ids):
        raise PreconditionError(f"{what} repeats an id")
    return ids


_SEQUENCES = {list, tuple}


def _bulk_record_ids(records: list, schema: dict) -> list[int] | None:
    """The ids that a list of records names, checked one field at a time
    across all records; None unless every value is plainly valid.

    "Plainly" means builtin types only: an int or dict subclass, like any
    fault, sends the caller to the per-item scan, which accepts or names it.
    """
    if not (
        set(map(type, records)) <= {dict}
        and set(map(frozenset, records)) <= {frozenset(schema)}
    ):
        return None
    ids: list[int] = []
    for key, shape in schema.items():
        got = _bulk_field_ids([rec[key] for rec in records], shape)
        if got is None:
            return None
        ids += got
    return ids


def _bulk_field_ids(values: list, shape) -> list[int] | None:
    """`_bulk_record_ids` for one field, given its value in each record."""
    kinds = set(map(type, values))
    if isinstance(shape, dict):
        if not kinds <= _SEQUENCES:
            return None
        return _bulk_record_ids(list(chain.from_iterable(values)), shape)
    if shape in _SCALARS:
        if shape == "json":
            return []
        if not kinds <= ({bool} if shape == "flag" else {int}):
            return None
        if shape == "count" and min(values, default=0) < 0:
            return None
        return values if shape == "id" else []
    if not kinds <= _SEQUENCES:
        return None
    lists = values
    if shape in ("pairs", "triples"):
        lists = list(chain.from_iterable(values))
        size = 2 if shape == "pairs" else 3
        if not (set(map(type, lists)) <= _SEQUENCES and set(map(len, lists)) <= {size}):
            return None
    elif shape == "pair" and not set(map(len, values)) <= {2}:
        return None
    ids = list(chain.from_iterable(lists))
    if not set(map(type, ids)) <= {int}:
        return None
    if shape == "pairs" and any(len(set(map(frozenset, v))) != len(v) for v in values):
        return None
    if shape == "ids" and any(len(set(v)) != len(v) for v in values):
        return None
    return ids


def _list(value, what: str, size: int | None = None) -> list | tuple:
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        of = f" of {size} ids" if size else ""
        raise PreconditionError(f"{what}: expected a list{of}, got {value!r}")
    return value


def emit_certificate(doc: CertificateDocument) -> str:
    """Deterministic, byte-stable serialization (sorted keys, sorted edges)."""
    doc.validate()
    payload = {}
    for key, shape in _SCHEMAS[doc.kind].items():
        value = doc.payload[key]
        if shape == "pairs":
            value = sorted(sorted(e) for e in value)
        elif shape == "cycle":
            value = list(normalize_cycle(list(value)))
        payload[key] = value
    record = {"kind": doc.kind, "payload": payload}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def parse_certificate(text: str) -> CertificateDocument:
    try:
        record = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"bad certificate JSON: {exc}") from None
    except RecursionError:
        raise ParseError("certificate JSON nested too deep") from None
    if not isinstance(record, dict) or "kind" not in record:
        raise ParseError("certificate record must be an object with 'kind'")
    doc = CertificateDocument(record["kind"], record.get("payload", {}))
    doc.validate()
    return doc


def load_certificate(path: str) -> CertificateDocument:
    """Read a certificate document file (UTF-8 JSON) and validate it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_certificate(_utf8(raw))
