"""The graph6 decoder's bit-matrix transpose and the bulk certificate checks.

Both are fast paths under unchanged behaviour: the decoder must agree
with an independent reading of the format at every row width, and the
bulk checks must accept, reject and emit exactly what the per-item scan
does.
"""

import hashlib
import random

import networkx as nx
import pytest

from halinlab.errors import PreconditionError
from halinlab.io_formats import (
    CertificateDocument,
    _encode_n,
    emit_certificate,
    parse_certificate,
    parse_graph6,
)


def graph6_of_bits(n: int, bits: str) -> bytes:
    """graph6 straight from the format's definition: the upper-triangle
    bits in column order, zero-padded to whole 6-bit groups, offset 63."""
    assert len(bits) == n * (n - 1) // 2
    bits += "0" * (-len(bits) % 6)
    return _encode_n(n) + bytes(63 + int(bits[i : i + 6], 2) for i in range(0, len(bits), 6))


# Row widths of one and two bytes, each full and one vertex past it.
@pytest.mark.parametrize("n", [2, 8, 9, 16, 17])
def test_every_single_edge_host_decodes_to_that_edge(n):
    nbits = n * (n - 1) // 2
    for v in range(n):
        for u in range(v):
            k = v * (v - 1) // 2 + u  # the pair's place in column order
            g = parse_graph6(graph6_of_bits(n, "0" * k + "1" + "0" * (nbits - k - 1)))
            assert g.n == n
            assert g.edges() == [(u, v)], (u, v)


def test_wide_hosts_decode_as_networkx_does():
    """Empty, complete and p = 1/2 hosts at each n in 131..300 whose rows
    fill their last byte, miss it by one vertex, or spill one vertex into it."""
    rng = random.Random(35)
    for n in range(131, 301):
        if n % 8 not in (0, 1, 7):
            continue
        nbits = n * (n - 1) // 2
        half = format(rng.getrandbits(nbits), f"0{nbits}b")
        for bits in ("0" * nbits, "1" * nbits, half):
            data = graph6_of_bits(n, bits)
            reference = nx.from_graph6_bytes(data)
            g = parse_graph6(data)
            assert g.n == reference.number_of_nodes() == n
            for v in range(n):
                assert g.neighbor_mask(v) == sum(1 << u for u in reference[v]), (n, v)


class VertexId(int):
    """An int subclass: a valid id that the bulk checks leave to the scan."""


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("hist", {"host_n": 4, "tree_edges": [[0, VertexId(1)], [1, 2]], "spanning": True}),
        ("hist", {"host_n": VertexId(4), "tree_edges": [[0, 1]], "spanning": False}),
        ("sghg", {"host_n": 4, "tree_edges": [[0, 1]], "leaf_cycle": [VertexId(2), 3, 1]}),
        ("matching", {"host_n": 5, "arity": 2,
                      "stars": [{"center": VertexId(0), "tips": [1, 2]},
                                {"center": 3, "tips": [VertexId(4)]}]}),
    ],
)
def test_int_subclass_ids_are_accepted(kind, payload):
    doc = CertificateDocument(kind, payload)
    doc.validate()
    assert parse_certificate(emit_certificate(doc)).kind == kind


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("hist", {"host_n": 4, "tree_edges": [[0, 1], [True, 2]], "spanning": True},
         "hist payload field 'tree_edges': vertex id True is not an integer"),
        ("matching", {"host_n": 4, "arity": 1,
                      "stars": [{"center": 0, "tips": [1]}, {"center": 2, "tips": [False]}]},
         "matching payload field 'stars' field 'tips': vertex id False is not an integer"),
        ("matching", {"host_n": 4, "arity": 1, "stars": [{"center": True, "tips": [1]}]},
         "matching payload field 'stars' field 'center' is not a valid id: True"),
        ("hist", {"host_n": 4, "tree_edges": [[0, 1], [2, 3], [1, 0]], "spanning": True},
         "hist payload field 'tree_edges' repeats a pair"),
        ("matching", {"host_n": 4, "arity": 1,
                      "stars": [{"center": 0, "tips": [1]}, {"center": 2, "tips": [3, 3]}]},
         "matching payload field 'stars' field 'tips' repeats an id"),
        ("reduction-trace", {"base_n": 4, "terminals": [0, 3], "z_order": [1, 2],
                             "pendant_ids": [5, 4, 5], "gadget_ids": [], "cycle_edges": []},
         "reduction-trace payload field 'pendant_ids' repeats an id"),
        ("hist", {"host_n": 4, "tree_edges": [[0, 1], [2, 4]], "spanning": True},
         "a vertex id lies outside 0..3"),
        ("hist", {"host_n": 4, "tree_edges": [[-1, 1]], "spanning": True},
         "a vertex id lies outside 0..3"),
    ],
)
def test_rejections_name_the_first_fault(kind, payload, message):
    with pytest.raises(PreconditionError) as err:
        CertificateDocument(kind, payload).validate()
    assert str(err.value) == message


def dense_documents() -> tuple[CertificateDocument, CertificateDocument]:
    """A hist and a matching document as large as the dense-host builders
    write: a random spanning tree of 225 vertices, 40 stars of 3 tips."""
    rng = random.Random(225)
    order = rng.sample(range(225), 225)
    edges = [[order[rng.randrange(i)], order[i]] for i in range(1, 225)]
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(edges)
    hist = CertificateDocument("hist", {"host_n": 225, "tree_edges": edges, "spanning": True})
    stars = [{"tips": order[i + 1 : i + 4], "center": order[i]} for i in range(0, 160, 4)]
    matching = CertificateDocument("matching", {"host_n": 225, "arity": 3, "stars": stars})
    return hist, matching


@pytest.mark.parametrize(
    "index, expected",
    [
        (0, "52bdedc5a6523b2efae4990782b4189f240d193d74d951140df8a72cdef30a8c"),
        (1, "07001ff9b9b4bb4218f011d354a9514601303b85082ca55c66433a89ecff2550"),
    ],
    ids=["hist", "matching"],
)
def test_dense_documents_emit_pinned_bytes(index, expected):
    text = emit_certificate(dense_documents()[index])
    assert hashlib.sha256(text.encode()).hexdigest() == expected
    assert emit_certificate(parse_certificate(text)) == text
