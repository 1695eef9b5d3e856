import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halinlab.errors import ParseError, PreconditionError
from halinlab.graph import Graph
from halinlab.io_formats import (
    CertificateDocument,
    _decode_n,
    _encode_n,
    emit_certificate,
    emit_edge_list,
    emit_graph6,
    load_graph,
    normalize_cycle,
    parse_certificate,
    parse_edge_list,
    parse_graph6,
)
from halinlab.reduction import reduce_instance

from oracles import random_graph, to_networkx


def test_graph6_known_values():
    assert parse_graph6(b"C~") == Graph.complete(4)
    assert parse_graph6(b"Bg") == Graph(3, [(0, 1), (1, 2)])
    assert parse_graph6(b"?") == Graph.empty(0)
    assert emit_graph6(Graph.complete(4)) == b"C~"
    assert emit_graph6(Graph.empty(0)) == b"?"
    assert emit_graph6(Graph.empty(5)) == b"D??"


def test_graph6_against_reference_encoder():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 41), rng.random())
        ours = emit_graph6(g)
        reference = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
        assert ours == reference
        assert parse_graph6(reference) == g


def test_graph6_medium_form_against_reference_encoder():
    """Every n with a 4-byte header up to 130, and one near 300."""
    rng = random.Random(2)
    for n in [*range(63, 131), 297]:
        g = random_graph(rng, n, rng.random())
        reference = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
        assert emit_graph6(g) == reference, n


def test_graph6_round_trip_at_every_n_up_to_130():
    # Body lengths take every residue mod 4, so the decoder's "A" filler
    # runs at each of its widths.
    rng = random.Random(3)
    for n in range(131):
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(emit_graph6(g)) == g, n


def test_graph6_long_form():
    g = Graph(70, [(0, 69), (1, 2)])
    data = emit_graph6(g)
    assert data.startswith(b"~")
    assert parse_graph6(data) == g
    reference = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
    assert data == reference


# The largest n of each header form and the smallest of the next: 1 byte
# up to 62, 4 bytes up to 258,047, 8 bytes up to 2^36 - 1.
@pytest.mark.parametrize(
    "n, width", [(62, 1), (63, 4), (258_047, 4), (258_048, 8), (2**36 - 1, 8)]
)
def test_graph6_header_round_trips_at_each_form_boundary(n, width):
    header = _encode_n(n)
    assert len(header) == width
    assert _decode_n(header) == (n, width)


def test_graph6_header_rejects_n_past_the_long_form():
    with pytest.raises(PreconditionError, match="too large for graph6"):
        _encode_n(2**36)


def test_graph6_header_prefix_accepted():
    assert parse_graph6(b">>graph6<<C~") == Graph.complete(4)


def test_graph6_errors_carry_offsets():
    with pytest.raises(ParseError):
        parse_graph6(b"")
    with pytest.raises(ParseError) as err:
        parse_graph6(b"C")  # truncated bit stream
    assert err.value.offset is not None
    with pytest.raises(ParseError):
        parse_graph6(bytes([30, 63]))  # header byte out of range
    with pytest.raises(ParseError):
        parse_graph6(b"C~~")  # trailing bytes
    with pytest.raises(ParseError):
        parse_graph6(b"B" + bytes([64]))  # nonzero padding for P3 slot
    with pytest.raises(ParseError) as err:
        parse_graph6("B\u00e9")  # a str with a non-ASCII character
    assert err.value.offset == 1
    # Medium-form (4-byte) and long-form (8-byte) headers, cut short or
    # holding a byte outside 63..126.
    for data, message, offset in [
        (b"~?", "truncated medium-form header", 2),
        (b"~ ???", "corrupt medium-form header", 1),
        (b"~~??", "truncated long-form header", 4),
        (b"~~? ????", "corrupt long-form header", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_graph6(data)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (at offset {offset})"


@given(st.integers(0, 300), st.floats(0, 1), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph6_parse_matches_networkx(n, p, rng):
    """One-byte (n < 63) and four-byte headers, sparse to complete hosts."""
    reference = nx.gnp_random_graph(n, p, seed=rng.randrange(1 << 30))
    data = nx.to_graph6_bytes(reference, header=False)
    g = parse_graph6(data)
    expected = nx.from_graph6_bytes(data.strip())
    assert g.n == expected.number_of_nodes() == n
    assert set(g.edges()) == {(min(e), max(e)) for e in expected.edges()}
    assert all(g.neighbors(v) == set(expected[v]) for v in range(n))


# n = 10 has 45 triangle bits: 8 body bytes and 3 padding bits; n = 70
# has a 4-byte header and 2415 bits: 403 body bytes and 3 padding bits.
@pytest.mark.parametrize("n, head", [(10, 1), (70, 4)])
@pytest.mark.parametrize("i", [0, 3, 6])
@pytest.mark.parametrize("c", [32, 62, 127, 255])
def test_graph6_out_of_range_character_offset(n, head, i, c):
    data = bytearray(emit_graph6(Graph.complete(n)))
    data[head + i] = c
    data[head + i + 1] = 200  # a second bad byte is never the one named
    with pytest.raises(ParseError) as err:
        parse_graph6(bytes(data))
    assert err.value.offset == head + i
    assert str(err.value) == f"out-of-range character {c} (at offset {head + i})"


# "+", "/", "0", "9" and "=": invalid in graph6, valid in base64.  The
# positions cover every residue mod 4 of a 4-symbol base64 group, and the
# last body byte, whose group the decoder fills out.
@pytest.mark.parametrize("n, head, need", [(10, 1, 8), (70, 4, 403)])
@pytest.mark.parametrize("i", [0, 1, 2, 3, -1])
@pytest.mark.parametrize("c", [43, 47, 48, 57, 61])
def test_graph6_rejects_bytes_valid_in_base64(n, head, need, i, c):
    data = bytearray(emit_graph6(Graph.complete(n)))
    i %= need
    data[head + i] = c
    with pytest.raises(ParseError) as err:
        parse_graph6(bytes(data))
    assert err.value.offset == head + i
    assert str(err.value) == f"out-of-range character {c} (at offset {head + i})"


# The triangle's bit count n(n - 1)/2 is 0, 1, 3 or 4 mod 6, so the last
# body byte carries 0, 5, 3 or 2 padding bits.
@pytest.mark.parametrize("n, width", [(2, 5), (5, 2), (8, 2), (10, 3)])
def test_graph6_rejects_each_nonzero_padding_bit(n, width):
    for bit in range(width):
        data = bytearray(emit_graph6(Graph.complete(n)))
        data[-1] += 1 << bit
        with pytest.raises(ParseError) as err:
            parse_graph6(bytes(data))
        assert str(err.value) == f"nonzero padding bits (at offset {len(data) - 1})"
    data = bytearray(emit_graph6(Graph.empty(n)))
    data[-1] += 1 << width  # the last triangle bit, not padding
    assert parse_graph6(bytes(data)).edge_count == 1


@pytest.mark.parametrize("n, head, need", [(10, 1, 8), (70, 4, 403)])
@pytest.mark.parametrize("pad", [1, 2, 4])
def test_graph6_nonzero_padding_offset(n, head, need, pad):
    data = bytearray(emit_graph6(Graph.empty(n)))
    data[-1] += pad  # one of the 3 padding bits
    with pytest.raises(ParseError) as err:
        parse_graph6(bytes(data))
    assert err.value.offset == head + need - 1
    assert str(err.value) == f"nonzero padding bits (at offset {head + need - 1})"


def test_graph6_checks_length_then_characters_then_padding():
    padded = bytearray(emit_graph6(Graph.empty(10)))
    padded[-1] += 1
    bad_char = padded[:1] + b" " + padded[2:]
    with pytest.raises(ParseError, match="out-of-range character 32"):
        parse_graph6(bytes(bad_char))
    with pytest.raises(ParseError, match="truncated bit stream: need 8 bytes, have 7"):
        parse_graph6(bytes(bad_char[:-1]))
    with pytest.raises(ParseError, match="trailing bytes after graph6 payload"):
        parse_graph6(bytes(bad_char) + b" ?")


@given(st.integers(0, 40), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_graph6_round_trip(n, rng):
    g = random_graph(rng, n, rng.random())
    assert parse_graph6(emit_graph6(g)) == g


def test_edge_list_round_trip():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3")
    assert g == Graph.path(4)
    text = emit_edge_list(g)
    assert parse_edge_list(text) == g
    assert text == "4 3\n0 1\n1 2\n2 3\n"


def test_edge_list_rejects_duplicates_with_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n0 1\n0 1")
    assert err.value.offset == 3
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n1 1")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 5")
    with pytest.raises(ParseError):
        parse_edge_list("")
    # Offsets are physical lines: the blank line 2 still counts.
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 2\n\n0 1\n1 1\n")
    assert err.value.offset == 4
    # A negative vertex count is a malformed header, not a bad graph.
    with pytest.raises(ParseError) as err:
        parse_edge_list("-3 0")
    assert err.value.offset == 1
    # Each fault is named, at its line where it has one; a negative edge
    # count is a malformed header too.
    for text, message, offset in [
        ("3", "header must be 'n <edge count>'", 1),
        ("3 x", "non-integer header", 1),
        ("3 -1", "negative edge count -1", 1),
        ("3 2\n0 1", "expected 2 edge lines, found 1", None),
        ("3 1\n0 1 2", "edge line must be 'u v'", 2),
        ("3 1\n0 y", "non-integer vertex id", 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.offset == offset
        assert str(err.value) == message + (f" (at offset {offset})" if offset else "")


def test_load_graph_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "g.dot"
    path.write_bytes(b"graph {}")
    with pytest.raises(PreconditionError, match="unknown graph format 'dot'"):
        load_graph(str(path), "dot")


def test_normalize_cycle():
    assert normalize_cycle((3, 1, 2)) == (1, 2, 3)
    assert normalize_cycle((3, 2, 1)) == (1, 2, 3)
    assert normalize_cycle((5, 4, 7, 6)) == (4, 5, 6, 7)
    assert normalize_cycle((4, 5, 6, 7)) == normalize_cycle((6, 5, 4, 7))
    assert normalize_cycle(()) == ()


def test_certificate_round_trip_and_stability():
    doc = CertificateDocument(
        "sghg",
        {
            "host_n": 4,
            "tree_edges": [[0, 2], [0, 1], [3, 0]],
            "leaf_cycle": [3, 2, 1],
        },
    )
    text = emit_certificate(doc)
    again = parse_certificate(text)
    assert emit_certificate(again) == text
    # edges sorted, cycle normalized
    assert '"tree_edges":[[0,1],[0,2],[0,3]]' in text
    assert '"leaf_cycle":[1,2,3]' in text


def test_certificate_validation():
    with pytest.raises(PreconditionError):
        CertificateDocument("nope", {}).validate()
    with pytest.raises(PreconditionError):
        CertificateDocument("hist", {"host_n": 3}).validate()
    with pytest.raises(PreconditionError):
        CertificateDocument(
            "hist", {"host_n": 3, "tree_edges": [[0, 5]], "spanning": True}
        ).validate()
    with pytest.raises(ParseError):
        parse_certificate("{not json")
    with pytest.raises(ParseError):
        parse_certificate('"just a string"')


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("hist", {"host_n": 3, "tree_edges": [[0]], "spanning": True}),
        ("hist", {"host_n": 3, "tree_edges": 5, "spanning": True}),
        ("hist", {"host_n": 3, "tree_edges": [[0, "1"]], "spanning": True}),
        ("hist", {"host_n": "3", "tree_edges": [[0, 1]], "spanning": True}),
        ("sghg", {"host_n": 4, "tree_edges": [[0, 1]], "leaf_cycle": [1, 2.5]}),
        ("matching", {"host_n": 4, "arity": 1, "stars": [{"center": 0}]}),
        ("matching", {"host_n": 4, "arity": 1, "stars": [[0, 1]]}),
        ("hist", 5),
        (
            "reduction-trace",
            {"base_n": 4, "terminals": [0, 3], "z_order": [1, 2],
             "pendant_ids": [4, 5], "gadget_ids": [[6, 7]], "cycle_edges": []},
        ),
        ("hist", {"host_n": 3, "tree_edges": [[0, 1]], "spanning": "no"}),
        ("matching", {"host_n": 4, "arity": "x", "stars": [{"center": 0, "tips": [1]}]}),
        ("hist", {"host_n": 3, "tree_edges": [[0, 1], [1, 0]], "spanning": True}),
        ("hist", {"host_n": 3, "tree_edges": [[0, [1]]], "spanning": True}),
        ("hist", {"host_n": 3, "tree_edges": [], "spanning": True, "extra": 1}),
        ("hist", {"host_n": -1, "tree_edges": [], "spanning": True}),
        ("experiment-report", {"parameters": {}, "trials": []}),
        # A repeated id in an id list: read as a set it would pass.
        ("matching", {"host_n": 3, "arity": 1, "stars": [{"center": 0, "tips": [1, 1]}]}),
        (
            "reduction-trace",
            {"base_n": 4, "terminals": [0, 3], "z_order": [1, 1], "pendant_ids": [4, 5],
             "gadget_ids": [[6, 7, 8], [9, 10, 11]], "cycle_edges": []},
        ),
    ],
)
def test_certificate_validation_rejects_malformed_payloads(kind, payload):
    with pytest.raises(PreconditionError):
        CertificateDocument(kind, payload).validate()


@st.composite
def documents(draw, kind):
    """Valid documents of one kind, fields in arbitrary order and orientation."""
    if kind == "reduction-trace":
        g = random_graph(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(3, 9)), 0.5)
        x, y = draw(st.permutations(range(g.n)))[:2]
        return reduce_instance(g, x, y)[1].to_document()
    if kind == "experiment-report":
        scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=5)
        free = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8,
        )
        return CertificateDocument(kind, {k: draw(free) for k in ("parameters", "trials", "rates")})
    n = draw(st.integers(2, 12))
    ids = st.integers(0, n - 1)
    pairs = st.lists(st.lists(ids, min_size=2, max_size=2), unique_by=frozenset, max_size=20)
    if kind == "hist":
        fields = {"tree_edges": draw(pairs), "spanning": draw(st.booleans())}
    elif kind == "sghg":
        fields = {"tree_edges": draw(pairs), "leaf_cycle": draw(st.lists(ids))}
    else:
        star = st.fixed_dictionaries({"center": ids, "tips": st.lists(ids, max_size=4, unique=True)})
        fields = {"arity": draw(st.integers(-2, 5)), "stars": draw(st.lists(star, max_size=5))}
    return CertificateDocument(kind, {"host_n": n, **fields})


@pytest.mark.parametrize(
    "kind", ["hist", "sghg", "matching", "reduction-trace", "experiment-report"]
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_emit_parse_emit_is_byte_stable(kind, data):
    text = emit_certificate(data.draw(documents(kind)))
    again = parse_certificate(text)
    assert again.kind == kind
    assert emit_certificate(again) == text


@given(st.integers(0, 30), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_edge_list_round_trip_property(n, rng):
    g = random_graph(rng, n, rng.random())
    text = emit_edge_list(g)
    assert parse_edge_list(text) == g
    assert emit_edge_list(parse_edge_list(text)) == text


def test_hist_certificate_example():
    doc = CertificateDocument(
        "hist",
        {"host_n": 4, "tree_edges": [[0, 1], [0, 2], [0, 3]], "spanning": True},
    )
    text = emit_certificate(doc)
    assert '"kind":"hist"' in text
    assert parse_certificate(text).payload["tree_edges"] == [[0, 1], [0, 2], [0, 3]]
