import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halinlab.certify import (
    HalinCertificate,
    StarPack,
    TreeCertificate,
    is_generalized_halin,
    is_hist,
    is_hit_forest,
    sghg_invariants,
    verify_star_pack,
    wheel_minor,
)
from halinlab.errors import PreconditionError
from halinlab.graph import Graph
from halinlab.search import find_hist, find_sghg

from oracles import naive_sghg, random_graph


def wheel(rim: int) -> Graph:
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def test_is_hist_star_and_path():
    k4 = Graph.complete(4)
    star = TreeCertificate(4, [(0, 1), (0, 2), (0, 3)])
    assert is_hist(k4, star)
    path = TreeCertificate(4, [(0, 1), (1, 2), (2, 3)])
    verdict = is_hist(k4, path)
    assert not verdict and verdict.code == "degree-two-vertex"


def test_is_hist_bipartite_example():
    g = Graph.complete_bipartite(3, 4)
    # a=0,1,2 ; b=3,4,5,6 — hub 0 plus branch vertex 3 covering 1 and 2
    t = TreeCertificate(7, [(0, 3), (0, 4), (0, 5), (0, 6), (3, 1), (3, 2)])
    assert is_hist(g, t)


def test_is_hist_rejects_structures():
    k4 = Graph.complete(4)
    assert is_hist(k4, TreeCertificate(4, [(0, 1), (0, 2)])).code == "not-spanning"
    assert (
        is_hist(k4, TreeCertificate(4, [(0, 1), (1, 2), (0, 2)])).code
        == "not-acyclic"
    )
    assert (
        is_hist(Graph.empty(4), TreeCertificate(4, [(0, 1), (0, 2), (0, 3)])).code
        == "tree-edge-not-in-host"
    )
    assert is_hist(k4, TreeCertificate(3, [(0, 1)])).code == "host-mismatch"


def test_is_generalized_halin_wheels():
    k4 = Graph.complete(4)
    cert = HalinCertificate(TreeCertificate(4, [(0, 1), (0, 2), (0, 3)]), (1, 2, 3))
    assert is_generalized_halin(k4, cert)
    w5 = wheel(5)
    spokes = TreeCertificate(6, [(0, i) for i in range(1, 6)])
    assert is_generalized_halin(w5, HalinCertificate(spokes, (1, 2, 3, 4, 5)))


def test_is_generalized_halin_reason_codes():
    k4 = Graph.complete(4)
    star = TreeCertificate(4, [(0, 1), (0, 2), (0, 3)])
    assert is_generalized_halin(k4, HalinCertificate(star, (1, 2))).code == "cycle-too-short"
    assert (
        is_generalized_halin(k4, HalinCertificate(star, (0, 1, 2, 3))).code
        == "cycle-uses-nonleaf"
    )
    path = TreeCertificate(4, [(0, 1), (1, 2), (2, 3)])
    assert is_generalized_halin(k4, HalinCertificate(path, (0, 1, 3))).code == "not-a-hist"
    w5 = wheel(5)
    spokes = TreeCertificate(6, [(0, i) for i in range(1, 6)])
    assert (
        is_generalized_halin(w5, HalinCertificate(spokes, (1, 2, 3, 4))).code
        == "cycle-misses-leaf"
    )
    assert (
        is_generalized_halin(w5, HalinCertificate(spokes, (1, 2, 3, 5, 4))).code
        == "cycle-edge-absent"
    )


def test_small_host_is_false_not_error():
    g = Graph.complete(3)
    cert = HalinCertificate(TreeCertificate(3, [(0, 1), (0, 2)]), (1, 2))
    assert not is_generalized_halin(g, cert)


def test_wheel_minor():
    k4 = Graph.complete(4)
    cert = HalinCertificate(TreeCertificate(4, [(0, 1), (0, 2), (0, 3)]), (1, 2, 3))
    assert wheel_minor(cert) == (4, (1, 2, 3))
    w5cert = HalinCertificate(
        TreeCertificate(6, [(0, i) for i in range(1, 6)]), (1, 2, 3, 4, 5)
    )
    assert wheel_minor(w5cert) == (6, (1, 2, 3, 4, 5))
    with pytest.raises(PreconditionError):
        wheel_minor(HalinCertificate(TreeCertificate(4, [(0, 1)]), (1, 2)))


def test_star_pack_verify():
    g = Graph.complete_bipartite(3, 9)
    stars = [(i, tuple(3 + 3 * i + j for j in range(3))) for i in range(3)]
    pack = StarPack(12, stars, 3)
    assert verify_star_pack(g, pack, {0, 1, 2})
    assert not verify_star_pack(g, pack, {0, 1})
    single = Graph(2, [(0, 1)])
    assert verify_star_pack(single, StarPack(2, [(0, (1,))], 1), {0})
    overlapping = StarPack(12, [(0, (3, 4)), (1, (4, 5))], 2)
    assert verify_star_pack(g, overlapping, {0, 1}).code == "stars-overlap"
    assert (
        verify_star_pack(g, StarPack(12, [(0, (3,))], 2), {0}).code == "bad-arity"
    )
    assert (
        verify_star_pack(Graph.empty(6), StarPack(6, [(0, (3, 4))], 2), {0}).code
        == "star-edge-absent"
    )
    outside = StarPack(12, [(0, (12,))], 1)
    assert verify_star_pack(g, outside, {0}).code == "vertex-out-of-range"
    empty_stars = StarPack(3, [(0, ()), (1, ()), (2, ())], 0)
    assert verify_star_pack(Graph.complete(3), empty_stars, {0, 1, 2}).code == "bad-arity"


def test_star_pack_document_round_trip():
    pack = StarPack(9, [(0, (3, 4)), (1, (5, 6))], 2)
    assert StarPack.from_document(pack.to_document()) == pack
    with pytest.raises(PreconditionError):
        StarPack.from_document(TreeCertificate(3, [(0, 1)]).to_document())


def test_tree_documents_decode_only_their_own_kind():
    tree = TreeCertificate(4, [(0, 1), (0, 2), (0, 3)], is_spanning=False)
    assert TreeCertificate.from_document(tree.to_document()) == tree
    halin = HalinCertificate(TreeCertificate(4, [(0, 1), (0, 2), (0, 3)]), (1, 2, 3))
    assert HalinCertificate.from_document(halin.to_document()) == halin
    with pytest.raises(PreconditionError):
        TreeCertificate.from_document(halin.to_document())
    with pytest.raises(PreconditionError):
        HalinCertificate.from_document(tree.to_document())


def test_hit_forest_checker():
    g = Graph.complete_bipartite(4, 8)
    forest = TreeCertificate(
        12, [(0, 4), (0, 5), (0, 6), (1, 7), (1, 8), (1, 9)], is_spanning=False
    )
    assert is_hit_forest(g, forest)
    with_path = TreeCertificate(12, [(0, 4), (4, 1)], is_spanning=False)
    assert is_hit_forest(g, with_path).code == "degree-two-vertex"
    # Two degree-2 vertices: the smallest is reported, whatever the set order.
    path = TreeCertificate(20, [(3, 1), (1, 8), (8, 5)], is_spanning=False)
    assert is_hit_forest(Graph.complete(20), path).detail == "vertex 1"


@pytest.mark.parametrize("edge, bad", [((-1, 0), -1), ((0, 3), 3)])
def test_degree_views_reject_out_of_range_ids(edge, bad):
    # Both ends fail alike; a negative id must not wrap to the last index.
    t = TreeCertificate(3, [edge], is_spanning=False)
    for view in (t.degrees, t.leaves, t.internal):
        with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
            view()


def test_sghg_invariants_on_random_certificates():
    rng = random.Random(23)
    checked = 0
    while checked < 12:
        n = rng.randrange(4, 8)
        g = random_graph(rng, n, 0.75)
        found = naive_sghg(g)
        if found is None:
            continue
        cert = HalinCertificate(TreeCertificate(n, found[0]), found[1])
        assert is_generalized_halin(g, cert)
        report = sghg_invariants(g, cert)
        assert report.all_hold, report
        assert report.wheel_order == report.leaf_count + 1
        checked += 1


def test_wheel_minor_order_on_ten_vertex_host():
    from halinlab.search import find_sghg

    g = Graph.complete(10)
    result = find_sghg(g)
    assert result.found
    order, _ = wheel_minor(result.certificate)
    assert order >= 6  # more leaves than internals forces >= n/2 + 1


def test_sghg_invariants_requires_valid_certificate():
    with pytest.raises(PreconditionError):
        sghg_invariants(
            Graph.complete(4),
            HalinCertificate(TreeCertificate(4, [(0, 1), (1, 2), (2, 3)]), (0, 1, 3)),
        )


@st.composite
def small_hosts(draw):
    """Hosts on 1..7 vertices holding about half or three quarters of the pairs."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    cut = draw(st.sampled_from([1, 2]))
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k >= cut])


@given(small_hosts())
@settings(max_examples=150, deadline=None)
def test_single_edge_mutations_have_stable_reason_codes(g):
    for result in (find_hist(g), find_sghg(g)):
        if not result.found:
            continue
        cert = result.certificate
        tree = cert if isinstance(cert, TreeCertificate) else cert.tree
        mutants = [(tree.edges - {e}, "not-spanning") for e in tree.edges]
        for pair in combinations(range(g.n), 2):
            if pair not in tree.edges:
                code = "not-acyclic" if g.has_edge(*pair) else "tree-edge-not-in-host"
                mutants.append((tree.edges | {pair}, code))
        for edges, code in mutants:
            mutant = TreeCertificate(g.n, edges)
            if tree is cert:
                assert is_hist(g, mutant).code == code, (g.edges(), sorted(edges))
            else:
                verdict = is_generalized_halin(g, HalinCertificate(mutant, cert.leaf_cycle))
                reason = (verdict.code, verdict.detail.partition(":")[0])
                assert reason == ("not-a-hist", code), (g.edges(), sorted(edges))
