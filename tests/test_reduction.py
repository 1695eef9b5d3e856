import random
from itertools import combinations, permutations

import pytest

from halinlab.certify import (
    HalinCertificate,
    TreeCertificate,
    cycle_edges,
    is_generalized_halin,
)
from halinlab.errors import FalsificationError, PreconditionError
from halinlab.graph import Graph, iter_all_graphs
from halinlab.io_formats import emit_certificate, normalize_cycle, parse_certificate
from halinlab.reduction import (
    ReductionTrace,
    build_g_prime,
    lift_certificate,
    project_certificate,
    reduce_instance,
)
from halinlab.search import EXHAUSTIVE, find_sghg, ham_path_oracle

from oracles import random_graph


def test_build_g_prime_examples():
    p3 = Graph.path(3)
    gp, trace = build_g_prime(p3, 0, 2)
    assert gp.n == 4 and gp.has_edge(1, 3) and trace.z_order == (1,)
    k4 = Graph.complete(4)
    gp, trace = build_g_prime(k4, 0, 1)
    assert gp.n == 6 and trace.pendant_ids == (4, 5)
    assert gp.has_edge(2, 4) and gp.has_edge(3, 5)
    star = Graph.star(3)
    gp, trace = build_g_prime(star, 1, 2)
    assert gp.n == 6 and trace.z_order == (0, 3)


def test_build_g_prime_rejects_tiny():
    with pytest.raises(PreconditionError):
        build_g_prime(Graph(2, [(0, 1)]), 0, 1)
    with pytest.raises(PreconditionError):
        build_g_prime(Graph.path(3), 1, 1)


def test_build_g_double_prime_counts():
    for g, x, y, expect_n, expect_cycle_len in [
        (Graph.path(3), 0, 2, 7, 5),
        (Graph.complete(4), 0, 1, 12, 8),
        (Graph.star(3), 1, 2, 12, 8),
    ]:
        gpp, trace = reduce_instance(g, x, y)
        assert gpp.n == expect_n == g.n + 4 * (g.n - 2)
        assert len(trace.cycle_order()) == expect_cycle_len
        # chain edges always on the cycle
        cycle = cycle_edges(trace.cycle_order())
        for g1, g2, g3 in trace.gadget_ids:
            assert ((g1, g2) if g1 < g2 else (g2, g1)) in cycle
            assert ((g2, g3) if g2 < g3 else (g3, g2)) in cycle


def test_lift_produces_verified_certificates():
    for g, x, y in [
        (Graph.path(3), 0, 2),
        (Graph.path(4), 0, 3),
        (Graph.cycle(5), 0, 1),
    ]:
        path = ham_path_oracle(g, x, y)
        assert path is not None
        gpp, trace = reduce_instance(g, x, y)
        cert = lift_certificate(trace, path)
        assert is_generalized_halin(gpp, cert)


def test_lift_validates_path():
    gpp, trace = reduce_instance(Graph.path(3), 0, 2)
    with pytest.raises(PreconditionError):
        lift_certificate(trace, (0, 1))
    with pytest.raises(PreconditionError):
        lift_certificate(trace, (2, 1, 0))


def test_project_round_trip():
    rng = random.Random(21)
    done = 0
    while done < 25:
        n = rng.randrange(3, 7)
        g = random_graph(rng, n, 0.7)
        x, y = rng.sample(range(n), 2)
        path = ham_path_oracle(g, x, y)
        if path is None:
            continue
        gpp, trace = reduce_instance(g, x, y)
        cert = lift_certificate(trace, path)
        back = project_certificate(gpp, trace, cert)
        assert back[0] == x and back[-1] == y
        assert sorted(back) == list(range(n))
        assert all(g.has_edge(a, b) for a, b in zip(back, back[1:]))
        done += 1


def test_project_rejects_unverified():
    gpp, trace = reduce_instance(Graph.path(3), 0, 2)
    bogus = HalinCertificate(TreeCertificate(gpp.n, [(0, 1)]), (0, 1, 2))
    with pytest.raises(PreconditionError):
        project_certificate(gpp, trace, bogus)


def test_project_solver_output():
    g = Graph.path(4)
    gpp, trace = reduce_instance(g, 0, 3)
    result = find_sghg(gpp)
    assert result.found
    path = project_certificate(gpp, trace, result.certificate)
    assert path[0] == 0 and path[-1] == 3 and sorted(path) == [0, 1, 2, 3]


def test_project_falsifies_a_certificate_of_other_terminals():
    gpp, trace = reduce_instance(Graph.complete(4), 0, 1)
    cert = lift_certificate(trace, (0, 2, 3, 1))
    _, other = reduce_instance(Graph.complete(4), 0, 2)
    with pytest.raises(FalsificationError) as info:
        project_certificate(gpp, other, cert)
    assert info.value.dump == {"trace": other.to_document().payload, "walk": [0, 2]}


def test_lifting_is_a_bijection_on_all_labeled_n4():
    # Projection relies on every SGHG of G'' being the lift of exactly one
    # Hamiltonian terminal path, so the two counts agree.
    for g in iter_all_graphs(4):
        for x, y in combinations(range(4), 2):
            inner = [v for v in range(4) if v not in (x, y)]
            paths = sum(
                all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                for p in ((x, *mid, y) for mid in permutations(inner))
            )
            gpp, _ = reduce_instance(g, x, y)
            assert find_sghg(gpp, EXHAUSTIVE).solution_count == paths, (g.edges(), x, y)


def test_equivalence_on_all_labeled_n4():
    for g in iter_all_graphs(4):
        for x, y in combinations(range(4), 2):
            hp = ham_path_oracle(g, x, y) is not None
            gpp, _ = reduce_instance(g, x, y)
            assert find_sghg(gpp).found == hp


def test_forward_direction_all_nonisomorphic_n6():
    # Forward direction at n=6: every ham-path-positive instance over the
    # non-isomorphic corpus lifts to a verifier-valid certificate.
    import networkx as nx

    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6]
    assert len(atlas) == 156
    positives = 0
    for nxg in atlas:
        g = Graph(6, [tuple(sorted(e)) for e in nxg.edges()])
        for x, y in combinations(range(6), 2):
            path = ham_path_oracle(g, x, y)
            if path is None:
                continue
            gpp, trace = reduce_instance(g, x, y)
            cert = lift_certificate(trace, path)
            assert is_generalized_halin(gpp, cert), (g.edges(), x, y)
            positives += 1
    assert positives > 100


def test_forced_cycle_property_small():
    rng = random.Random(22)
    done = 0
    while done < 10:
        n = rng.randrange(3, 6)
        g = random_graph(rng, n, 0.7)
        x, y = rng.sample(range(n), 2)
        if ham_path_oracle(g, x, y) is None:
            continue
        gpp, trace = reduce_instance(g, x, y)
        result = find_sghg(gpp)
        assert result.found
        assert normalize_cycle(result.certificate.leaf_cycle) == normalize_cycle(
            trace.cycle_order()
        )
        done += 1


def test_gadget_vertices_are_leaves_in_every_solution():
    g = Graph.cycle(4)
    gpp, trace = reduce_instance(g, 0, 1)
    result = find_sghg(gpp)
    assert result.found
    leaves = result.certificate.tree.leaves()
    for triple in trace.gadget_ids:
        assert set(triple) <= leaves


def test_trace_document_round_trip():
    _, trace = reduce_instance(Graph.complete(4), 0, 1)
    text = emit_certificate(trace.to_document())
    again = ReductionTrace.from_document(parse_certificate(text))
    assert again == trace


@pytest.mark.parametrize(
    "field, value",
    [
        ("pendant_ids", [5, 4]),
        ("pendant_ids", [4]),
        ("terminals", [0, 2]),
        ("base_n", 5),
        ("gadget_ids", [[6, 7, 8], [9, 11, 10]]),
        ("cycle_edges", [[0, 6]]),
        ("base_n", 10**12),
    ],
)
def test_trace_document_must_match_its_terminals(field, value):
    _, trace = reduce_instance(Graph.complete(4), 0, 1)
    doc = trace.to_document()
    doc.payload[field] = value
    with pytest.raises(PreconditionError):
        ReductionTrace.from_document(doc)


def test_trace_document_of_another_kind_is_rejected():
    doc = TreeCertificate(3, [(0, 1), (1, 2)]).to_document()
    with pytest.raises(PreconditionError):
        ReductionTrace.from_document(doc)


def test_projection_builds_no_dump_on_success(monkeypatch):
    g = Graph.complete(4)
    gpp, trace = reduce_instance(g, 0, 1)
    cert = lift_certificate(trace, (0, 2, 3, 1))

    def no_dump(self):
        raise AssertionError("trace document built on a successful projection")

    monkeypatch.setattr(ReductionTrace, "to_document", no_dump)
    assert project_certificate(gpp, trace, cert) == (0, 2, 3, 1)
