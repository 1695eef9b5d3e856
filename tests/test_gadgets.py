import pytest

from halinlab.certify import check_tree, is_hit_forest
from halinlab.errors import PreconditionError
from halinlab.gadgets import (
    InsertionInstance,
    complete_instance,
    expected_forest_counts,
    expected_hit_counts,
    expected_tree_counts,
    insertion_forest,
    insertion_hit,
    insertion_tree,
    validate_forest_instance,
    validate_hit_instance,
    validate_tree_instance,
)
from halinlab.graph import Graph


def big_instance(k: int) -> InsertionInstance:
    side = 6 * k + 4
    return complete_instance(side, side, k)


def test_instance_validation():
    inst = complete_instance(4, 4, 2)
    assert inst.size == 2
    with pytest.raises(PreconditionError):
        InsertionInstance(inst.host, inst.side_a, inst.side_b, inst.side_b)
    with pytest.raises(PreconditionError):
        InsertionInstance(inst.host, inst.side_a[:-1], inst.side_b, inst.inserted)
    bad = Graph(4, [(0, 1), (2, 3), (0, 2)])
    with pytest.raises(PreconditionError):
        InsertionInstance(bad, (0, 1), (2, 3), ())
    # A negative size is named, not reported as an edge out of range.
    message = "^side sizes and inserted count must be nonnegative$"
    for a, b, k in ((3, 3, -2), (-1, 3, 1), (3, -1, 1)):
        with pytest.raises(PreconditionError, match=message):
            complete_instance(a, b, k)


def test_hit_counts_match_formulas():
    # Values fixed by the closed forms, including the k=1 and k=3 rows.
    assert expected_hit_counts(1) == {
        "a_vertices": 3, "b_vertices": 3, "a_leaves": 3, "b_leaves": 2,
        "components": 1, "degree_two": 0,
    }
    assert expected_hit_counts(3)["b_leaves"] == min(7, 8) == 7
    assert expected_hit_counts(3)["a_vertices"] == 11
    assert expected_hit_counts(3)["a_leaves"] == 9
    assert expected_hit_counts(2) == {
        "a_vertices": 7, "b_vertices": 7, "a_leaves": 6, "b_leaves": 5,
        "components": 1, "degree_two": 0,
    }


def test_tree_counts_match_formulas():
    assert expected_tree_counts(1) == {
        "a_vertices": 3, "b_vertices": 2, "a_leaves": 2, "b_leaves": 2,
        "components": 1, "degree_two": 0,
    }
    assert expected_tree_counts(5)["a_vertices"] == 15
    assert expected_tree_counts(5)["a_leaves"] == 10 - 1 == 9
    assert expected_tree_counts(5)["b_leaves"] == 9
    assert expected_tree_counts(5)["b_vertices"] == 11
    assert expected_tree_counts(6)["a_leaves"] == 12 - 2 == 10
    assert expected_tree_counts(6)["degree_two"] == 1
    assert expected_tree_counts(2)["degree_two"] == 1
    assert expected_tree_counts(7)["degree_two"] == 0


def test_forest_counts_match_formulas():
    assert expected_forest_counts(1) == {
        "a_vertices": 6, "b_vertices": 3, "a_leaves": 6, "b_leaves": 0,
        "components": 1, "degree_two": 0,
    }
    assert expected_forest_counts(2)["a_vertices"] == 12
    assert expected_forest_counts(2)["components"] == 2
    assert expected_forest_counts(4)["a_vertices"] == 24
    assert expected_forest_counts(4)["b_vertices"] == 12


@pytest.mark.parametrize("k", range(1, 9))
def test_insertion_hit_structure(k):
    inst = big_instance(k)
    res = insertion_hit(inst)
    cert = res.certificate
    assert check_tree(inst.host, cert)
    assert is_hit_forest(inst.host, cert)  # HIT: connected checked below
    assert res.counts["components"] == 1
    assert res.counts == {**res.counts, **expected_hit_counts(k)}
    deg = cert.degrees()
    assert all(deg[x] == 3 for x in inst.inserted)


@pytest.mark.parametrize("k", range(1, 9))
def test_insertion_tree_structure(k):
    inst = big_instance(k)
    res = insertion_tree(inst)
    cert = res.certificate
    assert check_tree(inst.host, cert)
    assert res.counts == {**res.counts, **expected_tree_counts(k)}
    deg = cert.degrees()
    two = [v for v in cert.vertices() if deg[v] == 2]
    if k == 2 or (k > 2 and k % 2 == 0):
        assert len(two) == 1 and two[0] in inst.side_b
    else:
        assert not two


@pytest.mark.parametrize("k", range(1, 9))
def test_insertion_forest_structure(k):
    inst = big_instance(k)
    res = insertion_forest(inst)
    cert = res.certificate
    assert check_tree(inst.host, cert)
    assert is_hit_forest(inst.host, cert)
    assert res.counts["components"] == k
    assert res.counts == {**res.counts, **expected_forest_counts(k)}


def test_validators_reject_thin_hosts():
    inst = complete_instance(3, 3, 2)  # far below every degree floor
    with pytest.raises(PreconditionError):
        validate_hit_instance(inst)
    with pytest.raises(PreconditionError):
        validate_tree_instance(inst)
    with pytest.raises(PreconditionError):
        validate_forest_instance(inst)
    with pytest.raises(PreconditionError):
        insertion_hit(inst)


def one_sided_instance(k: int = 2) -> InsertionInstance:
    """Complete bipartite host whose inserted vertices see side_b only."""
    a = b = 6 * k + 4
    n = a + b + k
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    for x in range(a + b, n):
        edges.extend((x, a + j) for j in range(b))  # side_b only
    return InsertionInstance(
        Graph(n, edges),
        tuple(range(a)),
        tuple(range(a, a + b)),
        tuple(range(a + b, n)),
    )


def test_builders_respect_declared_adjacency():
    # Inserted vertices wired into one side only still work for the op
    # that uses that side.
    k = 2
    inst = one_sided_instance(k)
    res = insertion_hit(inst)
    assert res.counts == {**res.counts, **expected_hit_counts(k)}
    with pytest.raises(PreconditionError):
        insertion_tree(inst)  # needs side_a adjacency
