import random
from itertools import combinations

import pytest

from halinlab.errors import PreconditionError
from halinlab.graph import Graph, VertexSetPair, bipartition
from halinlab.hamiltonicity import (
    RotationStats,
    check_ore_plus,
    moon_moser_cycle,
    ore_ham_path,
    verify_walk,
)

from oracles import (
    brute_ham_path,
    pair_scan_moon_moser_witness,
    pair_scan_ore_witness,
    random_graph,
)


def ore_holds(g: Graph) -> bool:
    return check_ore_plus(g) is None


def test_check_ore_plus_examples():
    assert ore_holds(Graph.complete(5))
    assert not ore_holds(Graph.cycle(5))
    k5e = Graph(5, [e for e in Graph.complete(5).edges() if e != (0, 1)])
    assert ore_holds(k5e)
    assert check_ore_plus(Graph.cycle(5)) is not None


def test_check_ore_plus_matches_the_pair_scan():
    """Same witness pair as the scan over every pair, on hosts from sparse
    to complete; dense ones fail late or not at all."""
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randrange(0, 61)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8, 0.9, 0.97, 1.0]))
        assert check_ore_plus(g) == pair_scan_ore_witness(g)


def test_ore_ham_path_small():
    k4 = Graph.complete(4)
    for x, y in combinations(range(4), 2):
        p = ore_ham_path(k4, x, y)
        assert verify_walk(k4, p, closed=False, endpoints=(x, y))
    k5e = Graph(5, [e for e in Graph.complete(5).edges() if e != (0, 1)])
    p = ore_ham_path(k5e, 0, 1)
    assert verify_walk(k5e, p, closed=False, endpoints=(0, 1))


def test_ore_ham_path_requires_the_condition():
    with pytest.raises(PreconditionError):
        ore_ham_path(Graph.cycle(5), 0, 2)
    with pytest.raises(PreconditionError):
        ore_ham_path(Graph.complete(4), 1, 1)


@pytest.mark.parametrize("x, y", [(0, 9), (-1, 2), (6, 0)])
def test_ore_ham_path_rejects_out_of_range_terminals(x, y):
    # Not a falsification: the terminals are simply not vertices of K_6.
    with pytest.raises(PreconditionError, match="out of range"):
        ore_ham_path(Graph.complete(6), x, y)


def test_ore_ham_path_tiny():
    assert ore_ham_path(Graph(2, [(0, 1)]), 1, 0) == (1, 0)
    with pytest.raises(PreconditionError):
        ore_ham_path(Graph.empty(2), 0, 1)


def random_ore_graph(rng: random.Random, n: int) -> Graph:
    # A non-complete host needs n >= 5: a nonadjacent pair caps the
    # degree sum at 2n-4, which only reaches n+1 from there on.
    assert n >= 5
    while True:
        g = random_graph(rng, n, rng.uniform(0.55, 0.95))
        if ore_holds(g) and g.edge_count < n * (n - 1) // 2:
            return g


def test_ore_ham_path_random_all_pairs():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(5, 9)
        g = random_ore_graph(rng, n)
        for x, y in combinations(range(n), 2):
            stats = RotationStats()
            p = ore_ham_path(g, x, y, stats=stats)
            assert verify_walk(g, p, closed=False, endpoints=(x, y))
            assert stats.rotations <= n  # one per repaired virtual edge


def test_ore_ham_path_agrees_with_exhaustive():
    # Wherever the condition holds, brute force must also find a path.
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(5, 8)
        g = random_ore_graph(rng, n)
        x, y = rng.sample(range(n), 2)
        assert brute_ham_path(g, x, y) is not None
        assert ore_ham_path(g, x, y) is not None


def test_path_repair_resumes_its_scan_without_changing_the_result():
    """After a path exchange every edge up to the repaired position is
    genuine, so resuming the scan there gives the same path and rotation
    count as rescanning from the start, as this reference does."""

    def restarting_repair(g: Graph, seq: list[int]) -> tuple[tuple[int, ...], int]:
        rotations = 0
        while True:
            steps = range(len(seq) - 1)
            bad = next((i for i in steps if not g.has_edge(seq[i], seq[i + 1])), None)
            if bad is None:
                return tuple(seq), rotations
            j = next(
                j for j in steps
                if g.has_edge(seq[j], seq[bad]) and g.has_edge(seq[j + 1], seq[bad + 1])
            )
            lo, hi = min(bad, j), max(bad, j)
            seq = seq[: lo + 1] + seq[lo + 1 : hi + 1][::-1] + seq[hi + 1 :]
            rotations += 1

    rng = random.Random(15)
    rotated = 0
    for _ in range(80):
        n = rng.randrange(5, 41)
        g = random_ore_graph(rng, n)
        x, y = rng.sample(range(n), 2)
        stats = RotationStats()
        path = ore_ham_path(g, x, y, stats=stats)
        start = [x] + sorted(set(range(n)) - {x, y}) + [y]
        assert (path, stats.rotations) == restarting_repair(g, start)
        rotated += stats.rotations > 1
    assert rotated >= 40  # most hosts resume the scan at least once


def test_ore_ham_path_larger_instance():
    rng = random.Random(14)
    g = random_graph(rng, 50, 0.8)
    assert ore_holds(g)
    p = ore_ham_path(g, 7, 31)
    assert verify_walk(g, p, closed=False, endpoints=(7, 31))


@pytest.mark.parametrize(
    "walk, closed, endpoints",
    [
        ((0, 2, 1, 3), False, None),  # 0-2 is not an edge
        ((0, 1, 2, 1), False, None),  # repeats 1, misses 3
        ((0, 1, 2, 3), False, (3, 0)),  # wrong endpoints
        ((0, 1, 2, 3), True, None),  # 3-0 does not close the cycle
    ],
)
def test_verify_walk_rejects(walk, closed, endpoints):
    p4 = Graph.path(4)
    assert verify_walk(p4, (0, 1, 2, 3), closed=False, endpoints=(0, 3))
    assert not verify_walk(p4, walk, closed=closed, endpoints=endpoints)


def test_verify_walk_rejects_closed_walks_below_three_vertices():
    # K_2's one edge cannot close a cycle by being used twice, and K_0's
    # empty walk is no cycle either.
    assert verify_walk(Graph.complete(2), (0, 1), closed=False)
    assert not verify_walk(Graph.complete(2), (0, 1), closed=True)
    assert not verify_walk(Graph.empty(0), (), closed=True)
    assert verify_walk(Graph.complete(3), (0, 1, 2), closed=True)


def test_verify_walk_rejects_endpoints_on_an_empty_walk():
    # K_0's empty walk spans it, but has no ends to compare.
    assert verify_walk(Graph.empty(0), (), closed=False)
    assert not verify_walk(Graph.empty(0), (), closed=False, endpoints=(0, 1))


def test_moon_moser_examples():
    k33 = Graph.complete_bipartite(3, 3)
    c = moon_moser_cycle(k33, bipartition(k33))
    assert verify_walk(k33, c, closed=True) and len(c) == 6
    k22 = Graph.complete_bipartite(2, 2)
    c = moon_moser_cycle(k22, bipartition(k22))
    assert verify_walk(k22, c, closed=True) and len(c) == 4
    minus_pm = Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    c = moon_moser_cycle(minus_pm, VertexSetPair(range(4), range(4, 8)))
    assert verify_walk(minus_pm, c, closed=True) and len(c) == 8


def test_moon_moser_alternates_sides():
    rng = random.Random(15)
    for _ in range(30):
        m = rng.randrange(2, 7)
        while True:
            edges = [
                (i, m + j)
                for i in range(m)
                for j in range(m)
                if rng.random() < 0.8
            ]
            g = Graph(2 * m, edges)
            sides = VertexSetPair(range(m), range(m, 2 * m))
            ok = all(
                g.has_edge(u, v) or g.degree(u) + g.degree(v) >= m + 1
                for u in range(m)
                for v in range(m, 2 * m)
            )
            if ok:
                break
        c = moon_moser_cycle(g, sides)
        assert verify_walk(g, c, closed=True)
        for a, b in zip(c, c[1:] + c[:1]):
            assert (a < m) != (b < m)


def test_moon_moser_rejects_bad_input():
    k33 = Graph.complete_bipartite(3, 3)
    with pytest.raises(PreconditionError):
        moon_moser_cycle(k33, VertexSetPair([0, 1], [3, 4, 5, 2]))
    with pytest.raises(PreconditionError, match="cover"):
        moon_moser_cycle(k33, VertexSetPair([0, 1], [3, 4]))
    sparse = Graph(6, [(0, 3), (1, 4), (2, 5)])
    with pytest.raises(PreconditionError):
        moon_moser_cycle(sparse, VertexSetPair([0, 1, 2], [3, 4, 5]))


def test_moon_moser_names_the_pair_of_the_cross_scan():
    """The rejected pair is the first one of a scan over sorted left x
    sorted right, on hosts from sparse to dense whose sides interleave."""
    rng = random.Random(43)
    for _ in range(300):
        m = rng.randrange(2, 9)
        left = rng.sample(range(2 * m), m)
        right = sorted(set(range(2 * m)) - set(left))
        p = rng.choice([0.2, 0.5, 0.8, 0.9, 1.0])
        g = Graph(2 * m, [(u, v) for u in left for v in right if rng.random() < p])
        sides = VertexSetPair(left, right)
        pair = pair_scan_moon_moser_witness(g, left, right)
        if pair is None:
            assert verify_walk(g, moon_moser_cycle(g, sides), closed=True)
        else:
            with pytest.raises(PreconditionError) as err:
                moon_moser_cycle(g, sides)
            assert str(err.value) == "cross degree-sum condition fails at pair ({},{})".format(*pair)
