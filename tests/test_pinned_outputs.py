"""Pinned digests of the constructive builders' outputs.

Refactors of the builder layer must keep every certificate and every
walk byte-identical.  Each family below runs a small seeded corpus and
hashes the outputs in order; a changed digest means some output changed.
"""

import hashlib
import random
from itertools import permutations

import pytest

from halinlab.constructive import (
    TripartiteHistPlan,
    bipartite_hist,
    tripartite_hist,
    tripartite_plan_error,
)
from halinlab.graph import Graph, VertexSetPair
from halinlab.hamiltonicity import moon_moser_cycle, ore_ham_path

from test_constructive import feasible_bipartite_plans
from test_hamiltonicity import random_ore_graph


def bipartite_outputs():
    for a in (9, 12, 17, 25):
        for plan in feasible_bipartite_plans(a):
            yield plan, sorted(bipartite_hist(a, a, plan).edges)


def tripartite_outputs():
    for a in (5, 8, 12, 15):
        for b in range(5, 25, 3):
            for f in (1, 3, 5, 9):
                for l in (0, 2, 4):
                    for plan in (
                        TripartiteHistPlan(d, da, df)
                        for d in (1, 2, 3)
                        for da in (4, 6, 8)
                        for df in (2, 4)
                    ):
                        if tripartite_plan_error(a, b, f, l, plan) is None:
                            tree, path = tripartite_hist(a, b, f, l, plan)
                            yield (a, b, f, l, plan), sorted(tree.edges), path


def ore_outputs():
    rng = random.Random(41)
    hosts = [Graph.complete(4), Graph.complete(6)]
    hosts += [random_ore_graph(rng, rng.randrange(5, 10)) for _ in range(12)]
    for g in hosts:
        for x, y in permutations(range(g.n), 2):
            yield g.edges(), x, y, ore_ham_path(g, x, y)


def moon_moser_outputs():
    rng = random.Random(42)
    count = 0
    while count < 25:
        m = rng.randrange(2, 8)
        g = Graph(
            2 * m,
            [(i, m + j) for i in range(m) for j in range(m) if rng.random() < 0.75],
        )
        if all(
            g.has_edge(u, v) or g.degree(u) + g.degree(v) >= m + 1
            for u in range(m)
            for v in range(m, 2 * m)
        ):
            count += 1
            sides = VertexSetPair(range(m), range(m, 2 * m))
            yield g.edges(), moon_moser_cycle(g, sides)


def digest(outputs) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for item in outputs:
        h.update(repr(item).encode())
        count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize(
    "family, calls, expected",
    [
        (
            bipartite_outputs,
            350,
            "9fbaa267f2c00f3a37f405c8846c07dcab2727d6dc9dd8a163c96c8ed3e1c649",
        ),
        (
            tripartite_outputs,
            135,
            "e799de751150b2fae8dff02b337cd8bf81d9473dfd552554391295272da82565",
        ),
        (
            ore_outputs,
            582,
            "2e42a2d1f142a0635f9536a6867309e233dbc702f98d91a315c8979834e3e514",
        ),
        (
            moon_moser_outputs,
            25,
            "cf73a877e32759a5091320603d2cf5622d6cdcd496cc4795aedb4c0f37edf4fe",
        ),
    ],
    ids=["bipartite", "tripartite", "ore", "moon-moser"],
)
def test_builder_outputs_are_pinned(family, calls, expected):
    assert digest(family()) == (calls, expected)
