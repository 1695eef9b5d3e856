"""Pinned digests of the constructive builders' outputs, of emitted
certificate documents, of the threshold lab's samples and of the SGHG
search's certificates.

Refactors of the builder layer must keep every certificate and every
walk byte-identical, refactors of the document layer every emitted
document, refactors of the connectivity check every host the lab
draws (each accept/reject decision moves the random stream), and
pruning in the tree search every certificate it returns.  Each
family below runs a small seeded corpus and hashes the outputs in order;
a changed digest means some output changed.
"""

import hashlib
import random
from itertools import combinations, permutations

import pytest

from halinlab.certify import HalinCertificate, StarPack, TreeCertificate
from halinlab.constructive import (
    TripartiteHistPlan,
    bipartite_hist,
    tripartite_hist,
    tripartite_plan_error,
)
from halinlab.graph import Graph, VertexSetPair
from halinlab.extremal import (
    ExperimentReport,
    TrialRecord,
    random_three_connected,
    threshold_experiment,
    trial_rng,
    trial_seed_hash,
)
from halinlab.hamiltonicity import moon_moser_cycle, ore_ham_path
from halinlab.io_formats import CertificateDocument, emit_certificate
from halinlab.reduction import reduce_instance
from halinlab.search import SearchBudget, find_sghg

from oracles import random_graph

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


def random_trees(seed: int):
    """Random labelled trees, edges listed in random order and orientation."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randrange(3, 12)
        order = rng.sample(range(n), n)
        edges = [[order[i], order[rng.randrange(i)]] for i in range(1, n)]
        rng.shuffle(edges)
        yield rng, n, edges


def hist_documents():
    for rng, n, edges in random_trees(51):
        yield emit_certificate(TreeCertificate(n, edges, rng.random() < 0.7).to_document())
        raw = {"host_n": n, "tree_edges": edges, "spanning": True}
        yield emit_certificate(CertificateDocument("hist", raw))


def sghg_documents():
    for rng, n, edges in random_trees(52):
        tree = TreeCertificate(n, edges)
        cycle = rng.sample(sorted(tree.leaves()), len(tree.leaves()))
        yield emit_certificate(HalinCertificate(tree, cycle).to_document())
        raw = {"host_n": n, "tree_edges": edges, "leaf_cycle": cycle}
        yield emit_certificate(CertificateDocument("sghg", raw))


def matching_documents():
    rng = random.Random(53)
    for _ in range(40):
        n, arity = rng.randrange(2, 14), rng.randrange(1, 4)
        pool = rng.sample(range(n), n)
        stars = [
            (pool[i], pool[i + 1 : i + 1 + arity])
            for i in range(0, n - arity, arity + 1)
        ]
        yield emit_certificate(StarPack(n, stars, arity).to_document())


def trace_documents():
    rng = random.Random(54)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 10), rng.random())
        x, y = rng.sample(range(g.n), 2)
        yield emit_certificate(reduce_instance(g, x, y)[1].to_document())


def report_documents():
    rng = random.Random(55)
    outcomes = ("sghg-found", "none", "unknown", "skipped")
    for seed in range(20):
        trials = [
            TrialRecord(
                i,
                trial_seed_hash(seed, i),
                rng.choice(outcomes),
                rng.randrange(1000),
                f"{rng.getrandbits(64):016x}" if rng.random() < 0.5 else None,
            )
            for i in range(rng.randrange(0, 6))
        ]
        params = {
            "n": rng.randrange(4, 40),
            "delta_fraction": round(rng.random(), 3),
            "trials": len(trials),
            "seed": seed,
        }
        yield emit_certificate(ExperimentReport(params, trials).to_document())


def sampled_hosts():
    """One-attempt draws pin single accept/reject decisions (most are
    rejections); sixty-attempt draws pin the host after a run of them."""
    for n in range(4, 25):
        for floor in sorted({3, n // 3, n // 2, 2 * n // 3}):
            for index in range(3):
                for attempts in (1, 60):
                    g = random_three_connected(n, floor, trial_rng(n, index), attempts)
                    yield n, floor, index, attempts, None if g is None else g.edges()


def threshold_reports():
    for n, fraction, trials, seed in ((6, 0.5, 4, 0), (10, 0.45, 4, 1),
                                      (16, 0.45, 4, 0), (20, 0.6, 3, 7)):
        budget = SearchBudget(node_limit=200_000)
        report = threshold_experiment(n, fraction, trials, seed, budget)
        yield emit_certificate(report.to_document())


def threshold_report_n36():
    """A report at the host sizes of the threshold benchmark (n = 32 to
    40), where the connectivity test and the sampler do most of the work."""
    report = threshold_experiment(36, 0.45, 6, 3, SearchBudget(node_limit=200_000))
    yield emit_certificate(report.to_document())


def search_hosts():
    """Every labeled reduction instance at n=4, sparse and dense random
    hosts (many with vertices of degree at most 2) and small complete
    bipartite hosts."""
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(4, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for x, y in pairs:
            yield reduce_instance(g, x, y)[0]
    rng = random.Random(61)
    for _ in range(120):
        yield random_graph(rng, rng.randrange(4, 10), rng.choice([0.3, 0.5, 0.7, 0.9]))
    for a in range(2, 5):
        for b in range(a, 6):
            yield Graph.complete_bipartite(a, b)


def search_certificates():
    for g in search_hosts():
        for mode in ("first", "canonical"):
            r = find_sghg(g, SearchBudget(mode=mode))
            cert = r.certificate
            yield mode, r.status, cert and (sorted(cert.tree.edges), cert.leaf_cycle)


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


@pytest.mark.parametrize(
    "family, calls, expected",
    [
        (
            hist_documents,
            80,
            "fd8646eeae48b40d67ef023b5f632347de3ce940703075e217c6c488c3fdfc21",
        ),
        (
            sghg_documents,
            80,
            "be16277798d1462d36e0f52fcc87d5d3f5f236afc925ce1c2e404ca3504d54b9",
        ),
        (
            matching_documents,
            40,
            "80496f5f27877a9aca5e8964245ddc773dd852d9e5192e710a7515d1d9ec1344",
        ),
        (
            trace_documents,
            40,
            "30eef17ba9193e85ec2dcb74a4367091b718867ab74bfc85693399f9833231fe",
        ),
        (
            report_documents,
            20,
            "b214782c83f96c30f7917cced7fd15cdfa22214034481544d02a44b67e098ac5",
        ),
    ],
    ids=["hist", "sghg", "matching", "reduction-trace", "experiment-report"],
)
def test_emitted_documents_are_pinned(family, calls, expected):
    assert digest(family()) == (calls, expected)


@pytest.mark.parametrize(
    "family, calls, expected",
    [
        (
            sampled_hosts,
            462,
            "d54ebacb29d8e3907a65081200eaa9e139b29055aea4a5455601d15a62f15b14",
        ),
        (
            threshold_reports,
            4,
            "5afe0678c9aadded5060711ee9f7e72486a6a81289ead46d9eb50b50e8001d44",
        ),
        (
            threshold_report_n36,
            1,
            "de0f582cc63507a5f6c6c38d08cdc72d9793d093404a6ff5bd59ab26e6c7526b",
        ),
    ],
    ids=["random-three-connected", "threshold-report", "threshold-report-n36"],
)
def test_threshold_lab_samples_are_pinned(family, calls, expected):
    assert digest(family()) == (calls, expected)


def test_search_certificates_are_pinned():
    assert digest(search_certificates()) == (
        1026,
        "5e02e0fea7e7e90477af6eb819af2717fac5401b7dba6bca59e4908505c5b03b",
    )
