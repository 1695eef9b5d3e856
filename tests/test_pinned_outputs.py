"""Pinned digests of the constructive builders' outputs (and of the
errors they raise on rejected inputs), of emitted certificate documents,
of the threshold lab's samples, of the SGHG search's certificates and of
the verifiers' verdicts.

Refactors of the builder layer must keep every certificate and every
walk byte-identical, refactors of the document layer every emitted
document, refactors of the connectivity check every host the lab
draws (each accept/reject decision moves the random stream), and
pruning in the tree search every certificate it returns, and refactors
of the certificate layer every verdict and degree view.  Each
family below runs a small seeded corpus and hashes the outputs in order;
a changed digest means some output changed.
"""

import hashlib
import math
import random
from itertools import combinations, permutations
from unittest import mock

import pytest

from halinlab.certify import (
    HalinCertificate,
    StarPack,
    TreeCertificate,
    check_tree,
    is_generalized_halin,
    is_hist,
    is_hit_forest,
    verify_star_pack,
)
from halinlab.constructive import (
    DenseHistParams,
    TripartiteHistPlan,
    bipartite_hist,
    dense_hist,
    matching_lower_bound,
    star_pack,
    tripartite_hist,
    tripartite_plan_error,
)
from halinlab.errors import HalinLabError
from halinlab.gadgets import (
    InsertionInstance,
    complete_instance,
    insertion_forest,
    insertion_hit,
    insertion_tree,
    validate_forest_instance,
    validate_hit_instance,
    validate_tree_instance,
)
from halinlab import extremal
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
from halinlab.search import SearchBudget, find_hist, find_sghg

from oracles import random_graph, random_graph_min_degree

from test_constructive import feasible_bipartite_plans
from test_gadgets import one_sided_instance
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


def outcome(show, build, *args):
    """`show` of what a builder returns, or the type, message and dump
    of the error it raises."""
    try:
        result = build(*args)
    except HalinLabError as e:
        return type(e).__name__, str(e), getattr(e, "dump", None)
    return show(result)


def accepted(_) -> str:
    return "accepted"


def gadget_outcomes(inst: InsertionInstance):
    def show(res):
        return sorted(res.certificate.edges), res.counts

    for build in (insertion_hit, insertion_tree, insertion_forest):
        yield build.__name__, outcome(show, build, inst)
    for check in (validate_hit_instance, validate_tree_instance, validate_forest_instance):
        yield check.__name__, outcome(accepted, check, inst)


def trimmed(inst: InsertionInstance, drop) -> InsertionInstance:
    """The instance with the given host edges deleted."""
    gone = {(min(e), max(e)) for e in drop}
    host = Graph(inst.host.n, [e for e in inst.host.edges() if e not in gone])
    return InsertionInstance(host, inst.side_a, inst.side_b, inst.inserted)


def cut(v: int, others) -> list[tuple[int, int]]:
    return [(v, w) for w in others]


def rejected_instances():
    """Hand-built instances, each failing one validator check.  Only these
    reach the anchor checks of the HIT and tree builders: random hosts
    fail a degree check first or pass both."""
    yield complete_instance(4, 4, 0)
    # HIT: an inserted vertex, a side_b vertex, a side_a vertex too thin.
    inst = complete_instance(13, 13, 2)
    a, b, (x0, _) = inst.side_a, inst.side_b, inst.inserted
    yield trimmed(inst, cut(x0, b[:9]))
    yield trimmed(inst, cut(b[0], a[:7]))
    yield trimmed(inst, cut(a[0], b[:7]))
    # HIT anchors: claw tips b2 and b3 share one side_a neighbour, k = 2.
    yield trimmed(inst, cut(b[2], a[7:]) + cut(b[3], a[:6]))
    # ... and b5, b6 share two, k = 3 (the first pair shares plenty).
    inst = complete_instance(21, 17, 3)
    a, b = inst.side_a, inst.side_b
    yield trimmed(inst, cut(b[5], a[11:]) + cut(b[6], a[:9]))
    # Tree: an inserted vertex and a side_a vertex too thin.
    inst = complete_instance(10, 12, 2)
    a, b, (x0, _) = inst.side_a, inst.side_b, inst.inserted
    yield trimmed(inst, cut(x0, a[:5]))
    yield trimmed(inst, cut(a[0], b[:7]))
    # Tree anchor groups: the k = 2 pair a2, a3 shares one side_b vertex.
    yield trimmed(inst, cut(a[2], b[6:]) + cut(a[3], b[:5]))
    # ... the k = 3 triple a2, a5, a8 shares two.
    inst = complete_instance(12, 16, 3)
    a, b = inst.side_a, inst.side_b
    yield trimmed(inst, cut(a[2], b[8:]) + cut(a[5], b[:6]) + cut(a[8], b[:6]))
    # ... the closing k = 4 pair a7, a11 shares three.
    inst = complete_instance(14, 20, 4)
    a, b = inst.side_a, inst.side_b
    yield trimmed(inst, cut(a[7], b[10:]) + cut(a[11], b[:7]) + cut(a[11], b[17:]))
    # ... the k = 5 group a7, a11, a14 shares two.
    inst = complete_instance(16, 30, 5)
    a, b = inst.side_a, inst.side_b
    yield trimmed(inst, cut(a[7], b[12:]) + cut(a[11], b[:10]) + cut(a[11], b[22:]))
    # Forest: an inserted vertex and a side_b vertex too thin.
    inst = complete_instance(13, 13, 2)
    a, b, (x0, _) = inst.side_a, inst.side_b, inst.inserted
    yield trimmed(inst, cut(x0, b[:8]))
    yield trimmed(inst, cut(b[0], a[:2]))


def random_instances():
    """Complete bipartite hosts with random edges missing, near the
    degree floors, so claws and connectors leave the smallest ids."""
    rng = random.Random(56)
    for _ in range(30):
        k = rng.randrange(1, 5)
        sa, sb = rng.randrange(4 * k + 2, 6 * k + 6), rng.randrange(4 * k + 2, 6 * k + 6)
        inst = complete_instance(sa, sb, k)
        p = rng.choice([0.05, 0.15, 0.3])
        yield trimmed(inst, [e for e in inst.host.edges() if rng.random() < p])


def gadget_outputs():
    for k in range(1, 9):
        side = 6 * k + 4
        yield from gadget_outcomes(complete_instance(side, side, k))
    yield from gadget_outcomes(one_sided_instance())
    for inst in rejected_instances():
        yield from gadget_outcomes(inst)
    for inst in random_instances():
        yield from gadget_outcomes(inst)
    inst = complete_instance(4, 4, 2)
    for sides in (
        (inst.host, inst.side_a, inst.side_b, inst.side_b),
        (inst.host, inst.side_a[:-1], inst.side_b, inst.inserted),
        (Graph(4, [(0, 1), (2, 3), (0, 2)]), (0, 1), (2, 3), ()),
    ):
        yield outcome(accepted, InsertionInstance, *sides)


def tree_edges(tree: TreeCertificate) -> list:
    return sorted(tree.edges)


def stars(pack: StarPack | None) -> list | None:
    return pack and [(c, sorted(tips)) for c, tips in pack.stars]


def dense_outputs():
    """Complete hosts at every root, three infeasible hosts and seeded
    dense hosts, with alpha inside (0, 0.5)."""
    for n in range(4, 10):
        for root in range(n):
            params = DenseHistParams(0.05, root)
            yield n, root, outcome(tree_edges, dense_hist, Graph.complete(n), params)
    for g, root in ((Graph.cycle(9), 0), (Graph.path(5), 1), (Graph.complete(5), 5)):
        yield g.n, root, outcome(tree_edges, dense_hist, g, DenseHistParams(0.05, root))
    rng = random.Random(57)
    for _ in range(40):
        n = rng.randrange(8, 60)
        alpha = rng.choice([0.01, 0.05, 0.1, 0.2, 0.3, 0.45])
        floor = math.ceil((2 / 3 - alpha) * n)
        g = random_graph_min_degree(rng, n, floor, rng.choice([0.1, 0.3, 0.6, 0.9]))
        root = rng.randrange(n)
        yield n, alpha, root, outcome(tree_edges, dense_hist, g, DenseHistParams(alpha, root))


def matching_outputs():
    rng = random.Random(58)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 30), rng.choice([0.05, 0.2, 0.5, 0.9]))
        yield g.edges(), outcome(stars, matching_lower_bound, g)


def star_pack_outputs():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(4, 24)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        arity = rng.randrange(1, 4)
        order = rng.sample(range(n), n)
        split = rng.randrange(1, max(2, n // (arity + 1)) + 1)
        centers, tips = set(order[:split]), set(order[split:])
        yield g.edges(), sorted(centers), arity, outcome(stars, star_pack, g, centers, tips, arity)


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
    rejections); sixty-attempt draws pin the host after a run of them.
    The sampler's first draw is the same under either cap."""
    for n in range(4, 25):
        for floor in sorted({3, n // 3, n // 2, 2 * n // 3}):
            for index in range(3):
                for attempts in (1, 60):
                    with mock.patch.object(extremal, "_MAX_ATTEMPTS", attempts):
                        g = random_three_connected(n, floor, trial_rng(n, index))
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


def verdict(v) -> tuple:
    return v.ok, v.code, v.detail


def degree_views(t: TreeCertificate):
    """leaves, internal and degrees, or the error an id outside the host raises."""
    try:
        return sorted(t.leaves()), sorted(t.internal()), t.degrees()
    except IndexError:
        return "IndexError"


def edge_mutations(rng: random.Random, n: int, edges: list) -> list[list]:
    """The edges as found, then with one edge dropped, one pair added and
    one endpoint moved (possibly onto the id n, outside the host)."""
    out = [edges]
    if edges:
        i = rng.randrange(len(edges))
        out.append(edges[:i] + edges[i + 1 :])
        u, v = edges[i]
        out.append(edges[:i] + [(u, rng.randrange(n + 1))] + edges[i + 1 :])
    out.append(edges + [tuple(rng.sample(range(n), 2))])
    return out


def cycle_mutations(rng: random.Random, n: int, cycle: tuple) -> list[tuple]:
    """The cycle as found, shuffled, extended by one vertex and trimmed."""
    shuffled = list(cycle)
    rng.shuffle(shuffled)
    return [cycle, tuple(shuffled), cycle + (rng.randrange(n),), cycle[:-1]]


def pack_mutations(rng: random.Random, n: int, pack: StarPack) -> list[list]:
    """The stars as found, one star with an extra tip it did not have or
    with its first tip moved, and one extra star of the same arity (tips
    never repeat)."""
    stars = [(c, sorted(tips)) for c, tips in pack.stars]
    out = [stars]
    if stars:
        i = rng.randrange(len(stars))
        c, tips = stars[i]
        extra = rng.choice([v for v in range(n) if v not in tips])
        out.append(stars[:i] + [(c, tips + [extra])] + stars[i + 1 :])
        out.append(stars[:i] + [(c, [extra, *tips[1:]])] + stars[i + 1 :])
    c, *tips = rng.sample(range(n), pack.arity + 1)
    out.append(stars + [(c, tips)])
    return out


def verifier_verdicts():
    """Every verifier on certificates found on seeded hosts with n <= 8,
    and on single mutations of them.  Ids stay below 8, where a set of
    ids iterates in ascending order."""
    rng = random.Random(62)
    budget = SearchBudget(node_limit=200_000)
    for _ in range(40):
        n = rng.randrange(4, 9)
        g = random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
        found = find_hist(g, budget).certificate
        sghg = find_sghg(g, budget).certificate
        trees = [sorted(found.edges)] if found else []
        if sghg:
            trees.append(sorted(sghg.tree.edges))
        trees.append(sorted(g.edges())[: n - 1])
        for edges in trees:
            for mutated in edge_mutations(rng, n, edges):
                for spanning in (True, False):
                    t = TreeCertificate(n, mutated, spanning)
                    yield (n, sorted(t.edges), spanning, degree_views(t),
                           [verdict(check(g, t)) for check in (check_tree, is_hist, is_hit_forest)])
        if sghg:
            for cycle in cycle_mutations(rng, n, sghg.leaf_cycle):
                h = HalinCertificate(sghg.tree, cycle)
                yield n, h.leaf_cycle, verdict(is_generalized_halin(g, h))
            for mutated in edge_mutations(rng, n, sorted(sghg.tree.edges)):
                h = HalinCertificate(TreeCertificate(n, mutated), sghg.leaf_cycle)
                yield n, sorted(h.tree.edges), verdict(is_generalized_halin(g, h))
        arity = rng.randrange(1, 4)
        order = rng.sample(range(n), n)
        split = rng.randrange(1, max(2, n // (arity + 1)) + 1)
        centers = set(order[:split])
        packs = [matching_lower_bound(g)] if g.edge_count else []
        packs.append(star_pack(g, centers, set(order[split:]), arity))
        for pack in filter(None, packs):
            for stars in pack_mutations(rng, n, pack):
                p = StarPack(n, stars, pack.arity)
                for want in (None, pack.centers(), centers):
                    yield n, stars, verdict(verify_star_pack(g, p, want))
        yield n, verdict(verify_star_pack(g, StarPack(n + 1, [], 1)))


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
        (
            gadget_outputs,
            321,
            "b288b8a0fd6219a285d6020f0608d7baa5aaf9782562f66159bd009df08fbd2f",
        ),
        (
            dense_outputs,
            82,
            "f31a5dbcf6eda5cc7ff828ce73492c5f67b2a11a30babdca86a14f99ae8533e3",
        ),
        (
            matching_outputs,
            40,
            "bc7625673abee2ea3e343222c99c1da04fb9cf26753d4f61af2f0c7f6d2cea24",
        ),
        (
            star_pack_outputs,
            60,
            "7ad5b22e763c533326f47f7ebad4a41f5ac5b0c2aa5ea9209b00556d57165b53",
        ),
    ],
    ids=["bipartite", "tripartite", "ore", "moon-moser", "gadgets", "dense", "matching",
         "star-pack"],
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


def test_verifier_verdicts_are_pinned():
    assert digest(verifier_verdicts()) == (
        1568,
        "5e44b1a62dab2d26e930cf9a6a6a02f0a375f229c1ff3b9c88ea411f81d2fbc8",
    )
