"""The four workloads: seeded inputs, known answers, and per-instance checks.

``setup(name, seed, short, workdir)`` builds a workload's corpus and its
known answers and returns ``(instances, params)``.  Each ``Instance``
carries ``run``, the calls into halinlab that produce one verdict (this
is what the benchmark times), and ``check``, which compares the verdict
with the known answer in benchmark code and returns an ``Outcome``.  The
program only ever receives the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable

import reference as ref
from halinlab import certify, cli, extremal, reduction, search
from halinlab.graph import Graph, bipartition
from halinlab.search import SearchBudget
from tracing import Capture

Edge = tuple[int, int]


@dataclass
class Outcome:
    """status: found | none | ok | unknown | error; problem is None when the
    verdict matches the known answer."""

    status: str
    problem: str | None = None
    nodes: int | None = None
    digest: str | None = None

    @property
    def decided(self) -> bool:
        return self.status in ("found", "none", "ok")


@dataclass
class Instance:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def derived_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


# -- reduce-sghg -----------------------------------------------------------------

REDUCE_BUDGET = SearchBudget(node_limit=2_000_000, mode="first")
#: Seeded labelings drawn per ham-path-negative isomorphism class at n=5.
NEGATIVE_LABELINGS = 4


def labeled_orbits(n: int) -> list[list[tuple[tuple[Edge, ...], int, int]]]:
    """Every labeled (graph, terminal pair) on n vertices, grouped into
    isomorphism classes; each class is sorted, so its first member is the
    canonical labeling."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen: set = set()
    orbits = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        for x, y in pairs:
            if (tuple(edges), x, y) in seen:
                continue
            orbit = set()
            for p in perms:
                relabeled = tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                a, b = sorted((p[x], p[y]))
                orbit.add((relabeled, a, b))
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def reduction_corpus(seed: int, short: bool) -> list[tuple[int, tuple[Edge, ...], int, int, bool]]:
    """(n, edges, x, y, has_path) for the criterion-02 draw.

    n=4 (n=3 in short mode): every labeled instance.  n=5: the canonical
    labeling of each ham-path-positive class, plus NEGATIVE_LABELINGS
    seeded labelings of each negative class.  A positive instance stops
    at its first certificate, so its node count swings by two orders of
    magnitude with the labeling; drawing those labelings made the pass
    time swing with the seed.  Negative instances traverse the whole tree
    and vary far less.
    """
    rng = random.Random(derived_seed("reduce-sghg", seed))
    out = []
    full_n, sampled_n = (3, 4) if short else (4, 5)
    for orbit in labeled_orbits(full_n):
        for edges, x, y in orbit:
            out.append((full_n, edges, x, y, ref.ham_path_exists(full_n, edges, x, y)))
    for orbit in labeled_orbits(sampled_n):
        edges, x, y = orbit[0]
        if ref.ham_path_exists(sampled_n, edges, x, y):
            picks = [orbit[0]]
        else:
            picks = rng.sample(orbit, min(1 if short else NEGATIVE_LABELINGS, len(orbit)))
        for edges, x, y in picks:
            out.append((sampled_n, edges, x, y, ref.ham_path_exists(sampled_n, edges, x, y)))
    rng.shuffle(out)
    return out


def _reduce_instance(n: int, edges, x: int, y: int, has_path: bool) -> Instance:
    g = Graph(n, edges)
    base = ref.masks_of(n, edges)

    def run():
        gpp, trace = reduction.reduce_instance(g, x, y)
        result = search.find_sghg(gpp, REDUCE_BUDGET)
        verdict = path = None
        if result.status == "found":
            verdict = certify.is_generalized_halin(gpp, result.certificate)
            path = reduction.project_certificate(gpp, trace, result.certificate)
        return gpp, result, verdict, path

    def check(out) -> Outcome:
        gpp, result, verdict, path = out
        outcome = Outcome(result.status, nodes=result.nodes)
        want = "found" if has_path else "none"
        if result.status != want:
            outcome.problem = f"status {result.status}, expected {want}"
        elif result.found:
            cert = result.certificate
            edges_t, cycle = sorted(cert.tree.edges), list(cert.leaf_cycle)
            outcome.digest = ref.sghg_digest(gpp.n, edges_t, cycle)
            if not verdict:
                outcome.problem = "verifier rejected the certificate"
            else:
                host = ref.masks_of(gpp.n, gpp.edges())
                outcome.problem = ref.sghg_problem(host, edges_t, cycle) or ref.ham_path_problem(
                    base, list(path), x, y
                )
        return outcome

    return Instance(f"n{n}:{','.join(f'{u}-{v}' for u, v in edges)}:{x}-{y}", run, check)


def setup_reduce(seed: int, short: bool, workdir: Path):
    corpus = reduction_corpus(seed, short)
    instances = [_reduce_instance(*item) for item in corpus]
    params = {
        "budget": {"node_limit": REDUCE_BUDGET.node_limit, "mode": REDUCE_BUDGET.mode},
        "negative_labelings_per_class": 1 if short else NEGATIVE_LABELINGS,
        "positives": sum(1 for item in corpus if item[4]),
        "negatives": sum(1 for item in corpus if not item[4]),
    }
    return instances, params


# -- bipartite-refute --------------------------------------------------------------

REFUTE_BUDGET = SearchBudget(node_limit=20_000_000, mode="canonical")


def _confirm_instance(a: int) -> Instance:
    want = ref.sharpness_sides(a)
    if not ref.balanced_hist_ruled_out(*want):
        raise RuntimeError(f"counting argument does not settle K_{want}")

    def check(report) -> Outcome:
        m = report.instance
        outcome = Outcome(report.sghg_status, nodes=report.nodes)
        if (m.a, m.b) != want:
            outcome.problem = f"instance K_{m.a},{m.b}, expected K_{want[0]},{want[1]}"
        elif report.balanced_hist_found is not False or report.sghg_status != "none":
            outcome.problem = (
                f"balanced={report.balanced_hist_found} sghg={report.sghg_status}, "
                "expected False/none"
            )
        return outcome

    return Instance(f"confirm_sharpness({a})", lambda: extremal.confirm_sharpness(a, REFUTE_BUDGET), check)


def _refute_instances(a: int, b: int) -> list[Instance]:
    if not ref.balanced_hist_ruled_out(a, b):
        raise RuntimeError(f"counting argument does not settle K_{a},{b}")
    g = Graph.complete_bipartite(a, b)
    sides = bipartition(g)

    def check_balanced(found) -> Outcome:
        return Outcome("none", None if found is False else f"returned {found!r}, expected False")

    def check_sghg(result) -> Outcome:
        problem = None if result.status == "none" else f"status {result.status}, expected none"
        return Outcome(result.status, problem, nodes=result.nodes)

    return [
        Instance(
            f"balanced_leaf_hist_exists(K_{a},{b})",
            lambda: search.balanced_leaf_hist_exists(g, sides, REFUTE_BUDGET),
            check_balanced,
        ),
        Instance(f"find_sghg(K_{a},{b})", lambda: search.find_sghg(g, REFUTE_BUDGET), check_sghg),
    ]


def setup_refute(seed: int, short: bool, workdir: Path):
    """The family is fixed; the seed has no inputs to vary here."""
    if short:
        instances = [_confirm_instance(3), *_refute_instances(3, 4)]
    else:
        instances = [
            _confirm_instance(3),
            _confirm_instance(4),
            *_refute_instances(4, 6),
            *_refute_instances(4, 7),
        ]
    params = {"budget": {"node_limit": REFUTE_BUDGET.node_limit, "mode": REFUTE_BUDGET.mode}}
    return instances, params


# -- threshold ---------------------------------------------------------------------

THRESHOLD_BUDGET = SearchBudget(node_limit=2_000_000, mode="first")
DELTA_FRACTION = 0.45
HOST_SIZES = tuple(range(32, 41))
THRESHOLD_TRIALS = 90


def _threshold_instance(index: int, n: int, trial_seed: int) -> Instance:
    floor = ref.degree_floor(n, DELTA_FRACTION)
    host = ref.threshold_host(n, floor, ref.trial_stream(trial_seed, 0))
    masks = ref.masks_of(n, host) if host is not None else None
    want = "sghg-found" if host is not None else "skipped"

    def run():
        with Capture(extremal, "find_sghg") as tap:
            report = extremal.threshold_experiment(
                n, DELTA_FRACTION, 1, trial_seed, THRESHOLD_BUDGET, threads=1
            )
        return report, tap.calls

    def check(out) -> Outcome:
        report, calls = out
        (record,) = report.trials
        status = {"sghg-found": "found", "none": "none", "skipped": "none"}.get(record.outcome, "unknown")
        outcome = Outcome(status)
        if calls:
            outcome.nodes = calls[0][1].nodes
        if record.outcome != want:
            outcome.problem = f"outcome {record.outcome}, expected {want}"
        elif record.seed_hash != ref.trial_seed_hash(trial_seed, 0):
            outcome.problem = "seed hash differs from the documented stream"
        elif host is not None:
            (g, _), result = calls[0]
            cert = result.certificate
            edges_t, cycle = sorted(cert.tree.edges), list(cert.leaf_cycle)
            outcome.digest = ref.sghg_digest(n, edges_t, cycle)
            if g.edges() != sorted(host):
                outcome.problem = "solved host differs from the documented sampler"
            elif outcome.digest != record.certificate_digest:
                outcome.problem = "reported digest differs from the certificate"
            else:
                outcome.problem = ref.sghg_problem(masks, edges_t, cycle)
        return outcome

    return Instance(f"trial{index}:n{n}:seed{trial_seed}", run, check)


def setup_threshold(seed: int, short: bool, workdir: Path):
    trials = 3 if short else THRESHOLD_TRIALS
    instances = [
        _threshold_instance(i, HOST_SIZES[i % len(HOST_SIZES)], derived_seed("threshold", seed, i))
        for i in range(trials)
    ]
    params = {
        "n": list(HOST_SIZES),
        "delta_fraction": DELTA_FRACTION,
        "trials": trials,
        "threads": 1,
        "budget": {"node_limit": THRESHOLD_BUDGET.node_limit, "mode": THRESHOLD_BUDGET.mode},
    }
    return instances, params


# -- build-io ----------------------------------------------------------------------

ALPHA_PRIME = 0.02  # inside the builder's guaranteed regime for n >= 150
DENSE_SIZES = (150, 300)
DENSE_HOSTS = 16
DENSE_P = 0.8
STAR_CENTERS, STAR_POOL, STAR_ARITY = 4, 40, 3
BIPARTITE = {"a": 30, "b": 30, "hubs": 3, "block_bound": 11, "imbalance": 1}
TRIPARTITE = {"a": 22, "b": 26, "f": 9, "l": 2, "hubs": 3, "a_block_bound": 9, "f_block_bound": 4}
GADGET_SIZE = 8


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_instance(key: str, argv: list[str], check_output: Callable[[str], str | None]) -> Instance:
    def check(out) -> Outcome:
        code, stdout, stderr = out
        if code != 0:
            status = {1: "none", 2: "unknown"}.get(code, "error")
            return Outcome(status, f"exit {code}: {stderr.strip()[:200]}")
        return Outcome("ok", check_output(stdout))

    return Instance(key, lambda: _cli(argv), check)


def _load_doc(path: Path, kind: str):
    doc = json.loads(path.read_text())
    if doc.get("kind") != kind:
        raise ValueError(f"{path.name} holds {doc.get('kind')!r}, expected {kind!r}")
    return doc["payload"]


def _tree_check(path: Path, masks, extra: Callable[[list], str | None] = lambda e: None):
    def check(stdout: str) -> str | None:
        edges = [tuple(e) for e in _load_doc(path, "hist")["tree_edges"]]
        return ref.hist_problem(masks, edges) or extra(edges)

    return check


def _stars_check(path: Path, masks, arity: int, centers=None, bound=None):
    def check(stdout: str) -> str | None:
        payload = _load_doc(path, "matching")
        stars = [(s["center"], s["tips"]) for s in payload["stars"]]
        if bound is not None and len(stars) < bound:
            return f"{len(stars)} stars, below the e/(2*maxdeg) bound {bound}"
        return ref.star_pack_problem(masks, stars, arity, centers)

    return check


def _valid(kind: str):
    return lambda stdout: None if stdout.startswith(f"valid {kind}") else f"verify said {stdout.strip()!r}"


def _dense_host(rng: random.Random, n: int) -> list[Edge]:
    floor = math.ceil((2 / 3 - ALPHA_PRIME) * n)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < DENSE_P}
    deg = ref.degrees(n, edges)
    for u in range(n):  # top up any vertex below the floor, lowest ids first
        for v in range(n):
            if deg[u] >= floor:
                break
            if u != v and (min(u, v), max(u, v)) not in edges:
                edges.add((min(u, v), max(u, v)))
                deg[u] += 1
                deg[v] += 1
    return sorted(edges)


def _write_graph(workdir: Path, name: str, n: int, edges) -> str:
    path = workdir / name
    path.write_bytes(ref.graph6(n, edges) + b"\n")
    return str(path)


def _dense_instances(i: int, n: int, rng: random.Random, workdir: Path) -> list[Instance]:
    edges = _dense_host(rng, n)
    masks = ref.masks_of(n, edges)
    deg = [m.bit_count() for m in masks]
    if any(
        not masks[u] >> v & 1 and deg[u] + deg[v] < n + 1 for u, v in combinations(range(n), 2)
    ):
        raise RuntimeError("dense host misses the degree-sum condition")
    host = _write_graph(workdir, f"dense{i}.g6", n, edges)
    root = rng.randrange(n)
    x, y = rng.sample(range(n), 2)
    picked = rng.sample(range(n), STAR_CENTERS + STAR_POOL)
    centers, pool = sorted(picked[:STAR_CENTERS]), sorted(picked[STAR_CENTERS:])
    need = STAR_ARITY * STAR_CENTERS
    if any((masks[c] & sum(1 << t for t in pool)).bit_count() < need for c in centers):
        raise RuntimeError("star-pack instance misses the degree condition")
    tree, match, pack = (workdir / f"{k}{i}.json" for k in ("dense", "matching", "starpack"))
    min_root = (2 / 3 - ALPHA_PRIME) * n - 1

    def root_degree(tree_edges) -> str | None:
        d = sum(1 for e in tree_edges if root in e)
        return None if d >= min_root else f"root degree {d} below {min_root:.1f}"

    def ham_path(stdout: str) -> str | None:
        lines = stdout.strip().splitlines()
        if not lines or "constructive route" not in lines[0]:
            return "degree-sum route not taken"
        return ref.ham_path_problem(masks, [int(v) for v in lines[-1].split()], x, y)

    matching_bound = -(-len(edges) // (2 * max(deg)))
    csv = lambda vs: ",".join(map(str, vs))  # noqa: E731
    tag = f"dense{i}(n={n})"
    return [
        _cli_instance(
            f"{tag}:build dense",
            ["build", "dense", "--graph", host, "--alpha-prime", str(ALPHA_PRIME), "--root", str(root), "--out", str(tree)],
            _tree_check(tree, masks, root_degree),
        ),
        _cli_instance(f"{tag}:verify dense", ["verify", "--graph", host, "--cert", str(tree)], _valid("hist")),
        _cli_instance(
            f"{tag}:build matching",
            ["build", "matching", "--graph", host, "--out", str(match)],
            _stars_check(match, masks, 1, bound=matching_bound),
        ),
        _cli_instance(f"{tag}:verify matching", ["verify", "--graph", host, "--cert", str(match)], _valid("matching")),
        _cli_instance(
            f"{tag}:build starpack",
            ["build", "starpack", "--graph", host, "--centers", csv(centers), "--tips-from", csv(pool),
             "--arity", str(STAR_ARITY), "--out", str(pack)],
            _stars_check(pack, masks, STAR_ARITY, centers),
        ),
        _cli_instance(
            f"{tag}:verify starpack",
            ["verify", "--graph", host, "--cert", str(pack), "--centers", csv(centers)],
            _valid("matching"),
        ),
        _cli_instance(f"{tag}:hampath", ["hampath", "--graph", host, "--x", str(x), "--y", str(y)], ham_path),
    ]


def _fixed_instances(workdir: Path, p: dict, t: dict, k: int) -> list[Instance]:
    out = []
    a, b = p["a"], p["b"]
    kab = [(i, a + j) for i in range(a) for j in range(b)]
    host = _write_graph(workdir, "bipartite.g6", a + b, kab)
    masks = ref.masks_of(a + b, kab)
    cert = workdir / "bipartite.json"

    def imbalance(edges) -> str | None:
        deg = ref.degrees(a + b, edges)
        got = sum(d == 1 for d in deg[:a]) - sum(d == 1 for d in deg[a:])
        return None if got == p["imbalance"] else f"leaf imbalance {got}, expected {p['imbalance']}"

    out.append(_cli_instance(
        "build bipartite",
        ["build", "bipartite", "--a", str(a), "--b", str(b), "--hubs", str(p["hubs"]),
         "--block-bound", str(p["block_bound"]), "--imbalance", str(p["imbalance"]), "--out", str(cert)],
        _tree_check(cert, masks, imbalance),
    ))
    out.append(_cli_instance("verify bipartite", ["verify", "--graph", host, "--cert", str(cert)], _valid("hist")))

    n = t["a"] + t["b"] + t["f"]
    bs = range(t["a"], t["a"] + t["b"])
    tri = [(i, j) for i in range(t["a"]) for j in bs] + [(j, k) for j in bs for k in range(t["a"] + t["b"], n)]
    host = _write_graph(workdir, "tripartite.g6", n, tri)
    masks = ref.masks_of(n, tri)
    cert = workdir / "tripartite.json"
    out.append(_cli_instance(
        "build tripartite",
        ["build", "tripartite", "--a", str(t["a"]), "--b", str(t["b"]), "--f", str(t["f"]), "--l", str(t["l"]),
         "--hubs", str(t["hubs"]), "--a-block-bound", str(t["a_block_bound"]),
         "--f-block-bound", str(t["f_block_bound"]), "--out", str(cert)],
        _tree_check(cert, masks),
    ))
    out.append(_cli_instance("verify tripartite", ["verify", "--graph", host, "--cert", str(cert)], _valid("hist")))

    side = 6 * k + 4
    n = 2 * side + k
    gadget_host = [(i, side + j) for i in range(side) for j in range(side)]
    gadget_host += [(x, v) for x in range(2 * side, n) for v in range(2 * side)]
    masks = ref.masks_of(n, gadget_host)
    inserted = range(2 * side, n)
    # (components, degree-2 vertices) of each insertion builder's output:
    # the near-HIT tree keeps one degree-2 vertex when k is even.
    shapes = {"hit": (1, 0), "tree": (1, int(k % 2 == 0)), "forest": (k, 0)}
    for op, shape in shapes.items():
        cert = workdir / f"gadget-{op}.json"

        def forest(stdout: str, cert=cert, shape=shape) -> str | None:
            edges = [tuple(e) for e in _load_doc(cert, "hist")["tree_edges"]]
            return ref.gadget_forest_problem(masks, edges, inserted, *shape)

        out.append(_cli_instance(
            f"gadget {op}",
            ["gadget", "--op", op, "--size", str(k), "--a", str(side), "--b", str(side), "--out", str(cert)],
            forest,
        ))
    return out


def setup_build_io(seed: int, short: bool, workdir: Path):
    rng = random.Random(derived_seed("build-io", seed))
    lo, hi = (50, 70) if short else DENSE_SIZES
    hosts = 1 if short else DENSE_HOSTS
    width = (hi - lo) / hosts
    sizes = [lo + int(width * (i + rng.random())) for i in range(hosts)]  # one per stratum
    instances = [inst for i, n in enumerate(sizes) for inst in _dense_instances(i, n, rng, workdir)]
    bip = dict(BIPARTITE, a=9, b=9, hubs=2, block_bound=6) if short else BIPARTITE
    gadget_size = 2 if short else GADGET_SIZE
    instances += _fixed_instances(workdir, bip, TRIPARTITE, gadget_size)
    params = {
        "dense_sizes": sizes,
        "dense_edge_probability": DENSE_P,
        "alpha_prime": ALPHA_PRIME,
        "bipartite": bip,
        "tripartite": TRIPARTITE,
        "gadget_size": gadget_size,
    }
    return instances, params


WORKLOADS = {
    "reduce-sghg": setup_reduce,
    "bipartite-refute": setup_refute,
    "threshold": setup_threshold,
    "build-io": setup_build_io,
}
