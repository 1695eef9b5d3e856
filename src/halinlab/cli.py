"""Command-line entry point.

Exit codes: 0 affirmative/success, 1 proven negative, 2 unknown (budget
ran out), 10 usage errors, 11 parse errors, 12 precondition violations,
13 falsification events only (malformed input always gets 10-12), 14
internal errors (an unexpected exception).
Certificates are re-verified before emission even when produced
internally; human-readable summaries go to stdout and machine-readable
documents to --out.

Options and commands are declared once each, in the OPTIONS and COMMANDS
tables near the end of this module.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import constructive, extremal, gadgets, hamiltonicity, reduction
from .certify import (
    HalinCertificate,
    StarPack,
    TreeCertificate,
    check_tree,
    is_generalized_halin,
    is_hist,
    verify_star_pack,
)
from .errors import (
    BudgetExhausted,
    FalsificationError,
    ParseError,
    PreconditionError,
)
from .graph import Graph, bipartition
from .io_formats import (
    emit_certificate,
    emit_graph6,
    load_certificate,
    load_graph,
)
from .search import MODES, SearchBudget, find_hist, find_sghg, ham_path_oracle

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 10
EXIT_PARSE = 11
EXIT_PRECONDITION = 12
EXIT_FALSIFICATION = 13
EXIT_INTERNAL = 14


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep >= 10
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vertex_set(text: str) -> set[int]:
    """argparse type: a comma-separated list of vertex ids, e.g. 0,1,2."""
    try:
        ids = {int(v) for v in text.split(",")}
        if min(ids) >= 0:
            return ids
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a list of vertex ids: {text!r}")


# -- command bodies -------------------------------------------------------------


def cmd_verify(args, g: Graph) -> int:
    doc = load_certificate(args.cert)
    if args.centers is not None and doc.kind != "matching":
        raise PreconditionError("--centers applies only to matching documents")
    if doc.kind == "hist":
        verdict = is_hist(g, TreeCertificate.from_document(doc))
    elif doc.kind == "sghg":
        verdict = is_generalized_halin(g, HalinCertificate.from_document(doc))
    elif doc.kind == "matching":
        verdict = verify_star_pack(g, StarPack.from_document(doc), args.centers)
    else:
        raise PreconditionError(f"cannot verify documents of kind {doc.kind!r}")
    if verdict:
        print(f"valid {doc.kind} certificate")
        return EXIT_OK
    print(f"invalid: {verdict.code} {verdict.detail}".rstrip())
    return EXIT_NEGATIVE


def cmd_solve(args, g: Graph) -> int:
    if args.node_limit is None and args.time_limit is None:
        raise PreconditionError(
            "solve requires --node-limit or --time-limit (budgets are mandatory)"
        )
    budget = SearchBudget(args.node_limit, args.time_limit, args.mode)
    result = find_hist(g, budget) if args.target == "hist" else find_sghg(g, budget)
    print(f"{args.target}: {result.status} (nodes={result.nodes})")
    if result.status == "unknown":
        return EXIT_UNKNOWN
    if result.status == "none":
        return EXIT_NEGATIVE
    cert = result.certificate
    verify = is_hist if args.target == "hist" else is_generalized_halin
    count = result.solution_count
    summary = None if count is None else f"solutions: {count}"
    return _emit(args, verify(g, cert), cert.to_document(), summary)


def cmd_hampath(args, g: Graph) -> int:
    budget = SearchBudget(args.node_limit, args.time_limit)
    hamiltonicity.check_endpoints(g, args.x, args.y)  # before any output
    pair = hamiltonicity.check_ore_plus(g)
    if pair is None:
        print("degree-sum condition: holds (constructive route)")
        path = hamiltonicity.ore_ham_path(g, args.x, args.y)
    else:
        print(f"degree-sum condition: fails at {pair} (exact search)")
        path = ham_path_oracle(g, args.x, args.y, budget)
    if path is None:
        print("no hamiltonian path")
        return EXIT_NEGATIVE
    if not hamiltonicity.verify_walk(g, path, closed=False, endpoints=(args.x, args.y)):
        raise FalsificationError("constructed path failed verification")
    print(" ".join(map(str, path)))
    return EXIT_OK


def cmd_hamcycle(args, g: Graph) -> int:
    sides = bipartition(g)
    if sides is None:
        raise PreconditionError("graph is not bipartite")
    cycle = hamiltonicity.moon_moser_cycle(g, sides)
    if not hamiltonicity.verify_walk(g, cycle, closed=True):
        raise FalsificationError("constructed cycle failed verification")
    print(" ".join(map(str, cycle)))
    return EXIT_OK


def cmd_reduce(args, g: Graph) -> int:
    gpp, trace = reduction.reduce_instance(g, args.x, args.y)
    _write_out(args.out_graph, emit_graph6(gpp).decode("ascii") + "\n")
    _write_out(args.out_trace, emit_certificate(trace.to_document()))
    print(f"instance: {gpp.n} vertices, {gpp.edge_count} edges")
    return EXIT_OK


def cmd_project(args, g: Graph) -> int:
    trace = reduction.ReductionTrace.from_document(load_certificate(args.trace))
    cert = HalinCertificate.from_document(load_certificate(args.cert))
    base = g.induced_subgraph(range(trace.base_n))[0]
    if reduction.reduce_instance(base, *trace.terminals)[0] != g:
        raise PreconditionError("graph is not the reduction instance of the trace")
    path = reduction.project_certificate(g, trace, cert)
    print(" ".join(map(str, path)))
    return EXIT_OK


def _emit(args, verdict, doc, summary: str | None) -> int:
    """Print the summary and write the document, once its verifier accepted it."""
    if not verdict:
        raise FalsificationError(f"{doc.kind} output failed verification: {verdict.code}")
    if summary is not None:
        print(summary)
    _write_out(args.out, emit_certificate(doc))
    return EXIT_OK


def cmd_build_dense(args, g: Graph) -> int:
    tree = constructive.dense_hist(
        g, constructive.DenseHistParams(args.alpha_prime, args.root)
    )
    summary = (
        f"hist: root degree {tree.degree(args.root)}, "
        f"{len(tree.internal())} internal vertices"
    )
    return _emit(args, is_hist(g, tree), tree.to_document(), summary)


def cmd_build_bipartite(args) -> int:
    plan = constructive.BipartiteHistPlan(args.hubs, args.block_bound, args.imbalance)
    tree = constructive.bipartite_hist(args.a, args.b, plan)
    host = Graph.complete_bipartite(args.a, args.b)
    summary = f"hist over K_{{{args.a},{args.b}}}"
    return _emit(args, is_hist(host, tree), tree.to_document(), summary)


def cmd_build_tripartite(args) -> int:
    plan = constructive.TripartiteHistPlan(
        args.hubs, args.a_block_bound, args.f_block_bound
    )
    tree, path = constructive.tripartite_hist(args.a, args.b, args.f, args.l, plan)
    host = constructive.tripartite_host(args.a, args.b, args.f)
    summary = f"hist plus companion path of {len(path)} vertices"
    code = _emit(args, is_hist(host, tree), tree.to_document(), summary)
    if path:
        print("path: " + " ".join(map(str, path)))
    return code


def cmd_build_matching(args, g: Graph) -> int:
    pack = constructive.matching_lower_bound(g)
    summary = (
        f"matching of size {len(pack.stars)} (edges {g.edge_count}, "
        f"max degree {g.max_degree()})"
    )
    verdict = verify_star_pack(g, pack, pack.centers())
    return _emit(args, verdict, pack.to_document(), summary)


def cmd_build_starpack(args, g: Graph) -> int:
    pack = constructive.star_pack(g, args.centers, args.tips_from, args.arity)
    if pack is None:
        print("no star pack exists")
        return EXIT_NEGATIVE
    summary = f"star pack found: {len(pack.stars)} stars of arity {args.arity}"
    verdict = verify_star_pack(g, pack, args.centers)
    return _emit(args, verdict, pack.to_document(), summary)


def cmd_gadget(args) -> int:
    inst = gadgets.complete_instance(args.a, args.b, args.size)
    result = getattr(gadgets, f"insertion_{args.op}")(inst)
    cert, counts = result.certificate, result.counts
    summary = "\n".join(f"{key}: {counts[key]}" for key in sorted(counts))
    return _emit(args, check_tree(inst.host, cert), cert.to_document(), summary)


def cmd_extremal_gen(args) -> int:
    g, meta = extremal.sharpness_instance(args.a)
    print(
        f"K_{{{meta.a},{meta.b}}}: n={meta.n}, min degree {meta.predicted_delta}"
    )
    _write_out(args.out, emit_graph6(g).decode("ascii") + "\n")
    return EXIT_OK


def cmd_extremal_confirm(args) -> int:
    budget = SearchBudget(args.node_limit, args.time_limit, "canonical")
    report = extremal.confirm_sharpness(args.a, budget)
    m = report.instance
    print(
        f"K_{{{m.a},{m.b}}} (n={m.n}, delta={m.predicted_delta}): "
        f"balanced-leaf hist={report.balanced_hist_found}, sghg={report.sghg_status}"
    )
    if not report.conclusive:
        print("inconclusive: budget exhausted")
        return EXIT_UNKNOWN
    print("confirmed: no balanced-leaf HIST and no SGHG")
    return EXIT_OK


def cmd_experiment(args) -> int:
    budget = SearchBudget(args.node_limit)
    report = extremal.threshold_experiment(
        args.n, args.delta_fraction, args.trials, args.seed, budget, args.threads
    )
    print(f"rates: {report.rates()}")
    if args.out_csv:
        _write_out(args.out_csv, report.to_csv())
    _write_out(args.out, emit_certificate(report.to_document()))
    return EXIT_OK


# -- the command line, declared once -------------------------------------------

#: Every option and positional argument: its name and its add_argument keywords.
OPTIONS: dict[str, dict] = {
    "target": dict(choices=["hist", "sghg"]),
    "--graph": dict(help="input graph file"),
    "--format": dict(choices=["graph6", "edgelist"],
                     help="input format (default: inferred from suffix)"),
    "--cert": {},
    "--trace": {},
    "--centers": dict(type=_vertex_set, help="required centers, e.g. 0,1,2"),
    "--tips-from": dict(type=_vertex_set),
    "--arity": dict(type=int),
    "--mode": dict(default="first", choices=MODES),
    "--node-limit": dict(type=int),
    "--time-limit": dict(type=float),
    "--x": dict(type=int),
    "--y": dict(type=int),
    "--out": {},
    "--out-graph": {},
    "--out-trace": {},
    "--out-csv": {},
    "--alpha-prime": dict(type=float),
    "--root": dict(type=int),
    "--a": dict(type=int),
    "--b": dict(type=int),
    "--f": dict(type=int),
    "--l": dict(type=int, default=0),
    "--hubs": dict(type=int),
    "--block-bound": dict(type=int),
    "--a-block-bound": dict(type=int),
    "--f-block-bound": dict(type=int),
    "--imbalance": dict(type=int, default=0),
    "--op": dict(choices=["hit", "tree", "forest"]),
    "--size": dict(type=int, help="inserted vertex count"),
    "--n": dict(type=int),
    "--delta-fraction": dict(type=float),
    "--trials": dict(type=int),
    "--seed": dict(type=int, default=0),
    "--threads": dict(type=int, default=1),
}

#: Every command: its words, help, handler and arguments in usage notation
#: ([--flag] is optional).  A row with no handler groups the rows below it,
#: and its last field names the attribute that records which of them ran.
#: A handler whose command takes --graph is also passed the loaded host.
COMMANDS = (
    ("verify", "check a certificate against a host graph", cmd_verify,
     "--graph [--format] --cert [--centers]"),
    ("solve", "search for a certificate", cmd_solve,
     "target --graph [--format] [--mode] [--node-limit] [--time-limit] [--out]"),
    ("hampath", "Hamiltonian path between two terminals", cmd_hampath,
     "--graph [--format] --x --y [--node-limit] [--time-limit]"),
    ("hamcycle", "Hamiltonian cycle in a balanced bipartite graph", cmd_hamcycle,
     "--graph [--format]"),
    ("reduce", "build the SGHG instance for a ham-path question", cmd_reduce,
     "--graph [--format] --x --y --out-graph --out-trace"),
    ("project", "recover a ham path from an SGHG certificate", cmd_project,
     "--graph [--format] --trace --cert"),
    ("build", "run a constructive builder", None, "builder"),
    ("build dense", "HIST of a host of high minimum degree", cmd_build_dense,
     "--graph [--format] --alpha-prime --root [--out]"),
    ("build bipartite", "HIST of K_{a,b}", cmd_build_bipartite,
     "--a --b --hubs --block-bound [--imbalance] [--out]"),
    ("build tripartite", "HIST of a complete tripartite host", cmd_build_tripartite,
     "--a --b --f [--l] --hubs --a-block-bound --f-block-bound [--out]"),
    ("build matching", "matching lower bound", cmd_build_matching,
     "--graph [--format] [--out]"),
    ("build starpack", "disjoint stars at the given centers", cmd_build_starpack,
     "--graph [--format] --centers --tips-from --arity [--out]"),
    ("gadget", "run an insertion builder on a complete host", cmd_gadget,
     "--op --size --a --b [--out]"),
    ("extremal", "sharpness family tools", None, "action"),
    ("extremal gen", "write the sharp K_{a,b} in graph6", cmd_extremal_gen, "--a [--out]"),
    ("extremal confirm", "confirm by search that it has no SGHG", cmd_extremal_confirm,
     "--a [--node-limit] [--time-limit]"),
    ("experiment", "randomized threshold experiments", None, "action"),
    ("experiment threshold", "SGHG rates on random hosts", cmd_experiment,
     "--n --delta-fraction --trials [--seed] [--node-limit] [--threads] [--out] "
     "[--out-csv]"),
)


def _build_parser() -> _Parser:
    # --help shows the module docstring without its last paragraph, on the tables.
    top = _Parser(prog="halinlab", description=__doc__.rpartition("\n\n")[0])
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for words, help_text, handler, arguments in COMMANDS:
        group, _, word = words.rpartition(" ")
        p = groups[group].add_parser(word, help=help_text)
        if handler is None:
            groups[words] = p.add_subparsers(dest=arguments, required=True)
            continue
        for spec in arguments.split():
            name = spec.strip("[]")
            required = {"required": spec == name} if name.startswith("-") else {}
            p.add_argument(name, **OPTIONS[name], **required)
        p.set_defaults(func=handler)
    return top


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if "graph" in args:
            return args.func(args, load_graph(args.graph, args.format))
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FalsificationError as exc:
        print(f"FALSIFICATION EVENT: {exc}", file=sys.stderr)
        if exc.dump:
            print(f"dump: {exc.dump}", file=sys.stderr)
        return EXIT_FALSIFICATION
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception:  # a bug, never a verdict: keep it off codes 0, 1 and 2
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
