import json
import warnings
from pathlib import Path

import pytest

from halinlab import cli
from halinlab.cli import COMMANDS, OPTIONS, main
from halinlab.errors import FalsificationError, HalinLabError
from halinlab.graph import Graph
from halinlab.io_formats import emit_edge_list, emit_graph6, parse_certificate


@pytest.fixture
def k4(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_bytes(emit_graph6(Graph.complete(4)) + b"\n")
    return str(path)


@pytest.fixture
def k34(tmp_path):
    path = tmp_path / "k34.g6"
    path.write_bytes(emit_graph6(Graph.complete_bipartite(3, 4)) + b"\n")
    return str(path)


def test_solve_found_and_verify(k4, tmp_path, capsys):
    out = str(tmp_path / "cert.json")
    assert main(["solve", "sghg", "--graph", k4, "--node-limit", "10000", "--out", out]) == 0
    doc = parse_certificate(Path(out).read_text())
    assert doc.kind == "sghg"
    assert main(["verify", "--graph", k4, "--cert", out]) == 0
    assert "valid" in capsys.readouterr().out


def test_solve_proven_negative(k34):
    assert main(["solve", "sghg", "--graph", k34, "--node-limit", "10000000"]) == 1


def test_solve_budget_unknown(tmp_path):
    path = tmp_path / "k7.g6"
    path.write_bytes(emit_graph6(Graph.complete(7)) + b"\n")
    assert main(["solve", "sghg", "--graph", str(path), "--node-limit", "1"]) == 2


def test_solve_time_limit_expires(tmp_path):
    # K_{5,7} has no SGHG, but proving it takes seconds.
    path = tmp_path / "k57.g6"
    path.write_bytes(emit_graph6(Graph.complete_bipartite(5, 7)) + b"\n")
    assert main(["solve", "sghg", "--graph", str(path), "--time-limit", "0.05"]) == 2


def test_solve_requires_budget(k4):
    assert main(["solve", "sghg", "--graph", k4]) == 12


@pytest.mark.parametrize("limit", [["--node-limit", "-5"], ["--time-limit", "0"]])
def test_solve_rejects_invalid_budget(k4, limit):
    assert main(["solve", "hist", "--graph", k4, *limit]) == 12


def test_solve_prints_only_complete_counts(tmp_path, capsys):
    path = tmp_path / "k7.g6"
    path.write_bytes(emit_graph6(Graph.complete(7)) + b"\n")
    solve = ["solve", "hist", "--graph", str(path), "--mode", "exhaustive"]
    assert main([*solve, "--node-limit", "2000"]) == 0
    assert "solutions:" not in capsys.readouterr().out
    assert main([*solve, "--node-limit", "100000"]) == 0
    assert "solutions: 427" in capsys.readouterr().out


def test_solve_large_star(tmp_path):
    path = tmp_path / "star.g6"
    path.write_bytes(emit_graph6(Graph.star(1500)) + b"\n")
    assert main(["solve", "hist", "--graph", str(path), "--node-limit", "10000"]) == 0


def test_unexpected_exception_exit_code(k4, monkeypatch, capsys):
    def broken(*_args):
        raise RuntimeError("solver bug")

    monkeypatch.setattr("halinlab.cli.find_hist", broken)
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "10"]) == 14
    assert "RuntimeError: solver bug" in capsys.readouterr().err

    # Every library error the CLI maps is a subclass; a bare one is a bug.
    def bare(*_args):
        raise HalinLabError("unclassified")

    monkeypatch.setattr("halinlab.cli.find_hist", bare)
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "10"]) == 14
    assert "HalinLabError: unclassified" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["hampath", "--graph", "{k4}", "--x", "0", "--y", "3"], "ore_ham_path"),
        (["hamcycle", "--graph", "{k33}"], "moon_moser_cycle"),
    ],
)
def test_walk_failing_verification_is_a_falsification(argv, builder, k4, tmp_path,
                                                     monkeypatch, capsys):
    # The constructive routes are proved correct, so a walk that fails
    # verify_walk contradicts a theorem: exit 13, never a printed walk.
    k33 = tmp_path / "k33.g6"
    k33.write_bytes(emit_graph6(Graph.complete_bipartite(3, 3)) + b"\n")
    monkeypatch.setattr(f"halinlab.hamiltonicity.{builder}", lambda *_args: (0, 0, 1))
    assert main([a.format(k4=k4, k33=k33) for a in argv]) == 13
    captured = capsys.readouterr()
    assert "failed verification" in captured.err and "0 0 1" not in captured.out


def test_falsification_dump_goes_to_stderr(k4, monkeypatch, capsys):
    def contradicted(*_args):
        raise FalsificationError("theorem contradicted", {"host": "K_4"})

    monkeypatch.setattr("halinlab.cli.find_hist", contradicted)
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "10"]) == 13
    err = capsys.readouterr().err
    assert "FALSIFICATION EVENT: theorem contradicted" in err
    assert "dump: {'host': 'K_4'}" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["solve", "nonsense", "--graph", "x"])
    assert err.value.code == 10


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"C")  # truncated
    assert main(["solve", "sghg", "--graph", str(bad), "--node-limit", "10"]) == 11
    # A file that cannot be read exits 11 too.
    missing = str(tmp_path / "missing.g6")
    assert main(["solve", "sghg", "--graph", missing, "--node-limit", "10"]) == 11
    assert "io error" in capsys.readouterr().err


# Malformed input files exit 11 or 12, never 14 (internal error).
@pytest.mark.parametrize(
    "name, data, code",
    [
        ("bad.edges", b"\xff\xfe 3\n", 11),
        ("bad.edges", b"3 1\n0 x\n", 11),
        ("cert.json", b'{"kind": "hist\xff", "payload": {}}', 11),
        ("cert.json", b"[" * 100_000 + b"]" * 100_000, 11),
        ("cert.json", b'{"kind": ["hist"], "payload": {}}', 12),
        ("cert.json", b'{"kind": "hist", "payload": {"host_n": 1' + b"0" * 5000 + b"}}", 11),
    ],
    ids=["edge-list-not-utf8", "edge-list-non-integer-id", "cert-not-utf8",
         "cert-nested-too-deep", "cert-list-kind", "cert-int-too-long"],
)
def test_malformed_input_files_exit_11_or_12(k4, tmp_path, name, data, code):
    path = tmp_path / name
    path.write_bytes(data)
    if name == "bad.edges":
        argv = ["solve", "hist", "--graph", str(path), "--node-limit", "10"]
    else:
        argv = ["verify", "--graph", k4, "--cert", str(path)]
    assert main(argv) == code


def test_verify_invalid_certificate(k4, k34, tmp_path):
    out = str(tmp_path / "cert.json")
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "10000", "--out", out]) == 0
    assert main(["verify", "--graph", k34, "--cert", out]) == 1


def test_edge_list_format(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(emit_edge_list(Graph.path(4)))
    assert main(["hampath", "--graph", str(path), "--x", "0", "--y", "3"]) == 0
    assert main(["hampath", "--graph", str(path), "--x", "0", "--y", "2"]) == 1


def test_reduce_and_project_pipeline(k4, tmp_path, capsys):
    gpath = str(tmp_path / "gpp.g6")
    tpath = str(tmp_path / "trace.json")
    cpath = str(tmp_path / "cert.json")
    assert main(["reduce", "--graph", k4, "--x", "0", "--y", "1",
                 "--out-graph", gpath, "--out-trace", tpath]) == 0
    assert main(["solve", "sghg", "--graph", gpath, "--node-limit", "5000000",
                 "--out", cpath]) == 0
    assert main(["project", "--graph", gpath, "--trace", tpath, "--cert", cpath]) == 0
    out = capsys.readouterr().out
    path = [int(v) for v in out.strip().splitlines()[-1].split()]
    assert path[0] == 0 and path[-1] == 1 and sorted(path) == [0, 1, 2, 3]


def test_build_and_gadget_commands(tmp_path, capsys):
    out = str(tmp_path / "tree.json")
    assert main(["build", "bipartite", "--a", "9", "--b", "9", "--hubs", "2",
                 "--block-bound", "6", "--imbalance", "1", "--out", out]) == 0
    assert parse_certificate(Path(out).read_text()).kind == "hist"
    assert main(["build", "bipartite", "--a", "9", "--b", "9", "--hubs", "2",
                 "--block-bound", "6", "--imbalance", "4"]) == 12
    assert main(["gadget", "--op", "forest", "--size", "2", "--a", "16",
                 "--b", "16", "--out", str(tmp_path / "g.json")]) == 0
    text = capsys.readouterr().out
    assert "components: 2" in text


def test_build_matching_and_starpack(tmp_path, k4):
    out = str(tmp_path / "m.json")
    assert main(["build", "matching", "--graph", k4, "--out", out]) == 0
    assert parse_certificate(Path(out).read_text()).kind == "matching"
    k39 = tmp_path / "k39.g6"
    k39.write_bytes(emit_graph6(Graph.complete_bipartite(3, 9)) + b"\n")
    assert main(["build", "starpack", "--graph", str(k39), "--centers", "0,1,2",
                 "--tips-from", "3,4,5,6,7,8,9,10,11", "--arity", "3"]) == 0
    sparse = tmp_path / "sparse.g6"
    sparse.write_bytes(emit_graph6(Graph(3, [(0, 1)])) + b"\n")
    assert main(["build", "starpack", "--graph", str(sparse), "--centers", "0",
                 "--tips-from", "1,2", "--arity", "2"]) == 1


@pytest.mark.parametrize("terminals", [["--x", "0", "--y", "9"], ["--x=-1", "--y=2"]])
def test_hampath_bad_terminal_is_a_precondition_error(tmp_path, terminals):
    k6 = tmp_path / "k6.g6"
    k6.write_bytes(emit_graph6(Graph.complete(6)) + b"\n")
    assert main(["hampath", "--graph", str(k6), *terminals]) == 12


@pytest.mark.parametrize(
    "graph6, x, y, message",
    [
        (b"C~", "0", "9", "endpoint out of range"),  # K_4: the constructive route
        (b"ECO_", "2", "2", "endpoints must differ"),  # fails the degree-sum scan
    ],
)
def test_hampath_checks_the_endpoints_before_naming_a_route(
    tmp_path, capsys, graph6, x, y, message
):
    path = tmp_path / "host.g6"
    path.write_bytes(graph6 + b"\n")
    assert main(["hampath", "--graph", str(path), "--x", x, "--y", y]) == 12
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"precondition violated: {message}\n"


def test_hampath_exact_search_honours_the_node_limit(tmp_path, capsys):
    # K_{6,9} fails the degree-sum condition, so the exact search runs;
    # no Hamiltonian path joins two vertices of the small side, and an
    # unbounded search takes about a second to prove it.
    path = tmp_path / "k69.g6"
    path.write_bytes(emit_graph6(Graph.complete_bipartite(6, 9)) + b"\n")
    argv = ["hampath", "--graph", str(path), "--x", "0", "--y", "1"]
    assert main([*argv, "--node-limit", "1000"]) == 2
    assert "node limit 1000 hit" in capsys.readouterr().err
    assert main([*argv, "--node-limit", "0"]) == 12


@pytest.mark.parametrize(
    "centers, tips", [("0,q", "1,2"), ("0", "1,,2"), ("-1", "1,2")]
)
def test_starpack_rejects_malformed_vertex_lists(k4, centers, tips):
    argv = ["build", "starpack", "--graph", k4, f"--centers={centers}",
            f"--tips-from={tips}", "--arity", "1"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 10


def test_verify_rejects_malformed_vertex_list(k4, tmp_path):
    out = str(tmp_path / "m.json")
    assert main(["build", "matching", "--graph", k4, "--out", out]) == 0
    with pytest.raises(SystemExit) as err:
        main(["verify", "--graph", k4, "--cert", out, "--centers", "0,q"])
    assert err.value.code == 10


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("hist", {"host_n": 4, "tree_edges": [[0]], "spanning": True}),
        ("hist", {"host_n": 4, "tree_edges": [["a", 1]], "spanning": True}),
        ("matching", {"host_n": 4, "arity": 1, "stars": [{"center": 0}]}),
        ("hist", {"host_n": 4, "tree_edges": [[0, 1], [0, 2], [0, 3]], "spanning": "no"}),
        ("matching", {"host_n": 4, "arity": "x", "stars": [{"center": 0, "tips": [1]}]}),
        # [0,1] and [1,0] are one edge: read as a set they would pass as a
        # star with three leaves, so the document is malformed, not invalid.
        ("hist", {"host_n": 4, "tree_edges": [[0, 1], [1, 0], [0, 2], [0, 3]], "spanning": True}),
        # Likewise a repeated tip: read as a set it would pass as one edge.
        ("matching", {"host_n": 4, "arity": 1, "stars": [{"center": 0, "tips": [1, 1]}]}),
    ],
)
def test_verify_malformed_document(k4, tmp_path, kind, payload):
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps({"kind": kind, "payload": payload}))
    assert main(["verify", "--graph", k4, "--cert", str(cert)]) == 12


def test_verify_rejects_a_matching_for_another_host(tmp_path, capsys):
    k5 = tmp_path / "k5.g6"
    k5.write_bytes(emit_graph6(Graph.complete(5)) + b"\n")
    payload = {"host_n": 2, "arity": 1, "stars": [{"center": 0, "tips": [1]}]}
    cert = tmp_path / "m.json"
    cert.write_text(json.dumps({"kind": "matching", "payload": payload}))
    assert main(["verify", "--graph", str(k5), "--cert", str(cert)]) == 1
    assert "invalid: host-mismatch 2 != 5" in capsys.readouterr().out


def test_verify_rejects_a_matching_of_arity_zero(tmp_path, capsys):
    k3 = tmp_path / "k3.g6"
    k3.write_bytes(emit_graph6(Graph.complete(3)) + b"\n")
    payload = {"host_n": 3, "arity": 0, "stars": [{"center": c, "tips": []} for c in range(3)]}
    cert = tmp_path / "m.json"
    cert.write_text(json.dumps({"kind": "matching", "payload": payload}))
    argv = ["verify", "--graph", str(k3), "--cert", str(cert), "--centers", "0,1,2"]
    assert main(argv) == 1
    assert "invalid: bad-arity" in capsys.readouterr().out


@pytest.fixture(scope="module")
def reduced_k4(tmp_path_factory):
    """K_4 reduced for terminals (0, 1), a solved certificate, and the
    trace of the same reduction for terminals (0, 3)."""
    tmp = tmp_path_factory.mktemp("reduced")
    k4 = tmp / "k4.g6"
    k4.write_bytes(emit_graph6(Graph.complete(4)) + b"\n")
    files = {name: str(tmp / name) for name in ("gpp.g6", "trace.json", "cert.json",
                                                "gpp03.g6", "trace03.json")}
    for x, y, g, t in [(0, 1, "gpp.g6", "trace.json"), (0, 3, "gpp03.g6", "trace03.json")]:
        assert main(["reduce", "--graph", str(k4), "--x", str(x), "--y", str(y),
                     "--out-graph", files[g], "--out-trace", files[t]]) == 0
    assert main(["solve", "sghg", "--graph", files["gpp.g6"], "--node-limit", "5000000",
                 "--out", files["cert.json"]]) == 0
    return files


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: {**p, "pendant_ids": p["pendant_ids"][::-1]},
        lambda p: {**p, "terminals": [0, 2]},
        lambda p: {**p, "pendant_ids": p["pendant_ids"][:1]},
    ],
    ids=["pendants-reversed", "terminals-edited", "pendants-truncated"],
)
def test_project_rejects_a_tampered_trace(reduced_k4, tmp_path, tamper):
    record = json.loads(Path(reduced_k4["trace.json"]).read_text())
    record["payload"] = tamper(record["payload"])
    trace = tmp_path / "tampered.json"
    trace.write_text(json.dumps(record))
    argv = ["project", "--graph", reduced_k4["gpp.g6"], "--trace", str(trace),
            "--cert", reduced_k4["cert.json"]]
    assert main(argv) == 12


def test_project_rejects_a_trace_for_other_terminals(reduced_k4, capsys):
    argv = ["project", "--graph", reduced_k4["gpp.g6"], "--trace", reduced_k4["trace03.json"],
            "--cert", reduced_k4["cert.json"]]
    assert main(argv) == 12
    assert "not the reduction instance" in capsys.readouterr().err


def test_verify_rejects_a_reduction_trace(reduced_k4, capsys):
    # A well-formed document of a kind that is not a certificate.
    argv = ["verify", "--graph", reduced_k4["gpp.g6"], "--cert", reduced_k4["trace.json"]]
    assert main(argv) == 12
    assert "cannot verify documents of kind 'reduction-trace'" in capsys.readouterr().err


def test_project_rejects_a_hist_certificate(reduced_k4, k4, tmp_path):
    hist = str(tmp_path / "hist.json")
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "100", "--out", hist]) == 0
    argv = ["project", "--graph", reduced_k4["gpp.g6"], "--trace", reduced_k4["trace.json"],
            "--cert", hist]
    assert main(argv) == 12


@pytest.mark.parametrize("command", ["verify", "project"])
def test_certificate_files_are_closed(reduced_k4, command):
    argv = [command, "--graph", reduced_k4["gpp.g6"], "--cert", reduced_k4["cert.json"]]
    if command == "project":
        argv += ["--trace", reduced_k4["trace.json"]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_solver_output_is_verified_before_it_is_written(k4, monkeypatch, tmp_path, capsys):
    from halinlab.certify import HalinCertificate, TreeCertificate
    from halinlab.search import SearchResult

    def wrong(g, budget):
        cert = HalinCertificate(TreeCertificate(4, [(0, 1), (1, 2), (2, 3)]), (0, 3, 1))
        return SearchResult("found", cert, nodes=1)

    monkeypatch.setattr("halinlab.cli.find_sghg", wrong)
    out = tmp_path / "c.json"
    assert main(["solve", "sghg", "--graph", k4, "--node-limit", "10", "--out", str(out)]) == 13
    assert "sghg output failed verification: not-a-hist" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option", [["--n", "-3"], ["--threads", "0"], ["--delta-fraction", "5"]]
)
def test_experiment_rejects_out_of_range_parameters(option):
    argv = {"--n": "10", "--delta-fraction": "0.85", "--trials": "1",
            "--node-limit": "1000", "--threads": "1"}
    argv[option[0]] = option[1]
    assert main(["experiment", "threshold", *(x for kv in argv.items() for x in kv)]) == 12


def test_experiment_takes_no_time_limit():
    with pytest.raises(SystemExit) as err:
        main(["experiment", "threshold", "--n", "10", "--delta-fraction", "0.85",
              "--trials", "1", "--time-limit", "5"])
    assert err.value.code == 10


def test_nan_parameters_are_precondition_errors(k4):
    assert main(["solve", "hist", "--graph", k4, "--time-limit", "nan"]) == 12
    assert main(["build", "dense", "--graph", k4, "--alpha-prime", "nan",
                 "--root", "0"]) == 12
    assert main(["experiment", "threshold", "--n", "10", "--delta-fraction", "nan",
                 "--trials", "1", "--node-limit", "100"]) == 12


def test_gadget_output_is_verified_before_it_is_written(monkeypatch, tmp_path, capsys):
    from halinlab import gadgets
    from halinlab.certify import TreeCertificate

    def cyclic(inst):
        cert = TreeCertificate(inst.host.n, [(0, 4), (4, 1), (1, 5), (5, 0)], False)
        return gadgets.GadgetResult(cert, {"components": 1})

    monkeypatch.setattr(gadgets, "insertion_hit", cyclic)
    out = tmp_path / "g.json"
    argv = ["gadget", "--op", "hit", "--size", "1", "--a", "4", "--b", "4"]
    assert main([*argv, "--out", str(out)]) == 13
    assert "not-acyclic" in capsys.readouterr().err
    assert not out.exists()


def test_extremal_commands(tmp_path, capsys):
    assert main(["extremal", "gen", "--a", "3", "--out", str(tmp_path / "i.g6")]) == 0
    assert main(["extremal", "confirm", "--a", "3"]) == 0
    assert "confirmed" in capsys.readouterr().out
    assert main(["extremal", "confirm", "--a", "4", "--node-limit", "5"]) == 2
    capsys.readouterr()
    # The side degree count refutes the balanced half with no walk, so even
    # a one-node budget reaches only the SGHG search.
    assert main(["extremal", "confirm", "--a", "4", "--node-limit", "1"]) == 2
    out = capsys.readouterr().out
    assert "balanced-leaf hist=False, sghg=unknown" in out and "inconclusive" in out


def test_experiment_command(tmp_path):
    out = str(tmp_path / "rep.json")
    csv_out = str(tmp_path / "rep.csv")
    args = ["experiment", "threshold", "--n", "10", "--delta-fraction", "0.85",
            "--trials", "3", "--seed", "9", "--node-limit", "200000",
            "--out", out, "--out-csv", csv_out]
    assert main(args) == 0
    first = Path(out).read_text()
    assert main(args) == 0
    assert Path(out).read_text() == first  # bit-exact reproduction
    rows = Path(csv_out).read_text().strip().splitlines()
    assert len(rows) == 4
    record = json.loads(first)
    assert record["kind"] == "experiment-report"


def test_identical_invocations_are_byte_identical(k4, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        assert main(["solve", "sghg", "--graph", k4, "--mode", "canonical",
                     "--node-limit", "100000", "--out", out]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_dense_build_command(tmp_path):
    host = tmp_path / "k12.g6"
    host.write_bytes(emit_graph6(Graph.complete(12)) + b"\n")
    assert main(["build", "dense", "--graph", str(host), "--alpha-prime", "0.05",
                 "--root", "0", "--out", str(tmp_path / "d.json")]) == 0


@pytest.mark.parametrize("alpha", ["0.6", "0"])
def test_dense_build_rejects_alpha_outside_the_range(k4, alpha, capsys):
    # K_4 is covered by the root's star, so no absorption step ever sees alpha.
    assert main(["build", "dense", "--graph", k4, "--alpha-prime", alpha,
                 "--root", "0"]) == 12
    assert "alpha_prime must be in (0, 0.5)" in capsys.readouterr().err


def test_tripartite_build_command(tmp_path, capsys):
    assert main(["build", "tripartite", "--a", "10", "--b", "12", "--f", "4",
                 "--l", "0", "--hubs", "2", "--a-block-bound", "6",
                 "--f-block-bound", "2", "--out", str(tmp_path / "t.json")]) == 0
    assert "companion path" in capsys.readouterr().out


def test_hamcycle_command(tmp_path):
    k33 = tmp_path / "k33.g6"
    k33.write_bytes(emit_graph6(Graph.complete_bipartite(3, 3)) + b"\n")
    assert main(["hamcycle", "--graph", str(k33)]) == 0
    tri = tmp_path / "k3.g6"
    tri.write_bytes(emit_graph6(Graph.complete(3)) + b"\n")
    assert main(["hamcycle", "--graph", str(tri)]) == 12


@pytest.mark.parametrize("target", ["hist", "sghg"])
def test_verify_rejects_centers_for_a_tree_document(k4, tmp_path, capsys, target):
    out = str(tmp_path / "c.json")
    assert main(["solve", target, "--graph", k4, "--node-limit", "10000", "--out", out]) == 0
    assert main(["verify", "--graph", k4, "--cert", out, "--centers", "0"]) == 12
    assert "--centers applies only to matching documents" in capsys.readouterr().err


COMMAND_WORDS = [words for words, _, handler, _ in COMMANDS if handler is not None]


@pytest.mark.parametrize("words", [row[0] for row in COMMANDS])
def test_every_command_has_help(words, capsys):
    with pytest.raises(SystemExit) as err:
        main([*words.split(), "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: halinlab {words} ")


def _required(words):
    """The required arguments of a command, in table order."""
    arguments = next(row[3] for row in COMMANDS if row[0] == words)
    return [name for name in arguments.split() if not name.startswith("[")]


def _required_argv(words, drop=None):
    """The command with every required argument but `drop`, each given a
    value that parses (its first choice, or 1)."""
    argv = words.split()
    for name in _required(words):
        if name != drop:
            value = str(OPTIONS[name].get("choices", [1])[0])
            argv += [name, value] if name.startswith("-") else [value]
    return argv


@pytest.mark.parametrize("words", COMMAND_WORDS)
def test_dropping_a_required_option_is_a_usage_error(words, capsys):
    cli._PARSER.parse_args(_required_argv(words))
    required = _required(words)
    assert required
    for name in required:
        with pytest.raises(SystemExit) as err:
            main(_required_argv(words, drop=name))
        assert err.value.code == 10, name
        assert "required" in capsys.readouterr().err


def test_usage_errors_exit_10_after_a_successful_call(k4):
    assert main(["solve", "hist", "--graph", k4, "--node-limit", "100"]) == 0
    for argv in (["solve", "hist"], ["solve", "hist", "--graph", k4, "--mode", "x"], []):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 10


REPEATED = {
    "verify": "verify --graph {gpp} --cert {cert}",
    "solve": "solve sghg --graph {k4} --mode canonical --node-limit 10000 --out {out}",
    "hampath": "hampath --graph {k4} --x 0 --y 3",
    "hamcycle": "hamcycle --graph {k33}",
    "reduce": "reduce --graph {k4} --x 0 --y 1 --out-graph {out} --out-trace {out2}",
    "project": "project --graph {gpp} --trace {trace} --cert {cert}",
    "build dense": "build dense --graph {k12} --alpha-prime 0.05 --root 0 --out {out}",
    "build bipartite": "build bipartite --a 9 --b 9 --hubs 2 --block-bound 6 --imbalance 1",
    "build tripartite": "build tripartite --a 10 --b 12 --f 4 --l 1 --hubs 2 "
                        "--a-block-bound 6 --f-block-bound 2 --out {out}",
    "build matching": "build matching --graph {k33} --out {out}",
    "build starpack": "build starpack --graph {k33} --centers 0,1 --tips-from 3,4,5 "
                      "--arity 1 --out {out}",
    "gadget": "gadget --op tree --size 2 --a 16 --b 16 --out {out}",
    "extremal gen": "extremal gen --a 3 --out {out}",
    "extremal confirm": "extremal confirm --a 3",
    "experiment threshold": "experiment threshold --n 10 --delta-fraction 0.85 --trials 2 "
                            "--node-limit 200000 --out {out} --out-csv {out2}",
}


def _blank_runtime_ms(csv_bytes: bytes) -> bytes:
    """The experiment CSV with its wall-clock `runtime_ms` field emptied
    on every trial row; every other byte is kept."""
    rows = [line.split(b",") for line in csv_bytes.split(b"\n")]
    col = rows[0].index(b"runtime_ms")
    for fields in rows[1:]:
        if len(fields) > col:
            assert fields[col].isdigit()
            fields[col] = b""
    return b"\n".join(b",".join(fields) for fields in rows)


@pytest.mark.parametrize("words", COMMAND_WORDS)
def test_identical_calls_in_one_process_give_identical_results(
    words, reduced_k4, tmp_path, capsys
):
    hosts = {"k4": Graph.complete(4), "k12": Graph.complete(12),
             "k33": Graph.complete_bipartite(3, 3)}
    files = {"gpp": reduced_k4["gpp.g6"], "trace": reduced_k4["trace.json"],
             "cert": reduced_k4["cert.json"], "out": str(tmp_path / "out"),
             "out2": str(tmp_path / "out2")}
    for name, g in hosts.items():
        files[name] = str(tmp_path / f"{name}.g6")
        (tmp_path / f"{name}.g6").write_bytes(emit_graph6(g) + b"\n")
    argv = REPEATED[words].format(**files).split()
    runs = []
    for _ in range(2):
        code = main(argv)
        written = {}
        for path in (tmp_path / "out", tmp_path / "out2"):
            if path.exists():
                written[path.name] = path.read_bytes()
                path.unlink()
        if words == "experiment threshold":
            # runtime_ms is wall-clock time, which may differ between calls.
            written["out2"] = _blank_runtime_ms(written["out2"])
        runs.append((code, capsys.readouterr().out, written))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
