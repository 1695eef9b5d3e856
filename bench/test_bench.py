"""The benchmark's own tests: short-mode runs, determinism, the node counts
of the seed solver, and the correctness gate.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from halinlab import extremal, search  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_short_mode_reports_every_end_to_end_metric(name):
    report, result = run.measure(name, seed=5, seconds=0.1, trace=False, short=True)
    assert result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["decided_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_short_mode_reports_every_layer_metric_and_unpatches(name):
    originals = (search.find_sghg, extremal.find_sghg, extremal.run_trial)
    report, result = run.measure(name, seed=5, seconds=0.1, trace=True, short=True)
    assert result["failed"] == 0, report["failures"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert (search.find_sghg, extremal.find_sghg, extremal.run_trial) == originals
    if name == "build-io":
        assert result["metrics"]["search.solve.calls"]["value"] == 0
    else:
        assert result["metrics"]["search.solve.calls"]["value"] > 0


@pytest.mark.parametrize("name", ["reduce-sghg", "threshold", "build-io"])
def test_one_seed_gives_identical_inputs_nodes_and_digests(name):
    first, _ = run.measure(name, seed=11, seconds=0.1, trace=False, short=True)
    second, _ = run.measure(name, seed=11, seconds=0.1, trace=False, short=True)
    assert first["per_instance"] == second["per_instance"]
    other, _ = run.measure(name, seed=12, seconds=0.1, trace=False, short=True)
    assert other["params"] != first["params"] or other["per_instance"] != first["per_instance"]


def test_harness_measures_the_seed_solver():
    report = extremal.confirm_sharpness(4, workloads.REFUTE_BUDGET)
    assert report.nodes == 17_528
    for n, nodes in ((3, 376), (4, 41_784)):
        total = 0
        for orbit in workloads.labeled_orbits(n):
            for edges, x, y in orbit:
                inst = workloads._reduce_instance(n, edges, x, y, ref.ham_path_exists(n, edges, x, y))
                outcome = inst.check(inst.run())
                assert outcome.problem is None
                total += outcome.nodes
        assert total == nodes


def test_wrong_verdicts_count_as_failures(monkeypatch):
    def always_none(g, budget=None):
        return search.SearchResult("none", None, 1, 0)

    monkeypatch.setattr(search, "find_sghg", always_none)
    report, result = run.measure("reduce-sghg", seed=5, seconds=0.1, trace=False, short=True)
    assert not result["correct"]
    assert result["failed"] == report["params"]["positives"] * report["passes"]["untraced"]


def test_reference_rejects_broken_objects():
    k4 = ref.masks_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    star = [(0, 1), (0, 2), (0, 3)]
    assert ref.sghg_problem(k4, star, [1, 2, 3]) is None
    assert ref.sghg_problem(k4, star, [1, 2]) is not None
    assert ref.hist_problem(k4, [(0, 1), (1, 2), (2, 3)]) is not None
    assert ref.ham_path_problem(k4, [0, 1, 2, 3], 0, 2) is not None
    assert not ref.ham_path_exists(4, star, 1, 2)
    assert not ref.balanced_hist_ruled_out(6, 6)


def test_tail_level_depends_on_the_corpus_not_the_pass_count():
    one = [float(i) for i in range(100)]
    assert run.tail(one, 100) == (0.9, 89.0)
    assert run.tail(one * 3, 100) == (0.9, 89.0)
    assert run.tail(one[:6], 6) == (1.0, 5.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "threshold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [Path(run.BENCH).name]
