import os
from unittest import mock

import pytest

from halinlab import extremal
from halinlab.errors import PreconditionError
from halinlab.extremal import (
    confirm_sharpness,
    random_three_connected,
    run_trial,
    sharpness_instance,
    threshold_experiment,
    trial_rng,
)
from halinlab.graph import Graph, vertex_connectivity_at_least
from halinlab.io_formats import emit_certificate
from halinlab.search import SearchBudget

from oracles import full_draw_three_connected


def test_sharpness_instances_small():
    g, meta = sharpness_instance(3)
    assert (meta.a, meta.b, meta.n, meta.predicted_delta) == (3, 4, 7, 3)
    assert g == Graph.complete_bipartite(3, 4)
    assert meta.predicted_delta == (2 * meta.n + 1) // 5
    g, meta = sharpness_instance(4)
    assert (meta.a, meta.b, meta.n, meta.predicted_delta) == (4, 5, 9, 4)
    assert meta.predicted_delta == (2 * meta.n + 2) // 5
    g, meta = sharpness_instance(5)
    assert (meta.a, meta.b, meta.n, meta.predicted_delta) == (5, 7, 12, 5)


def test_sharpness_metadata_arithmetic_range():
    for a in range(2, 101):
        _, meta = sharpness_instance(a)
        assert 2 * meta.b > 3 * (meta.a - 1)
        assert meta.n == meta.a + meta.b
        assert meta.predicted_delta == meta.a
        if a % 2 == 1:
            assert 5 * meta.predicted_delta == 2 * meta.n + 1
        else:
            assert 5 * meta.predicted_delta == 2 * meta.n + 2


def test_sharpness_rejects_tiny():
    with pytest.raises(PreconditionError):
        sharpness_instance(1)


def test_confirm_sharpness_k22():
    report = confirm_sharpness(2)
    assert report.confirmed  # no HIST at all in K_{2,2}


def test_confirm_sharpness_budget_inconclusive():
    report = confirm_sharpness(4, SearchBudget(node_limit=3, mode="canonical"))
    assert not report.conclusive


def test_random_three_connected_generator():
    rng = trial_rng(7, 0)
    g = random_three_connected(10, 6, rng)
    assert g is not None
    assert g.min_degree() >= 6
    assert vertex_connectivity_at_least(g, 3)
    assert random_three_connected(3, 2, trial_rng(7, 1)) is None


def test_random_three_connected_matches_the_full_draw_sampler():
    # The early exit skips an attempt's remaining draws, so both samplers
    # return the same host and leave the stream in the same state.  n = 4,
    # a floor of n - 1 (p = 1.0 from the first attempt) and runs that use
    # up every attempt (most one- and two-attempt runs) are all covered.
    outcomes = set()
    for attempts in (1, 2, 60):
        with mock.patch.object(extremal, "_MAX_ATTEMPTS", attempts):
            for n in range(4, 15):
                for floor in sorted({3, n // 3, n // 2, 2 * n // 3, n - 2, n - 1}):
                    for index in range(4):
                        ours_rng, plain_rng = trial_rng(n, index), trial_rng(n, index)
                        ours = random_three_connected(n, floor, ours_rng)
                        plain = full_draw_three_connected(n, floor, plain_rng, attempts)
                        case = (attempts, n, floor, index)
                        assert ours == plain, case
                        assert ours_rng.getstate() == plain_rng.getstate(), case
                        outcomes.add(ours is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("k", [0, 1, 2, 37, 741])
def test_getrandbits_skips_as_many_words_as_random_calls(k):
    # The sampler's early exit skips k draws with one getrandbits(64 * k).
    drawn, skipped = trial_rng(40, k), trial_rng(40, k)
    for _ in range(k):
        drawn.random()
    skipped.getrandbits(64 * k)
    assert drawn.getstate() == skipped.getstate()
    assert drawn.random() == skipped.random()


def test_trials_are_deterministic():
    budget = SearchBudget(node_limit=200_000, mode="first")
    a = run_trial(10, 0.8, 42, 3, budget)
    b = run_trial(10, 0.8, 42, 3, budget)
    assert (a.outcome, a.certificate_digest, a.seed_hash) == (
        b.outcome,
        b.certificate_digest,
        b.seed_hash,
    )


def test_threshold_experiment_report():
    budget = SearchBudget(node_limit=200_000, mode="first")
    report = threshold_experiment(10, 0.85, 5, 11, budget)
    assert len(report.trials) == 5
    assert sum(report.rates().values()) == 5
    again = threshold_experiment(10, 0.85, 5, 11, budget)
    assert emit_certificate(report.to_document()) == emit_certificate(
        again.to_document()
    )
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "index,seed_hash,outcome,runtime_ms,certificate_digest"
    assert len(lines) == 6


def test_threshold_experiment_dense_regime():
    budget = SearchBudget(node_limit=500_000, mode="first")
    report = threshold_experiment(12, 0.9, 20, 3, budget)
    rates = report.rates()
    assert rates.get("sghg-found", 0) >= 18  # dense hosts almost always work
    assert rates.get("unknown", 0) == 0


def test_threshold_experiment_parallel_matches_sequential():
    budget = SearchBudget(node_limit=200_000, mode="first")
    seq = threshold_experiment(9, 0.85, 4, 21, budget, threads=1)
    par = threshold_experiment(9, 0.85, 4, 21, budget, threads=2)
    strip = lambda r: [(t.index, t.seed_hash, t.outcome, t.certificate_digest) for t in r.trials]
    assert strip(seq) == strip(par)


def test_threshold_experiment_starts_no_more_workers_than_trials(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        # Records the worker count it is asked for and maps in-process, so
        # a large thread count starts no process at all.
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    budget = SearchBudget(node_limit=200_000, mode="first")
    strip = lambda r: [(t.index, t.seed_hash, t.outcome, t.certificate_digest) for t in r.trials]
    serial = strip(threshold_experiment(9, 0.85, 4, 21, budget))
    # Rows: CPUs, threads, trials, workers asked for.  The pool gets no more
    # workers than trials or CPUs, and an unknown CPU count means one.
    for cpus, threads, trials, workers in (
        (8, 5000, 4, [4]),
        (8, 3, 4, [3]),
        (8, 5000, 1, []),
        (8, 8, 0, []),
        (2, 5000, 4, [2]),
        (None, 5000, 4, []),
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        report = threshold_experiment(9, 0.85, trials, 21, budget, threads)
        assert started == workers
        assert strip(report) == serial[:trials]


def test_threshold_experiment_empty():
    for threads in (1, 2):
        report = threshold_experiment(10, 0.8, 0, 1, SearchBudget(node_limit=10), threads)
        assert report.trials == [] and report.rates() == {}
        assert "experiment-report" in emit_certificate(report.to_document())
    with pytest.raises(PreconditionError, match="^trials must be nonnegative$"):
        threshold_experiment(10, 0.8, -1, 1, SearchBudget(node_limit=10))


def test_sharpness_trial_injection():
    # The K_{3,4} instance itself must come out negative through the
    # same solver interface the experiment uses.
    from halinlab.search import find_sghg

    g, _ = sharpness_instance(3)
    assert find_sghg(g, SearchBudget(node_limit=10**6, mode="first")).status == "none"


@pytest.mark.parametrize(
    "n, delta_fraction, threads",
    [(3, 0.8, 1), (-3, 0.8, 1), (10, 0.8, 0), (10, 5.0, 1), (10, -0.1, 1)],
)
def test_threshold_experiment_rejects_out_of_range_parameters(n, delta_fraction, threads):
    with pytest.raises(PreconditionError):
        threshold_experiment(n, delta_fraction, 1, 0, SearchBudget(node_limit=10), threads)


def test_threshold_experiment_rejects_a_time_limit():
    budget = SearchBudget(node_limit=10, time_limit=5.0)
    with pytest.raises(PreconditionError):
        threshold_experiment(10, 0.8, 1, 0, budget)


def test_threshold_experiment_records_its_budget():
    report = threshold_experiment(10, 0.8, 0, 1, SearchBudget(node_limit=10))
    assert report.parameters["node_limit"] == 10
    assert report.parameters["mode"] == "first"
