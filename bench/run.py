"""halinlab benchmark: time to a checked verdict, end to end and per module.

Usage, from the root of a source checkout (it imports halinlab from src/):

    python3 bench/run.py --workload reduce-sghg --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --short            # every workload on a small slice

One caller in one process drives a closed loop: the next instance starts
only after the previous verdict has been checked against a known answer
computed in benchmark code (reference.py).  A run first sets the workload
up several times (set-up time is the median), then repeats passes over
the corpus until --seconds would be exceeded, at least one pass.  With
--trace 1 untraced and traced passes alternate; the traced ones wrap
halinlab's public functions from outside (tracing.py) and give the
per-layer numbers.

Every time reported is in reference-speed seconds (speed.py): the cores of
a shared machine change speed from second to second, so each stretch of
wall time is scaled by a probe loop timed alongside it.  Raw wall times
of the passes are kept in the report.

Human-readable lines come first.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full report
(environment, parameters, per-instance node counts and certificate
digests, failures, layer shares) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-up repeats until it has run MIN_SETUPS times and for SETUP_SECONDS,
#: or MAX_SETUPS times; the median is reported.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 200, 1.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.solve.calls": "count",
    "search.solve.busy_s": "s",
    "search.nodes": "count",
    "search.us_per_node": "us",
    "search.nodes_per_verdict": "count",
    "search.unknown": "count",
    "search.hampath.calls": "count",
    "search.hampath.busy_s": "s",
    "graph.construct.calls": "count",
    "graph.construct.busy_s": "s",
    "graph.connectivity.calls": "count",
    "graph.connectivity.busy_s": "s",
    "io_formats.parse.calls": "count",
    "io_formats.parse.busy_s": "s",
    "io_formats.parse.bytes": "bytes",
    "io_formats.emit.calls": "count",
    "io_formats.emit.busy_s": "s",
    "io_formats.emit.bytes": "bytes",
    "certify.verify.calls": "count",
    "certify.verify.busy_s": "s",
    "certify.verify.rejects": "count",
    "reduction.calls": "count",
    "reduction.reduce.busy_s": "s",
    "reduction.project.busy_s": "s",
    "constructive.calls": "count",
    "constructive.busy_s": "s",
    "gadgets.calls": "count",
    "gadgets.busy_s": "s",
    "hamiltonicity.calls": "count",
    "hamiltonicity.busy_s": "s",
    "hamiltonicity.rotations": "count",
    "extremal.random_host.calls": "count",
    "extremal.random_host.busy_s": "s",
    "extremal.random_host.skipped": "count",
    "extremal.trial.calls": "count",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Put the checkout's src/ first on the path and import halinlab from it."""
    src = ROOT / "src"
    if not (src / "halinlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no halinlab sources under {src}")
    sys.path.insert(0, str(src))
    import halinlab

    if Path(halinlab.__file__).resolve().parent != (src / "halinlab").resolve():
        raise SystemExit(f"error: imported halinlab from {halinlab.__file__}, not {src}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list[float], per_pass: int) -> tuple[float, float]:
    """(level, value): the highest percentile with at least ten of one
    pass's samples beyond it, read by nearest rank from all passes' samples.
    The level depends only on the corpus size, so it does not move with
    the number of passes.  Below twenty samples per pass it is the maximum."""
    ordered = sorted(samples)
    if per_pass < 20:  # the level would sit at or below the median
        return 1.0, ordered[-1]
    level = (per_pass - 10) / per_pass
    rank = math.ceil(level * len(ordered) - 1e-9)
    return level, ordered[rank - 1]


def run_pass(instances, tracer=None):
    """One closed-loop pass: returns ((start, end), [((t0, t1), Outcome)])
    in raw perf_counter times."""
    from workloads import Outcome

    records = []
    started = perf_counter()
    for inst in instances:
        t0 = perf_counter()
        try:
            out = tracer.run_instance(inst.key, inst.run) if tracer else inst.run()
            error = None
        except Exception as exc:  # a program exception is a failed verdict
            where = traceback.extract_tb(exc.__traceback__)[-1]
            out, error = None, f"{type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
        t1 = perf_counter()
        if error is None:
            try:
                outcome = inst.check(out)
            except Exception as exc:  # malformed output the check could not read
                outcome = Outcome("error", f"check failed: {type(exc).__name__}: {exc}")
        else:
            outcome = Outcome("error", error)
        records.append(((t0, t1), outcome))
    return (started, perf_counter()), records


def setup(name: str, seed: int, short: bool, workdir: Path):
    """Set the workload up repeatedly; returns the last corpus and the raw
    interval of every set-up."""
    from workloads import WORKLOADS

    spans, keys = [], None
    while len(spans) < MAX_SETUPS and (
        len(spans) < MIN_SETUPS or sum(b - a for a, b in spans) < SETUP_SECONDS
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        instances, params = WORKLOADS[name](seed, short, workdir)
        spans.append((t0, perf_counter()))
        if keys is not None and keys != [i.key for i in instances]:
            raise RuntimeError("set-up is not deterministic in the seed")
        keys = [i.key for i in instances]
    return instances, params, spans


def measure(name: str, seed: int, seconds: float, trace: bool, short: bool) -> tuple[dict, dict]:
    from speed import Speedometer
    from tracing import LAYERS, ROOT as ROOT_SPAN, Tracer, layer_of

    workdir = OUT / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    plain, traced, failures = [], [], []
    first: list | None = None
    try:
        with Speedometer() as speed:
            instances, params, setup_spans = setup(name, seed, short, workdir)
            deadline = perf_counter() + seconds
            while True:
                cycle_start = perf_counter()
                for sink, tr in [(plain, None)] + ([(traced, tracer)] if trace else []):
                    if tr:
                        tr.install()
                    try:
                        span, records = run_pass(instances, tr)
                    finally:
                        if tr:
                            tr.uninstall()
                    sink.append((span, records))
                    signature = [(o.nodes, o.digest) for _, o in records]
                    if first is None:
                        first = signature
                    for inst, (_, o), sig, want in zip(instances, records, signature, first):
                        if o.problem is None and sig != want:
                            o.problem = f"nodes/digest {sig} differ from the first pass {want}"
                        if o.problem is not None and len(failures) < 50:
                            failures.append({"instance": inst.key, "problem": o.problem})
                if perf_counter() + (perf_counter() - cycle_start) > deadline:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Times are converted to reference-speed seconds once sampling has stopped.
    sec = speed.seconds
    setup_times = [sec(*span) for span in setup_spans]
    walls = [sec(*span) for span, _ in plain]
    outcomes = [o for _, recs in plain + traced for _, o in recs]
    attempted = len(outcomes)
    failed = sum(o.problem is not None for o in outcomes)
    per_pass = len(instances)
    latencies = [sec(*span) for _, recs in plain for span, _ in recs]
    wall = statistics.median(walls)
    level, tail_value = tail(latencies, per_pass)
    decided = sum(o.decided for _, recs in plain for _, o in recs)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "verdicts_per_s": per_pass / wall,
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdict_tail_ms": tail_value * 1e3,
        "decided_ratio": decided / len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    search_nodes = sum(nodes for nodes, _ in first if nodes is not None)
    report = {
        "workload": name,
        "seed": seed,
        "short": short,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
        },
        "params": params,
        "instances": per_pass,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_times_s": setup_times,
        "end_to_end": metrics,
        "raw_wall_s": [b - a for (a, b), _ in plain],
        "speed_probe_median_s": statistics.median(speed.durations),
        "verdict_tail_level": level,
        "verdict_samples": len(latencies),
        "search_nodes": search_nodes,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "per_instance": [
            {"instance": inst.key, "nodes": nodes, "digest": digest}
            for inst, (nodes, digest) in zip(instances, first)
        ],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}

    if trace:
        n_traced = len(traced)
        busy = {k: v / n_traced for k, v in tracer.self_times(sec).items()}
        counts = {k: v / n_traced for k, v in tracer.counts.items()}
        total = sum(busy.values())
        shares = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for span, t in busy.items():
            shares["bench" if span == ROOT_SPAN else layer_of(span)] += t / total
        nodes = counts.get("search.nodes", 0)
        derived = {
            "search.us_per_node": busy.get("search.solve", 0.0) / nodes * 1e6 if nodes else 0.0,
            "search.nodes_per_verdict": nodes / per_pass,
            "reduction.calls": counts.get("reduction.reduce.calls", 0)
            + counts.get("reduction.project.calls", 0),
            "trace.overhead_ratio": statistics.median(sec(*span) for span, _ in traced) / wall,
        }
        # "<span>.busy_s" is the span's self time; every other name is a count.
        layer_metrics = {
            key: derived[key]
            if key in derived
            else busy.get(key.removesuffix(".busy_s"), 0.0)
            if key.endswith(".busy_s")
            else counts.get(key, 0)
            for key in PER_LAYER
        }
        report["per_layer"] = layer_metrics
        report["layer_share"] = shares
        report["span_self_s"] = busy
        result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer_metrics.items()}
    else:
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-short' if short else ''}"
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        tracer.write(f"{stem}-spans.jsonl")
    return report, result


def print_report(report: dict, result: dict) -> None:
    name = report["workload"]
    print(f"# {name}: seed {report['seed']}, {report['instances']} instances, "
          f"passes {report['passes']}, python {report['environment']['python']}, "
          f"nproc {report['environment']['nproc']}, commit {report['environment']['git_commit']}")
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        print(f"{name} verdict_tail_level {report['verdict_tail_level']:.4f} "
              f"(samples {report['verdict_samples']})")
        print(f"{name} search_nodes {report['search_nodes']} count")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in report["layer_share"].items() if v >= 0.001)
        print(f"{name} layer self-time share: {shares}")
    print(f"{name} failed_ratio {report['failed_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for f in report["failures"][:5]:
        print(f"{name} FAILED {f['instance']}: {f['problem']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                           choices=["all", "reduce-sghg", "bipartite-refute", "threshold", "build-io"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true", help="small slice of every corpus")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report, result = measure(name, args.seed, args.seconds, bool(args.trace), args.short)
        print_report(report, result)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
