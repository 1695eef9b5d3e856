"""Span recording around halinlab's public functions, patched in from outside.

A ``Tracer`` replaces module attributes (and ``Graph.__init__``) with
wrappers that record one span per call: name, start, end, parent span and
the benchmark instance that caused it.  Spans stay in memory until the
run ends.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct child spans.

Modules import each other's functions by name, so one function can sit
under several module attributes; every attribute that holds the original
object is patched, and ``uninstall`` puts every one back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

#: span name -> (module, public function names).  Private kernels such as
#: _cycle_feasible stay out: only public entry points are wrapped.
SPANS = {
    "search.solve": ("search", ("find_sghg", "find_hist", "balanced_leaf_hist_exists")),
    "search.hampath": ("search", ("ham_path_oracle",)),
    "graph.connectivity": ("graph", ("vertex_connectivity_at_least", "vertex_connectivity")),
    "io_formats.parse": ("io_formats", ("parse_graph6", "parse_edge_list", "parse_certificate")),
    "io_formats.emit": ("io_formats", ("emit_graph6", "emit_edge_list", "emit_certificate")),
    "certify.verify": (
        "certify",
        ("is_hist", "is_generalized_halin", "is_hit_forest", "verify_star_pack", "check_tree"),
    ),
    "reduction.reduce": (
        "reduction",
        ("reduce_instance", "build_g_prime", "build_g_double_prime", "lift_certificate"),
    ),
    "reduction.project": ("reduction", ("project_certificate",)),
    "constructive": (
        "constructive",
        (
            "dense_hist",
            "absorb_pair",
            "bipartite_hist",
            "tripartite_hist",
            "tripartite_host",
            "matching_lower_bound",
            "star_pack",
        ),
    ),
    "gadgets": (
        "gadgets",
        ("complete_instance", "insertion_hit", "insertion_tree", "insertion_forest"),
    ),
    "hamiltonicity": (
        "hamiltonicity",
        ("check_ore_plus", "ore_ham_path", "moon_moser_cycle", "verify_walk"),
    ),
    "extremal.random_host": ("extremal", ("random_three_connected",)),
    "extremal.trial": ("extremal", ("run_trial",)),
    "extremal.driver": (
        "extremal",
        ("threshold_experiment", "confirm_sharpness", "sharpness_instance"),
    ),
    "cli": ("cli", ("main",)),
}

#: The modules of src/halinlab/ that do measurable work (errors does none).
LAYERS = (
    "graph",
    "io_formats",
    "certify",
    "search",
    "reduction",
    "constructive",
    "gadgets",
    "hamiltonicity",
    "extremal",
    "cli",
)

ROOT = "bench.instance"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, instance id].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._instance: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._instance])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def run_instance(self, instance_id: str, fn):
        """Call fn() under the root span of one benchmark instance."""
        self._instance = instance_id
        index = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(index)
            self._instance = None

    def _wrap(self, name: str, fn):
        tracer = self
        counts_rotations = fn.__name__ in ("ore_ham_path", "moon_moser_cycle")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_rotations and kwargs.get("stats") is None and len(args) < 5:
                from halinlab.hamiltonicity import RotationStats

                kwargs["stats"] = RotationStats()
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(name, index, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, index: int, args, kwargs, result) -> None:
        counts = self.counts
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == name:
            return  # a nested call of the same kind is part of its caller
        counts[f"{name}.calls"] += 1
        if name == "search.solve" and hasattr(result, "nodes"):
            counts["search.nodes"] += result.nodes
            counts["search.unknown"] += result.status == "unknown"
        elif name == "io_formats.parse":
            counts["io_formats.parse.bytes"] += len(args[0])
        elif name == "io_formats.emit":
            counts["io_formats.emit.bytes"] += len(result)
        elif name == "certify.verify":
            counts["certify.verify.rejects"] += not result
        elif name == "hamiltonicity" and "stats" in kwargs:
            counts["hamiltonicity.rotations"] += kwargs["stats"].rotations
        elif name == "extremal.random_host":
            counts["extremal.random_host.skipped"] += result is None
        elif name == "cli":
            counts["cli.nonzero_exits"] += result != 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        from halinlab import graph

        modules = [
            m for key, m in sys.modules.items() if key == "halinlab" or key.startswith("halinlab.")
        ]
        for name, (module_name, functions) in SPANS.items():
            home = sys.modules[f"halinlab.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        init = graph.Graph.__init__
        self._patched.append((graph.Graph, "__init__", init))
        graph.Graph.__init__ = self._wrap("graph.construct", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self, duration=lambda a, b: b - a) -> dict[str, float]:
        """Self time per span name: each span's duration(start, end) minus
        its direct children's."""
        own = [duration(start, end) for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, own):
            if parent >= 0:
                child_time[parent] += d
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _, _), d, children in zip(self.spans, own, child_time):
            out[name] += d - children
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent id, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "instance": inst,
                }
                fh.write(json.dumps(record) + "\n")


class Capture:
    """Context manager that appends (args, result) of every call made
    through module.attr to ``calls``.  It wraps whatever is installed
    there, so it composes with an installed Tracer."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.calls: list[tuple[tuple, object]] = []

    def __enter__(self):
        self.original = original = getattr(self.module, self.attr)
        calls = self.calls

        @functools.wraps(original)
        def tap(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result

        setattr(self.module, self.attr, tap)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        return False
