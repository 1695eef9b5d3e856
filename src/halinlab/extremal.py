"""Sharpness family around the minimum-degree threshold and the random
experiment harness that charts solver outcomes near it.

The complete bipartite instances here have minimum degree just below the
conjectured threshold and provably no spanning generalized Halin
subgraph; the lab re-derives both facts at desk scale and treats any
disagreement as a falsification event.  No HIST is balanced: the side
degree count in `balanced_leaf_hist_exists` decides that where it
settles it (on the whole sharp family), and a walk over every HIST
decides it elsewhere.  No SGHG: an exhaustive search decides that.
Threshold experiments never claim to verify the asymptotic statement:
they record per-trial outcomes, each positive one backed by a
verifier-checked certificate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .certify import is_generalized_halin
from .errors import FalsificationError, PreconditionError
from .graph import Graph, VertexSetPair, vertex_connectivity_at_least
from .io_formats import CertificateDocument, emit_certificate
from .search import UNBOUNDED, SearchBudget, balanced_leaf_hist_exists, find_sghg


@dataclass(frozen=True)
class SharpnessInstance:
    """K_{a,b} sized so that min degree sits just under the threshold."""

    a: int
    b: int
    n: int
    predicted_delta: int

    def check_arithmetic(self) -> None:
        if 2 * self.b <= 3 * (self.a - 1):
            raise FalsificationError("instance misses b > 3(a-1)/2", {"a": self.a})
        if min(self.a, self.b) != self.predicted_delta:
            raise FalsificationError("min degree prediction wrong", {"a": self.a})


def sharpness_instance(a: int) -> tuple[Graph, SharpnessInstance]:
    """The no-SGHG complete bipartite example for a given left side."""
    if a < 2:
        raise PreconditionError("need a >= 2")
    # b is (3a-1)/2 for odd a and (3a-2)/2 for even a, so 2n+2 is 5a+1
    # or 5a, and the predicted minimum degree (2n+2)//5 is a either way.
    b = (3 * a - 1) // 2
    n = a + b
    meta = SharpnessInstance(a, b, n, (2 * n + 2) // 5)
    meta.check_arithmetic()
    return Graph.complete_bipartite(a, b), meta


@dataclass
class SharpnessReport:
    instance: SharpnessInstance
    balanced_hist_found: bool
    sghg_status: str
    nodes: int

    @property
    def conclusive(self) -> bool:
        return self.sghg_status != "unknown"

    @property
    def confirmed(self) -> bool:
        return not self.balanced_hist_found and self.sghg_status == "none"


def confirm_sharpness(a: int, budget: SearchBudget = UNBOUNDED) -> SharpnessReport:
    """Re-derive the two negative facts for one instance.

    The side degree count settles the balanced-leaf fact with no walk,
    so the budget goes to the SGHG search alone: `check_arithmetic`
    asserts 2b > 3(a - 1), under which the count refutes K_{a,b}.
    An exhaustive search settles the SGHG fact.  A budget overrun there
    produces an inconclusive report; a positive finding would contradict
    the counting argument and raises a falsification.
    """
    g, meta = sharpness_instance(a)
    sides = VertexSetPair(range(a), range(a, meta.n))
    balanced = balanced_leaf_hist_exists(g, sides, budget)
    result = find_sghg(g, budget)
    report = SharpnessReport(meta, balanced, result.status, result.nodes)
    if balanced or result.status == "found":
        raise FalsificationError(
            "sharpness instance produced a forbidden structure",
            {"a": a, "balanced": balanced, "sghg": result.status},
        )
    return report


# -- random 3-connected hosts ---------------------------------------------------


def trial_seed_hash(seed: int, index: int) -> str:
    return hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:16]


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent per-trial stream, seeded by `trial_seed_hash`."""
    return random.Random(int(trial_seed_hash(seed, index), 16))


# Draws per host before the sampler gives up; p climbs to 1 over them.
_MAX_ATTEMPTS = 60


def random_three_connected(n: int, min_degree: int, rng: random.Random) -> Graph | None:
    """Sample G(n,p) at escalating p until 3-connected with the floor met."""
    if n < 4 or min_degree > n - 1:
        return None
    base_p = max(min_degree / (n - 1), 0.3)
    draw = rng.random
    for attempt in range(_MAX_ATTEMPTS):
        p = min(1.0, base_p + (1.0 - base_p) * attempt / _MAX_ATTEMPTS)
        # Each pair u < v is drawn once, so the masks need no checking.
        masks = [0] * n
        for u in range(n):
            bit, row = 1 << u, 0
            for v in range(u + 1, n):
                if draw() < p:
                    row |= 1 << v
                    masks[v] |= bit
            row |= masks[u]
            masks[u] = row
            if row.bit_count() < min_degree:
                # Row u fixes u's degree, and it is below the floor: use up
                # the attempt's other draws untested, so the next attempt
                # reads the stream it always did.  random() reads two 32-bit
                # words of the generator and getrandbits(64 * k) reads 2k.
                rng.getrandbits(64 * ((n - 1 - u) * (n - 2 - u) // 2))
                break
        else:
            g = Graph._from_masks(masks)
            if vertex_connectivity_at_least(g, 3):
                return g
    return None


@dataclass
class TrialRecord:
    index: int
    seed_hash: str
    outcome: str  # sghg-found | none | unknown | skipped
    runtime_ms: int
    certificate_digest: str | None


@dataclass
class ExperimentReport:
    parameters: dict
    trials: list[TrialRecord] = field(default_factory=list)

    def rates(self) -> dict[str, int]:
        return dict(Counter(t.outcome for t in self.trials))

    def to_document(self) -> CertificateDocument:
        # Runtime is environment noise and stays out of the canonical
        # document so reports reproduce bit-exactly from (seed, params).
        return CertificateDocument(
            "experiment-report",
            {
                "parameters": dict(self.parameters),
                "trials": [
                    {
                        "index": t.index,
                        "seed_hash": t.seed_hash,
                        "outcome": t.outcome,
                        "certificate_digest": t.certificate_digest,
                    }
                    for t in self.trials
                ],
                "rates": self.rates(),
            },
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["index", "seed_hash", "outcome", "runtime_ms", "certificate_digest"]
        )
        for t in self.trials:
            writer.writerow(
                [t.index, t.seed_hash, t.outcome, t.runtime_ms, t.certificate_digest or ""]
            )
        return buf.getvalue()


def run_trial(
    n: int, delta_fraction: float, seed: int, index: int, budget: SearchBudget
) -> TrialRecord:
    """One generate-and-solve round, deterministic in (seed, index)."""
    seed_hash = trial_seed_hash(seed, index)
    started = time.monotonic()
    g = random_three_connected(n, math.ceil(delta_fraction * n), trial_rng(seed, index))
    result = None if g is None else find_sghg(g, budget)
    ms = int((time.monotonic() - started) * 1000)
    outcome, digest = "skipped", None
    if result is not None:
        outcome = "sghg-found" if result.found else result.status
        if result.found:
            cert = result.certificate
            if not is_generalized_halin(g, cert):
                raise FalsificationError(
                    "solver emitted an invalid certificate", {"trial": index}
                )
            digest = hashlib.sha256(
                emit_certificate(cert.to_document()).encode()
            ).hexdigest()[:16]
    return TrialRecord(index, seed_hash, outcome, ms, digest)


def threshold_experiment(
    n: int,
    delta_fraction: float,
    trials: int,
    seed: int,
    budget: SearchBudget,
    threads: int = 1,
) -> ExperimentReport:
    """Chart solver outcomes on random 3-connected hosts with a degree
    floor; trials are independent streams so results do not depend on
    scheduling or worker count.  The budget may not carry a time limit:
    outcomes would then depend on the machine, not on (seed, params)."""
    if n < 4:
        raise PreconditionError(f"no 3-connected host has n = {n} < 4 vertices")
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    if threads < 1:
        raise PreconditionError(f"threads must be at least 1, got {threads}")
    if not 0 <= delta_fraction <= 1:
        raise PreconditionError(f"delta fraction must lie in [0, 1], got {delta_fraction}")
    if budget.time_limit is not None:
        raise PreconditionError("a time limit would make the report irreproducible")
    params = {
        "n": n,
        "delta_fraction": delta_fraction,
        "trials": trials,
        "seed": seed,
        "node_limit": budget.node_limit,
        "mode": budget.mode,
    }
    trial = partial(run_trial, n, delta_fraction, seed, budget=budget)
    # The pool forks all its workers at the first submit, so it gets no
    # more of them than there are trials or CPUs.
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, range(trials)))
    else:
        records = list(map(trial, range(trials)))
    return ExperimentReport(params, records)
