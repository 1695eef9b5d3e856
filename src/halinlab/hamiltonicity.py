"""Constructive Hamiltonian routines under degree-sum hypotheses.

Both builders start from a spanning sequence that may contain virtual
(non-)edges and hand it to one repair loop, `_repair`, which rotates away
the first virtual edge until none is left: a crossing exchange replaces
the virtual edge and one other sequence edge with two genuine host edges,
reversing the segment in between.  For a nonadjacent pair u,v on an
n-vertex sequence there are n-2 candidate positions but at least
d(u)+d(v)-2 >= n-1 position marks, so a crossing always exists under the
degree-sum hypothesis and the number of virtual edges strictly drops.  A
missing crossing, or a loop that runs past its fixed cap of one rotation
per sequence vertex, would therefore refute the hypothesis itself and is
raised as a falsification event, never retried.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FalsificationError, PreconditionError
from .graph import Graph, VertexSetPair, edge_inside


def _light_pair(g: Graph, rows, cols, bound: int) -> tuple[int, int] | None:
    """First nonadjacent pair (u, v) with d(u)+d(v) <= bound: u in the order
    of `rows`, v the lowest qualifying bit of the column mask cols(u)."""
    at_most = [0] * (g.n + 1)  # at_most[t]: the vertices of degree <= t
    for v in range(g.n):
        at_most[g.degree(v)] |= 1 << v
    for t in range(1, g.n + 1):
        at_most[t] |= at_most[t - 1]
    for u in rows:
        bad = at_most[bound - g.degree(u)] & ~g.neighbor_mask(u) & cols(u)
        if bad:
            return u, (bad & -bad).bit_length() - 1
    return None


def check_ore_plus(g: Graph) -> tuple[int, int] | None:
    """Exact scan: every nonadjacent pair needs d(x)+d(y) >= n+1; returns
    the lexicographically first pair that fails, or None if none does."""
    return _light_pair(g, range(g.n), lambda u: -(2 << u), g.n)


@dataclass
class RotationStats:
    rotations: int = 0


def _apply_crossing(seq: list[int], i: int, j: int) -> list[int]:
    """Reverse the segment between positions i and j of a path sequence."""
    lo, hi = min(i, j), max(i, j)
    return seq[: lo + 1] + seq[lo + 1 : hi + 1][::-1] + seq[hi + 1 :]


def _rotate_cycle(seq: list[int], i: int, j: int) -> list[int]:
    """Exchange cycle edges (i,i+1) and (j,j+1) for (i,j) and (i+1,j+1)."""
    # Rotate seq until position i is at the end; the virtual edge then
    # spans (last, first) and the arc to reverse is a prefix slice.
    rot = seq[i + 1 :] + seq[: i + 1]
    jj = (j - i - 1) % len(seq)  # position of j in the rotated frame
    return rot[: jj + 1][::-1] + rot[jj + 1 :]


def verify_walk(
    g: Graph,
    walk: tuple[int, ...],
    *,
    closed: bool,
    endpoints: tuple[int, int] | None = None,
) -> bool:
    """Independent check: spans g once, uses host edges, hits endpoints;
    a closed walk needs at least 3 vertices."""
    if sorted(walk) != list(range(g.n)):
        return False
    for a, b in zip(walk, walk[1:]):
        if not g.has_edge(a, b):
            return False
    if closed and (g.n < 3 or not g.has_edge(walk[-1], walk[0])):
        return False
    if endpoints is not None and (not walk or (walk[0], walk[-1]) != endpoints):
        return False
    return True


def _repair(
    g: Graph, seq: list[int], cyclic: bool, stats: RotationStats | None
) -> tuple[int, ...]:
    """Rotate away the virtual edges of a spanning sequence, first one first.

    Each rotation removes at least one virtual edge, so k vertices need at
    most k rotations; the loop raises once it has run past that cap.
    """
    k = len(seq)
    top = k if cyclic else k - 1
    exchange = _rotate_cycle if cyclic else _apply_crossing
    masks = g._masks  # the sequence holds only vertex ids of g
    first = 0  # every edge before position `first` is genuine
    for _ in range(k + 1):
        bad = next(
            (i for i in range(first, top) if not masks[seq[i]] >> seq[(i + 1) % k] & 1),
            None,
        )
        if bad is None:
            return tuple(seq)
        # The crossing: smallest j != bad with seq[j] ~ seq[bad] and
        # seq[j+1] ~ seq[bad+1]; j = bad fails the first test, as g has no loops.
        u, v = masks[seq[bad]], masks[seq[(bad + 1) % k]]
        j = next((j for j in range(top) if u >> seq[j] & 1 and v >> seq[(j + 1) % k] & 1), None)
        if j is None:
            raise FalsificationError(
                "no crossing exchange for a virtual edge despite the "
                "degree-sum condition",
                {"sequence": list(seq), "virtual_at": bad},
            )
        seq = exchange(seq, bad, j)
        if not cyclic:
            # A path exchange leaves edges before min(bad, j) alone, puts
            # genuine edges at bad and j, and reverses the genuine edges
            # between j and bad if j < bad: all is genuine up to bad.  A
            # cycle's rotation moves every position, so it rescans.
            first = bad + 1
        if stats is not None:
            stats.rotations += 1
    raise FalsificationError(
        "rotation cap exceeded under a verified degree-sum condition",
        {"sequence": list(seq)},
    )


def check_endpoints(g: Graph, x: int, y: int) -> None:
    """Raise PreconditionError unless x and y are two distinct vertices of g."""
    if x == y:
        raise PreconditionError("endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise PreconditionError("endpoint out of range")


def ore_ham_path(
    g: Graph, x: int, y: int, stats: RotationStats | None = None
) -> tuple[int, ...]:
    """Hamiltonian (x,y)-path under the degree-sum n+1 condition.

    Never searches: each rotation removes one virtual edge for good, so
    at most n-1 rotations happen.
    """
    check_endpoints(g, x, y)
    pair = check_ore_plus(g)
    if pair is not None:
        raise PreconditionError(f"degree-sum condition fails at pair {pair}")
    seq = [x] + sorted(set(range(g.n)) - {x, y}) + [y]
    return _repair(g, seq, cyclic=False, stats=stats)


def moon_moser_cycle(
    g: Graph, sides: VertexSetPair, stats: RotationStats | None = None
) -> tuple[int, ...]:
    """Hamiltonian cycle of a balanced bipartite graph whose nonadjacent
    cross pairs satisfy d(x)+d(y) >= m+1 (m = side size)."""
    left, right = sorted(sides.left), sorted(sides.right)
    m = len(left)
    if m != len(right) or m < 2:
        raise PreconditionError("sides must be balanced with at least 2 each")
    if set(left) | set(right) != set(range(g.n)):
        raise PreconditionError("sides must cover the vertex set")
    if edge := edge_inside(g, left, right):
        raise PreconditionError("edge {}-{} inside one side".format(*edge))
    # The checks above bound d(u) by m on the left: no scan index is negative.
    right_mask = sum(1 << v for v in right)
    if light := _light_pair(g, left, lambda u: right_mask, m):
        raise PreconditionError(
            "cross degree-sum condition fails at pair ({},{})".format(*light)
        )
    seq = [v for pair in zip(left, right) for v in pair]
    return _repair(g, seq, cyclic=True, stats=stats)
