"""Known answers computed without calling halinlab's solvers or verifiers.

Every check here works on plain Python data (vertex counts, edge lists,
neighbour bitmasks), so a defect in the package under test cannot make
its own output look right.  Each ``*_problem`` function returns None when
the object passes and a short reason string when it does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations, permutations


def masks_of(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _has(masks: list[int], u: int, v: int) -> bool:
    return 0 <= u < len(masks) and 0 <= v < len(masks) and bool(masks[u] >> v & 1)


# -- Hamiltonian paths ---------------------------------------------------------


def ham_path_exists(n: int, edges, x: int, y: int) -> bool:
    """Brute force over every ordering of the inner vertices."""
    masks = masks_of(n, edges)
    inner = [v for v in range(n) if v not in (x, y)]
    for order in permutations(inner):
        seq = (x, *order, y)
        if all(_has(masks, a, b) for a, b in zip(seq, seq[1:])):
            return True
    return False


def ham_path_problem(masks: list[int], path, x: int, y: int) -> str | None:
    n = len(masks)
    if len(path) != n or set(path) != set(range(n)):
        return "path does not visit every vertex once"
    if (path[0], path[-1]) != (x, y):
        return f"path runs {path[0]}..{path[-1]}, expected {x}..{y}"
    for a, b in zip(path, path[1:]):
        if not _has(masks, a, b):
            return f"path edge {a}-{b} not in host"
    return None


# -- trees, forests, leaf cycles, star packs -------------------------------------


def forest_problem(masks: list[int], edges) -> str | None:
    """Edges lie in the host and close no cycle."""
    parent = list(range(len(masks)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if not _has(masks, u, v):
            return f"edge {u}-{v} not in host"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"edge {u}-{v} closes a cycle"
        parent[ru] = rv
    return None


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def hist_problem(masks: list[int], edges) -> str | None:
    """Spanning tree of the host with no vertex of degree 2."""
    n = len(masks)
    if len(edges) != n - 1:
        return f"{len(edges)} edges for n={n}"
    bad = forest_problem(masks, edges)
    if bad:
        return bad
    if 2 in degrees(n, edges):
        return "tree has a degree-2 vertex"
    return None


def sghg_problem(masks: list[int], edges, cycle) -> str | None:
    """HIST plus a host cycle through exactly its leaves."""
    bad = hist_problem(masks, edges)
    if bad:
        return bad
    deg = degrees(len(masks), edges)
    leaves = {v for v, d in enumerate(deg) if d == 1}
    if len(cycle) < 3 or len(set(cycle)) != len(cycle) or set(cycle) != leaves:
        return "leaf cycle does not run through exactly the leaves"
    for i, u in enumerate(cycle):
        if not _has(masks, u, cycle[(i + 1) % len(cycle)]):
            return f"cycle edge {u}-{cycle[(i + 1) % len(cycle)]} not in host"
    return None


def gadget_forest_problem(
    masks: list[int], edges, inserted, components: int, degree_two: int
) -> str | None:
    """Host forest with the given number of components and degree-2
    vertices, and every inserted vertex internal."""
    bad = forest_problem(masks, edges)
    if bad:
        return bad
    deg = degrees(len(masks), edges)
    used = sum(1 for d in deg if d)
    if used - len(edges) != components:
        return f"{used - len(edges)} components, expected {components}"
    if deg.count(2) != degree_two:
        return f"{deg.count(2)} degree-2 vertices, expected {degree_two}"
    if any(deg[v] < 3 for v in inserted):
        return "an inserted vertex is not internal"
    return None


def star_pack_problem(masks: list[int], stars, arity: int, centers=None) -> str | None:
    """Vertex-disjoint host stars of one arity, on the given centers."""
    seen: set[int] = set()
    for c, tips in stars:
        if len(tips) != arity:
            return f"star at {c} has {len(tips)} tips, expected {arity}"
        members = {c, *tips}
        if len(members) != arity + 1 or members & seen:
            return f"star at {c} overlaps another"
        seen |= members
        if not all(_has(masks, c, t) for t in tips):
            return f"star at {c} uses a non-edge"
    if centers is not None and {c for c, _ in stars} != set(centers):
        return "stars sit on the wrong centers"
    return None


# -- the sharp complete bipartite family ---------------------------------------------


def sharpness_sides(a: int) -> tuple[int, int]:
    """K_{a,b} of the sharpness family: b = (3a-1)/2 for odd a, (3a-2)/2 for even a."""
    return a, (3 * a - 1) // 2 if a % 2 else (3 * a - 2) // 2


def balanced_hist_ruled_out(a: int, b: int) -> bool:
    """True when the side-degree count forbids a HIST of K_{a,b} with
    equally many leaves on both sides (and so any SGHG, whose leaf cycle
    alternates sides).

    Every tree edge joins the sides, so each side's tree-degree sum is
    n-1.  A side of size s with l leaves has s-l internal vertices of
    degree 3..(other side's size), so l + 3(s-l) <= n-1 <= l + other*(s-l),
    where s-l = 0 forces n-1 = l.  No common leaf count l means no
    balanced HIST.
    """
    n = a + b

    def side_allows(s: int, other: int, l: int) -> bool:
        if l == s:
            return l == n - 1
        return l + 3 * (s - l) <= n - 1 <= l + other * (s - l)

    return not any(
        side_allows(a, b, l) and side_allows(b, a, l) for l in range(2, min(a, b) + 1)
    )


# -- certificate digests ------------------------------------------------------------


def normalize_cycle(seq) -> tuple[int, ...]:
    """Start at the smallest vertex, then head toward its smaller neighbour."""
    k = len(seq)
    i = seq.index(min(seq))
    fwd = tuple(seq[(i + j) % k] for j in range(k))
    rev = tuple(seq[(i - j) % k] for j in range(k))
    return min(fwd, rev)


def sghg_digest(host_n: int, edges, cycle) -> str:
    """First 16 hex digits of the SHA-256 of the canonical SGHG document
    (sorted keys, sorted edges, normalized cycle, compact separators)."""
    record = {
        "kind": "sghg",
        "payload": {
            "host_n": host_n,
            "leaf_cycle": list(normalize_cycle(list(cycle))),
            "tree_edges": sorted(sorted(e) for e in edges),
        },
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- random 3-connected hosts of the threshold experiment -----------------------------


def trial_stream(seed: int, index: int) -> random.Random:
    """The per-trial stream the experiment documents: SHA-256 of "seed:index"."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def trial_seed_hash(seed: int, index: int) -> str:
    return hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()[:16]


def _connected_without(masks: list[int], removed: int) -> bool:
    full = ((1 << len(masks)) - 1) & ~removed
    if not full:
        return True
    start = full & -full
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        nxt &= full & ~seen
        seen |= nxt
        frontier = nxt
    return seen == full


def three_connected(masks: list[int]) -> bool:
    """Vertex connectivity >= 3, with K_n counting as (n-1)-connected.

    Three common neighbours for every non-adjacent pair give three
    disjoint paths between them, which settles dense hosts at once;
    otherwise every removal of at most two vertices is tried.
    """
    n = len(masks)
    if n <= 3:
        return False
    if all(
        _has(masks, u, v) or (masks[u] & masks[v]).bit_count() >= 3
        for u, v in combinations(range(n), 2)
    ):
        return True
    removals = [0, *(1 << u for u in range(n))]
    removals += [(1 << u) | (1 << v) for u, v in combinations(range(n), 2)]
    return all(_connected_without(masks, r) for r in removals)


def threshold_host(n: int, min_degree: int, rng: random.Random, max_attempts: int = 60):
    """The documented sampler: G(n, p) at escalating p until the host is
    3-connected with the degree floor met; None when every attempt fails."""
    if n < 4 or min_degree > n - 1:
        return None
    base_p = max(min_degree / max(n - 1, 1), 0.3)
    for attempt in range(max_attempts):
        p = min(1.0, base_p + (1.0 - base_p) * attempt / max_attempts)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        masks = masks_of(n, edges)
        if min(m.bit_count() for m in masks) >= min_degree and three_connected(masks):
            return edges
    return None


def degree_floor(n: int, fraction: float) -> int:
    return math.ceil(fraction * n)


# -- graph6 -------------------------------------------------------------------------


def graph6(n: int, edges) -> bytes:
    """Standard graph6 encoding (n <= 258047)."""
    masks = masks_of(n, edges)
    out = bytearray([n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    bits = [masks[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)
