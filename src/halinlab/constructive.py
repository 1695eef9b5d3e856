"""Deterministic builders behind the constructive existence arguments.

Each builder replaces an asymptotic parameter cascade with an explicit
integer plan whose feasibility is a checkable precondition, then follows
the underlying proof verbatim: greedy block decompositions fill minimum
sizes first and hand the remainder out one vertex at a time left to
right, and every anchor choice takes the lexicographically smallest valid
candidate.  A guaranteed step that fails while its verified preconditions
hold raises FalsificationError and is never silently retried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certify import StarPack, TreeCertificate
from .errors import FalsificationError, PreconditionError
from .graph import Edge, Graph


# -- dense-host HIST ----------------------------------------------------------


@dataclass(frozen=True)
class DenseHistParams:
    """Slack fraction and prescribed high-degree root.

    dense_hist accepts alpha_prime only in the open interval (0, 0.5),
    whatever the host.  The guaranteed regime needs alpha_prime < 1/24 and
    n * (1/3 - 8 * alpha_prime) > 6; outside it the builder still runs,
    but an absorption failure is reported as an infeasible instance
    instead of a falsification.
    """

    alpha_prime: float
    root: int


def _check_dense_host(h: Graph, alpha_prime: float) -> None:
    """alpha' in (0, 0.5), and min degree at least ceil((2/3 - alpha') n)."""
    if not 0 < alpha_prime < 0.5:  # NaN fails it too
        raise PreconditionError("alpha_prime must be in (0, 0.5)")
    delta, floor = h.min_degree(), math.ceil((2 / 3 - alpha_prime) * h.n)
    if delta < floor:
        raise PreconditionError(f"host min degree {delta} below required {floor}")


def absorb_pair(
    h: Graph, v1: set[int] | frozenset[int], alpha_prime: float
) -> tuple[int, int, int]:
    """Two outside vertices with a common neighbor inside v1.

    Preconditions: those of _check_dense_host, v1 a set of host vertices,
    |v1| at least (2/3 - a')n - 1 with |v1| = n (mod 2), and the outside
    even and nonempty.  Returns the lexicographically first (u, w, anchor).
    """
    n = h.n
    v1 = frozenset(v1)
    _check_dense_host(h, alpha_prime)
    if any(not 0 <= v < n for v in v1):
        raise PreconditionError("inside set must hold vertices of the host")
    if len(v1) < (2 / 3 - alpha_prime) * n - 1:
        raise PreconditionError("inside set too small")
    if len(v1) % 2 != n % 2:
        raise PreconditionError("inside set has the wrong parity")
    inside = sum(1 << v for v in v1)
    v0 = [v for v in range(n) if not inside >> v & 1]
    if not v0 or len(v0) % 2 != 0:
        raise PreconditionError("outside set must be nonempty and even")
    return _first_absorbable_pair(h, inside, v0, alpha_prime)


def _first_absorbable_pair(
    h: Graph, inside: int, outside: list[int], alpha_prime: float
) -> tuple[int, int, int]:
    """absorb_pair's scan, on an inside mask and its sorted complement."""
    for i, u in enumerate(outside):
        reach = h.neighbor_mask(u) & inside
        for w in outside[i + 1 :]:
            common = reach & h.neighbor_mask(w)
            if common:
                return (u, w, (common & -common).bit_length() - 1)
    n = h.n
    if 8 * alpha_prime + 6 / n < 1 / 3:
        raise FalsificationError(
            "no absorbable pair despite the guaranteed regime",
            {
                "n": n,
                "alpha_prime": alpha_prime,
                "v1": [v for v in range(n) if inside >> v & 1],
            },
        )
    raise PreconditionError(
        "no absorbable pair; instance is outside the guaranteed regime"
    )


def dense_hist(h: Graph, params: DenseHistParams) -> TreeCertificate:
    """HIST of a dense host: a parity-adjusted star at the root, then
    repeated absorption of outside pairs through common neighbors.

    Postconditions (asserted): root tree-degree >= (2/3 - a')n - 1 and
    at most (1/6 + a'/2)n + 2 internal vertices.
    """
    n = h.n
    root = params.root
    if not 0 <= root < n:
        raise PreconditionError("root out of range")
    _check_dense_host(h, params.alpha_prime)
    neighbors = sorted(h.neighbors(root))
    if n % 2 != (len(neighbors) + 1) % 2:
        neighbors = neighbors[:-1]  # drop the largest id to fix parity
    if len(neighbors) < 3:
        raise PreconditionError("root degree too small for a star center")
    edges: list[Edge] = [(root, w) for w in neighbors]
    # The star meets absorb_pair's size and parity preconditions, and each
    # absorption keeps them, so the scan runs without re-checking; it
    # restarts from the first outside pair, which the grown inside set may
    # have made absorbable.
    inside = 1 << root | sum(1 << w for w in neighbors)
    outside = [v for v in range(n) if not inside >> v & 1]
    while outside:
        u, w, anchor = _first_absorbable_pair(h, inside, outside, params.alpha_prime)
        edges += [(anchor, u), (anchor, w)]
        inside |= 1 << u | 1 << w
        outside.remove(u)
        outside.remove(w)
    tree = TreeCertificate(n, edges)
    root_deg = tree.degree(root)
    if root_deg < (2 / 3 - params.alpha_prime) * n - 1:
        raise FalsificationError(
            "root degree postcondition failed", {"deg": root_deg, "n": n}
        )
    internal = len(tree.internal())
    if internal > (1 / 6 + params.alpha_prime / 2) * n + 2:
        raise FalsificationError(
            "internal-count postcondition failed", {"internal": internal, "n": n}
        )
    return tree


# -- complete bipartite HIST with prescribed leaf imbalance -------------------


@dataclass(frozen=True)
class BipartiteHistPlan:
    """Hubs, block-size cap and target leaf imbalance (left minus right)."""

    hub_count: int  # spine hubs on the A side
    block_bound: int  # max vertices any block may hold
    imbalance: int  # |L cap A| - |L cap B|, nonnegative


def bipartite_plan_error(a: int, b: int, plan: BipartiteHistPlan) -> str | None:
    """None if the plan is feasible for K_{a,b}, else the reason."""
    d, dd, ell = plan.hub_count, plan.block_bound, plan.imbalance
    if a != b:
        return "sides must be balanced"
    if d < 1 or dd < 3 or ell < 0:
        return "need hub_count >= 1, block_bound >= 3, imbalance >= 0"
    if not 2 * d + 1 <= b:
        return "right side too small for the hub chain"
    if b > (dd - 1) * d + 1:
        return "right side exceeds chained block capacity"
    cover = a - d
    if cover < 2 * (ell + d):
        return "left side too small to feed every cover hub"
    # The cover blocks always have room: with a == b and the chained
    # capacity met, their capacity exceeds the cover by d + ell * dd.
    return None


def _fill_blocks(total: int, minima: list[int], caps: list[int]) -> list[int]:
    """Minimum sizes first, remainder one vertex at a time left to right."""
    sizes = list(minima)
    rem = total - sum(sizes)
    if rem < 0:
        raise PreconditionError("blocks over-constrained")
    if rem > sum(max(cap - size, 0) for size, cap in zip(sizes, caps)):
        raise PreconditionError("block capacity exhausted")
    i = 0
    while rem > 0:
        if sizes[i] < caps[i]:
            sizes[i] += 1
            rem -= 1
        i = (i + 1) % len(sizes)
    return sizes


def _chained_blocks(hubs: list[int], pool: list[int], bound: int) -> list[Edge]:
    """Spine edges of the chained blocks hanging off `hubs`.

    The first len(hubs) - 1 pool vertices form the chain; block i holds
    chain[i-1], chain[i] and fresh pool vertices up to its filled size
    (at least 3, at most `bound`), so consecutive blocks share one chain
    vertex and the whole pool is used.
    """
    d = len(hubs)
    chain, free = pool[: d - 1], iter(pool[d - 1 :])
    sizes = _fill_blocks(len(pool) + d - 1, [3] * d, [bound] * d)
    edges: list[Edge] = []
    for i, (hub, size) in enumerate(zip(hubs, sizes)):
        members = chain[max(i - 1, 0) : i + 1]
        members += [next(free) for _ in range(size - len(members))]
        edges.extend((hub, m) for m in members)
    return edges


def _hang(anchors: list[int], pool: list[int], sizes: list[int]) -> list[Edge]:
    """Each anchor takes the next `size` pool vertices, in order."""
    edges: list[Edge] = []
    pos = 0
    for anchor, size in zip(anchors, sizes):
        edges.extend((anchor, v) for v in pool[pos : pos + size])
        pos += size
    return edges


def bipartite_hist(a_size: int, b_size: int, plan: BipartiteHistPlan) -> TreeCertificate:
    """HIST of K_{a,b} whose leaf imbalance (A minus B) is exactly the
    planned value, with max degree at most block_bound + 1.

    Vertices 0..a-1 form side A, a..a+b-1 side B.  The A hubs carry
    chained blocks of B; the B-side hubs (chain vertices plus
    imbalance+1 fresh ones) cover the non-hub part of A.
    """
    reason = bipartite_plan_error(a_size, b_size, plan)
    if reason is not None:
        raise PreconditionError(f"infeasible plan: {reason}")
    d, dd, ell = plan.hub_count, plan.block_bound, plan.imbalance
    b_all = list(range(a_size, a_size + b_size))
    edges = _chained_blocks(list(range(d)), b_all, dd)

    # Cover hubs on the B side: chain vertices first, then the smallest
    # fresh ids; chain hubs already carry two spine edges, so their cover
    # blocks stay one below the bound.
    cover_hubs = b_all[: d + ell]
    cover = list(range(d, a_size))
    caps = [dd - 1] * (d - 1) + [dd] * (ell + 1)
    cover_sizes = _fill_blocks(len(cover), [2] * (d + ell), caps)
    edges += _hang(cover_hubs, cover, cover_sizes)
    return TreeCertificate(a_size + b_size, edges)


# -- half-complete tripartite HIST -------------------------------------------


@dataclass(frozen=True)
class TripartiteHistPlan:
    hub_count: int  # spine hubs on the B side
    a_block_bound: int  # cap for chained A blocks
    f_block_bound: int  # cap for F blocks (no lower bound)


def tripartite_host(a_size: int, b_size: int, f_size: int) -> Graph:
    """Complete between A and B and between B and F; empty between A and F."""
    if min(a_size, b_size, f_size) < 0:
        raise PreconditionError("part sizes must be nonnegative")
    n = a_size + b_size + f_size
    b_ids = range(a_size, a_size + b_size)
    return Graph(n, ((u, v) for v in b_ids for u in range(n) if u not in b_ids))


def tripartite_plan_error(
    a: int, b: int, f: int, l: int, plan: TripartiteHistPlan
) -> str | None:
    d, da, df = plan.hub_count, plan.a_block_bound, plan.f_block_bound
    if d < 1 or da < 3 or df < 1:
        return "need hub_count >= 1, a_block_bound >= 3, f_block_bound >= 1"
    if a < 2 * d + 1:
        return "A too small for the chained blocks"
    if a > (da - 1) * d + 1:
        return "A exceeds chained block capacity"
    if f < 1 or f > df * d:
        return "F outside block capacity"
    if l < 0:
        return "l must be nonnegative"
    lp = a + f - b - l
    if lp < 1:
        return "imbalance absorbs the whole surplus (need l' >= 1)"
    if lp > f + (a - d):
        return "not enough hub candidates in A and F"
    if b < 2 * d + 2 * lp + 1:
        return "B cannot reserve hubs, pairs and leftovers"
    f_leaves = f - min(lp, f)
    if f_leaves > b - d:
        return "too few B leaves to pair with the F leaves"
    return None


def tripartite_hist(
    a_size: int,
    b_size: int,
    f_size: int,
    l: int,
    plan: TripartiteHistPlan,
) -> tuple[TreeCertificate, tuple[int, ...]]:
    """HIST of the half-complete tripartite host plus its companion path.

    The tree satisfies |L cap B| = |L cap (A u F)| - l exactly.  When F
    keeps any leaves, the returned path alternates those F leaves with
    equally many B leaves, starting in B and ending in F; otherwise the
    path is empty.
    """
    reason = tripartite_plan_error(a_size, b_size, f_size, l, plan)
    if reason is not None:
        raise PreconditionError(f"infeasible plan: {reason}")
    d, da, df = plan.hub_count, plan.a_block_bound, plan.f_block_bound
    lp = a_size + f_size - b_size - l

    a_ids = list(range(a_size))
    b_ids = list(range(a_size, a_size + b_size))
    f_ids = list(range(a_size + b_size, a_size + b_size + f_size))
    b_hubs = b_ids[:d]

    # F blocks: plain partition, one block per B hub (may be empty).
    edges = _hang(b_hubs, f_ids, _fill_blocks(f_size, [0] * d, [df] * d))
    # Chained A blocks hang off the same hubs.
    edges += _chained_blocks(b_hubs, a_ids, da)

    # Secondary hubs absorbing the surplus, F first, then non-chain A;
    # each takes the next pair of non-hub B vertices.
    from_f = min(lp, f_size)
    sec_hubs = f_ids[:from_f] + a_ids[d : d + lp - from_f]
    pair_pool = b_ids[d:]
    edges += _hang(sec_hubs, pair_pool, [2] * lp)

    # Leftover B hangs from the A spine; the smallest non-chain A vertex
    # takes the last block, which must hold at least two vertices.
    leftover = pair_pool[2 * lp :]
    minima = [1] * (d - 1) + [2]
    left_sizes = _fill_blocks(len(leftover), minima, [len(leftover)] * d)
    edges += _hang(a_ids[:d], leftover, left_sizes)

    tree = TreeCertificate(a_size + b_size + f_size, edges)

    leaves = tree.leaves()
    f_leaves = [v for v in f_ids if v in leaves]
    b_leaves = [v for v in b_ids if v in leaves][: len(f_leaves)]
    if len(b_leaves) < len(f_leaves):
        raise FalsificationError(
            "companion path ran out of B leaves",
            {"f_leaves": len(f_leaves), "b_leaves": len(b_leaves)},
        )
    return tree, tuple(v for pair in zip(b_leaves, f_leaves) for v in pair)


# -- matching lower bound -----------------------------------------------------


def matching_lower_bound(g: Graph) -> StarPack:
    """Greedy matching of size at least e(g) / (2 * max degree).

    Follows the inductive argument: take the smallest remaining edge,
    delete both endpoints, recurse.  Each round discards at most
    2 * max_degree edges, which gives the bound.
    """
    if g.edge_count < 1:
        raise PreconditionError("graph has no edges")
    max_deg = g.max_degree()
    chosen: list[Edge] = []
    # The smallest remaining edge always has a nondecreasing first
    # endpoint, so one ascending sweep realizes the lex-least greedy.
    taken = 0
    for u in range(g.n):
        free = 0 if taken >> u & 1 else g.neighbor_mask(u) & ~taken
        if free:
            v = free & -free
            chosen.append((u, v.bit_length() - 1))
            taken |= 1 << u | v
    pack = StarPack(g.n, [(u, (v,)) for u, v in chosen], arity=1)
    if 2 * max_deg * len(chosen) < g.edge_count:
        raise FalsificationError(
            "matching below the e/(2*maxdeg) bound",
            {"size": len(chosen), "edges": g.edge_count, "max_deg": max_deg},
        )
    return pack


# -- exact star packing via augmenting flow -----------------------------------


def star_pack(
    g: Graph,
    centers: set[int] | frozenset[int],
    tips_from: set[int] | frozenset[int],
    arity: int,
) -> StarPack | None:
    """Vertex-disjoint stars, one per center with `arity` tips drawn from
    `tips_from`; None iff no such family exists.

    Decided exactly by augmenting paths on the degree-constrained
    bipartite network, so the usual sufficient degree condition
    (every center sees at least arity * |centers| tips) becomes a
    provable consequence rather than an assumption.
    """
    centers = sorted(centers)
    tip_pool = frozenset(tips_from)
    if set(centers) & tip_pool:
        raise PreconditionError("centers and tip pool must be disjoint")
    if any(not 0 <= v < g.n for v in tip_pool.union(centers)):
        raise PreconditionError("centers and tips must be vertices of the host")
    if arity < 1:
        raise PreconditionError("arity must be positive")
    pool = sum(1 << t for t in tip_pool)
    tip_of: dict[int, int] = {}  # tip -> center currently using it

    def augment(root: int) -> bool:
        """One augmenting path from root, depth first on an explicit stack.

        Each frame is [center, the tip being tried].  `banned` holds every
        tip tried so far in this path search, so a frame's next tip is the
        lowest pool neighbour of its center outside `banned`; a taken tip
        reroutes through its owner's frame.
        """
        banned = 0
        stack = [[root, None]]
        while stack:
            top = stack[-1]
            untried = g.neighbor_mask(top[0]) & pool & ~banned
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            banned |= low
            t = top[1] = low.bit_length() - 1
            owner = tip_of.get(t)
            if owner is not None:
                stack.append([owner, None])
                continue
            # A free tip: every frame takes the tip it tried.
            for c, t in stack:
                tip_of[t] = c
            return True
        return False

    for c in centers:
        for _ in range(arity):
            if not augment(c):
                return None
    stars: dict[int, list[int]] = {c: [] for c in centers}
    for t, c in tip_of.items():
        stars[c].append(t)
    return StarPack(g.n, stars.items(), arity)
