"""Exact optimum for small instances, and exhaustive cut verification.

The optimum is found by assigning every non-terminal vertex to exactly one
commodity and charging each commodity the shortest walk from its source to
its sink through its assigned set, measured in the BFS metric. Shortest
walks over a fixed set are Hamiltonian-path dynamic programs over subsets
(closed tours for depot commodities), and the assignment itself is a
partition dynamic program over submasks. In a metric a walk covering a
superset never costs less, so some optimal solution induces such an
assignment; the relaxed-oracle test in the suite spot-checks this reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleLimitError
from .graphs import all_pairs_distances, descend
from .instances import Instance, Solution
from .lp import EPS_LP, FractionalSolution

INF = float("inf")
PAIR_CHUNK = 1 << 15  # (mask, submask) pairs per min-plus step; bounds the float temporaries


@dataclass(frozen=True)
class ExactResult:
    cost: int
    assignment: tuple[frozenset[int], ...]   # free vertices given to each commodity
    orders: tuple[tuple[int, ...], ...]      # per-commodity waypoint sequence


def _popcount_layers(f: int) -> list[np.ndarray]:
    """The masks over f bits, grouped by popcount (layer p holds popcount p)."""
    masks = np.arange(1 << f)
    count = np.zeros(1 << f, dtype=np.intp)
    for b in range(f):
        count += masks >> b & 1
    return [masks[count == p] for p in range(f + 1)]


@lru_cache(maxsize=None)
def _submask_pairs(f: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (mask, submask) pair over f bits, 3^f of them, as two uint16 arrays.

    Each bit is a ternary digit: outside the mask, in the mask only, or in
    both. Filled in place, with no temporaries, and read-only once built,
    since the arrays are shared by every call.
    """
    mask = np.zeros(3 ** f, dtype=np.uint16)
    sub = np.zeros(3 ** f, dtype=np.uint16)
    size = 1
    for b in range(f):
        bit = np.uint16(1 << b)
        np.bitwise_or(mask[:size], bit, out=mask[size:2 * size])
        np.bitwise_or(mask[:size], bit, out=mask[2 * size:3 * size])
        sub[size:2 * size] = sub[:size]
        np.bitwise_or(sub[:size], bit, out=sub[2 * size:3 * size])
        size *= 3
    mask.flags.writeable = sub.flags.writeable = False
    return mask, sub


def _walk_tables(dist: np.ndarray, s: int, t: int, free: list[int], layers: list[np.ndarray]):
    """Held-Karp tables: best[mask, j] = cheapest s -> free[j] path visiting mask.

    Layer by layer, best[mask, j] is the minimum over i of
    best[mask ^ 1 << j, i] + d(free[i], free[j]); entries with i outside
    that mask are INF, and argmin keeps the lowest i among ties. Returns
    (cost per mask, waypoint order per mask) for ending at the commodity's
    own sink (s == t means the walk closes back at s).
    """
    f = len(free)
    cols = np.arange(f)
    bits = 1 << cols
    d_free = dist[np.ix_(free, free)]
    best = np.full((1 << f, f), INF)
    parent = np.full((1 << f, f), -1, dtype=np.int8)
    best[bits, cols] = dist[s, free]
    for masks in layers[2:]:
        cand = best[masks[:, None] ^ bits]   # cand[m, j, i]
        cand += d_free.T
        arg = cand.argmin(axis=2)
        parent[masks] = arg
        best[masks] = np.take_along_axis(cand, arg[..., None], axis=2)[..., 0]
    close = best + dist[free, t]
    cost = close.min(axis=1, initial=INF)
    cost[0] = dist[s, t]
    # the last waypoint before the sink, lowest j among ties; with no free
    # vertex argmin has nothing to scan, and order(0) needs no last waypoint
    last = close.argmin(axis=1) if f else None

    def order(mask: int) -> tuple[int, ...]:
        if mask == 0:
            return (s,) if s == t else (s, t)
        seq = []
        j = int(last[mask])
        m = mask
        while j != -1:
            seq.append(free[j])
            pj = int(parent[m, j])
            m ^= 1 << j
            j = pj
        seq.reverse()
        return (s, *seq, t) if s != t else (s, *seq, s)

    return cost, order


def _cover_step(prev: np.ndarray, cost_i: np.ndarray, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus step: cur[mask] = min over sub of prev[mask ^ sub] + cost_i[sub].

    pick[mask] is the largest minimizing sub, or 0 when every candidate is INF.
    """
    pair_mask, pair_sub = _submask_pairs(f)
    chunks = [slice(lo, lo + PAIR_CHUNK) for lo in range(0, len(pair_mask), PAIR_CHUNK)]
    cur = np.full(1 << f, INF)
    for c in chunks:
        mask, sub = pair_mask[c], pair_sub[c]
        np.minimum.at(cur, mask, prev[mask ^ sub] + cost_i[sub])
    pick = np.zeros(1 << f, dtype=np.uint16)
    for c in chunks:
        mask, sub = pair_mask[c], pair_sub[c]
        cand = prev[mask ^ sub] + cost_i[sub]
        hit = (cand == cur[mask]) & (cand < INF)
        np.maximum.at(pick, mask[hit], sub[hit])
    return cur, pick


def exact_opt(inst: Instance, limit_free: int = 10, limit_dp: int = 14) -> ExactResult:
    """Minimum total walk cost, exact, for desk-scale instances."""
    g = inst.graph
    free = sorted(set(range(g.n)) - inst.terminals)
    f = len(free)
    if f > limit_free or f > limit_dp:
        raise OracleLimitError(
            f"instance too large: {f} free vertices exceed the oracle limits "
            f"(limit_free={limit_free}, limit_dp={limit_dp})"
        )
    dist = np.array(all_pairs_distances(g), dtype=float)
    k = inst.k
    layers = _popcount_layers(f)
    tables = [_walk_tables(dist, s, t, free, layers) for s, t in inst.commodities]

    # partition DP: cheapest way for the first i+1 commodities to cover mask
    prev = tables[0][0]
    choice = [None]
    for cost_i, _ in tables[1:]:
        prev, pick = _cover_step(prev, cost_i, f)
        choice.append(pick)

    mask = (1 << f) - 1
    total = prev[mask]
    masks = [0] * k
    for i in range(k - 1, 0, -1):
        masks[i] = int(choice[i][mask])
        mask ^= masks[i]
    masks[0] = mask

    assignment = tuple(frozenset(free[j] for j in range(f) if masks[i] >> j & 1) for i in range(k))
    orders = tuple(tables[i][1](masks[i]) for i in range(k))
    return ExactResult(int(total), assignment, orders)


def reconstruct_walks(inst: Instance, result: ExactResult) -> Solution:
    """Expand an oracle result into graph walks via shortest paths."""
    g = inst.graph
    dists = all_pairs_distances(g)
    walks = []
    cost = 0
    for order in result.orders:
        walk = [order[0]]
        for a, b in zip(order, order[1:]):
            walk.extend(descend(g, dists[b], a)[1:])
        walks.append(tuple(walk))
        cost += len(walk) - 1
    return Solution(tuple(walks), cost)


def brute_force_cut_check(
    inst: Instance, sol: FractionalSolution, eps: float = EPS_LP
) -> tuple[bool, tuple[int, int, frozenset[int]] | None]:
    """Verify every cut constraint by enumerating all vertex subsets.

    Returns (True, None) if for each commodity i, each vertex subset U
    avoiding the sink, and each v in U, the flow leaving U is at least the
    coverage z[i,v] minus eps. Otherwise returns the first witness (i, v, U).
    """
    n = inst.graph.n
    if n > 16:
        raise OracleLimitError("instance too large: cut enumeration is limited to 16 vertices")
    arcs = sol.digraph.arcs
    for i, (_, t) in enumerate(inst.commodities):
        flows = sol.flows[i]
        cover = sol.cover[i]
        candidates = [v for v in range(n) if v != t and cover[v] > eps]
        if not candidates:
            continue
        others = [v for v in range(n) if v != t]
        for bits in range(1, 1 << len(others)):
            members = frozenset(others[j] for j in range(len(others)) if bits >> j & 1)
            crossing = sum(flows[a] for a, (u, w) in enumerate(arcs) if u in members and w not in members)
            for v in candidates:
                if v in members and crossing < cover[v] - eps:
                    return False, (i, v, members)
    return True, None
