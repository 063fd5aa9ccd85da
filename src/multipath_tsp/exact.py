"""Exact optimum for small instances.

The optimum is found by assigning every non-terminal vertex to exactly one
commodity and charging each commodity the shortest walk from its source to
its sink through its assigned set, measured in the BFS metric. Shortest
walks over a fixed set are Hamiltonian-path dynamic programs over subsets
(closed tours for depot commodities), and the assignment itself is a
partition dynamic program over submasks. In a metric a walk covering a
superset never costs less, so some optimal solution induces such an
assignment; the relaxed-oracle test in the suite spot-checks this reasoning.

The Held-Karp tables keep only minima: one float32 (f, 2^f) table per
commodity, best[i, mask] with the last waypoint i first, built one popcount
layer at a time by an elementwise minimum over the predecessors i, each a
gather from the contiguous row best[i] at the layer's masks with one bit
cleared. A waypoint order is rebuilt only for the mask the partition DP
picks, by an argmin per step from the sink back; argmin keeps the lowest
index among ties. float32 is exact here: every entry is INF or a whole
number of at most LIMIT_DP + 1 legs of at most n - 1 edges each, far below
2^24 for any graph whose n x n distance matrix fits in memory, so every sum
and minimum is exact.

The partition DP keeps only minima: prefix[i][mask] is the cheapest cover of
mask by the first i+1 commodities, one min-plus step per commodity over
cached popcount blocks (row r of block p holds the 2^p submasks of the r-th
mask of popcount p as uint16, 3^f pairs over all blocks). The last commodity
needs no step. The way back scans the submasks of one mask per commodity,
from the full mask and the last commodity down, and takes the largest
submask that reaches the minimum. So among tied optima the assignment is the
largest in free-vertex bitmasks, compared from the last commodity first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleLimitError
from .graphs import all_pairs_distances, descend
from .instances import AnyInstance, Solution

INF = float("inf")
PAIR_CHUNK = 1 << 15  # (mask, submask) pairs per chunk of a min-plus step; bounds the temporaries
LIMIT_DP = 14  # most free vertices the partition DP takes, whatever limit_free is


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
def _submask_blocks(f: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every (mask, submask) pair over f bits, 3^f of them, one block per popcount.

    Block p is (masks, subs): the masks of popcount p in increasing order,
    and a (len(masks), 2^p) uint16 array whose row r holds the submasks of
    masks[r] in increasing order (sub j puts bit q of j on the q-th set bit
    of the mask). Read-only once built, since the blocks are shared by every
    call.
    """
    blocks = []
    for p, masks in enumerate(_popcount_layers(f)):
        bits = masks[:, None] >> np.arange(f) & 1
        pos = np.nonzero(bits)[1].reshape(len(masks), p)   # set bits, lowest first
        subs = np.zeros((len(masks), 1 << p), dtype=np.uint16)
        for q in range(p):
            bit = (1 << pos[:, q:q + 1]).astype(np.uint16)
            np.bitwise_or(subs[:, :1 << q], bit, out=subs[:, 1 << q:2 << q])
        masks = masks.astype(np.uint16)
        masks.flags.writeable = subs.flags.writeable = False
        blocks.append((masks, subs))
    return tuple(blocks)


def _row_chunks(f: int):
    """The rows of every block, in slices of at most PAIR_CHUNK pairs (one row at least)."""
    for masks, subs in _submask_blocks(f):
        rows = max(1, PAIR_CHUNK // subs.shape[1])
        for lo in range(0, len(masks), rows):
            yield masks[lo:lo + rows], subs[lo:lo + rows]


def _walk_tables(dist: np.ndarray, s: int, t: int, free: list[int], layers: list[np.ndarray]):
    """Held-Karp tables: best[i, mask] = cheapest s -> free[i] path visiting mask.

    Layer by layer, best[j, mask] is the minimum over i of
    best[i, mask ^ 1 << j] + d(free[i], free[j]); entries with i outside
    that mask are INF. Only minima are stored, so order(mask) rebuilds one
    waypoint order by an argmin per step, which keeps the lowest index among
    ties. Returns (cost per mask, waypoint order per mask) for ending at the
    commodity's own sink (s == t means the walk closes back at s).
    """
    f = len(free)
    cols = np.arange(f)
    bits = 1 << cols
    d_free = dist[np.ix_(free, free)].astype(np.float32)
    d_sink = dist[free, t].astype(np.float32)
    best = np.full((f, 1 << f), INF, dtype=np.float32)
    best[cols, bits] = dist[s, free]
    for masks in layers[2:]:
        idx = masks[:, None] ^ bits   # idx[m, j] = mask ^ 1 << j
        cur = np.full(idx.shape, INF, dtype=np.float32)
        for i in range(f):
            cand = best[i][idx]
            cand += d_free[i]
            np.minimum(cur, cand, out=cur)
        best[:, masks] = cur.T
    cost = np.full(1 << f, INF, dtype=np.float32)
    for i in range(f):
        np.minimum(cost, best[i] + d_sink[i], out=cost)
    cost = cost.astype(float)
    cost[0] = dist[s, t]

    def order(mask: int) -> tuple[int, ...]:
        seq = []
        if mask:
            # the last waypoint before the sink, then each predecessor in turn
            j = int((best[:, mask] + d_sink).argmin())
            seq.append(free[j])
            mask ^= 1 << j
            while mask:
                j = int((best[:, mask] + d_free[:, j]).argmin())
                seq.append(free[j])
                mask ^= 1 << j
            seq.reverse()
        return (s,) if s == t and not seq else (s, *seq, t)

    return cost, order


def _cover_step(prev: np.ndarray, cost_i: np.ndarray, f: int) -> np.ndarray:
    """Min-plus step: cur[mask] = min over sub of prev[mask ^ sub] + cost_i[sub]."""
    cur = np.empty(1 << f)
    for masks, subs in _row_chunks(f):
        cand = prev[masks[:, None] ^ subs]
        cand += cost_i[subs]
        cur[masks] = cand.min(axis=1)
    return cur


def _best_split(prev: np.ndarray, cost_i: np.ndarray, mask: int, f: int) -> int:
    """The largest sub minimizing prev[mask ^ sub] + cost_i[sub], or 0 when
    every candidate is INF."""
    masks, subs = _submask_blocks(f)[mask.bit_count()]
    subs = subs[np.searchsorted(masks, mask)]
    cand = prev[mask ^ subs] + cost_i[subs]
    best = cand.min()
    return 0 if best == INF else int(subs[np.flatnonzero(cand == best)[-1]])


def exact_opt(inst: AnyInstance, limit_free: int = 10) -> ExactResult:
    """Minimum total walk cost, exact, for desk-scale instances."""
    g = inst.graph
    free = sorted(set(range(g.n)) - inst.terminals)
    f = len(free)
    if f > limit_free or f > LIMIT_DP:
        raise OracleLimitError(
            f"instance too large: {f} free vertices exceed the oracle limits "
            f"(limit_free={limit_free}, limit_dp={LIMIT_DP})"
        )
    dist = np.array(all_pairs_distances(g), dtype=float)
    k = inst.k
    layers = _popcount_layers(f)
    tables = [_walk_tables(dist, s, t, free, layers) for s, t in inst.commodities]

    # partition DP: prefix[i][mask] is the cheapest way for the first i+1
    # commodities to cover mask; the last commodity needs only the full mask
    prefix = [tables[0][0]]
    for cost_i, _ in tables[1:-1]:
        prefix.append(_cover_step(prefix[-1], cost_i, f))

    mask = (1 << f) - 1
    masks = [0] * k
    for i in range(k - 1, 0, -1):
        masks[i] = _best_split(prefix[i - 1], tables[i][0], mask, f)
        mask ^= masks[i]
    masks[0] = mask
    total = sum(tables[i][0][masks[i]] for i in range(k))   # whole numbers, so the sum is exact

    assignment = tuple(frozenset(free[j] for j in range(f) if masks[i] >> j & 1) for i in range(k))
    orders = tuple(tables[i][1](masks[i]) for i in range(k))
    return ExactResult(int(total), assignment, orders)


def reconstruct_walks(inst: AnyInstance, result: ExactResult) -> Solution:
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
