"""Exact optimum for small instances.

The optimum is found by assigning every non-terminal vertex to exactly one
commodity and charging each commodity the shortest walk from its source to
its sink through its assigned set, measured in the BFS metric. Shortest
walks over a fixed set are Hamiltonian-path dynamic programs over subsets
(closed tours for depot commodities), and the assignment itself is a
partition dynamic program over submasks. In a metric a walk covering a
superset never costs less, so some optimal solution induces such an
assignment; the relaxed-oracle test in the suite spot-checks this reasoning.

Terminal-free pendant trees are stripped first: non-terminal vertices of
degree 1, repeatedly, each with the neighbour it hung from. No walk starts or
ends in such a tree, so every solution crosses each of its edges at least
twice, and a depth-first tour from the kernel vertex it hangs from (its
anchor) crosses each exactly twice: OPT = OPT(kernel) + 2 per stripped
vertex. The DPs run on the instance's own distances with only the kernel's
free vertices, then each anchor's tree goes back, as one DFS preorder
(children ascending), into the first order by commodity index that holds the
anchor: right after its first occurrence, or just before it when that
occurrence ends a longer order, and a lone depot order (s,) becomes
(s, *tree, s). The oracle limits still count every free vertex of the
instance.

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
submask that reaches the minimum. So among tied optima the kernel's
assignment is the largest in free-vertex bitmasks, compared from the last
commodity first, and the stripped trees then follow the placement above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OracleLimitError
from .graphs import Graph, descend
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


def _pendant_parents(g: Graph, terminals: frozenset[int]) -> dict[int, int]:
    """Strip non-terminal vertices of degree 1 until none is left, and map
    each to its parent, the one neighbour left when it went.

    In a connected graph with a terminal neither the stripped set nor any
    parent depends on the stripping order: a parent is the neighbour towards
    the tree's anchor.
    """
    degree = [len(ns) for ns in g.adj]
    stack = [v for v in range(g.n) if degree[v] == 1 and v not in terminals]
    parent: dict[int, int] = {}
    while stack:
        v = stack.pop()
        (p,) = (u for u in g.adj[v] if u not in parent)
        parent[v] = p
        degree[p] -= 1
        if degree[p] == 1 and p not in terminals:
            stack.append(p)
    return parent


def _splice_trees(parent: dict[int, int], assignment: list[set[int]], orders: list[list[int]]) -> None:
    """Put each anchor's pendant tree, as one DFS preorder, into the orders
    and the assignment, in place, by the placement in the module docstring."""
    children: dict[int, list[int]] = {}
    for v in sorted(parent):
        children.setdefault(parent[v], []).append(v)
    for a in sorted(set(children) - set(parent)):
        tree, stack = [], children[a][::-1]
        while stack:
            v = stack.pop()
            tree.append(v)
            stack.extend(children.get(v, ())[::-1])
        i = next(i for i, order in enumerate(orders) if a in order)
        order = orders[i]
        j = order.index(a)
        at = j if j and j == len(order) - 1 else j + 1
        order[at:at] = tree if len(order) > 1 else [*tree, a]
        assignment[i].update(tree)


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
    parent = _pendant_parents(g, inst.terminals)
    free = [v for v in free if v not in parent]   # the kernel's free vertices
    f = len(free)
    dist = np.array(g.dists, dtype=float)
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

    assignment = [{free[j] for j in range(f) if masks[i] >> j & 1} for i in range(k)]
    orders = [list(tables[i][1](masks[i])) for i in range(k)]
    _splice_trees(parent, assignment, orders)
    return ExactResult(int(total) + 2 * len(parent), tuple(map(frozenset, assignment)), tuple(map(tuple, orders)))


def reconstruct_walks(inst: AnyInstance, result: ExactResult) -> Solution:
    """Expand an oracle result into graph walks via shortest paths."""
    g = inst.graph
    walks = []
    cost = 0
    for order in result.orders:
        walk = [order[0]]
        for a, b in zip(order, order[1:]):
            walk.extend(descend(g, g.dists[b], a)[1:])
        walks.append(tuple(walk))
        cost += len(walk) - 1
    return Solution(tuple(walks), cost)
