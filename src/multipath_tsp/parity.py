"""Odd-degree sets and minimum T-joins in unit-cost graphs.

Extra edges are plain lists of (u, v) copies: `odd_vertices` toggles both
ends of each copy, so it costs the edges, not the vertices.

The minimum join is computed the classical way (Edmonds and Johnson, 1973):
exact minimum-weight perfect matching of the odd set T under BFS distances,
then the symmetric difference of the matched shortest paths. The matching is
first sought by `certified_pairs`: the least assignment of T to itself without
fixed points bounds the matching from below, and its permutation is repaired
into a matching (2-cycles as pairs, longer even cycles split into their
cheaper alternate half, the vertices of odd cycles matched by `min_weight_pairs`,
a DP over bitmasks whose states grow like 2^k, so only up to `MATCH_DP_MAX`
vertices). A repair that meets the bound is optimal. Sets the bound cannot
certify, or whose odd cycles hold more than `MATCH_DP_MAX` vertices, go to
`odd_set_pairs`: the matching LP with Edmonds' odd-set rows (1965) on HiGHS,
seeded with the assignment's odd cycles and then separated exactly by the
Padberg-Rao odd cuts of a Gomory-Hu tree (1982).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import InternalError, LpError
from .graphs import FLOW_EPS, BidirectedGraph, CapacitatedNetwork, Graph, descend, min_cut
from .lp import EPS_OBJ, EPS_SEP, MAX_CUT_ROUNDS, HighsModel, kHighsInf, linear_sum_assignment

MATCH_DP_MAX = 12  # most odd-cycle vertices the bitmask DP matches; the odd-set LP takes over above it


@dataclass(frozen=True)
class TJoin:
    """Edge ids of a join: its odd-degree vertices are the target set."""

    edges: frozenset[int]

    @property
    def cost(self) -> int:
        return len(self.edges)


def odd_vertices(edges) -> frozenset[int]:
    """Vertices of odd degree in a list of (u, v) edge copies."""
    odd: set[int] = set()
    for u, v in edges:
        odd ^= {u, v}
    return frozenset(odd)


def _pair_cost(weight, memo: dict[int, tuple[int, int]], mask: int) -> int:
    """Least weight of a perfect matching of the vertices in `mask`.

    The memo maps a mask to (cost, partner of its lowest vertex). The lowest
    vertex is paired with each other vertex in increasing order, and only a
    strictly cheaper pairing replaces the one kept, so ties go to the lowest
    partner.
    """
    hit = memo.get(mask)
    if hit is not None:
        return hit[0]
    low = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << low)
    row = weight[low]
    best = partner = None
    todo = rest
    while todo:
        bit = todo & -todo
        j = bit.bit_length() - 1
        c = row[j] + _pair_cost(weight, memo, rest ^ bit)
        if best is None or c < best:
            best, partner = c, j
        todo ^= bit
    memo[mask] = (best, partner)
    return best


def min_weight_pairs(weight) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching of 0..t-1 under the symmetric `weight`
    matrix, by a DP over bitmasks of the unmatched vertices (see `_pair_cost`).

    Returns the pairs (a, b), a < b, in increasing order of a, read back from
    the full mask.
    """
    memo = {0: (0, -1)}
    mask = (1 << len(weight)) - 1
    _pair_cost(weight, memo, mask)
    pairs = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        partner = memo[mask][1]
        pairs.append((low, partner))
        mask ^= (1 << low) | (1 << partner)
    return pairs


def assignment_cycles(weight) -> list[list[int]]:
    """The cycles of the least assignment of 0..t-1 to itself without fixed
    points under the `weight` matrix (t at least 2), each listed in assignment
    order from its lowest vertex, in increasing order of that vertex."""
    padded = np.array(weight, dtype=float)
    padded.flat[::len(padded) + 1] = np.inf  # the diagonal: forbids fixed points
    perm = linear_sum_assignment(padded)[1].tolist()
    cycles = []
    seen = [False] * len(perm)
    for low, succ in enumerate(perm):
        if seen[low]:
            continue
        cycle = [low]
        while succ != low:
            seen[succ] = True
            cycle.append(succ)
            succ = perm[succ]
        cycles.append(cycle)
    return cycles


def certified_pairs(weight, cycles: list[list[int]] | None = None) -> list[tuple[int, int]] | None:
    """Minimum-weight perfect matching of 0..t-1 under the symmetric integer
    `weight` matrix (t even, at least 2) if an assignment bound certifies it,
    else None. `cycles` may carry the `assignment_cycles` of `weight`.

    A perfect matching used in both directions is an assignment without fixed
    points, so the least such assignment, A, is at most twice the matching
    and, weights being integers, (A + 1) // 2 bounds it from below. Its
    cycles are repaired into a matching: a 2-cycle is a pair, a longer even
    cycle gives its cheaper alternate half (on a tie, the half that pairs the
    cycle's lowest vertex with its lower neighbour on the cycle), and the
    vertices of all odd cycles are matched by `min_weight_pairs` if there are
    at most `MATCH_DP_MAX` of them. The repair is returned, as pairs (a, b)
    with a < b, only if it weighs at most the bound.
    """
    if cycles is None:
        cycles = assignment_cycles(weight)
    assigned = 0
    pairs = []
    odd = []
    total = 0
    for cycle in cycles:
        if len(cycle) == 2:
            low, succ = cycle
            pairs.append((low, succ))
            total += weight[low][succ]
            assigned += 2 * weight[low][succ]
            continue
        around = sum(weight[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assigned += around
        if len(cycle) % 2:
            odd += cycle
            continue
        half = list(zip(cycle[0::2], cycle[1::2]))
        other = list(zip(cycle[1::2], cycle[2::2] + cycle[:1]))
        cost = sum(weight[a][b] for a, b in half)
        if around - cost < cost or (around - cost == cost and cycle[-1] < cycle[1]):
            half, cost = other, around - cost
        pairs += [(a, b) if a < b else (b, a) for a, b in half]
        total += cost
    if len(odd) > MATCH_DP_MAX:
        return None
    if odd:
        odd.sort()
        for i, j in min_weight_pairs([[weight[a][b] for b in odd] for a in odd]):
            pairs.append((odd[i], odd[j]))
            total += weight[odd[i]][odd[j]]
    return pairs if total <= (assigned + 1) // 2 else None


def _side(t: int, members) -> np.ndarray:
    """A vertex set of 0..t-1 as a boolean mask that leaves out vertex 0 (the
    set and its complement give the same odd-set row)."""
    inside = np.zeros(t, dtype=bool)
    inside[members] = True
    inside ^= inside[0]
    return inside


def _odd_cuts(t: int, ends: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
    """Odd sets S with x(δ(S)) < 1 - EPS_SEP, each as a boolean mask over 0..t-1
    that leaves out vertex 0 (S and its complement give the same row).

    The candidates are the sides of a Gomory-Hu tree of 0..t-1 under capacities
    x on the pairs `ends` (those above FLOW_EPS), built by Gusfield's method:
    t - 1 `min_cut` calls, no contraction. Each vertex v > 0 hangs below
    parent[v], and every subtree is the side of a fundamental cut. By Padberg
    and Rao, if some odd set S has x(δ(S)) < 1, so does the least odd
    fundamental cut, so the result is empty only if no odd-set row is
    violated. The source sides of the `min_cut` calls are checked too: they
    are cuts of the same support, and adding them cuts the rounds.
    """
    support = np.flatnonzero(x > FLOW_EPS)
    ends, x = ends[support], x[support]
    net = CapacitatedNetwork(BidirectedGraph(Graph(t, ends.tolist())), np.repeat(x, 2))
    parent = [0] * t
    sides = []
    for s in range(1, t):
        target = parent[s]
        side = min_cut(net, s, target)[1]
        sides.append(list(side))
        for v in side:
            if v != s and parent[v] == target:
                parent[v] = s
        if target and parent[target] in side:
            parent[s], parent[target] = parent[target], s
    below: list[list[int]] = [[] for _ in range(t)]
    for v in range(1, t):
        below[parent[v]].append(v)
    for v in range(1, t):
        subtree = [v]
        for u in subtree:
            subtree += below[u]
        sides.append(subtree)
    cuts: dict[bytes, np.ndarray] = {}
    for side in sides:
        if len(side) % 2:
            inside = _side(t, side)
            if x[inside[ends[:, 0]] != inside[ends[:, 1]]].sum() < 1 - EPS_SEP:
                cuts[inside.tobytes()] = inside
    return list(cuts.values())


def odd_set_pairs(weight, odd_sets=()) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching of 0..t-1 (t even, at least 2) under the
    symmetric integer `weight` matrix, as a cutting-plane LP on HiGHS.

    One column x_ab in [0, 1] of cost weight[a][b] per pair a < b, one row
    x(δ(v)) = 1 per vertex, and Edmonds' rows x(δ(S)) >= 1: first for the odd
    sets in `odd_sets` (`min_tjoin` passes the odd cycles of the assignment,
    each a set the assignment's fractional half violates), then for those
    that `_odd_cuts` finds violated, round by round until x is integral. A
    vertex of this LP that satisfies every odd-set row is a vertex of the
    perfect-matching polytope, so the integral x is an optimal matching.
    Returns its pairs (a, b), a < b, in increasing order.
    """
    t = len(weight)
    ends = np.column_stack(np.triu_indices(t, 1)).astype(np.int32)  # the pairs a < b, in increasing order
    m = len(ends)
    cost = np.asarray(weight, dtype=float)[ends[:, 0], ends[:, 1]]
    model = HighsModel(presolve="off")  # a first solve of these small LPs is faster without it
    # the degree rows, empty until each column brings its entries in rows a and b
    model._add_rows([([], [], 1.0, 1.0)] * t)
    model._add_cols(cost, np.ones(m), np.arange(0, 2 * m, 2, dtype=np.int32), ends.ravel(), np.ones(2 * m))
    added: set[bytes] = set()

    def add_odd_set_rows(sides) -> None:
        rows = []
        for inside in sides:
            if inside.tobytes() not in added:  # two disjoint odd sets can be each other's complement
                added.add(inside.tobytes())
                rows.append(np.flatnonzero(inside[ends[:, 0]] != inside[ends[:, 1]]).tolist())
        model._add_rows([(row, [1.0] * len(row), 1.0, kHighsInf) for row in rows])

    add_odd_set_rows(_side(t, members) for members in odd_sets)
    for _ in range(MAX_CUT_ROUNDS):
        x = model._optimum("matching LP", InternalError)
        if np.all(np.abs(x - np.rint(x)) <= EPS_SEP):
            break
        cuts = [inside for inside in _odd_cuts(t, ends, x) if inside.tobytes() not in added]
        if not cuts:
            raise InternalError("the matching LP is fractional, but no odd set is violated")
        add_odd_set_rows(cuts)
    else:
        raise LpError(f"iteration limit exceeded ({MAX_CUT_ROUNDS} odd-set rounds)")
    matched = [(int(a), int(b)) for a, b in ends[x > 0.5]]
    if sorted(v for pair in matched for v in pair) != list(range(t)):
        raise InternalError(f"the matching LP rounded to a non-matching: {matched}")
    total, objective = sum(weight[a][b] for a, b in matched), float(cost @ x)
    if abs(total - objective) > EPS_OBJ:
        raise InternalError(f"matching weight {total} is off the LP objective {objective}")
    return matched


def min_tjoin(g: Graph, odd) -> TJoin:
    """Cost-minimal edge set with odd degree exactly on `odd`.

    Requires an even set of distinct vertices in a connected graph. The
    distances are the graph's own `g.dists`, built once per graph. The odd
    vertices are matched by `certified_pairs` where the assignment bound certifies
    its repair, else by the odd-set LP of `odd_set_pairs`, which starts from the
    rows of the assignment's odd cycles.
    """
    odd = tuple(sorted(odd))
    if len(set(odd)) != len(odd):
        raise ValueError("repeated vertex: the target set of a join must be a set")
    if len(odd) % 2 == 1:
        raise ValueError("odd cardinality: the target set of a join must be even")
    if not odd:
        return TJoin(frozenset())
    if odd[0] < 0 or odd[-1] >= g.n:
        raise ValueError(f"vertex outside 0..{g.n - 1}: the target set of a join must lie in the graph")
    pick = itemgetter(*odd)
    rows = pick(g.dists)
    weight = [pick(row) for row in rows]
    cycles = assignment_cycles(weight)
    pairs = certified_pairs(weight, cycles)
    if pairs is None:
        pairs = odd_set_pairs(weight, [cycle for cycle in cycles if len(cycle) % 2])
    edges: set[int] = set()
    for i, j in pairs:
        walk = descend(g, rows[j], odd[i])
        edges ^= set(map(g.edge_id, walk, walk[1:]))
    return TJoin(frozenset(edges))
