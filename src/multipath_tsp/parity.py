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
networkx's blossom algorithm, which is imported only when a set reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import linear_sum_assignment

from .graphs import Graph, all_pairs_distances, descend

MATCH_DP_MAX = 12  # most odd-cycle vertices the bitmask DP matches; the blossom takes over above it


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


def certified_pairs(weight) -> list[tuple[int, int]] | None:
    """Minimum-weight perfect matching of 0..t-1 under the symmetric integer
    `weight` matrix (t even, at least 2) if an assignment bound certifies it,
    else None.

    A perfect matching used in both directions is an assignment without fixed
    points, so the least such assignment, A, is at most twice the matching
    and, weights being integers, (A + 1) // 2 bounds it from below. Its
    permutation is repaired into a matching: a 2-cycle is a pair, a longer
    even cycle gives its cheaper alternate half (on a tie, the half that pairs
    the cycle's lowest vertex with its lower neighbour on the cycle), and the
    vertices of all odd cycles are matched by `min_weight_pairs` if there are
    at most `MATCH_DP_MAX` of them. The repair is returned, as pairs (a, b)
    with a < b, only if it weighs at most the bound.
    """
    padded = []
    for i, row in enumerate(weight):
        row = list(row)
        row[i] = math.inf  # forbids fixed points
        padded.append(row)
    perm = linear_sum_assignment(padded)[1].tolist()
    bound = (sum(row[j] for row, j in zip(weight, perm)) + 1) // 2
    pairs = []
    odd = []
    total = 0
    seen = [False] * len(perm)
    for low, succ in enumerate(perm):
        if seen[low]:
            continue
        if perm[succ] == low:
            seen[succ] = True
            pairs.append((low, succ))
            total += weight[low][succ]
            continue
        cycle = [low]
        while succ != low:
            seen[succ] = True
            cycle.append(succ)
            succ = perm[succ]
        if len(cycle) % 2:
            odd += cycle
            continue
        half = list(zip(cycle[0::2], cycle[1::2]))
        other = list(zip(cycle[1::2], cycle[2::2] + [low]))
        cost = sum(weight[a][b] for a, b in half)
        other_cost = sum(weight[a][b] for a, b in other)
        if other_cost < cost or (other_cost == cost and cycle[-1] < cycle[1]):
            half, cost = other, other_cost
        pairs += [(a, b) if a < b else (b, a) for a, b in half]
        total += cost
    if len(odd) > MATCH_DP_MAX:
        return None
    if odd:
        odd.sort()
        for i, j in min_weight_pairs([[weight[a][b] for b in odd] for a in odd]):
            pairs.append((odd[i], odd[j]))
            total += weight[odd[i]][odd[j]]
    return pairs if total <= bound else None


def min_tjoin(g: Graph, odd, dists: list[list[int]] | None = None) -> TJoin:
    """Cost-minimal edge set with odd degree exactly on `odd`.

    Requires an even set of distinct vertices in a connected graph. `dists` may carry a
    precomputed BFS distance matrix to avoid recomputation in hot loops.
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
    if dists is None:
        dists = all_pairs_distances(g)
    weight = [[dists[a][b] for b in odd] for a in odd]
    pairs = certified_pairs(weight)
    if pairs is not None:
        matching = [(odd[i], odd[j]) for i, j in pairs]
    else:
        import networkx as nx

        complete = nx.Graph()
        complete.add_nodes_from(odd)
        for idx, a in enumerate(odd):
            for b in odd[idx + 1:]:
                complete.add_edge(a, b, weight=dists[a][b])
        matching = [tuple(sorted(pair)) for pair in nx.min_weight_matching(complete)]
    edges: set[int] = set()
    for a, b in matching:
        walk = descend(g, dists[b], a)
        for u, v in zip(walk, walk[1:]):
            edges.symmetric_difference_update({g.edge_id(u, v)})
    return TJoin(frozenset(edges))
