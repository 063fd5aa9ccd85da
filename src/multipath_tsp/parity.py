"""Odd-degree sets and minimum T-joins in unit-cost graphs.

The minimum join is computed the classical way: exact minimum-weight perfect
matching of the odd set under BFS distances, then the symmetric difference of
the matched shortest paths. Odd sets of at most `MATCH_DP_MAX` vertices are
matched by a DP over bitmasks of the set: the lowest unmatched vertex is
paired with each remaining vertex in turn, and among tying partners the
lowest wins. The DP's states grow like 2^|T|, so larger sets go to networkx's
blossom algorithm. A bitmask enumeration oracle over all edge subsets is
provided for verification on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from .graphs import Graph, all_pairs_distances, descend

MATCH_DP_MAX = 12  # largest odd set matched by the bitmask DP; the blossom takes larger ones


@dataclass
class EdgeMultiset:
    """Nonnegative integer counts per base edge."""

    graph: Graph
    counts: dict[int, int] = field(default_factory=dict)

    def add(self, u: int, v: int, times: int = 1) -> None:
        self.add_edge(self.graph.edge_id(u, v), times)

    def add_edge(self, e: int, times: int = 1) -> None:
        if times:
            self.counts[e] = self.counts.get(e, 0) + times

    def add_walk(self, vertices) -> None:
        for u, v in zip(vertices, vertices[1:]):
            self.add(u, v)

    def degrees(self) -> list[int]:
        deg = [0] * self.graph.n
        for e, c in self.counts.items():
            a, b = self.graph.edges[e]
            deg[a] += c
            deg[b] += c
        return deg

    def items(self):
        return sorted(self.counts.items())


@dataclass(frozen=True)
class TJoin:
    """Edge set whose odd-degree vertices are exactly `odd`."""

    edges: frozenset[int]
    odd: frozenset[int]

    @property
    def cost(self) -> int:
        return len(self.edges)


def odd_vertices(m: EdgeMultiset) -> frozenset[int]:
    return frozenset(v for v, d in enumerate(m.degrees()) if d % 2 == 1)


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
        return TJoin(frozenset(), frozenset())
    if odd[0] < 0 or odd[-1] >= g.n:
        raise ValueError(f"vertex outside 0..{g.n - 1}: the target set of a join must lie in the graph")
    if dists is None:
        dists = all_pairs_distances(g)
    if len(odd) <= MATCH_DP_MAX:
        weight = [[dists[a][b] for b in odd] for a in odd]
        matching = [(odd[i], odd[j]) for i, j in min_weight_pairs(weight)]
    else:
        complete = nx.Graph()
        complete.add_nodes_from(odd)
        for idx, a in enumerate(odd):
            for b in odd[idx + 1:]:
                complete.add_edge(a, b, weight=dists[a][b])
        matching = nx.min_weight_matching(complete)
    edges: set[int] = set()
    for a, b in sorted(tuple(sorted(pair)) for pair in matching):
        walk = descend(g, dists[b], a)
        for u, v in zip(walk, walk[1:]):
            edges.symmetric_difference_update({g.edge_id(u, v)})
    return TJoin(frozenset(edges), frozenset(odd))


def tjoin_brute_force(g: Graph, odd) -> tuple[int, frozenset[int]]:
    """Exhaustive minimum join by Gray-code enumeration of all edge subsets."""
    m = g.num_edges
    if m > 22:
        raise ValueError("brute-force join oracle is limited to 22 edges")
    odd = frozenset(odd)
    target = 0
    for v in odd:
        target ^= 1 << v
    vmask = [(1 << u) ^ (1 << v) for u, v in g.edges]
    best_size = None
    best_subset = 0
    parity = 0
    subset = 0
    for code in range(1 << m):
        gray = code ^ (code >> 1)
        if code:
            bit = (gray ^ prev_gray).bit_length() - 1
            parity ^= vmask[bit]
            subset = gray
        prev_gray = gray
        if parity == target:
            size = bin(subset).count("1")
            if best_size is None or size < best_size:
                best_size = size
                best_subset = subset
    if best_size is None:
        raise ValueError("no join exists for the given target set")
    return best_size, frozenset(e for e in range(m) if best_subset >> e & 1)

