"""Unit-cost undirected graphs, their bidirected form, and an Edmonds-Karp min cut.

Everything here is immutable after construction and safe to share between
concurrent workers; ``min_cut`` allocates its own scratch per call.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import InstanceError

UNREACHED = -1  # sentinel hop count for vertices a BFS cannot reach
FLOW_EPS = 1e-9  # residual capacities below this are treated as zero


class Graph:
    """Undirected unit-cost graph on vertices 0..n-1.

    Edges are stored normalized as (min, max) pairs in input order.
    Self-loops and duplicate edges (in either orientation) are rejected.
    Connectivity is *not* enforced here; instance loading checks it.
    """

    __slots__ = ("n", "edges", "adj", "_edge_index", "_arcs", "_dists")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 1:
            raise InstanceError("schema", f"vertex count must be >= 1, got {n}")
        self.n = n
        normalized: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for raw in edges:
            u, v = int(raw[0]), int(raw[1])
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError("index-out-of-range", f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise InstanceError("self-loop", f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in index:
                raise InstanceError("duplicate-edge", f"duplicate edge {key}")
            index[key] = len(normalized)
            normalized.append(key)
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(ns)) for ns in neighbors)
        self._edge_index = index

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Both orientations (u, v) and (v, u) of every edge, built on first
        use, so constructing a graph never pays for it."""
        try:
            return self._arcs
        except AttributeError:
            self._arcs = frozenset(self.edges).union([(v, u) for u, v in self.edges])
            return self._arcs

    @property
    def dists(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs BFS hop counts, one `bfs_distances` row per source vertex,
        built on first use like `arcs` and shared by every reader."""
        try:
            return self._dists
        except AttributeError:
            self._dists = tuple(tuple(bfs_distances(self, v)) for v in range(self.n))
            return self._dists

    def edge_id(self, u: int, v: int) -> int:
        """Index of edge {u,v}; raises KeyError if absent."""
        return self._edge_index[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from `source`; unreachable vertices get UNREACHED."""
    if not 0 <= source < g.n:
        raise InstanceError("index-out-of-range", f"source {source} outside 0..{g.n - 1}")
    dist = [UNREACHED] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == UNREACHED:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex."""
    return UNREACHED not in bfs_distances(g, 0)


def descend(g: Graph, dist: list[int], u: int) -> list[int]:
    """Walk from u down the BFS row `dist` to the vertex at distance 0.

    Each step goes to the lowest-indexed neighbor that is one hop closer,
    so the path is a deterministic shortest path.
    """
    if dist[u] == UNREACHED:
        raise InstanceError("disconnected", f"no path from {u} to the source of this BFS row")
    path = [u]
    adj = g.adj
    for closer in range(dist[u] - 1, -1, -1):
        for w in adj[u]:
            if dist[w] == closer:
                break
        else:
            raise ValueError(f"vertex {u} has no neighbor at distance {closer}: not a BFS row")
        u = w
        path.append(u)
    return path


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """A shortest u-v path as a vertex list, deterministic (see `descend`)."""
    return descend(g, bfs_distances(g, v), u)


class BidirectedGraph:
    """Arc-doubled form of a Graph: edge e becomes arcs 2e and 2e+1.

    Arc 2e keeps the stored (u,v) orientation, arc 2e+1 is the reverse,
    so ``arc ^ 1`` is always the opposite arc and ``arc >> 1`` the base edge.
    The antiparallel pair is also the residual network ``min_cut`` augments on.
    """

    __slots__ = ("arcs", "out_arcs", "in_arcs")

    def __init__(self, base: Graph):
        arcs: list[tuple[int, int]] = []
        out_lists: list[list[int]] = [[] for _ in range(base.n)]
        in_lists: list[list[int]] = [[] for _ in range(base.n)]
        for u, v in base.edges:
            fwd = len(arcs)
            arcs.append((u, v))
            arcs.append((v, u))
            out_lists[u].append(fwd)
            in_lists[v].append(fwd)
            out_lists[v].append(fwd + 1)
            in_lists[u].append(fwd + 1)
        self.arcs: tuple[tuple[int, int], ...] = tuple(arcs)
        self.out_arcs: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in out_lists)
        self.in_arcs: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in in_lists)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)


class CapacitatedNetwork:
    """A BidirectedGraph with a nonnegative finite capacity per arc."""

    __slots__ = ("digraph", "capacity")

    def __init__(self, digraph: BidirectedGraph, capacity):
        cap = np.asarray(capacity, dtype=float)
        if cap.shape != (digraph.num_arcs,):
            raise ValueError(f"expected {digraph.num_arcs} capacities, got shape {cap.shape}")
        if not np.all(np.isfinite(cap)) or np.any(cap < 0):
            raise ValueError("capacities must be finite and nonnegative")
        self.digraph = digraph
        self.capacity = cap


def min_cut(net: CapacitatedNetwork, s: int, t: int) -> tuple[float, frozenset[int]]:
    """Max s-t flow value and a minimum cut's source side.

    Edmonds-Karp: augment along shortest residual paths found by BFS. Pushing
    flow along arc a frees as much on its reverse ``a ^ 1``, so one residual
    entry per arc is the whole residual network. Residuals below FLOW_EPS
    count as zero. Returns (flow value, U) with s in U, t not in U, and
    cap(arcs leaving U) equal to the value up to tolerance; U is the set
    residual-reachable from s, the inclusion-minimal minimum cut.
    """
    if s == t:
        raise ValueError("min_cut requires s != t")
    arcs = net.digraph.arcs
    out_arcs = net.digraph.out_arcs
    # A plain list: the loops below read and write it one scalar at a time.
    res = net.capacity.tolist()
    total = 0.0
    while True:
        via = {s: UNREACHED}  # the arc that first reached each vertex
        queue = deque([s])
        while queue and t not in via:
            for a in out_arcs[queue.popleft()]:
                w = arcs[a][1]
                if w not in via and res[a] > FLOW_EPS:
                    via[w] = a
                    queue.append(w)
        if t not in via:
            # this last BFS has marked exactly the residual-reachable set
            return total, frozenset(via)
        path = []
        v = t
        while v != s:
            path.append(via[v])
            v = arcs[via[v]][0]
        bottleneck = min(res[a] for a in path)
        for a in path:
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
        total += bottleneck
