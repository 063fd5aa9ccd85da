"""Unit-cost undirected graphs, their bidirected form, and max-flow/min-cut.

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

    __slots__ = ("n", "edges", "adj", "_edge_index")

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
    cur = u
    while dist[cur]:
        cur = next(w for w in g.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    return path


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """A shortest u-v path as a vertex list, deterministic (see `descend`)."""
    return descend(g, bfs_distances(g, v), u)


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """BFS distance matrix, one row per vertex."""
    return [bfs_distances(g, v) for v in range(g.n)]


class BidirectedGraph:
    """Arc-doubled form of a Graph: edge e becomes arcs 2e and 2e+1.

    Arc 2e keeps the stored (u,v) orientation, arc 2e+1 is the reverse,
    so ``arc ^ 1`` is always the opposite arc and ``arc >> 1`` the base edge.

    ``residual_heads`` and ``residual_incident`` describe the residual network
    that ``min_cut`` augments on: residual edge 2a is arc a forward, 2a+1 its
    reverse, and ``residual_incident[u]`` lists the residual edges leaving u.
    """

    __slots__ = ("base", "arcs", "out_arcs", "in_arcs", "residual_heads", "residual_incident")

    def __init__(self, base: Graph):
        self.base = base
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
        heads = [0] * (2 * len(arcs))
        incident: list[list[int]] = [[] for _ in range(base.n)]
        for a, (u, v) in enumerate(arcs):
            heads[2 * a] = v
            heads[2 * a + 1] = u
            incident[u].append(2 * a)
            incident[v].append(2 * a + 1)
        self.residual_heads: tuple[int, ...] = tuple(heads)
        self.residual_incident: tuple[tuple[int, ...], ...] = tuple(tuple(e) for e in incident)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def arc_id(self, u: int, v: int) -> int:
        """Index of arc (u,v)."""
        e = self.base.edge_id(u, v)
        return 2 * e if self.base.edges[e] == (u, v) else 2 * e + 1


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

    Dinic-style: BFS level graph, then blocking augmentations along shortest
    residual paths. Residuals below FLOW_EPS count as zero. Returns
    (flow value, U) with s in U, t not in U, and cap(arcs leaving U) equal
    to the value up to tolerance.
    """
    if s == t:
        raise ValueError("min_cut requires s != t")
    dig = net.digraph
    n = dig.base.n
    num_arcs = dig.num_arcs
    # Residual edge 2a is arc a forward, 2a+1 its reverse (initially empty).
    # A plain list: the loops below read and write it one scalar at a time.
    res = [0.0] * (2 * num_arcs)
    res[0::2] = net.capacity.tolist()
    heads = dig.residual_heads
    incident = dig.residual_incident

    total = 0.0
    while True:
        level = [UNREACHED] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in incident[u]:
                w = heads[eid]
                if level[w] == UNREACHED and res[eid] > FLOW_EPS:
                    level[w] = level[u] + 1
                    queue.append(w)
        if level[t] == UNREACHED:
            # this last BFS has marked exactly the residual-reachable set
            return total, frozenset(v for v in range(n) if level[v] != UNREACHED)
        ptr = [0] * n
        while True:
            # one augmenting path inside the level graph
            path: list[int] = []
            v = s
            while v != t:
                advanced = False
                while ptr[v] < len(incident[v]):
                    eid = incident[v][ptr[v]]
                    w = heads[eid]
                    if res[eid] > FLOW_EPS and level[w] == level[v] + 1:
                        path.append(eid)
                        v = w
                        advanced = True
                        break
                    ptr[v] += 1
                if not advanced:
                    if not path:
                        v = None
                        break
                    # dead end: retreat one step and skip that edge
                    dead = v
                    eid = path.pop()
                    v = s if not path else heads[path[-1]]
                    level[dead] = UNREACHED
                    ptr[v] += 1
            if v is None:
                break
            bottleneck = min(res[eid] for eid in path)
            for eid in path:
                res[eid] -= bottleneck
                res[eid ^ 1] += bottleneck
            total += bottleneck
