"""Exhaustive reference oracles for small cases, kept apart from the package.

`brute_force_cut_check` verifies every cut row of the flow LP by enumerating
all vertex subsets (n <= 16); `tjoin_brute_force` finds a minimum join by
Gray-code enumeration of all edge subsets (at most 22 edges);
`pendant_anchors` finds the terminal-free pendant trees by rescanning every
vertex until none can be stripped; `attachment_order_rescan` builds the
reconnection schedule by rescanning the pending vertices at every step. The
tests compare the separation, the parity join, the exact oracle's tie rule and
the reconnection schedule against them.
"""

from __future__ import annotations

from multipath_tsp.errors import InternalError, OracleLimitError
from multipath_tsp.graphs import Graph
from multipath_tsp.instances import AnyInstance
from multipath_tsp.lp import EPS_LP, FractionalSolution


def brute_force_cut_check(
    inst: AnyInstance, sol: FractionalSolution, eps: float = EPS_LP
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


def pendant_anchors(g: Graph, terminals) -> dict[int, int]:
    """Each vertex of a terminal-free pendant tree, mapped to the vertex of the
    rest of the graph (the kernel) that its tree hangs from.

    Rescans all vertices for a non-terminal with one neighbour left until a
    scan strips nothing, then walks a BFS from each stripped vertex to the
    first kernel vertex it meets, its anchor.
    """
    left = set(range(g.n))
    while True:
        gone = {v for v in left if v not in terminals and len(left.intersection(g.adj[v])) == 1}
        if not gone:
            break
        left -= gone
    anchors = {}
    for v in sorted(set(range(g.n)) - left):
        seen, frontier = {v}, [v]
        while not left.intersection(frontier):
            frontier = [w for u in frontier for w in g.adj[u] if w not in seen]
            seen.update(frontier)
        (anchors[v],) = left.intersection(frontier)
    return anchors


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


def attachment_order_rescan(g: Graph, covered) -> list[tuple[int, int]]:
    """The reconnection schedule by its rule, in quadratic time: at every
    step, scan the pending vertices in increasing order for the first with a
    covered neighbor, and attach it via its lowest covered neighbor."""
    covered = set(covered)
    pending = [v for v in range(g.n) if v not in covered]
    steps: list[tuple[int, int]] = []
    while pending:
        for i, v in enumerate(pending):
            w = next((w for w in g.adj[v] if w in covered), None)
            if w is not None:
                break
        else:
            raise InternalError("no pending vertex has a covered neighbor; graph not connected?")
        steps.append((v, w))
        covered.add(v)
        del pending[i]
    return steps
