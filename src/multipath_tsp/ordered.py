"""Ordered tour solver: sampling, single-arc reconnection, join-based parity
correction, and extraction of order-respecting walks.

Each pending vertex costs one edge here instead of two; the resulting odd
degrees of the combined edge multiset are then fixed by a minimum join. The
extra edges (reconnections plus the join) always have even degree at every
vertex, so they split into closed excursions that can be spliced into the
sampled walks without disturbing the terminal order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Decomposition, decompose
from .errors import InternalError
from .graphs import all_pairs_distances
from .instances import Instance, OrderedInstance, Solution, validate_solution
from .lp import EPS_OBJ, FractionalSolution, solve_lp
from .multipath import CostReport, attachment_order, make_report, sample_paths
from .parity import EdgeMultiset, TJoin, min_tjoin, odd_vertices


@dataclass(frozen=True, eq=False)
class OrderedPlan:
    instance: OrderedInstance
    base: Instance
    lp: FractionalSolution
    decomposition: Decomposition
    dists: list[list[int]]


def prepare_ordered(inst: OrderedInstance) -> OrderedPlan:
    base = inst.to_instance()
    lp_sol = solve_lp(base)
    dec = decompose(base, lp_sol)
    return OrderedPlan(inst, base, lp_sol, dec, all_pairs_distances(inst.graph))


def validate_ordered(inst: OrderedInstance, sol: Solution) -> tuple[bool, str | None]:
    ok, why = validate_solution(inst, sol)
    if not ok:
        return False, why
    # terminal order: concatenated walks must visit the terminals cyclically
    concat: list[int] = []
    for walk in sol.walks:
        concat.extend(walk)
    want = list(inst.order) + [inst.order[0]]
    pos = 0
    for v in concat:
        if pos < len(want) and v == want[pos]:
            pos += 1
    if pos < len(want):
        return False, "terminal order violated"
    return True, None


def _euler_circuit(
    incident: list[list[tuple[int, int]]], used: set[int], ptr: list[int], start: int
) -> list[int]:
    """Closed walk from `start` over every token of its component not yet in
    `used`, adding each token it takes to `used`.

    Hierholzer with the lowest available (neighbor, token) taken first, so the
    output is deterministic. `ptr[v]` only ever skips used tokens, so it is
    shared across calls.
    """
    stack = [start]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        while ptr[v] < len(incident[v]) and incident[v][ptr[v]][1] in used:
            ptr[v] += 1
        if ptr[v] == len(incident[v]):
            circuit.append(stack.pop())
        else:
            w, tok = incident[v][ptr[v]]
            used.add(tok)
            stack.append(w)
    circuit.reverse()
    return circuit


def extract_ordered_walks(inst: OrderedInstance, paths, extra: EdgeMultiset) -> Solution:
    """Splice the extra edge multiset into the sampled walks as closed
    excursions, one per connected component of the extra edges.

    Walk i runs from terminal i to terminal i+1 (cyclically); closing them
    head-to-tail gives a spanning closed walk hitting the terminals in order.

    Each component is traversed as an Eulerian circuit anchored at its lowest
    vertex that lies on a sampled walk, and inserted at the first occurrence
    of that vertex in the lowest-indexed walk containing it.
    """
    g = inst.graph
    if any(d % 2 for d in extra.degrees()):
        raise InternalError("parity violation: extra edges must have even degree everywhere")

    # one token per edge copy, listed at both ends as (neighbor, token)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    tok = 0
    for e, count in extra.items():
        u, v = g.edges[e]
        for _ in range(count):
            incident[u].append((v, tok))
            incident[v].append((u, tok))
            tok += 1
    for lst in incident:
        lst.sort()

    walks = [list(w) for w in paths]
    first: dict[int, tuple[int, int]] = {}
    for i, walk in enumerate(walks):
        for pos, v in enumerate(walk):
            first.setdefault(v, (i, pos))
    # Every degree is even, so a circuit uses up its whole component and the
    # ascending scan reaches each component first at its lowest on-walk vertex.
    used: set[int] = set()
    ptr = [0] * g.n
    excursions: dict[tuple[int, int], list[int]] = {}
    for v in sorted(first):
        circuit = _euler_circuit(incident, used, ptr, v)
        if len(circuit) > 1:
            excursions[first[v]] = circuit
    if len(used) != tok:
        raise InternalError("disconnected union: extra edges share no vertex with any walk")
    # splice from the back so the recorded positions stay valid
    for i, pos in sorted(excursions, reverse=True):
        walks[i][pos + 1:pos + 1] = excursions[i, pos][1:]
    return Solution(tuple(tuple(w) for w in walks), sum(len(w) - 1 for w in walks))


def run_ordered_trial(plan: OrderedPlan, seed: int) -> tuple[Solution, CostReport, TJoin]:
    """One sampling + reconnection + parity pass on a prepared plan."""
    inst = plan.instance
    g = inst.graph
    state = sample_paths(plan.decomposition, seed)
    steps = attachment_order(g, state.covered)
    extra = EdgeMultiset(g)
    for v, w in steps:
        extra.add(v, w)
    union = extra.copy()
    for walk in state.walks:
        union.add_walk(walk)
    join = min_tjoin(g, odd_vertices(union), plan.dists)
    for e in join.edges:
        extra.add_edge(e)
    sol = extract_ordered_walks(inst, state.walks, extra)
    sampling = sum(len(w) - 1 for w in state.walks)
    report = make_report(sampling, len(steps), join.cost, plan.lp.objective)
    if sol.cost != report.total:
        raise InternalError(f"walk extraction changed the edge count: {sol.cost} != {report.total}")
    if join.cost > plan.lp.objective / 2.0 + EPS_OBJ:
        raise InternalError("parity join exceeded half the LP value")
    ok, why = validate_ordered(inst, sol)
    if not ok:
        raise InternalError(f"ordered solver produced an invalid solution: {why}")
    return sol, report, join


def solve_ordered(inst: OrderedInstance, seed: int) -> tuple[Solution, CostReport]:
    sol, report, _ = run_ordered_trial(prepare_ordered(inst), seed)
    return sol, report
