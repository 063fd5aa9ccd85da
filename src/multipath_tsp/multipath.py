"""Randomized path sampling with doubled-edge reconnection, its
conditional-expectation derandomization, and the one splice that turns
walks plus a list of extra (u, v) edge copies, even at every vertex, into
walks. The splice's work follows the extra edges: it indexes only the
vertices they touch and walks only their Euler circuits, so walk vertices
without an extra edge cost next to nothing.

The pipeline: solve the LP, decompose each commodity's flow, pick one path
per split commodity (probability = path weight), then attach every vertex
missed by the sampled paths to a covered neighbor by a doubled edge and
splice the doubled edges in as closed excursions, two edges per vertex. The
derandomized variant replaces sampling by a greedy choice that never lets
the conditional expected total cost grow, so its output always costs at
most twice the LP optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

import numpy as np

from .decomposition import Decomposition, decompose, path_mass
from .errors import InternalError
from .graphs import Graph
from .instances import AnyInstance, Instance, Solution, validate_solution
from .lp import EPS_OBJ, FractionalSolution, solve_lp

EPS_TIE = 1e-12  # derandomize_choices keeps the lower path index unless another beats it by more


@dataclass(frozen=True)
class CostReport:
    sampling: int
    reconnection: int
    parity: int
    total: int
    lp_objective: float
    ratio: float


def make_report(sampling: int, reconnection: int, parity: int, lp_objective: float) -> CostReport:
    total = sampling + reconnection + parity
    if lp_objective > EPS_OBJ:
        ratio = total / lp_objective
    else:
        ratio = 1.0 if total == 0 else float("inf")
    return CostReport(sampling, reconnection, parity, total, lp_objective, ratio)


@dataclass(frozen=True, eq=False)
class SolverPlan:
    """LP optimum and decomposition, reusable across every solver run on
    the instance: sampling trials, the derandomized pass, the combiner and
    ordered trials. `mass` is computed on first use, so sampling trials and
    ordered plans never pay for it."""

    instance: AnyInstance
    lp: FractionalSolution
    decomposition: Decomposition

    @cached_property
    def mass(self) -> np.ndarray:
        """(k, n) path mass (see `path_mass`), read by the derandomized pass."""
        return path_mass(self.instance, self.decomposition)


def prepare(inst: AnyInstance) -> SolverPlan:
    lp_sol = solve_lp(inst)
    return SolverPlan(inst, lp_sol, decompose(inst, lp_sol))


def chosen_walks(dec: Decomposition, chosen: list[int | None]) -> list[tuple[int, ...]]:
    """The decomposition's vertex tuples for one chosen path index per commodity; None keeps a singleton."""
    return [
        (s,) if j is None else dec.paths[i][j].vertices
        for i, ((s, _), j) in enumerate(zip(dec.instance.commodities, chosen))
    ]


def sample_paths(dec: Decomposition, seed: int) -> list[int | None]:
    """Pick one path index per commodity; depot commodities get None.

    The unit interval is split into consecutive pieces sized by the path
    weights and a uniform draw selects the piece, so path j is chosen with
    probability equal to its weight. Deterministic given the seed.
    """
    rng = random.Random(seed)
    chosen: list[int | None] = []
    for paths in dec.paths:
        if not paths:
            chosen.append(None)
            continue
        y = rng.random()
        acc = 0.0
        idx = len(paths) - 1
        for j, p in enumerate(paths):
            acc += p.weight
            if y < acc:
                idx = j
                break
        chosen.append(idx)
    return chosen


def attachment_order(graph: Graph, covered: set[int]) -> list[tuple[int, int]]:
    """Deterministic reconnection schedule: repeatedly attach the lowest
    pending vertex that has a covered neighbor, via its lowest such neighbor.

    A heap holds the pending vertices that have a covered neighbor; attaching
    one covers it and queues its pending neighbors, so the schedule takes
    O((n + m) log n). `covered` is read, never changed."""
    adj = graph.adj
    pending = [v for v in range(graph.n) if v not in covered]
    # ascending, so already a heap
    heap = [v for v in pending if not covered.isdisjoint(adj[v])]
    queued = set(heap)
    attached: set[int] = set()
    steps: list[tuple[int, int]] = []
    while heap:
        v = heappop(heap)
        # `graph.adj` is sorted, so the first covered neighbor is the lowest;
        # v was queued for having one
        for w in adj[v]:
            if w in covered or w in attached:
                break
        steps.append((v, w))
        attached.add(v)
        for u in adj[v]:
            if u not in queued and u not in covered:
                queued.add(u)
                heappush(heap, u)
    if len(steps) != len(pending):
        raise InternalError("no pending vertex has a covered neighbor; graph not connected?")
    return steps


def splice_excursions(walks, extra) -> Solution:
    """Splice the (u, v) edge copies in `extra`, in any order and either
    orientation, with even degree at every vertex, into the walks as closed
    excursions, one per connected component of `extra`.

    Each component is traversed as an Eulerian circuit (Hierholzer, lowest
    neighbor first) anchored at its lowest vertex that lies on a walk, and
    inserted at the first occurrence of that vertex in the lowest-indexed
    walk containing it. Walk endpoints do not move, and the result uses every
    walk edge and every extra edge exactly once; its cost is checked to be
    the walk edges plus one per extra edge copy. The work follows the extra
    edges: only the vertices they touch are indexed, and a circuit is walked
    only from a touched vertex that lies on a walk. That the copies are edges
    of the graph is left to the `validate_solution` every solver runs after.
    """
    # one token per edge copy, listed at both ends as (neighbor, token),
    # keyed by the touched vertices only
    incident: dict[int, list[tuple[int, int]]] = {}
    for tok, (u, v) in enumerate(extra):
        incident.setdefault(u, []).append((v, tok))
        incident.setdefault(v, []).append((u, tok))
    for lst in incident.values():
        if len(lst) % 2:
            raise InternalError("parity violation: extra edges must have even degree everywhere")
        lst.sort(reverse=True)  # the lowest (neighbor, token) pops first

    want = sum(len(w) - 1 for w in walks) + len(extra)
    first: dict[int, tuple[int, int]] = {}
    unseen = set(incident)
    for i, walk in enumerate(walks):
        if not unseen:
            break
        if unseen.isdisjoint(walk):
            continue
        for pos, v in enumerate(walk):
            if v in unseen:
                unseen.remove(v)
                first[v] = (i, pos)
    # Every degree is even, so a circuit uses up its whole component and the
    # ascending scan reaches each component first at its lowest on-walk vertex.
    used: set[int] = set()
    excursions: dict[tuple[int, int], list[int]] = {}
    for start in sorted(first):
        stack = [start]
        circuit: list[int] = []
        # Hierholzer: follow unused tokens until stuck, then back up; the
        # vertices leave the stack in reverse circuit order
        while stack:
            lst = incident[stack[-1]]
            while lst and lst[-1][1] in used:
                lst.pop()
            if lst:
                w, t = lst.pop()
                used.add(t)
                stack.append(w)
            else:
                circuit.append(stack.pop())
        if len(circuit) > 1:
            circuit.reverse()
            excursions[first[start]] = circuit
    if len(used) != len(extra):
        raise InternalError("disconnected union: extra edges share no vertex with any walk")
    # rebuild the walks that take excursions, from the back so the recorded
    # positions stay valid; walks given as tuples pass through uncopied
    spliced = list(walks)
    for (i, pos), circuit in sorted(excursions.items(), reverse=True):
        walk = spliced[i]
        spliced[i] = (*walk[:pos], *circuit, *walk[pos + 1:])
    spliced = tuple(map(tuple, spliced))
    cost = sum(len(w) - 1 for w in spliced)
    if cost != want:
        raise InternalError(f"the splice changed the edge count: {cost} != {want}")
    return Solution(spliced, cost)


def reconnect(inst: AnyInstance, walks: list[tuple[int, ...]]) -> Solution:
    """Attach every vertex off the walks by a doubled edge (cost two each),
    in `attachment_order`, and splice the doubled edges into the walks."""
    steps = attachment_order(inst.graph, {v for walk in walks for v in walk})
    return splice_excursions(walks, steps + steps)


def _checked(inst: AnyInstance, sol: Solution, what: str) -> Solution:
    """`sol` if it passes `validate_solution`, else an `InternalError`."""
    ok, why = validate_solution(inst, sol)
    if not ok:
        raise InternalError(f"{what} produced an invalid solution: {why}")
    return sol


def _finish(plan: SolverPlan, chosen: list[int | None]) -> tuple[Solution, CostReport]:
    inst = plan.instance
    walks = chosen_walks(plan.decomposition, chosen)
    sampling = sum(len(w) - 1 for w in walks)
    reconnection = 2 * (inst.graph.n - len({v for walk in walks for v in walk}))
    sol = _checked(inst, reconnect(inst, walks), "solver")
    return sol, make_report(sampling, reconnection, 0, plan.lp.objective)


def run_trial(plan: SolverPlan, seed: int) -> tuple[Solution, CostReport]:
    """One sampling + reconnection pass on a prepared plan."""
    return _finish(plan, sample_paths(plan.decomposition, seed))


def solve_randomized(inst: Instance, seed: int) -> tuple[Solution, CostReport]:
    return run_trial(prepare(inst), seed)


def _suffix_products(mass: np.ndarray) -> np.ndarray:
    """sp[h, v] = product over commodities i >= h of (1 - path mass of v)."""
    k, n = mass.shape
    sp = np.ones((k + 1, n))
    for h in range(k - 1, -1, -1):
        sp[h] = sp[h + 1] * (1.0 - mass[h])
    return sp


def derandomize_choices(dec: Decomposition, mass: np.ndarray) -> tuple[list[int | None], list[float]]:
    """Fix one path per commodity by minimizing the conditional expected cost.

    After fixing commodities 1..h the potential is: edges of fixed paths,
    plus twice the sum over still-uncovered non-terminal vertices of the
    probability no later commodity covers them, plus the expected length of
    the paths still to be sampled. Choosing the minimizing path (ties to the
    lowest index) keeps the potential non-increasing, and after the last
    commodity it equals the realized cost of sampling plus reconnection.
    """
    inst = dec.instance
    n = inst.graph.n
    k = inst.k
    sp = _suffix_products(mass)
    expected_len = [sum(p.weight * len(p.arcs) for p in dec.paths[i]) for i in range(k)]
    tail = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        tail[i] = tail[i + 1] + expected_len[i]

    outside = set(range(n)) - inst.terminals
    fixed_len = 0

    def potential(h: int) -> float:
        """The potential once commodities 0..h-1 are fixed."""
        return fixed_len + tail[h] + 2.0 * sum(sp[h, v] for v in outside)

    choices: list[int | None] = []
    trace = [potential(0)]
    for h in range(k):
        if not dec.paths[h]:
            choices.append(None)
            trace.append(potential(h + 1))
            continue
        base = sum(sp[h + 1, v] for v in outside)
        best_j = 0
        best_val = None
        for j, p in enumerate(dec.paths[h]):
            saved = sum(sp[h + 1, v] for v in set(p.vertices) & outside)
            val = len(p.arcs) + 2.0 * (base - saved)
            if best_val is None or val < best_val - EPS_TIE:
                best_val = val
                best_j = j
        choices.append(best_j)
        chosen = dec.paths[h][best_j]
        fixed_len += len(chosen.arcs)
        outside -= set(chosen.vertices)
        trace.append(potential(h + 1))
    return choices, trace


def run_derandomized(plan: SolverPlan) -> tuple[Solution, CostReport]:
    """Deterministic variant. Each call certifies, within EPS_OBJ, that its
    cost is at most phi0 (the opening potential) and phi0 at most 2 * LP."""
    choices, trace = derandomize_choices(plan.decomposition, plan.mass)
    sol, report = _finish(plan, choices)
    phi0, twice_lp = trace[0], 2.0 * plan.lp.objective
    if report.total > phi0 + EPS_OBJ or max(report.total, phi0) > twice_lp + EPS_OBJ:
        raise InternalError(
            f"derandomized cost {report.total} breaks cost <= phi0 {phi0} <= 2 * LP {twice_lp}"
        )
    return sol, report


def solve_derandomized(inst: Instance) -> tuple[Solution, CostReport]:
    return run_derandomized(prepare(inst))
