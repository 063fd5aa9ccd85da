"""Randomized path sampling with doubled-edge reconnection, its
conditional-expectation derandomization, and the one splice that turns
walks plus an even edge multiset into walks.

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

import numpy as np

from .decomposition import Decomposition, decompose, path_mass
from .errors import InternalError
from .graphs import Graph, all_pairs_distances
from .instances import AnyInstance, Instance, Solution, validate_solution
from .lp import EPS_OBJ, FractionalSolution, solve_lp
from .parity import EdgeMultiset


@dataclass
class SamplerState:
    """Chosen path index per commodity (None for depot commodities), the
    sampled walks, and the vertices they cover."""

    chosen: tuple[int | None, ...]
    walks: list[list[int]]
    covered: set[int]


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
    ordered trials. `mass` and `dists` are computed on first use, so a plan
    only pays for what its solvers read."""

    instance: AnyInstance
    lp: FractionalSolution
    decomposition: Decomposition

    @cached_property
    def mass(self) -> np.ndarray:
        """(k, n) path mass (see `path_mass`), read by the derandomized pass."""
        return path_mass(self.instance, self.decomposition)

    @cached_property
    def dists(self) -> list[list[int]]:
        """All-pairs distances, read by the ordered join."""
        return all_pairs_distances(self.instance.graph)


def prepare(inst: AnyInstance) -> SolverPlan:
    lp_sol = solve_lp(inst)
    return SolverPlan(inst, lp_sol, decompose(inst, lp_sol))


def _state(dec: Decomposition, chosen: list[int | None]) -> SamplerState:
    """Walks for one chosen path index per commodity; None keeps a singleton."""
    walks = [
        [s] if j is None else list(dec.paths[i][j].vertices)
        for i, ((s, _), j) in enumerate(zip(dec.instance.commodities, chosen))
    ]
    return SamplerState(tuple(chosen), walks, {v for walk in walks for v in walk})


def sample_paths(dec: Decomposition, seed: int) -> SamplerState:
    """Pick one path per split commodity; depot commodities keep a singleton.

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
    return _state(dec, chosen)


def attachment_order(graph: Graph, covered: set[int]) -> list[tuple[int, int]]:
    """Deterministic reconnection schedule: repeatedly attach the lowest
    pending vertex that has a covered neighbor, via its lowest such neighbor."""
    covered = set(covered)
    pending = set(range(graph.n)) - covered
    steps: list[tuple[int, int]] = []
    while pending:
        chosen_pair = None
        for v in sorted(pending):
            nbrs = [w for w in graph.adj[v] if w in covered]
            if nbrs:
                chosen_pair = (v, nbrs[0])
                break
        if chosen_pair is None:
            raise InternalError("no pending vertex has a covered neighbor; graph not connected?")
        v, w = chosen_pair
        steps.append((v, w))
        covered.add(v)
        pending.discard(v)
    return steps


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


def splice_excursions(g: Graph, walks, extra: EdgeMultiset) -> Solution:
    """Splice an edge multiset with even degree at every vertex into the
    walks as closed excursions, one per connected component of `extra`.

    Each component is traversed as an Eulerian circuit (lowest neighbor
    first) anchored at its lowest vertex that lies on a walk, and inserted
    at the first occurrence of that vertex in the lowest-indexed walk
    containing it. Walk endpoints do not move, and the result uses every
    walk edge and every extra edge exactly once.
    """
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

    walks = [list(w) for w in walks]
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


def reconnect(inst: AnyInstance, state: SamplerState) -> Solution:
    """Attach every uncovered vertex by a doubled edge (cost two each), in
    `attachment_order`, and splice the doubled edges into the walks."""
    extra = EdgeMultiset(inst.graph)
    for v, w in attachment_order(inst.graph, state.covered):
        extra.add(v, w, 2)
    return splice_excursions(inst.graph, state.walks, extra)


def _finish(plan: SolverPlan, state: SamplerState) -> tuple[Solution, CostReport]:
    inst = plan.instance
    sampling = sum(len(w) - 1 for w in state.walks)
    reconnection = 2 * (inst.graph.n - len(state.covered))
    sol = reconnect(inst, state)
    if sol.cost != sampling + reconnection:
        raise InternalError(f"the splice changed the edge count: {sol.cost} != {sampling + reconnection}")
    ok, why = validate_solution(inst, sol)
    if not ok:
        raise InternalError(f"solver produced an invalid solution: {why}")
    return sol, make_report(sampling, reconnection, 0, plan.lp.objective)


def run_trial(plan: SolverPlan, seed: int) -> tuple[Solution, CostReport]:
    """One sampling + reconnection pass on a prepared plan."""
    state = sample_paths(plan.decomposition, seed)
    return _finish(plan, state)


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
            if best_val is None or val < best_val - 1e-12:
                best_val = val
                best_j = j
        choices.append(best_j)
        chosen = dec.paths[h][best_j]
        fixed_len += len(chosen.arcs)
        outside -= set(chosen.vertices)
        trace.append(potential(h + 1))
    return choices, trace


def run_derandomized(plan: SolverPlan) -> tuple[Solution, CostReport]:
    """Deterministic variant; output cost is at most 2 * LP + EPS_OBJ."""
    choices, _ = derandomize_choices(plan.decomposition, plan.mass)
    sol, report = _finish(plan, _state(plan.decomposition, choices))
    if report.total > 2.0 * plan.lp.objective + EPS_OBJ:
        raise InternalError(
            f"derandomized cost {report.total} exceeds twice the LP value {plan.lp.objective}"
        )
    return sol, report


def solve_derandomized(inst: Instance) -> tuple[Solution, CostReport]:
    return run_derandomized(prepare(inst))
