"""Randomized path sampling with doubled-edge reconnection, and its
conditional-expectation derandomization.

The pipeline: solve the LP, decompose each commodity's flow, pick one path
per split commodity (probability = path weight), then attach every vertex
missed by the sampled paths to an already covered neighbor with a there-and-
back detour costing two edges. The derandomized variant replaces sampling by
a greedy choice that never lets the conditional expected total cost grow, so
its output always costs at most twice the LP optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, decompose, path_mass
from .errors import InternalError
from .graphs import Graph
from .instances import Instance, Solution, validate_solution
from .lp import EPS_OBJ, FractionalSolution, solve_lp


@dataclass
class SamplerState:
    """Chosen path index per commodity (None for depot commodities), the
    working walks, and the covered/pending vertex partition."""

    chosen: tuple[int | None, ...]
    walks: list[list[int]]
    covered: set[int]
    pending: set[int]


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
    the instance: sampling trials, the derandomized pass and the combiner."""

    instance: Instance
    lp: FractionalSolution
    decomposition: Decomposition
    mass: np.ndarray  # (k, n) path mass, see `path_mass`


def prepare(inst: Instance) -> SolverPlan:
    lp_sol = solve_lp(inst)
    dec = decompose(inst, lp_sol)
    return SolverPlan(inst, lp_sol, dec, path_mass(inst, dec))


def _state(dec: Decomposition, chosen: list[int | None]) -> SamplerState:
    """Walks for one chosen path index per commodity; None keeps a singleton."""
    walks = [
        [s] if j is None else list(dec.paths[i][j].vertices)
        for i, ((s, _), j) in enumerate(zip(dec.instance.commodities, chosen))
    ]
    covered = {v for walk in walks for v in walk}
    return SamplerState(tuple(chosen), walks, covered, set(range(dec.instance.graph.n)) - covered)


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


def reconnect(inst: Instance, state: SamplerState) -> SamplerState:
    """Attach every pending vertex with a doubled detour (cost two each).

    The detour [w, v, w] is spliced at the first occurrence of w in the
    lowest-indexed walk containing w, so each walk stays a valid walk with
    unchanged endpoints.
    """
    walks = [list(w) for w in state.walks]
    members = [set(w) for w in walks]
    covered = set(state.covered)
    for v, w in attachment_order(inst.graph, covered):
        i = next(idx for idx in range(len(walks)) if w in members[idx])
        at = walks[i].index(w)
        walks[i][at + 1 : at + 1] = [v, w]
        members[i].add(v)
        covered.add(v)
    return SamplerState(state.chosen, walks, covered, set())


def _finish(plan: SolverPlan, state: SamplerState) -> tuple[Solution, CostReport]:
    inst = plan.instance
    sampling = sum(len(w) - 1 for w in state.walks)
    done = reconnect(inst, state)
    reconnection = 2 * len(state.pending)
    sol = Solution(tuple(tuple(w) for w in done.walks), sampling + reconnection)
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
    choices: list[int | None] = []
    phi0 = tail[0] + 2.0 * sum(sp[0, v] for v in outside)
    trace = [phi0]
    for h in range(k):
        if not dec.paths[h]:
            choices.append(None)
            trace.append(fixed_len + tail[h + 1] + 2.0 * sum(sp[h + 1, v] for v in outside))
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
        trace.append(fixed_len + tail[h + 1] + 2.0 * sum(sp[h + 1, v] for v in outside))
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
