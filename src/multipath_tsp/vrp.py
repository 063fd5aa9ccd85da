"""Multi-depot coverage baseline and the best-of-two combining solver.

The baseline doubles a depot-rooted spanning forest: a multi-source BFS puts
every non-depot vertex in its nearest depot's tree (ties to the lowest depot
index), and `multipath.splice_excursions` splices each doubled tree into its
depot's walk, so the cost is exactly 2*(n - k). The combiner runs the
derandomized path solver and the depot baseline on the associated all-depot
instance (sinks replaced by sources, shortest source-sink paths appended
afterwards) and keeps the cheaper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceError, InternalError
from .graphs import shortest_path
from .instances import Instance, Solution, validate_solution
from .multipath import SolverPlan, prepare, run_derandomized, splice_excursions
from .parity import EdgeMultiset


@dataclass(frozen=True)
class CombinerReport:
    winner: str                 # "multipath" or "vrp"
    cost_multipath: int
    cost_vrp_branch: int
    vrp_base_cost: int
    distance_sum: int


def solve_vrp_forest(inst: Instance) -> Solution:
    """Double a nearest-depot spanning forest; one closed walk per depot.

    Every commodity must be a depot (s == t), else `not-vrp`.
    """
    for s, t in inst.commodities:
        if s != t:
            raise InstanceError("not-vrp", f"commodity ({s},{t}) has distinct endpoints")
    depots = [s for s, _ in inst.commodities]
    g = inst.graph
    seen = [False] * g.n
    for d in depots:
        seen[d] = True
    extra = EdgeMultiset(g)
    queue = deque(depots)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                extra.add(u, w, 2)
                queue.append(w)
    sol = splice_excursions(g, [[d] for d in depots], extra)
    ok, why = validate_solution(inst, sol)
    if not ok:
        raise InternalError(f"forest baseline produced an invalid solution: {why}")
    return sol


def run_combiner(plan: SolverPlan) -> tuple[Solution, CombinerReport]:
    """Best of the derandomized path solver and the depot-baseline branch.

    The depot branch solves the instance with every sink moved onto its
    source (duplicated sources collapse to one depot; the extra commodities
    keep singleton walks) and then appends a shortest source-sink path to
    each walk.
    """
    inst = plan.instance
    sol1, _ = run_derandomized(plan)

    unique: list[int] = []
    first_for_depot: dict[int, int] = {}
    for i, (s, _) in enumerate(inst.commodities):
        if s not in first_for_depot:
            first_for_depot[s] = i
            unique.append(s)
    base_sol = solve_vrp_forest(Instance(inst.graph, tuple((d, d) for d in unique)))
    base_cost = base_sol.cost

    walks: list[tuple[int, ...]] = []
    d_sum = 0
    for i, (s, t) in enumerate(inst.commodities):
        if first_for_depot[s] == i:
            walk = list(base_sol.walks[unique.index(s)])
        else:
            walk = [s]
        if s != t:
            route = shortest_path(inst.graph, s, t)
            walk.extend(route[1:])
            d_sum += len(route) - 1
        walks.append(tuple(walk))
    sol2 = Solution(tuple(walks), sum(len(w) - 1 for w in walks))
    ok, why = validate_solution(inst, sol2)
    if not ok:
        raise InternalError(f"depot branch produced an invalid solution: {why}")

    report = CombinerReport(
        winner="multipath" if sol1.cost <= sol2.cost else "vrp",
        cost_multipath=sol1.cost,
        cost_vrp_branch=sol2.cost,
        vrp_base_cost=base_cost,
        distance_sum=d_sum,
    )
    return (sol1 if sol1.cost <= sol2.cost else sol2), report


def solve_combiner(inst: Instance) -> tuple[Solution, CombinerReport]:
    return run_combiner(prepare(inst))
