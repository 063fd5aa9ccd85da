"""Multi-depot coverage baseline and the best-of-two combining solver.

Both splice one doubled forest into walks: a multi-source BFS puts every
vertex in a nearest root's tree (ties to the earliest root), and each tree
edge is taken twice, 2*(n - roots) edges in all. The baseline roots it at the
depots, one walk each. The combiner's depot branch (sinks moved onto their
sources, then the shortest source-sink paths appended) roots it at the
distinct sources and splices it into those paths; the cheaper of that branch
and the derandomized path solver wins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceError
from .graphs import Graph, shortest_path
from .instances import Instance, Solution
from .multipath import SolverPlan, _checked, prepare, run_derandomized, splice_excursions


@dataclass(frozen=True)
class CombinerReport:
    winner: str                 # "multipath" or "vrp"
    cost_multipath: int
    cost_vrp_branch: int
    vrp_base_cost: int
    distance_sum: int


def _doubled_forest(g: Graph, roots: list[int]) -> list[tuple[int, int]]:
    """Every BFS tree edge of a multi-source BFS from `roots`, taken twice."""
    seen = [False] * g.n
    for r in roots:
        seen[r] = True
    forest = []
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                forest += [(u, w), (u, w)]
                queue.append(w)
    return forest


def solve_vrp_forest(inst: Instance) -> Solution:
    """Double a nearest-depot spanning forest; one closed walk per depot.

    Every commodity must be a depot (s == t), else `not-vrp`.
    """
    for s, t in inst.commodities:
        if s != t:
            raise InstanceError("not-vrp", f"commodity ({s},{t}) has distinct endpoints")
    depots = [s for s, _ in inst.commodities]
    sol = splice_excursions([[d] for d in depots], _doubled_forest(inst.graph, depots))
    return _checked(inst, sol, "forest baseline")


def run_combiner(plan: SolverPlan) -> tuple[Solution, CombinerReport]:
    """Best of the derandomized path solver and the depot branch; ties go
    to the path solver.

    The depot branch splices the doubled forest rooted at the distinct
    sources (in first-occurrence order) into the shortest source-sink paths.
    `vrp_base_cost` is the forest's edge count, 2*(n - distinct sources),
    and `distance_sum` the paths' total length.
    """
    inst = plan.instance
    g = inst.graph
    sol1, _ = run_derandomized(plan)
    forest = _doubled_forest(g, list(dict.fromkeys(s for s, _ in inst.commodities)))
    routes = [[s] if s == t else shortest_path(g, s, t) for s, t in inst.commodities]
    sol2 = _checked(inst, splice_excursions(routes, forest), "depot branch")
    report = CombinerReport(
        winner="multipath" if sol1.cost <= sol2.cost else "vrp",
        cost_multipath=sol1.cost,
        cost_vrp_branch=sol2.cost,
        vrp_base_cost=len(forest),
        distance_sum=sum(len(r) - 1 for r in routes),
    )
    return (sol1 if sol1.cost <= sol2.cost else sol2), report


def solve_combiner(inst: Instance) -> tuple[Solution, CombinerReport]:
    return run_combiner(prepare(inst))
