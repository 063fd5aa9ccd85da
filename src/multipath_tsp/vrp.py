"""Multi-depot coverage baseline and the best-of-two combining solver.

The baseline doubles a depot-rooted spanning forest: every non-depot vertex
joins its nearest depot's tree (ties to the lowest depot index), each tree is
walked depth-first with every edge traversed twice, so the cost is exactly
2*(n - k). The combiner runs the derandomized path solver and the depot
baseline on the associated all-depot instance (sinks replaced by sources,
shortest source-sink paths appended afterwards) and keeps the cheaper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceError, InternalError
from .graphs import shortest_path
from .instances import Instance, Solution, validate_solution
from .multipath import SolverPlan, prepare, run_derandomized


@dataclass(frozen=True)
class VrpInstance:
    """A connected graph with pairwise distinct depot vertices."""

    graph: object
    depots: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for d in self.depots:
            if not 0 <= d < self.graph.n:
                raise InstanceError("index-out-of-range", f"depot {d} outside vertex range")
            if d in seen:
                raise InstanceError("duplicate-commodity", f"depot {d} repeated")
            seen.add(d)
        if not self.depots:
            raise InstanceError("schema", "at least one depot required")

    @classmethod
    def from_instance(cls, inst: Instance) -> "VrpInstance":
        for s, t in inst.commodities:
            if s != t:
                raise InstanceError("not-vrp", f"commodity ({s},{t}) has distinct endpoints")
        return cls(inst.graph, tuple(s for s, _ in inst.commodities))

    def to_instance(self) -> Instance:
        return Instance(self.graph, tuple((d, d) for d in self.depots))


@dataclass(frozen=True)
class CombinerReport:
    winner: str                 # "multipath" or "vrp"
    cost_multipath: int
    cost_vrp_branch: int
    vrp_base_cost: int
    distance_sum: int


def solve_vrp_forest(vrp: VrpInstance) -> Solution:
    """Double a nearest-depot spanning forest; one closed walk per depot."""
    g = vrp.graph
    owner = [-1] * g.n
    parent = [-1] * g.n
    queue = deque()
    for idx, d in enumerate(vrp.depots):
        owner[d] = idx
        queue.append(d)
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if owner[w] == -1:
                owner[w] = owner[u]
                parent[w] = u
                queue.append(w)
    if -1 in owner:
        raise InstanceError("disconnected", "graph must be connected")
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        if parent[v] != -1:
            children[parent[v]].append(v)
    for lst in children:
        lst.sort()

    walks: list[tuple[int, ...]] = []
    cost = 0
    for d in vrp.depots:
        walk = [d]
        stack = [(d, iter(children[d]))]
        while stack:
            v, it = stack[-1]
            c = next(it, None)
            if c is None:
                stack.pop()
                if stack:
                    walk.append(stack[-1][0])
            else:
                walk.append(c)
                stack.append((c, iter(children[c])))
        walks.append(tuple(walk))
        cost += len(walk) - 1
    sol = Solution(tuple(walks), cost)
    ok, why = validate_solution(vrp.to_instance(), sol)
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
    vrp_inst = VrpInstance(inst.graph, tuple(unique))
    base_sol = solve_vrp_forest(vrp_inst)
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
