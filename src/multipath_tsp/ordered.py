"""Ordered tour solver: sampling, single-edge reconnection and join-based
parity correction.

Each uncovered vertex costs one edge here instead of two; the resulting odd
degrees of the combined edge multiset are then fixed by a minimum join. The
extra edges (reconnections plus the join) have even degree at every vertex,
so `multipath.splice_excursions` splices them into the sampled walks as
closed excursions, which keeps every walk's endpoints and so the terminal
order.
"""

from __future__ import annotations

from .errors import InternalError
from .instances import OrderedInstance, Solution, validate_solution
from .lp import EPS_OBJ
from .multipath import CostReport, SolverPlan, attachment_order, make_report, prepare, sample_paths, splice_excursions
from .parity import EdgeMultiset, TJoin, min_tjoin, odd_vertices

# The ordered solver runs on the same plan and splice as the others; the
# names stay because perfbench/workloads.py calls the first and
# perfbench/spans.py traces the second.
prepare_ordered = prepare
extract_ordered_walks = splice_excursions


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


def run_ordered_trial(plan: SolverPlan, seed: int) -> tuple[Solution, CostReport, TJoin]:
    """One sampling + reconnection + parity pass on the plan of an
    OrderedInstance."""
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
    sol = splice_excursions(g, state.walks, extra)
    sampling = sum(len(w) - 1 for w in state.walks)
    report = make_report(sampling, len(steps), join.cost, plan.lp.objective)
    if sol.cost != report.total:
        raise InternalError(f"the splice changed the edge count: {sol.cost} != {report.total}")
    if join.cost > plan.lp.objective / 2.0 + EPS_OBJ:
        raise InternalError("parity join exceeded half the LP value")
    ok, why = validate_ordered(inst, sol)
    if not ok:
        raise InternalError(f"ordered solver produced an invalid solution: {why}")
    return sol, report, join


def solve_ordered(inst: OrderedInstance, seed: int) -> tuple[Solution, CostReport]:
    sol, report, _ = run_ordered_trial(prepare(inst), seed)
    return sol, report
