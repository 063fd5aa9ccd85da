"""Ordered tour solver: sampling, single-edge reconnection and join-based
parity correction.

Each uncovered vertex costs one edge here instead of two, and a minimum join
fixes the odd degrees. Every terminal starts one walk and ends another, so
the sampled walks add even degree everywhere and the join needs only the odd
set of the reconnection edges. Reconnections plus join are then even, and
`multipath.splice_excursions` splices them, as one list of (u, v) edge
copies, into the walks as closed excursions, which keeps every walk's
endpoints and so the terminal order.
"""

from __future__ import annotations

from .errors import InternalError
from .instances import OrderedInstance, Solution, validate_solution
from .lp import EPS_OBJ
from .multipath import (
    CostReport, SolverPlan, attachment_order, chosen_walks, make_report, prepare, sample_paths, splice_excursions,
)
from .parity import TJoin, min_tjoin, odd_vertices

# The ordered solver runs on the same plan and splice as the others; the
# names stay because perfbench/workloads.py calls the first and
# perfbench/spans.py traces the second.
prepare_ordered = prepare
extract_ordered_walks = splice_excursions


def validate_ordered(inst: OrderedInstance, sol: Solution) -> tuple[bool, str | None]:
    """`validate_solution`: walk i must run from o_i to o_{i+1}, so walks
    that pass visit the terminals in cyclic order. Not an alias, so that
    perfbench traces it apart from `validate_solution`."""
    return validate_solution(inst, sol)


def run_ordered_trial(plan: SolverPlan, seed: int) -> tuple[Solution, CostReport, TJoin]:
    """One sampling + reconnection + parity pass on the plan of an
    OrderedInstance."""
    inst = plan.instance
    g = inst.graph
    walks = chosen_walks(plan.decomposition, sample_paths(plan.decomposition, seed))
    steps = attachment_order(g, set().union(*walks))
    join = min_tjoin(g, odd_vertices(steps))
    sol = splice_excursions(walks, steps + [g.edges[e] for e in join.edges])
    sampling = sum(len(w) - 1 for w in walks)
    report = make_report(sampling, len(steps), join.cost, plan.lp.objective)
    if join.cost > plan.lp.objective / 2.0 + EPS_OBJ:
        raise InternalError("parity join exceeded half the LP value")
    ok, why = validate_ordered(inst, sol)
    if not ok:
        raise InternalError(f"ordered solver produced an invalid solution: {why}")
    return sol, report, join
