"""The three workloads: their ladders, one op each, and the checks on every op.

Ops call the program through module attributes (`multipath.prepare`, not a
name imported once), so the traced run's wrappers see every call. Checks run
outside the timed interval and never raise: a failed check or a raising op
counts as one failed op.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter

import multipath_tsp.exact as exact
import multipath_tsp.instances as instances
import multipath_tsp.lp as lp
import multipath_tsp.multipath as multipath
import multipath_tsp.ordered as ordered
import multipath_tsp.vrp as vrp

from gen import Rung, base_instance, build

HERE = os.path.dirname(os.path.abspath(__file__))
EPS_OBJ = 1e-5          # objective tolerance, the program's EPS_OBJ at the time of writing
TRIALS_PER_ROW = 4      # run_trial calls in one mp-ladder op
ORACLE_LIMIT_FREE = 12  # limit_free passed to exact_opt on desk-oracle
SETUP_REPEATS = 25      # ladder builds timed for setup_s on mp-ladder and desk-oracle


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """Result of checking one op."""

    ok: bool
    why: str | None = None
    cost_over_lp: float | None = None
    cost_over_opt: float | None = None
    counters: dict | None = None


def _valid(inst, sol) -> str | None:
    ok, why = instances.validate_solution(inst, sol)
    return None if ok else f"invalid solution: {why}"


def _same(value: float, ref: float) -> bool:
    return abs(value - ref) <= EPS_OBJ


class Workload:
    """A fixed ladder of base instances and the op run on each rung.

    The run's seed varies the sampling seeds of the ops, never the
    instances. Any relabeling of an instance, even of its commodity order
    alone, moves the LP cut loop to another path and its time by 15-45%,
    and with it the decomposition that trials sample from. With a dozen ops
    per mp-ladder run and four ordered plans, seeded relabeling spread
    throughput by 20-30% between seeds, and on desk-oracle it moved the
    median latency by 20%.

    `setup()` runs before the first pass and records each set-up's seconds
    in `setup_times`; `pass_items(p)` returns the op inputs of pass p, one
    per rung, built afresh so no pass reuses another's objects.
    """

    name = ""

    def __init__(self, spec: dict, reference: dict, seed: int):
        self.seed = seed
        self.rungs = [Rung(**r) for r in spec["workloads"][self.name]["rungs"]]
        self.bases = [base_instance(r, spec["ladder_seed"], i) for i, r in enumerate(self.rungs)]
        self.ref_lp = reference[self.name]["lp"]
        self.setup_times: list[float] = []

    def op_seed(self, pass_no: int, index: int) -> int:
        return (self.seed * 1_000_003 + pass_no * len(self.rungs) + index) * 31

    def setup(self) -> None:
        """A set-up builds every rung's instance; repeated for a steady median."""
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            for base in self.bases:
                build(base)
            self.setup_times.append(perf_counter() - t0)

    def pass_items(self, pass_no: int) -> list:
        return [(i, build(base), self.op_seed(pass_no, i)) for i, base in enumerate(self.bases)]


class MpLadder(Workload):
    """One op is the experiment row: LP value, derandomized, combiner, a few trials."""

    name = "mp-ladder"

    def op(self, item):
        _, inst, seed = item
        plan = multipath.prepare(inst)
        derand = multipath.solve_derandomized(inst)
        combined = vrp.solve_combiner(inst)
        trials = [multipath.run_trial(plan, seed + j) for j in range(TRIALS_PER_ROW)]
        return plan, derand, combined, trials

    def check(self, item, result) -> Outcome:
        index, inst, _ = item
        plan, (sol_d, rep_d), (sol_c, rep_c), trials = result
        ref = self.ref_lp[index]
        for value in (plan.lp.objective, rep_d.lp_objective):
            if not _same(value, ref):
                return Outcome(False, f"LP value {value} differs from reference {ref}")
        for sol in (sol_d, sol_c, *(t[0] for t in trials)):
            why = _valid(inst, sol)
            if why:
                return Outcome(False, why)
        if sol_d.cost > 2.0 * ref + EPS_OBJ:
            return Outcome(False, f"derandomized cost {sol_d.cost} exceeds 2*LP {2.0 * ref}")
        if sol_c.cost > sol_d.cost:
            return Outcome(False, f"combiner cost {sol_c.cost} exceeds derandomized {sol_d.cost}")
        return Outcome(True, cost_over_lp=sol_c.cost / ref,
                       counters={"vrp.combiner.vrp_wins": float(rep_c.winner == "vrp")})


class OrderedTrials(Workload):
    """prepare_ordered runs in set-up; one op is one run_ordered_trial."""

    name = "ordered-trials"

    def setup(self) -> None:
        """A set-up builds one rung's instance and runs prepare_ordered on it."""
        self.plans = []
        self.plan_errors: list[str | None] = []
        for i in range(len(self.bases)):
            t0 = perf_counter()
            plan = ordered.prepare_ordered(build(self.bases[i]))
            self.setup_times.append(perf_counter() - t0)
            ok = _same(plan.lp.objective, self.ref_lp[i])
            self.plans.append(plan)
            self.plan_errors.append(None if ok else f"LP value {plan.lp.objective} differs from reference {self.ref_lp[i]}")

    def pass_items(self, pass_no: int) -> list:
        return [(i, plan, self.op_seed(pass_no, i)) for i, plan in enumerate(self.plans)]

    def op(self, item):
        _, plan, seed = item
        return ordered.run_ordered_trial(plan, seed)

    def check(self, item, result) -> Outcome:
        index, plan, _ = item
        sol, report, join = result
        if self.plan_errors[index]:
            return Outcome(False, self.plan_errors[index])
        ok, why = ordered.validate_ordered(plan.instance, sol)
        if not ok:
            return Outcome(False, f"invalid ordered solution: {why}")
        ref = self.ref_lp[index]
        if join.cost > ref / 2.0 + EPS_OBJ:
            return Outcome(False, f"join {join.cost} exceeds LP/2 {ref / 2.0}")
        if report.total != sol.cost:
            return Outcome(False, f"reported cost {report.total} differs from walk cost {sol.cost}")
        return Outcome(True, cost_over_lp=sol.cost / ref)


class DeskOracle(Workload):
    """One op is exact_opt plus solve_combiner on a desk-scale instance.

    The op is deterministic, so the seed does not change it.
    """

    name = "desk-oracle"

    def __init__(self, spec: dict, reference: dict, seed: int):
        super().__init__(spec, reference, seed)
        self.ref_opt = reference[self.name]["opt"]

    def op(self, item):
        _, inst, _ = item
        res = exact.exact_opt(inst, limit_free=ORACLE_LIMIT_FREE)
        combined = vrp.solve_combiner(inst)
        return res, combined

    def check(self, item, result) -> Outcome:
        index, inst, _ = item
        res, (sol_c, rep_c) = result
        ref_lp, ref_opt = self.ref_lp[index], self.ref_opt[index]
        lp_value = lp.solve_lp(inst).objective
        if not _same(lp_value, ref_lp):
            return Outcome(False, f"LP value {lp_value} differs from reference {ref_lp}")
        if res.cost != ref_opt:
            return Outcome(False, f"optimum {res.cost} differs from reference {ref_opt}")
        witness = exact.reconstruct_walks(inst, res)
        for sol in (sol_c, witness):
            why = _valid(inst, sol)
            if why:
                return Outcome(False, why)
        if witness.cost != res.cost:
            return Outcome(False, f"oracle walks cost {witness.cost}, oracle reports {res.cost}")
        if not ref_lp <= res.cost + EPS_OBJ:
            return Outcome(False, f"LP {ref_lp} exceeds optimum {res.cost}")
        if not res.cost <= sol_c.cost <= rep_c.cost_multipath:
            return Outcome(False, f"need OPT {res.cost} <= combiner {sol_c.cost} <= derandomized {rep_c.cost_multipath}")
        if rep_c.cost_multipath > 2.0 * ref_lp + EPS_OBJ:
            return Outcome(False, f"derandomized cost {rep_c.cost_multipath} exceeds 2*LP {2.0 * ref_lp}")
        free = inst.graph.n - len(inst.terminals)
        return Outcome(True, cost_over_lp=sol_c.cost / ref_lp, cost_over_opt=sol_c.cost / res.cost,
                       counters={"vrp.combiner.vrp_wins": float(rep_c.winner == "vrp"),
                                 "exact.free_vertices": float(free)})


WORKLOADS = {cls.name: cls for cls in (MpLadder, OrderedTrials, DeskOracle)}
