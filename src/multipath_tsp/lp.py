"""Flow LP with lazily separated connectivity cuts.

Columns are per-commodity arc flows x[i,a] plus coverage amounts z[i,v] for
every vertex outside the sink set. Static rows enforce flow conservation,
unit source/sink balance for split commodities, z[i,v] <= outflow_i(v), and
sum_i z[i,v] >= 1. Cut rows x_i(arcs leaving U) >= z[i,v] for v in U are
generated on demand from min-cut separation, so coverage only counts flow
that actually escapes toward the commodity's sink.

Note the coverage amounts are explicit capped variables rather than being
identified with the outflow: identifying them makes the system infeasible
whenever covering a vertex forces revisits (any tree with a branch vertex),
while the capped form is satisfied by every integral walk solution and
leaves all guarantees driven by the derived outflow quantities intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs, kHighsInf

from .errors import InternalError, LpError
from .graphs import BidirectedGraph, CapacitatedNetwork, min_cut
from .instances import Instance

EPS_LP = 1e-7       # row satisfaction tolerance
EPS_SEP = 1e-6      # cut violation threshold
EPS_OBJ = 1e-5      # objective comparisons
MAX_CUT_ROUNDS = 1000


@dataclass(frozen=True)
class CutConstraint:
    """x_i(arcs leaving members) >= z[i, vertex], with vertex in members."""

    commodity: int
    vertex: int
    members: frozenset[int]


class LpModel:
    """Row/column store mirrored into one persistent HiGHS model.

    Each cut row is appended to the same HiGHS handle, so every round's dual
    simplex warm-starts from the previous round's basis. The model is
    per-solve mutable state: unlike the immutable `FractionalSolution` it
    returns, it is not meant to be shared across workers. `_eq_rows` and
    `_ge_rows` keep the rows in Python for `dump_text` and the audits.
    """

    def __init__(self, inst: Instance):
        self.instance = inst
        self.digraph = BidirectedGraph(inst.graph)
        n = inst.graph.n
        k = inst.k
        num_arcs = self.digraph.num_arcs
        self.num_flow_columns = k * num_arcs
        self.cover_vertices = tuple(v for v in range(n) if v not in inst.sinks)
        self._cover_col = {
            (i, v): self.num_flow_columns + i * len(self.cover_vertices) + j
            for i in range(k)
            for j, v in enumerate(self.cover_vertices)
        }
        self.num_columns = self.num_flow_columns + k * len(self.cover_vertices)
        self._eq_rows: list[tuple[dict[int, float], float]] = []
        self._ge_rows: list[tuple[dict[int, float], float]] = []
        self.cuts: list[CutConstraint] = []
        self._cut_keys: set[tuple[int, int, frozenset[int]]] = set()
        self._add_static_rows()
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        costs = np.zeros(self.num_columns)
        costs[: self.num_flow_columns] = 1.0
        no_entries = np.zeros(self.num_columns, dtype=np.int32)
        self._check(self._highs.addCols(
            self.num_columns, costs, np.zeros(self.num_columns), np.full(self.num_columns, kHighsInf),
            0, no_entries, np.zeros(0, dtype=np.int32), np.zeros(0),
        ))
        self._pass_rows(self._eq_rows, equality=True)
        self._pass_rows(self._ge_rows, equality=False)

    def flow_col(self, i: int, a: int) -> int:
        return i * self.digraph.num_arcs + a

    def cover_col(self, i: int, v: int) -> int:
        return self._cover_col[(i, v)]

    @staticmethod
    def _check(status: HighsStatus) -> None:
        if status == HighsStatus.kError:
            raise InternalError("HiGHS rejected a model change")

    def _pass_rows(self, rows: list[tuple[dict[int, float], float]], equality: bool) -> None:
        """Hand rows to HiGHS in CSR form: lower = b, upper = b or +inf."""
        starts: list[int] = []
        indices: list[int] = []
        values: list[float] = []
        for coefs, _ in rows:
            starts.append(len(indices))
            indices.extend(coefs)
            values.extend(coefs.values())
        lower = np.array([b for _, b in rows], dtype=float)
        upper = lower if equality else np.full(len(rows), kHighsInf)
        self._check(self._highs.addRows(
            len(rows), lower, upper, len(indices),
            np.array(starts, dtype=np.int32), np.array(indices, dtype=np.int32), np.array(values),
        ))

    def _add_static_rows(self) -> None:
        inst = self.instance
        dig = self.digraph
        for i, (s, t) in enumerate(inst.commodities):
            skip = {s, t} - ({s} & {t})  # symmetric difference
            for v in range(inst.graph.n):
                if v in skip:
                    continue
                coefs: dict[int, float] = {}
                for a in dig.out_arcs[v]:
                    coefs[self.flow_col(i, a)] = coefs.get(self.flow_col(i, a), 0.0) + 1.0
                for a in dig.in_arcs[v]:
                    coefs[self.flow_col(i, a)] = coefs.get(self.flow_col(i, a), 0.0) - 1.0
                if coefs:
                    self._eq_rows.append((coefs, 0.0))
            if s != t:
                coefs = {self.flow_col(i, a): 1.0 for a in dig.out_arcs[s]}
                for a in dig.in_arcs[s]:
                    coefs[self.flow_col(i, a)] = coefs.get(self.flow_col(i, a), 0.0) - 1.0
                self._eq_rows.append((coefs, 1.0))
                coefs = {self.flow_col(i, a): 1.0 for a in dig.in_arcs[t]}
                for a in dig.out_arcs[t]:
                    coefs[self.flow_col(i, a)] = coefs.get(self.flow_col(i, a), 0.0) - 1.0
                self._eq_rows.append((coefs, 1.0))
            # z[i,v] bounded by the outflow of v in commodity i
            for v in self.cover_vertices:
                coefs = {self.cover_col(i, v): -1.0}
                for a in dig.out_arcs[v]:
                    coefs[self.flow_col(i, a)] = 1.0
                self._ge_rows.append((coefs, 0.0))
        for v in self.cover_vertices:
            coefs = {self.cover_col(i, v): 1.0 for i in range(inst.k)}
            self._ge_rows.append((coefs, 1.0))

    def add_cut(self, cut: CutConstraint) -> bool:
        """Append one cut row; returns False if it is already present."""
        key = (cut.commodity, cut.vertex, cut.members)
        if key in self._cut_keys:
            return False
        coefs: dict[int, float] = {self.cover_col(cut.commodity, cut.vertex): -1.0}
        for a, (u, w) in enumerate(self.digraph.arcs):
            if u in cut.members and w not in cut.members:
                coefs[self.flow_col(cut.commodity, a)] = 1.0
        self._ge_rows.append((coefs, 0.0))
        self._pass_rows(self._ge_rows[-1:], equality=False)
        self._cut_keys.add(key)
        self.cuts.append(cut)
        return True

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Re-optimize the current rows; returns (flows, cover, objective)."""
        k, num_arcs, n = self.instance.k, self.digraph.num_arcs, self.instance.graph.n
        if self.num_columns == 0:
            return np.zeros((k, num_arcs)), np.zeros((k, n)), 0.0
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != HighsModelStatus.kOptimal:
            raise LpError(f"LP backend infeasible or failed: {self._highs.modelStatusToString(status)}")
        x = np.maximum(np.asarray(self._highs.getSolution().col_value), 0.0)
        flows = x[: self.num_flow_columns].reshape(k, num_arcs)
        cover = np.zeros((k, n))
        cover[:, self.cover_vertices] = x[self.num_flow_columns:].reshape(k, len(self.cover_vertices))
        return flows, cover, float(flows.sum())

    def dump_text(self) -> str:
        """Human-readable rows with x_i_u_v / z_i_v names."""
        dig = self.digraph
        names = {}
        for i in range(self.instance.k):
            for a, (u, v) in enumerate(dig.arcs):
                names[self.flow_col(i, a)] = f"x_{i}_{u}_{v}"
            for v in self.cover_vertices:
                names[self.cover_col(i, v)] = f"z_{i}_{v}"

        def render(coefs: dict[int, float]) -> str:
            parts = []
            for col in sorted(coefs):
                val = coefs[col]
                sign = "-" if val < 0 else "+"
                mag = abs(val)
                coef = "" if mag == 1 else f"{mag:g} "
                parts.append(f"{sign} {coef}{names[col]}")
            return " ".join(parts)

        lines = ["minimize"]
        lines.append("  " + " ".join(f"+ {names[c]}" for c in range(self.num_flow_columns)))
        lines.append("subject to")
        for coefs, b in self._eq_rows:
            lines.append(f"  {render(coefs)} = {b:g}")
        for coefs, b in self._ge_rows:
            lines.append(f"  {render(coefs)} >= {b:g}")
        lines.append("bounds: all variables >= 0")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """LP optimum: per-commodity arc flows plus coverage amounts.

    `cover` holds the capped coverage variables the cut rows act on;
    `outflow_matrix` gives the per-commodity outflow of every vertex.
    """

    instance: Instance
    digraph: BidirectedGraph
    flows: np.ndarray          # shape (k, num_arcs)
    cover: np.ndarray          # shape (k, n), zero at sink columns
    objective: float
    cuts: tuple[CutConstraint, ...] = field(default=())

    def outflow_matrix(self) -> np.ndarray:
        n = self.instance.graph.n
        out = np.zeros((self.instance.k, n))
        for v in range(n):
            cols = list(self.digraph.out_arcs[v])
            if cols:
                out[:, v] = self.flows[:, cols].sum(axis=1)
        return out


def _flow_across(sol: FractionalSolution, i: int, members: frozenset[int]) -> float:
    total = 0.0
    for a, (u, w) in enumerate(sol.digraph.arcs):
        if u in members and w not in members:
            total += sol.flows[i, a]
    return float(total)


def separate(inst: Instance, sol: FractionalSolution) -> list[CutConstraint]:
    """Violated cut constraints for the given solution, one min-cut per (i, v).

    For each commodity i and vertex v outside the sink set with coverage
    above EPS_SEP, computes the min cut from v to t_i under capacities
    x_i and reports the cut set whenever its value is below z[i,v] - EPS_SEP.
    Deterministic: vertices scanned in increasing order per commodity.
    """
    cuts: list[CutConstraint] = []
    sinks = inst.sinks
    for i, (s, t) in enumerate(inst.commodities):
        net = None
        for v in range(inst.graph.n):
            if v in sinks or v == t:
                continue
            needed = float(sol.cover[i, v])
            if needed <= EPS_SEP:
                continue
            if net is None:
                net = CapacitatedNetwork(sol.digraph, sol.flows[i])
            value, members = min_cut(net, v, t)
            if value < needed - EPS_SEP:
                cuts.append(CutConstraint(i, v, members))
    return cuts


def solve_lp(
    inst: Instance,
    on_round: Callable[[FractionalSolution, list[CutConstraint]], None] | None = None,
) -> FractionalSolution:
    """Cutting-plane loop: solve, separate, add cuts, repeat until clean.

    `on_round` (if given) observes every iterate and the cuts it produced,
    which is how the audit tests replay separation soundness.
    """
    model = LpModel(inst)
    prev_obj = -np.inf
    for _ in range(MAX_CUT_ROUNDS):
        flows, cover, obj = model.solve()
        if obj < prev_obj - EPS_LP:
            raise InternalError(f"objective decreased across cut rounds: {prev_obj} -> {obj}")
        prev_obj = obj
        sol = FractionalSolution(inst, model.digraph, flows, cover, obj, tuple(model.cuts))
        found = separate(inst, sol)
        if on_round is not None:
            on_round(sol, found)
        if not found:
            return sol
        added = 0
        for cut in found:
            crossing = _flow_across(sol, cut.commodity, cut.members)
            if crossing >= sol.cover[cut.commodity, cut.vertex] - EPS_SEP:
                raise InternalError(f"separation emitted a non-violated cut: {cut}")
            if model.add_cut(cut):
                added += 1
        if added == 0:
            raise LpError("separation found violations but no new cut rows; tolerance mismatch")
    raise LpError(f"iteration limit exceeded ({MAX_CUT_ROUNDS} cut rounds)")
