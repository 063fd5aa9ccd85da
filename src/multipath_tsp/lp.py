"""Flow LP with lazily separated connectivity cuts.

Columns are per-commodity arc flows x[i,a] plus coverage amounts z[i,v] for
every vertex outside the sink set. Static rows enforce flow conservation,
unit source/sink balance for split commodities, z[i,v] <= outflow_i(v), and
sum_i z[i,v] >= 1. Cut rows x_i(arcs leaving U) >= z[i,v] for v in U are
generated on demand from min-cut separation, so coverage only counts flow
that actually escapes toward the commodity's sink. Each separated cut
(i, v, U) is lifted to every other commodity j whose sink lies outside U:
v is a non-sink in U and t_j is not, so every walk solution satisfies the
row (j, v, U) too, and adding it ahead of time spares the rounds that would
find the same (v, U) once per commodity. `HighsModel` is the one user of
scipy's HiGHS binding: this LP and the parity join's matching LP share it.

This is the package's one scipy import. It needs two of scipy's compiled
modules, the HiGHS binding and `linear_sum_assignment` (the parity join's
assignment bound), and `_extension` loads each straight from its file under
the scipy package. Importing either by name would first run
`scipy/optimize/__init__.py`, which loads all of scipy.optimize, scipy.linalg
and scipy.sparse: about 550 modules and 45 MB under scipy 1.17.1, most of a
small CLI call's start-up. The loaded modules are not entered in
`sys.modules`, so a later `import scipy.optimize` imports its submodules as
usual, and Python's extension cache hands it the same compiled objects.

Note the coverage amounts are explicit capped variables rather than being
identified with the outflow: identifying them makes the system infeasible
whenever covering a vertex forces revisits (any tree with a branch vertex),
while the capped form is satisfied by every integral walk solution and
leaves all guarantees driven by the derived outflow quantities intact.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from typing import Callable, Iterable

import numpy as np
import scipy  # runs only scipy's own version checks and set-up, not scipy.optimize


def _extension(name: str):
    """scipy's compiled module `name`: the one in `sys.modules` if any, else loaded from its file."""
    if name in sys.modules:
        module = sys.modules[name]
        if module is None:
            raise ImportError(f"import of {name} halted; None in sys.modules")
        return module
    stem = os.path.join(scipy.__path__[0], *name.split(".")[1:])
    for suffix in EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = ExtensionFileLoader(name, stem + suffix)
            module = module_from_spec(spec_from_file_location(name, stem + suffix, loader=loader))
            loader.exec_module(module)
            # a single-phase extension (scipy's _lsap) enters itself in sys.modules on creation; left
            # there, a later `import scipy.optimize._lsap` would find it and never set it on its package
            if sys.modules.get(name) is module:
                del sys.modules[name]
            return module
    raise ImportError(f"no compiled file for {name} under {scipy.__path__[0]}")


try:  # private modules at fixed paths under scipy/optimize/: a scipy release may move them
    _core = _extension("scipy.optimize._highspy._core")
    HighsModelStatus, HighsStatus, MatrixFormat, _Highs, kHighsInf = (
        _core.HighsModelStatus, _core.HighsStatus, _core.MatrixFormat, _core._Highs, _core.kHighsInf)
    linear_sum_assignment = _extension("scipy.optimize._lsap").linear_sum_assignment
except (ImportError, AttributeError) as exc:
    raise ImportError(
        "multipath_tsp needs scipy's HiGHS binding, scipy.optimize._highspy._core, and its assignment "
        f"solver, scipy.optimize._lsap, which scipy {scipy.__version__} does not provide; it is tested "
        "with scipy 1.15 and later"
    ) from exc

from .errors import InternalError, LpError
from .graphs import BidirectedGraph, CapacitatedNetwork, min_cut
from .instances import AnyInstance

EPS_LP = 1e-7       # row satisfaction tolerance
EPS_SEP = 1e-6      # cut violation threshold
EPS_OBJ = 1e-5      # objective comparisons
MAX_CUT_ROUNDS = 1000
DUAL_EDGE_WEIGHTS = 1  # HiGHS simplex_dual_edge_weight_strategy: Devex (see LpModel)


@dataclass(frozen=True)
class CutConstraint:
    """x_i(arcs leaving members) >= z[i, vertex], with vertex in members."""

    commodity: int
    vertex: int
    members: frozenset[int]


Row = tuple[list[int], list[float], float, float]  # (columns, coefficients, lower, upper)


def _leaving_arcs(dig: BidirectedGraph, members: frozenset[int]) -> list[int]:
    """Arcs (u, w) with u in members and w outside, in arc order.

    Scans only the members' out-arcs, so a small U costs O(its degree sum).
    """
    arcs = dig.arcs
    return sorted(a for u in members for a in dig.out_arcs[u] if arcs[a][1] not in members)


class HighsModel:
    """One persistent HiGHS model, output off, that checks every status the binding returns."""

    def __init__(self, **options):
        self._highs = _Highs()
        self._check(self._highs.setOptionValue("output_flag", False))
        for name, value in options.items():
            self._check(self._highs.setOptionValue(name, value))

    @staticmethod
    def _check(status: HighsStatus) -> None:
        if status == HighsStatus.kError:
            raise InternalError("HiGHS rejected a model change or option")

    def _add_cols(self, costs, upper, starts, index, values) -> None:
        """Append columns with lower bound 0, their entries in CSC form."""
        n = len(costs)
        self._check(self._highs.addCols(n, costs, np.zeros(n), upper, len(index), starts, index, values))

    def _add_rows(self, rows: list[Row]) -> None:
        """Append rows to HiGHS in CSR form."""
        starts: list[int] = []
        indices: list[int] = []
        values: list[float] = []
        for cols, coefs, _, _ in rows:
            starts.append(len(indices))
            indices += cols
            values += coefs
        lower = np.array([r[2] for r in rows], dtype=float)
        upper = np.array([r[3] for r in rows], dtype=float)
        self._check(self._highs.addRows(
            len(rows), lower, upper, len(indices),
            np.array(starts, dtype=np.int32), np.array(indices, dtype=np.int32), np.array(values),
        ))

    def _optimum(self, what: str, error: type[Exception]) -> np.ndarray:
        """Solve from the current basis; the column values of an optimum, else `error`."""
        ran = self._highs.run()
        status = self._highs.getModelStatus()
        if ran == HighsStatus.kError or status != HighsModelStatus.kOptimal:
            raise error(f"{what} not optimal: {self._highs.modelStatusToString(status)}")
        return np.asarray(self._highs.getSolution().col_value)

    def rows(self) -> list[tuple[dict[int, float], float, float]]:
        """Every row as HiGHS holds it: ({column: coefficient}, lower, upper)."""
        lp = self._highs.getLp()
        matrix = lp.a_matrix_
        rowwise = matrix.format_ == MatrixFormat.kRowwise
        coefs: list[dict[int, float]] = [{} for _ in range(lp.num_row_)]
        start, index, value = matrix.start_, matrix.index_, matrix.value_
        for major in range(len(start) - 1):
            for p in range(start[major], start[major + 1]):
                row, col = (major, index[p]) if rowwise else (index[p], major)
                coefs[row][col] = value[p]
        return list(zip(coefs, lp.row_lower_, lp.row_upper_))


class LpModel(HighsModel):
    """The flow LP, whose HiGHS model is its only row store.

    Column i*num_arcs + a is the flow of commodity i on arc a; the coverage
    amounts z[i, v] follow, commodity by commodity, over `cover_vertices`.
    Rows keep a fixed order, which the dual simplex follows (another order
    can land on another optimal vertex): the static rows, then the cuts in
    the order they were added.
    `add_cuts` appends a round's new cut rows to the same HiGHS handle in
    one CSR call, so every round's dual simplex warm-starts from the
    previous round's basis.
    The dual simplex prices with Devex (`DUAL_EDGE_WEIGHTS`). HiGHS's default
    dual steepest edge first recomputes its exact edge weights on every
    re-solve after added rows, which costs more than the one or two pivots
    a cut round usually takes (a re-solve of the 58-vertex ordered benchmark
    instance took a median 19 ms, against 8 ms under Devex). Every solver
    guarantee holds at any optimal vertex, so the pricing may change which
    optimum a solve returns, never its value.
    The model is per-solve mutable state: unlike the immutable
    `FractionalSolution` it returns, it is not meant to be shared across
    workers.
    """

    def __init__(self, inst: AnyInstance):
        self.instance = inst
        self.digraph = BidirectedGraph(inst.graph)
        n, k = inst.graph.n, inst.k
        self.num_flow_columns = k * self.digraph.num_arcs
        self.cover_vertices = tuple(v for v in range(n) if v not in inst.sinks)
        self.num_columns = self.num_flow_columns + k * len(self.cover_vertices)
        self._cover_columns = np.full((k, n), -1)  # -1 at sinks
        cover_range = np.arange(self.num_flow_columns, self.num_columns)
        self._cover_columns[:, self.cover_vertices] = cover_range.reshape(k, -1)
        self.cuts: list[CutConstraint] = []
        self._cut_set: set[CutConstraint] = set()
        super().__init__(simplex_dual_edge_weight_strategy=DUAL_EDGE_WEIGHTS)
        costs = np.zeros(self.num_columns)
        costs[: self.num_flow_columns] = 1.0
        self._add_cols(costs, np.full(self.num_columns, kHighsInf), np.zeros(self.num_columns, dtype=np.int32),
                       np.zeros(0, dtype=np.int32), np.zeros(0))
        self._add_rows(self._static_rows())

    def _cover_row(self, i: int, v: int, arcs: list[int] | tuple[int, ...]) -> Row:
        """x_i(arcs) - z[i, v] >= 0."""
        base = i * self.digraph.num_arcs
        cols = [int(self._cover_columns[i, v])] + [base + a for a in arcs]
        return cols, [-1.0] + [1.0] * len(arcs), 0.0, kHighsInf

    def _static_rows(self) -> list[Row]:
        """Conservation, source and sink rows per commodity, then z <= outflow, then coverage."""
        inst = self.instance
        dig = self.digraph

        def balance(i: int, plus: tuple[int, ...], minus: tuple[int, ...], b: float) -> Row:
            base = i * dig.num_arcs
            return [base + a for a in plus + minus], [1.0] * len(plus) + [-1.0] * len(minus), b, b

        rows: list[Row] = []
        for i, (s, t) in enumerate(inst.commodities):
            for v in range(inst.graph.n):
                if (s == t or v not in (s, t)) and (dig.out_arcs[v] or dig.in_arcs[v]):
                    rows.append(balance(i, dig.out_arcs[v], dig.in_arcs[v], 0.0))
            if s != t:
                rows.append(balance(i, dig.out_arcs[s], dig.in_arcs[s], 1.0))
                rows.append(balance(i, dig.in_arcs[t], dig.out_arcs[t], 1.0))
        # z[i,v] bounded by the outflow of v in commodity i
        for i in range(inst.k):
            rows += [self._cover_row(i, v, dig.out_arcs[v]) for v in self.cover_vertices]
        for v in self.cover_vertices:
            rows.append((self._cover_columns[:, v].tolist(), [1.0] * inst.k, 1.0, kHighsInf))
        return rows

    def add_cuts(self, cuts: Iterable[CutConstraint]) -> int:
        """Append the cuts not yet present, in the given order, as one CSR
        `addRows` call; returns how many rows were added."""
        rows: list[Row] = []
        for cut in cuts:
            if cut in self._cut_set:
                continue
            self._cut_set.add(cut)
            self.cuts.append(cut)
            arcs = _leaving_arcs(self.digraph, cut.members)
            rows.append(self._cover_row(cut.commodity, cut.vertex, arcs))
        if rows:
            self._add_rows(rows)
        return len(rows)

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Re-optimize the current rows; returns (flows, cover, objective)."""
        k, num_arcs, n = self.instance.k, self.digraph.num_arcs, self.instance.graph.n
        if self.num_columns == 0:
            return np.zeros((k, num_arcs)), np.zeros((k, n)), 0.0
        x = np.maximum(self._optimum("flow LP", LpError), 0.0)
        flows = x[: self.num_flow_columns].reshape(k, num_arcs)
        cover = np.where(self._cover_columns >= 0, x[self._cover_columns], 0.0)
        return flows, cover, float(flows.sum())

    def dump_text(self) -> str:
        """Human-readable rows with x_i_u_v / z_i_v names."""
        k = self.instance.k
        names = [f"x_{i}_{u}_{v}" for i in range(k) for u, v in self.digraph.arcs]
        names += [f"z_{i}_{v}" for i in range(k) for v in self.cover_vertices]
        objective = " ".join(f"+ {names[c]}" for c in range(self.num_flow_columns))
        lines = ["minimize", f"  {objective}", "subject to"]
        for coefs, lower, upper in self.rows():
            terms = []
            for col, val in sorted(coefs.items()):
                mag = "" if abs(val) == 1 else f"{abs(val):g} "
                terms.append(f"{'-' if val < 0 else '+'} {mag}{names[col]}")
            lines.append(f"  {' '.join(terms)} {'=' if lower == upper else '>='} {lower:g}")
        lines.append("bounds: all variables >= 0")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """LP optimum: per-commodity arc flows plus coverage amounts.

    `cover` holds the capped coverage variables the cut rows act on.
    """

    instance: AnyInstance
    digraph: BidirectedGraph
    flows: np.ndarray          # shape (k, num_arcs)
    cover: np.ndarray          # shape (k, n), zero at sink columns
    objective: float
    cuts: tuple[CutConstraint, ...] = field(default=())


def _flow_across(sol: FractionalSolution, i: int, members: frozenset[int]) -> float:
    return float(sum(sol.flows[i, a] for a in _leaving_arcs(sol.digraph, members)))


def separate(inst: AnyInstance, sol: FractionalSolution) -> list[CutConstraint]:
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
    inst: AnyInstance,
    on_round: Callable[[FractionalSolution, list[CutConstraint]], None] | None = None,
) -> FractionalSolution:
    """Cutting-plane loop: solve, separate, add cuts, repeat until clean.

    Each round checks that every separated cut is violated, then appends
    the separated cuts in separation order followed by their lifts in
    (cut, commodity) order: (j, v, U) for every other commodity j whose
    sink lies outside U. The loop still ends only when `separate` finds
    nothing, so lifting never changes the LP value, only which optimal
    vertex the solve lands on. The returned `cuts` hold every row added,
    lifts included.

    `on_round` (if given) observes every iterate and the cuts separation
    produced from it (never the lifts), which is how the audit tests
    replay separation soundness.
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
        for cut in found:
            crossing = _flow_across(sol, cut.commodity, cut.members)
            if crossing >= sol.cover[cut.commodity, cut.vertex] - EPS_SEP:
                raise InternalError(f"separation emitted a non-violated cut: {cut}")
        lifts = [
            CutConstraint(j, cut.vertex, cut.members)
            for cut in found
            for j, (_, t) in enumerate(inst.commodities)
            if j != cut.commodity and t not in cut.members
        ]
        if model.add_cuts(found + lifts) == 0:
            raise LpError("separation found violations but no new cut rows; tolerance mismatch")
    raise LpError(f"iteration limit exceeded ({MAX_CUT_ROUNDS} cut rounds)")
