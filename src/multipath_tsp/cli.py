"""Command-line front end.

Exit codes: 0 on success, 2 for invalid input or oversized requests, 3 when
an internal invariant breaks (a bug in the solvers, not in the input).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import asdict, fields

from .bench import BenchConfig, export_dot, format_table, generate, report_json, run_bench
from .decomposition import decompose
from .errors import GenerationError, InstanceError, OracleLimitError, ToolkitError
from .exact import exact_opt, reconstruct_walks
from .instances import (
    Instance,
    OrderedInstance,
    load_instance,
    load_solution,
    read_text,
    save_instance,
    save_solution,
)
from .lp import LpModel, solve_lp
from .multipath import prepare, solve_derandomized, solve_randomized
from .ordered import run_ordered_trial
from .parity import min_tjoin
from .vrp import solve_combiner, solve_vrp_forest


def _read_instance(path: str):
    return load_instance(read_text(path))


def _require_plain(inst, command: str) -> Instance:
    if isinstance(inst, OrderedInstance):
        raise InstanceError("schema", f"{command} expects a commodity instance, not an ordered one")
    return inst


def _require_ordered(inst, command: str) -> OrderedInstance:
    if not isinstance(inst, OrderedInstance):
        raise InstanceError("schema", f"{command} expects an ordered instance")
    return inst


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve_multipath(args) -> None:
    inst = _require_plain(_read_instance(args.input), "solve-multipath")
    if args.derandomize:
        sol, report = solve_derandomized(inst)
    else:
        sol, report = solve_randomized(inst, args.seed)
    _emit(save_solution(sol) + "\n", args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(asdict(report), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _cmd_solve_ordered(args) -> None:
    inst = _require_ordered(_read_instance(args.input), "solve-ordered")
    plan = prepare(inst)
    if args.trials and args.trials > 1:
        costs, ratios = [], []
        for trial in range(args.trials):
            _, report, _ = run_ordered_trial(plan, args.seed + trial)
            costs.append(report.total)
            ratios.append(report.ratio)
        out = {
            "trials": args.trials,
            "mean_cost": statistics.fmean(costs),
            "std_cost": statistics.pstdev(costs),
            "mean_ratio": statistics.fmean(ratios),
            "lp_objective": plan.lp.objective,
        }
        _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args.output)
        return
    sol, report, _ = run_ordered_trial(plan, args.seed)
    payload = json.loads(save_solution(sol))
    payload["report"] = asdict(report)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)


def _cmd_solve_vrp(args) -> None:
    inst = _require_plain(_read_instance(args.input), "solve-vrp")
    sol = solve_vrp_forest(inst)
    _emit(save_solution(sol) + "\n", args.output)


def _cmd_solve_combined(args) -> None:
    inst = _require_plain(_read_instance(args.input), "solve-combined")
    sol, report = solve_combiner(inst)
    payload = json.loads(save_solution(sol))
    payload["combiner"] = asdict(report)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)


def _cmd_exact(args) -> None:
    inst = _read_instance(args.input)
    result = exact_opt(inst)
    sol = reconstruct_walks(inst, result)
    payload = {"cost": result.cost, "walks": [list(w) for w in sol.walks]}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)


def _cmd_lp(args) -> None:
    inst = _read_instance(args.input)
    sol = solve_lp(inst)
    if args.dump_lp:
        model = LpModel(inst)
        for cut in sol.cuts:
            model.add_cut(cut)
        with open(args.dump_lp, "w", encoding="utf-8") as fh:
            fh.write(model.dump_text())
    _emit(json.dumps({"objective": sol.objective, "cuts": len(sol.cuts)}, sort_keys=True) + "\n", args.output)


def _cmd_decompose(args) -> None:
    inst = _read_instance(args.input)
    sol = solve_lp(inst)
    dec = decompose(inst, sol)
    payload = {
        "commodities": [
            {
                "paths": [{"vertices": list(p.vertices), "weight": p.weight} for p in dec.paths[i]],
                "cycles": [{"vertices": list(c.vertices), "weight": c.weight} for c in dec.cycles[i]],
            }
            for i in range(inst.k)
        ]
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)


def _cmd_tjoin(args) -> None:
    inst = _read_instance(args.input)
    try:
        odd = tuple(int(x) for x in args.odd.split(",")) if args.odd else ()
    except ValueError:
        raise InstanceError("schema", f"--odd must list integer vertices, got {args.odd!r}") from None
    if len(set(odd)) != len(odd):
        raise InstanceError("schema", f"--odd repeats a vertex: {args.odd}")
    for v in odd:
        if not 0 <= v < inst.graph.n:
            raise InstanceError("index-out-of-range", f"odd vertex {v} outside vertex range")
    if len(odd) % 2 == 1:
        raise InstanceError("schema", "the odd vertex set must have even size")
    join = min_tjoin(inst.graph, odd)
    payload = {
        "cost": join.cost,
        "edges": sorted(list(inst.graph.edges[e]) for e in join.edges),
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.output)


def _config(args) -> BenchConfig:
    """The BenchConfig of a `gen` or `bench` command line; flags the command
    lacks keep their defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(BenchConfig) if hasattr(args, f.name)}
    return BenchConfig(**given, inputs=tuple(getattr(args, "input", None) or ()))


def _cmd_gen(args) -> None:
    inst = generate(_config(args), args.seed)
    _emit(save_instance(inst) + "\n", args.output)


def _cmd_bench(args) -> None:
    report = run_bench(_config(args))
    sys.stdout.write(format_table(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))


def _cmd_export_dot(args) -> None:
    inst = _read_instance(args.input)
    sol = load_solution(read_text(args.solution))
    _emit(export_dot(inst, sol), args.output)


_GENERATOR_FLAGS = ("mode", "n_min", "n_max", "k_min", "k_max", "extra_edges", "edge_prob", "depot_fraction", "seed")


def _add_config_flags(sub, names: tuple[str, ...]) -> None:
    """One flag per named BenchConfig field, in field order, defaulting to
    the field's default."""
    for f in fields(BenchConfig):
        if f.name not in names:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.name == "mode":
            sub.add_argument(flag, choices=("multipath", "ordered", "vrp"), default=f.default)
        else:
            kind = float if f.name in ("edge_prob", "depot_fraction") else int
            sub.add_argument(flag, type=kind, default=f.default)


def _add_io(sub, output=True):
    sub.add_argument("--input", required=True, help="instance JSON file")
    if output:
        sub.add_argument("--output", default=None, help="write result here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multipath-tsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-multipath", help="randomized or derandomized multi-path solver")
    _add_io(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--derandomize", action="store_true")
    p.add_argument("--report", default=None, help="write the cost report JSON here")
    p.set_defaults(func=_cmd_solve_multipath)

    p = sub.add_parser("solve-ordered", help="ordered-tour solver with parity correction")
    _add_io(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0, help="emit mean/stddev over this many seeds")
    p.set_defaults(func=_cmd_solve_ordered)

    p = sub.add_parser("solve-vrp", help="doubled spanning-forest depot solver (all s_i == t_i)")
    _add_io(p)
    p.set_defaults(func=_cmd_solve_vrp)

    p = sub.add_parser("solve-combined", help="best of the path solver and the depot reduction")
    _add_io(p)
    p.set_defaults(func=_cmd_solve_combined)

    p = sub.add_parser("exact", help="exact optimum for small instances")
    _add_io(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("lp", help="solve the flow relaxation")
    _add_io(p)
    p.add_argument("--dump-lp", default=None, help="write the final model rows here")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("decompose", help="print the weighted path/cycle decomposition")
    _add_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("tjoin", help="minimum join for a given even vertex set")
    _add_io(p)
    p.add_argument("--odd", default="", help="comma-separated vertices, e.g. 0,3")
    p.set_defaults(func=_cmd_tjoin)

    p = sub.add_parser("gen", help="generate a random instance")
    _add_config_flags(p, _GENERATOR_FLAGS)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the experiment harness")
    _add_config_flags(p, _GENERATOR_FLAGS + ("count", "trials", "workers"))
    p.add_argument("--input", action="append", help="bench these instance files instead of generating")
    p.add_argument("--output", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export-dot", help="render an instance and solution as DOT")
    _add_io(p)
    p.add_argument("--solution", required=True, help="solution JSON file")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (InstanceError, GenerationError, OracleLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
