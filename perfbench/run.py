"""Solver benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mp-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Workloads, seeds and the layer-to-metric map are in `spec.json`,
the reference LP values in `reference.json`.

The run is one process on one thread. Each pass runs one op per ladder rung;
passes repeat until `--seconds` of wall time have gone, and the pass in
progress finishes, so every run weighs the rungs equally. Every op is checked
after its timed interval.

With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1` the workload first runs untraced for half the time, then the
same passes run again with spans recorded around the program's layers; the
last line holds the per-layer metrics (per op), and the spans are written to
`.perfbench_out/`.
"""

from __future__ import annotations

import os

# Single-threaded numerics, in this process only; must precede numpy's import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import traceback
from importlib.metadata import PackageNotFoundError, version
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            env[pkg] = version(pkg)
        except PackageNotFoundError:
            env[pkg] = None
    return env


def measure(workload, seconds: float | None = None, passes: int | None = None, tracer=None):
    """Run whole passes until `seconds` of wall time or `passes` passes.

    Returns (latencies, outcomes, passes run, first failure traceback).
    """
    from workloads import Outcome

    latencies: list[float] = []
    outcomes: list = []
    first_failure = None
    start = perf_counter()
    done = 0
    while (done < passes) if passes is not None else (done == 0 or perf_counter() - start < seconds):
        for item in workload.pass_items(done):
            ctx = tracer.op_span(len(latencies)) if tracer is not None else contextlib.nullcontext()
            error = None
            t0 = perf_counter()
            try:
                with ctx:
                    result = workload.op(item)
            except Exception:  # a raising op is one failed op; the run goes on
                error = traceback.format_exc()
            latencies.append(perf_counter() - t0)
            if error is None:
                try:
                    outcome = workload.check(item, result)
                except Exception:  # a result the checks cannot read is a failed op
                    error = traceback.format_exc()
            if error is not None:
                outcome = Outcome(False, error.strip().splitlines()[-1])
                first_failure = first_failure or error
            outcomes.append(outcome)
        done += 1
    return latencies, outcomes, done, first_failure


def mean_of(outcomes, field: str) -> float | None:
    values = [getattr(o, field) for o in outcomes if o.ok and getattr(o, field) is not None]
    return statistics.fmean(values) if values else None


def summed_counters(outcomes) -> dict[str, float]:
    total: dict[str, float] = {}
    for o in outcomes:
        for key, val in (o.counters or {}).items():
            total[key] = total.get(key, 0.0) + val
    return total


def print_table(rows: list[tuple[str, float | None, str, str]]) -> None:
    print(f"{'metric':34s} {'value':>14s}  {'unit':6s} samples")
    for name, value, unit, samples in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s}  {unit:6s} {samples}")


def end_to_end(workload, latencies, outcomes) -> tuple[dict, list]:
    ops = len(latencies)
    failed = sum(not o.ok for o in outcomes)
    busy = sum(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if ops >= 100 else None
    cost_lp = mean_of(outcomes, "cost_over_lp")
    cost_opt = mean_of(outcomes, "cost_over_opt")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = workload.setup_times
    rows = [
        ("ops_per_s", ops / busy, "1/s", f"{ops} ops in {busy:.3f} s busy"),
        ("latency_p50_s", statistics.median(latencies), "s", f"{ops} ops"),
        ("latency_p90_s", p90, "s", f"{ops} ops" + ("" if p90 is not None else "; needs >= 100")),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("failed_ops_ratio", failed / ops, "ratio", f"{failed} of {ops} ops"),
        ("cost_over_lp", cost_lp, "ratio", f"{ops - failed} checked ops"),
        ("cost_over_opt", cost_opt, "ratio", "desk-oracle only" if cost_opt is None else f"{ops - failed} checked ops"),
        ("peak_rss_mb", rss_mb, "MB", "getrusage of this process"),
    ]
    reported = {"ops_per_s", "latency_p50_s", "setup_s", "cost_over_lp", "peak_rss_mb"}
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in reported}
    return metrics, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "multipath_tsp", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import spans
    from workloads import WORKLOADS, load_json

    spec = load_json("spec.json")
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](spec, load_json("reference.json"), args.seed)
    workload.setup()
    # One untimed op first, so that lazy imports and first-call set-up inside
    # the program are not timed. An error here recurs in the measured ops,
    # which count and report it.
    with contextlib.suppress(Exception):
        workload.op(workload.pass_items(0)[0])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    if not args.trace:
        latencies, outcomes, passes, first_failure = measure(workload, seconds=args.seconds)
        metrics, rows = end_to_end(workload, latencies, outcomes)
        print(f"{passes} passes of {len(workload.rungs)} rungs")
        print_table(rows)
    else:
        base_lat, base_out, passes, first_failure = measure(workload, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            latencies, traced_out, _, traced_failure = measure(workload, passes=passes, tracer=tracer)
        first_failure = first_failure or traced_failure
        outcomes = base_out + traced_out
        values, absent = spans.layer_metrics(tracer, summed_counters(traced_out))
        values["trace.overhead_ratio"] = sum(latencies) / sum(base_lat) - 1.0
        values["trace.spans_per_op"] = len(tracer.spans) / len(latencies)
        os.makedirs(OUT_DIR, exist_ok=True)
        out_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(out_path, {"workload": args.workload, "seed": args.seed, "metrics": values,
                               "by_name": spans.summarize(tracer)["by_name"],
                               "absent": absent, "layers": spec["layers"], "env": environment()})
        print(f"{passes} passes of {len(workload.rungs)} rungs, untraced then traced; spans in {out_path}")
        print_table([(name, val, spans.unit(name), f"{len(latencies)} traced ops") for name, val in values.items()])
        if absent:
            print("absent (wrapped name or result shape gone): " + ", ".join(absent))
        metrics = {name: {"value": val, "unit": spans.unit(name)} for name, val in values.items()}

    failed = sum(not o.ok for o in outcomes)
    if first_failure:
        print(first_failure, file=sys.stderr)
    for o in [o for o in outcomes if not o.ok][:10]:
        print(f"failed op: {o.why}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
