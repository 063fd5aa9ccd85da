"""Solvers for multi-path tours, ordered tours, and multi-depot coverage on
unit-cost graphs, built around a flow relaxation with lazily separated
connectivity cuts.

Every solver solves the LP once per instance: `prepare` builds one plan
for a commodity or an ordered instance, and the `run_*` functions reuse it.
The `solve_*` functions are one-shot wrappers that prepare a fresh plan.
"""

from .bench import BenchConfig, generate, run_bench
from .errors import (
    DecompositionError,
    GenerationError,
    InstanceError,
    InternalError,
    LpError,
    OracleLimitError,
    ToolkitError,
)
from .exact import ExactResult, exact_opt, reconstruct_walks
from .graphs import Graph
from .instances import (
    Instance,
    OrderedInstance,
    Solution,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    validate_solution,
)
from .lp import solve_lp
from .multipath import CostReport, prepare, run_derandomized, run_trial, solve_derandomized, solve_randomized
from .ordered import run_ordered_trial, solve_ordered, validate_ordered
from .vrp import CombinerReport, run_combiner, solve_combiner, solve_vrp_forest

__all__ = [
    "BenchConfig",
    "CombinerReport",
    "CostReport",
    "DecompositionError",
    "ExactResult",
    "GenerationError",
    "Graph",
    "Instance",
    "InstanceError",
    "InternalError",
    "LpError",
    "OracleLimitError",
    "OrderedInstance",
    "Solution",
    "ToolkitError",
    "exact_opt",
    "generate",
    "load_instance",
    "load_solution",
    "prepare",
    "reconstruct_walks",
    "run_bench",
    "run_combiner",
    "run_derandomized",
    "run_ordered_trial",
    "run_trial",
    "save_instance",
    "save_solution",
    "solve_combiner",
    "solve_derandomized",
    "solve_lp",
    "solve_ordered",
    "solve_randomized",
    "solve_vrp_forest",
    "validate_ordered",
    "validate_solution",
]
