"""Write reference.json: the LP value of every rung, and the optimum of every
desk-oracle rung, computed with the program at the commit that defined the
benchmark.

    python3 perfbench/make_reference.py

Both values are properties of the instance, not of the code: the LP
optimum's value and the integral optimum are unique. Regenerate the file
only when a ladder in spec.json changes, never to follow a change in the
program.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from multipath_tsp.exact import exact_opt  # noqa: E402
from multipath_tsp.instances import OrderedInstance  # noqa: E402
from multipath_tsp.lp import solve_lp  # noqa: E402

from gen import Rung, base_instance, build  # noqa: E402
from workloads import ORACLE_LIMIT_FREE, load_json  # noqa: E402


def main() -> None:
    spec = load_json("spec.json")
    out = {}
    for name, wl in spec["workloads"].items():
        insts = [build(base_instance(Rung(**r), spec["ladder_seed"], i)) for i, r in enumerate(wl["rungs"])]
        ref = {"lp": [solve_lp(i.to_instance() if isinstance(i, OrderedInstance) else i).objective for i in insts]}
        if name == "desk-oracle":
            ref["opt"] = [exact_opt(i, limit_free=ORACLE_LIMIT_FREE).cost for i in insts]
        out[name] = ref
        print(name, ref, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
