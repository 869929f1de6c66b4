#!/usr/bin/env python3
"""Digest what the exact search returns on the 54 benchmark solves.

The cases are the scenario table at reduced scale (seeds 3-5) and at full
scale (seeds 3-8), scenarios 1-3, each generated once and solved with
``solve_exact`` online and under no_reuse, with clamped accounting as
``chainplace compare`` prices them. For every solve the script records the
status, the total, the sha256 of the plan document (``io.plan_to_document``
dumped with sorted keys), the node count and the incumbent updates, and
writes them as sorted JSON to the given path. Two runs of the script on two
versions of the code diff cleanly when the search returns the same answers;
the ``nodes`` lines show how much the search effort moved. It takes a few
seconds of CPU. Run from the repository root:

    PYTHONPATH=src python scripts/search_digest.py digest.json
"""

import argparse
import hashlib
import json
import pathlib

from chainplace import io as _io
from chainplace.scenario import ScenarioSpec, generate
from chainplace.solver import SolveOptions, solve_exact

SEEDS = {"reduced": range(3, 6), "full": range(3, 9)}


def digest() -> dict:
    out = {}
    for scale, seeds in SEEDS.items():
        for seed in seeds:
            for scenario_id in (1, 2, 3):
                spec = ScenarioSpec.table_row(scenario_id, seed=seed, reduced=scale == "reduced")
                instance = generate(spec)
                for label, no_reuse in (("online", False), ("no_reuse", True)):
                    options = SolveOptions(no_reuse=no_reuse, clamp_instantiation=True)
                    result = solve_exact(instance, options)
                    plan = None
                    if result.plan is not None:
                        text = json.dumps(_io.plan_to_document(result.plan), sort_keys=True)
                        plan = hashlib.sha256(text.encode()).hexdigest()
                    out[f"{scale}/seed{seed}/scenario{scenario_id}/{label}"] = {
                        "status": result.status,
                        "total": result.breakdown.total if result.breakdown else None,
                        "plan_sha256": plan,
                        "nodes": result.stats.nodes,
                        "incumbent_updates": result.stats.incumbent_updates,
                    }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=pathlib.Path, help="where to write the JSON")
    args = parser.parse_args()
    cases = digest()
    args.output.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    nodes = sum(case["nodes"] for case in cases.values())
    print(f"{len(cases)} solves, {nodes} nodes; wrote {args.output}")


if __name__ == "__main__":
    main()
