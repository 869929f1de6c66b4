#!/usr/bin/env python3
"""Digest what the exact search returns on the benchmark and frontier solves.

The benchmark cases are the scenario table at reduced scale (seeds 3-5)
and at full scale (seeds 3-8), scenarios 1-3: 54 solves. The frontier
cases go past the paper's table: servers x user groups with existing/new
requests of 6x6 at 4/6, 5/7, 6/8 and 7/9, 8x8 at 4/6 and 6/8 and 10x10 at
3/5 and 5/7, seeds 3-4: 32 solves, many of them with equal-cost optima
that the tie-break has to order. Each instance is generated once and
solved with ``solve_exact`` online and under no_reuse, with clamped
accounting as ``chainplace compare`` prices them. For every solve the
script records the status, the total, the sha256 of the plan document
(``io.plan_to_document`` dumped with sorted keys), the node count and the
incumbent updates, and writes them as sorted JSON to the given path. Two
runs of the script on two versions of the code diff cleanly when the
search returns the same answers; the ``nodes`` lines show how much the
search effort moved. The 86 solves take about 7 s of CPU. Run from the
repository root:

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
# (servers, user groups, existing requests, new requests)
FRONTIER = [
    (6, 6, 4, 6), (6, 6, 5, 7), (6, 6, 6, 8), (6, 6, 7, 9),
    (8, 8, 4, 6), (8, 8, 6, 8), (10, 10, 3, 5), (10, 10, 5, 7),
]
FRONTIER_SEEDS = range(3, 5)


def cases():
    """(label, spec) of every instance to generate, in a fixed order."""
    for scale, seeds in SEEDS.items():
        for seed in seeds:
            for scenario_id in (1, 2, 3):
                spec = ScenarioSpec.table_row(scenario_id, seed=seed, reduced=scale == "reduced")
                yield f"{scale}/seed{seed}/scenario{scenario_id}", spec
    for servers, users, existing, new in FRONTIER:
        for seed in FRONTIER_SEEDS:
            spec = ScenarioSpec(
                seed=seed, n_servers=servers, n_user_groups=users,
                existing_requests=existing, new_requests=new,
            )
            yield f"frontier/{servers}x{users}/{existing}-{new}/seed{seed}", spec


def digest() -> dict:
    out = {}
    for name, spec in cases():
        instance = generate(spec)
        for label, no_reuse in (("online", False), ("no_reuse", True)):
            options = SolveOptions(no_reuse=no_reuse, clamp_instantiation=True)
            result = solve_exact(instance, options)
            plan = None
            if result.plan is not None:
                text = json.dumps(_io.plan_to_document(result.plan), sort_keys=True)
                plan = hashlib.sha256(text.encode()).hexdigest()
            out[f"{name}/{label}"] = {
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
