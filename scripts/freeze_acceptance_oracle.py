#!/usr/bin/env python3
"""Record independent optima for one scenario seed.

For each scenario of the table, at reduced and at full scale, this script
generates the instance, compiles the clamped placement program with and
without the reuse ban, solves the exported MPS with the HiGHS engine inside
scipy (an engine that shares no code with the built-in search), imports the
solution and records the exact totals and migration counts into
tests/data/acceptance_oracle.json (reduced) and
tests/data/acceptance_oracle_full.json (full). A seed other than the shipped
default gets its own files, with a ``_seed<N>`` suffix, so that a held-out
seed never overwrites the default's record.

Exhaustive enumeration is far out of reach at these scales (the raw decision
space is ~1e9 combinations at reduced scale), so the independent
integer-programming engine stands in as the oracle. The full-scale no_reuse
programs take HiGHS tens of seconds each. Run from the repository root:

    python scripts/freeze_acceptance_oracle.py                        # default seed
    python scripts/freeze_acceptance_oracle.py --seed 5 --scale full  # held out
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # reuse the test-side MPS bridge

from helpers import solve_mps_with_highs

from chainplace.costs import total_objective
from chainplace.ilp import BuildOptions, build_ilp, export_mps, import_solution
from chainplace.model import check_feasibility, snapshot_diff
from chainplace.scenario import DEFAULT_SEED, ScenarioSpec, generate


def oracle_case(instance, no_reuse: bool) -> dict:
    model = build_ilp(
        instance, BuildOptions(no_reuse=no_reuse, clamp_instantiation=True)
    )
    _objective, values = solve_mps_with_highs(export_mps(model))
    plan = import_solution(model, values)
    report = check_feasibility(instance, plan)
    assert report.feasible, report.violations
    breakdown = total_objective(instance, plan, clamp_instantiation=True)
    delta = snapshot_diff(instance.snapshot, plan)
    return {
        "total_micro": breakdown.total,
        "migration_micro": breakdown.migration,
        "migration_count": len(delta.migrated),
    }


def oracle_table(seed: int, reduced: bool) -> dict:
    scale = "reduced" if reduced else "full"
    out = {"seed": seed, "scale": scale, "scenarios": {}}
    for scenario_id in (1, 2, 3):
        spec = ScenarioSpec.table_row(scenario_id, seed=seed, reduced=reduced)
        instance = generate(spec)
        out["scenarios"][str(scenario_id)] = {
            "online": oracle_case(instance, no_reuse=False),
            "no_reuse": oracle_case(instance, no_reuse=True),
        }
        print(f"{scale} scenario {scenario_id}: {out['scenarios'][str(scenario_id)]}")
    return out


def oracle_path(seed: int, reduced: bool) -> pathlib.Path:
    suffix = "" if seed == DEFAULT_SEED else f"_seed{seed}"
    name = "acceptance_oracle" if reduced else "acceptance_oracle_full"
    return ROOT / "tests" / "data" / f"{name}{suffix}.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", choices=("reduced", "full", "both"), default="both")
    args = parser.parse_args()
    scales = {"reduced": (True,), "full": (False,), "both": (True, False)}[args.scale]
    for reduced in scales:
        target = oracle_path(args.seed, reduced)
        target.parent.mkdir(parents=True, exist_ok=True)
        table = oracle_table(args.seed, reduced)
        target.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
