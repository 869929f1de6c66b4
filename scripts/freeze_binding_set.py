#!/usr/bin/env python3
"""Record HiGHS's optima of the binding set, where capacities and delays bind.

The set is 24 solves: generated instances of 4 servers, 4 user groups, 2
existing and 3 new requests, under each of six parameter override sets
that make a limit bind (link bandwidth, VNF capacity, the usage threshold,
the delay budget, server capacity, and several at once), at seeds 3 and 4,
each solved online and under no_reuse with clamped accounting, as
``chainplace compare`` prices them. For each solve the script compiles the
placement program, solves the exported MPS with the HiGHS engine inside
scipy at a relative gap of 0 (``tests/helpers.py::solve_mps_with_highs``),
imports the solution, checks it and records its exact total, or null when
HiGHS proves the program infeasible, into tests/data/binding_set.json.
``tests/test_solver.py::TestBindingSet`` proves each total with the search.

HiGHS takes from under a second to about a minute per solve, so the set is
frozen offline. Run from the repository root:

    python scripts/freeze_binding_set.py
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # reuse the test-side MPS bridge

from helpers import solve_mps_with_highs

from chainplace.costs import total_objective
from chainplace.ilp import build_ilp, export_mps, import_solution
from chainplace.model import SolveOptions, check_feasibility
from chainplace.scenario import ScenarioSpec, generate

TARGET = ROOT / "tests" / "data" / "binding_set.json"
SIZE = {"n_servers": 4, "n_user_groups": 4, "existing_requests": 2, "new_requests": 3}
SEEDS = (3, 4)
# by name, the generator parameters that make a limit bind
OVERRIDES = {
    "bandwidth": {"bandwidth": 2},
    "vnf_capacity": {"vnf_capacity": 2},
    "usage_threshold": {"usage_threshold": 0.75, "bandwidth": 3, "vnf_capacity": 3},
    "tight_delay": {"delay_budget_ms_range": [60, 150]},
    "server_capacity": {"server_capacity": 4},
    "combined": {
        "bandwidth": 3,
        "vnf_capacity": 2,
        "delay_budget_ms_range": [90, 200],
        "usage_threshold": 0.75,
    },
}
MODES = {"online": False, "no_reuse": True}


def spec(name: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(seed=seed, overrides=OVERRIDES[name], **SIZE)


def highs_total(instance, no_reuse: bool) -> int | None:
    """HiGHS's optimum of the clamped program, checked, or None when it
    proves the program infeasible."""
    model = build_ilp(instance, SolveOptions(no_reuse=no_reuse, clamp_instantiation=True))
    solved = solve_mps_with_highs(export_mps(model))
    if solved is None:
        return None
    plan = import_solution(model, solved[1])
    report = check_feasibility(instance, plan)
    assert report.feasible, report.violations
    return total_objective(instance, plan, clamp_instantiation=True).total


def main() -> None:
    cases = {}
    for name in OVERRIDES:
        for seed in SEEDS:
            instance = generate(spec(name, seed))
            totals = {mode: highs_total(instance, no_reuse) for mode, no_reuse in MODES.items()}
            cases[f"{name}/seed{seed}"] = {"seed": seed, "overrides": name, **totals}
            print(f"{name} seed {seed}: {totals}", flush=True)
    table = {"size": SIZE, "overrides": OVERRIDES, "cases": cases}
    TARGET.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
