#!/usr/bin/env python3
"""Freeze the benchmark's reference optima.

For every case of a scenario table (scenarios 1..3, online and no_reuse,
clamped accounting as ``compare`` prices them) this tool compiles the
placement program, solves the exported MPS with HiGHS (inside scipy, an
engine that shares no search code with chainplace), imports the solution
and records:

- the optimal total and the migration count of the imported plan,
- the 0/1 variables HiGHS set, so a run can import the optimum again,
- the size of the clamped model (variables, rows),
- the digest of the canonical plan that ``solve_exact`` returns, kept only
  when it proves optimality within ``PLAN_SOLVE_LIMIT_S`` and its total
  equals HiGHS,
- the digests and sizes of ``chainplace solve --export mps|lp [--no-reuse]``,
- the digest of the generated instance document.

Run from the repository root; it needs scipy and writes
``perfbench/references.json``:

    python3 perfbench/freeze.py

The frozen seeds are reduced 3, 4 and 5 and full 3. Reduced seed 3 is
cross-checked against ``tests/data/acceptance_oracle.json`` and full seed 3
against the HiGHS optima in the ROADMAP baseline table.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

SCENARIOS = (1, 2, 3)
CASES = ("online", "no_reuse")
FROZEN = {"reduced": (3, 4, 5), "full": (3,)}
PLAN_SOLVE_LIMIT_S = 30.0

# ROADMAP baseline table: HiGHS on the full-scale MPS at seed 3, micro-money
ROADMAP_FULL_SEED3 = {
    1: {"online": 703_959, "no_reuse": 300_511_847},
    2: {"online": 506_097, "no_reuse": 300_406_915},
    3: {"online": 312_144, "no_reuse": 300_312_144},
}


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def instance_digest(instance) -> str:
    from chainplace import io

    return sha256(io.dumps(io.instance_to_document(instance)))


def plan_digest(plan) -> str:
    from chainplace import io

    return sha256(io.dumps(io.plan_to_document(plan)))


def spec_for(scale: str, seed: int, scenario_id: int):
    from chainplace.scenario import ScenarioSpec

    return ScenarioSpec.table_row(scenario_id, seed=seed, reduced=scale == "reduced")


def export_args(instance_path, fmt: str, no_reuse: bool, output) -> list[str]:
    """Arguments of the ``chainplace solve --export`` call for one case."""
    args = ["solve", str(instance_path), "--export", fmt, "-o", str(output)]
    if no_reuse:
        args.append("--no-reuse")
    return args


def _case_reference(instance, instance_path, no_reuse: bool, work) -> dict:
    tests = str(ROOT / "tests")  # the test suite's MPS-to-HiGHS bridge
    if tests not in sys.path:
        sys.path.insert(0, tests)
    from helpers import solve_mps_with_highs

    from chainplace import cli
    from chainplace.costs import total_objective
    from chainplace.ilp import BuildOptions, build_ilp, export_mps, import_solution
    from chainplace.model import check_feasibility, snapshot_diff
    from chainplace.solver import STATUS_OPTIMAL, SolveOptions, solve_exact

    model = build_ilp(instance, BuildOptions(no_reuse=no_reuse, clamp_instantiation=True))
    _objective, values = solve_mps_with_highs(export_mps(model))
    plan = import_solution(model, values)
    if not check_feasibility(instance, plan).feasible:
        raise RuntimeError("HiGHS optimum fails the constraint checker")
    total = total_objective(instance, plan, clamp_instantiation=True).total
    if model.objective_micro(values) != total:
        raise RuntimeError("model objective and cost module disagree on the HiGHS optimum")

    result = solve_exact(
        instance,
        SolveOptions(
            time_limit=PLAN_SOLVE_LIMIT_S, no_reuse=no_reuse, clamp_instantiation=True
        ),
    )
    proven = result.status == STATUS_OPTIMAL and result.breakdown.total == total

    ref = {
        "total_micro": total,
        "migration_count": len(snapshot_diff(instance.snapshot, plan).migrated),
        "plan_sha256": plan_digest(result.plan) if proven else None,
        "highs_ones": sorted(name for name, v in values.items() if v > 0.5),
        "clamped_vars": len(model.variables),
        "clamped_rows": len(model.rows),
    }
    for fmt in ("mps", "lp"):
        out = pathlib.Path(work) / f"export.{fmt}"
        if cli.main(export_args(instance_path, fmt, no_reuse, out)) != 0:
            raise RuntimeError(f"chainplace solve --export {fmt} failed")
        data = out.read_bytes()
        ref[f"{fmt}_sha256"] = sha256(data)
        ref[f"{fmt}_bytes"] = len(data)
    return ref


def scale_references(scale: str, seed: int, work) -> dict:
    """References for scenarios 1..3 of one scale and seed, keyed by
    scenario id and then case."""
    from chainplace import io
    from chainplace.scenario import generate

    out = {}
    for sid in SCENARIOS:
        instance = generate(spec_for(scale, seed, sid))
        path = pathlib.Path(work) / "instance.json"
        path.write_text(io.dumps(io.instance_to_document(instance)))
        entry = {"instance_sha256": instance_digest(instance)}
        for case in CASES:
            started = time.perf_counter()
            entry[case] = _case_reference(instance, path, case == "no_reuse", work)
            print(
                f"{scale} seed {seed} scenario {sid} {case}: "
                f"total {entry[case]['total_micro']} micro, "
                f"plan {'frozen' if entry[case]['plan_sha256'] else 'not proven'}, "
                f"{time.perf_counter() - started:.1f} s",
                file=sys.stderr,
            )
        out[str(sid)] = entry
    return out


def cross_check(references: dict) -> None:
    """Compare the frozen seeds with the optima recorded elsewhere in the repo."""
    oracle = json.loads((ROOT / "tests" / "data" / "acceptance_oracle.json").read_text())
    reduced = references["reduced"][str(oracle["seed"])]
    for sid, cases in oracle["scenarios"].items():
        for case, want in cases.items():
            got = reduced[sid][case]
            for key in ("total_micro", "migration_count"):
                if got[key] != want[key]:
                    raise SystemExit(
                        f"reduced seed {oracle['seed']} scenario {sid} {case}: "
                        f"{key} {got[key]} != acceptance oracle {want[key]}"
                    )
    full = references["full"]["3"]
    for sid, cases in ROADMAP_FULL_SEED3.items():
        for case, want in cases.items():
            got = full[str(sid)][case]["total_micro"]
            if got != want:
                raise SystemExit(
                    f"full seed 3 scenario {sid} {case}: total {got} != ROADMAP {want}"
                )


def main() -> None:
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    import scipy

    references = {
        "engine": f"HiGHS via scipy {scipy.__version__}",
        "plan_solve_limit_s": PLAN_SOLVE_LIMIT_S,
    }
    with tempfile.TemporaryDirectory() as work:
        for scale, seeds in FROZEN.items():
            references[scale] = {
                str(seed): scale_references(scale, seed, work) for seed in seeds
            }
    cross_check(references)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
