#!/usr/bin/env python3
"""Record what the plan checker and the cost module say about a fixed set of plans.

The plans are every plan the brute-force oracle hands to
``check_feasibility`` on the first eight instances of
``tests/test_acceptance.py::oracle_configs()``, and three mutants of each:
one with an extra content server, one with an assignment dropped, and one
with an extra assignment and a route link dropped. A mutant names only
what its instance has, so it meets the constraint checks, not
``IndexMismatchError``. For every plan the script reads the checker's
violations, ``service_delays`` (or the text of its
``UnassignedChainError``) and ``total_objective`` with clamped
instantiation off and on, and writes one sha256 over all of them, with
the plan count, into tests/data/check_digest.json;
``tests/test_check_digest.py`` recomputes it, so any change to what the
checker or the cost module says about one of these plans fails a tier-1
test. It takes about two seconds. Run from the repository root:

    PYTHONPATH=src python scripts/freeze_check_digest.py
"""

import dataclasses
import hashlib
import json
import pathlib
import random
import sys

from chainplace import solver
from chainplace.costs import service_delays, total_objective
from chainplace.errors import UnassignedChainError
from chainplace.model import PlacementPlan, check_feasibility
from chainplace.scenario import generate

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_acceptance import oracle_configs  # noqa: E402

TARGET = ROOT / "tests" / "data" / "check_digest.json"
CONFIGS = 8


def oracle_plans(instance) -> list[PlacementPlan]:
    """Every plan ``brute_force`` checks on ``instance``, in its order."""
    seen = []

    def collect(inst, plan):
        seen.append(plan)
        return check_feasibility(inst, plan)

    solver.check_feasibility = collect
    try:
        solver.brute_force(instance)
    finally:
        solver.check_feasibility = check_feasibility
    return seen


def mutants(instance, plan: PlacementPlan, rng: random.Random) -> list[PlacementPlan]:
    """The three mutants of ``plan``, picked by ``rng`` from sorted lists."""
    net = instance.network
    r = rng.choice(instance.requests)
    spare = [s for s in net.servers if (r.id, s) not in plan.content_server]
    extra_server = dataclasses.replace(
        plan, content_server=plan.content_server | {(r.id, rng.choice(spare))}
    )
    assignment = sorted(plan.assignment)
    dropped = dataclasses.replace(
        plan, assignment=plan.assignment - {rng.choice(assignment)}
    )
    r = rng.choice(instance.requests)
    k = rng.choice(r.chain)
    extra = (r.id, rng.choice(net.servers), k, rng.choice(instance.catalog.get(k).instances))
    routes = dict(plan.routes)
    f = rng.choice(sorted(f for f, links in routes.items() if links))
    routes[f] = routes[f] - {rng.choice(sorted(routes[f]))}
    rewired = dataclasses.replace(plan, assignment=plan.assignment | {extra}, routes=routes)
    return [extra_server, dropped, rewired]


def plans():
    """(instance, plan) for every plan the digest covers, in a fixed order."""
    rng = random.Random(2018)
    for spec in oracle_configs()[:CONFIGS]:
        instance = generate(spec)
        for plan in oracle_plans(instance):
            yield instance, plan
            for mutant in mutants(instance, plan, rng):
                yield instance, mutant


def record(instance, plan) -> list:
    """What the checker and the cost module say about one plan."""
    violations = [[v.code, list(v.subject), v.detail]
                  for v in check_feasibility(instance, plan).violations]
    try:
        delays = service_delays(instance, plan)
    except UnassignedChainError as exc:
        delays = str(exc)
    totals = [dataclasses.astuple(total_objective(instance, plan, clamp_instantiation=c))
              for c in (False, True)]
    return [violations, delays, totals]


def digest() -> dict:
    h = hashlib.sha256()
    count = 0
    for instance, plan in plans():
        h.update(json.dumps(record(instance, plan)).encode() + b"\n")
        count += 1
    return {"configs": CONFIGS, "plans": count, "sha256": h.hexdigest()}


def main() -> None:
    out = digest()
    print(out)
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
