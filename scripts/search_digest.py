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
(``io.plan_to_document`` dumped with sorted keys), the node counts of the
search and of the warm-start dive before it, and the incumbent updates,
and writes them as sorted JSON to the given path. Two runs of the script
on two versions of the code diff cleanly when the search returns the same
answers; the ``nodes`` and ``dive_nodes`` lines show how much the search
effort moved. The 86 solves take about 0.4 s of CPU on a 2-vCPU Xeon
host. ``tests/data/search_digest.json`` is this script's output, all 86
solves; ``tests/test_search_digest.py`` reruns all 86 against it. A change
that moves their node counts writes the file again with the second command
below.

``--second-frontier`` digests another group instead, past the first
frontier: 6x6 at 8/10, 9/11 and 10/12, 8x8 at 8/10 and 10/12, 10x10 at
7/9 and 9/11 and 12x12 at 8/10, seeds 3-4: 32 solves, each with a 10 s
limit. Some of them stop at the limit, so the group records the status
and the total of every solve and the nodes of those that finish; it is
in neither the frozen file nor the tests, and takes minutes.

``--against OLD.json`` compares what the run writes with an earlier digest
of the same group. It prints, per group (reduced, full, frontier or
frontier2) and case (online or no_reuse), the sums of ``nodes``,
``dive_nodes`` and ``incumbent_updates``, old -> new, and lists every solve
whose status, total or plan sha256 differs or that only one file holds. A
solve that stopped at its time limit in OLD is not compared, since where
it stopped depends on timing. The script exits 1 if any solve differs.
Run from the repository root:

    PYTHONPATH=src python scripts/search_digest.py digest.json
    PYTHONPATH=src python scripts/search_digest.py new.json --against tests/data/search_digest.json
    PYTHONPATH=src python scripts/search_digest.py tests/data/search_digest.json
    PYTHONPATH=src python scripts/search_digest.py --second-frontier frontier2.json
"""

import argparse
import hashlib
import json
import pathlib
from collections import defaultdict

from chainplace import io as _io
from chainplace.scenario import ScenarioSpec, generate
from chainplace.solver import STATUS_TIME_LIMIT, SolveOptions, solve_exact

SEEDS = {"reduced": range(3, 6), "full": range(3, 9)}
# (servers, user groups, existing requests, new requests)
FRONTIER = [
    (6, 6, 4, 6), (6, 6, 5, 7), (6, 6, 6, 8), (6, 6, 7, 9),
    (8, 8, 4, 6), (8, 8, 6, 8), (10, 10, 3, 5), (10, 10, 5, 7),
]
FRONTIER_SEEDS = range(3, 5)
SECOND_FRONTIER = [
    (6, 6, 8, 10), (6, 6, 9, 11), (6, 6, 10, 12), (8, 8, 8, 10),
    (8, 8, 10, 12), (10, 10, 7, 9), (10, 10, 9, 11), (12, 12, 8, 10),
]
SECOND_FRONTIER_LIMIT = 10.0  # seconds per solve
EFFORT = ("nodes", "dive_nodes", "incumbent_updates")
ANSWER = ("status", "total", "plan_sha256")


def frontier_cases(sizes, group="frontier"):
    """(label, spec) of each frontier size at each frontier seed."""
    for servers, users, existing, new in sizes:
        for seed in FRONTIER_SEEDS:
            spec = ScenarioSpec(
                seed=seed, n_servers=servers, n_user_groups=users,
                existing_requests=existing, new_requests=new,
            )
            yield f"{group}/{servers}x{users}/{existing}-{new}/seed{seed}", spec


def cases():
    """(label, spec) of every instance to generate, in a fixed order."""
    for scale, seeds in SEEDS.items():
        for seed in seeds:
            for scenario_id in (1, 2, 3):
                spec = ScenarioSpec.table_row(scenario_id, seed=seed, reduced=scale == "reduced")
                yield f"{scale}/seed{seed}/scenario{scenario_id}", spec
    yield from frontier_cases(FRONTIER)


def solves(items, time_limit=SolveOptions.time_limit):
    """(label, result) of the online and no_reuse solves of every (label,
    spec) in ``items``."""
    for name, spec in items:
        instance = generate(spec)
        for label, no_reuse in (("online", False), ("no_reuse", True)):
            options = SolveOptions(
                time_limit=time_limit, no_reuse=no_reuse, clamp_instantiation=True
            )
            yield f"{name}/{label}", solve_exact(instance, options)


def digest(items) -> dict:
    """Status, total, plan sha256, nodes, dive nodes and incumbent updates
    of the online and no_reuse solves of every (label, spec) in ``items``."""
    out = {}
    for label, result in solves(items):
        plan = None
        if result.plan is not None:
            text = json.dumps(_io.plan_to_document(result.plan), sort_keys=True)
            plan = hashlib.sha256(text.encode()).hexdigest()
        out[label] = {
            "status": result.status,
            "total": result.breakdown.total if result.breakdown else None,
            "plan_sha256": plan,
            "nodes": result.stats.nodes,
            "dive_nodes": result.stats.dive_nodes,
            "incumbent_updates": result.stats.incumbent_updates,
        }
    return out


def second_frontier_digest() -> dict:
    """Status and total of every second-frontier solve, and the nodes of
    those that finish within the limit."""
    out = {}
    items = frontier_cases(SECOND_FRONTIER, "frontier2")
    for label, result in solves(items, SECOND_FRONTIER_LIMIT):
        out[label] = {
            "status": result.status,
            "total": result.breakdown.total if result.breakdown else None,
        }
        if result.status != STATUS_TIME_LIMIT:
            out[label]["nodes"] = result.stats.nodes
    return out


def compare(old: dict, new: dict) -> int:
    """Print the effort sums per group and case, old -> new, and every solve
    whose answer differs; return 1 if any does, else 0."""
    sums = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for side, solved in enumerate((old, new)):
        for label, solve in solved.items():
            group = f"{label.split('/')[0]}/{label.rsplit('/', 1)[1]}"
            for field in EFFORT:
                if field in solve:
                    sums[group][field][side] += solve[field]
    for group, fields in sorted(sums.items()):
        moved = "  ".join(f"{field} {a} -> {b}" for field, (a, b) in fields.items())
        print(f"{group}: {moved}")
    differ = []
    for label in sorted(old.keys() | new.keys()):
        was, now = old.get(label), new.get(label)
        if was is None or now is None:
            differ.append(f"{label}: only in {'new' if was is None else 'old'}")
        elif was["status"] != STATUS_TIME_LIMIT:
            changed = [
                f"{field} {was.get(field)} -> {now.get(field)}"
                for field in ANSWER
                if was.get(field) != now.get(field)
            ]
            if changed:
                differ.append(f"{label}: " + ", ".join(changed))
    print(f"{len(differ)} of {len(old.keys() | new.keys())} solves differ")
    for line in differ:
        print(f"  {line}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=pathlib.Path, help="where to write the JSON")
    parser.add_argument("--second-frontier", action="store_true",
                        help="digest the second-frontier group instead")
    parser.add_argument("--against", type=pathlib.Path, metavar="OLD.json",
                        help="compare the new digest with an earlier one")
    args = parser.parse_args()
    old = json.loads(args.against.read_text()) if args.against else None
    if args.second_frontier:
        solved = second_frontier_digest()
        args.output.write_text(json.dumps(solved, indent=2, sort_keys=True) + "\n")
        done = [solve for solve in solved.values() if "nodes" in solve]
        nodes = sum(solve["nodes"] for solve in done)
        print(f"{len(done)} of {len(solved)} solves finish in {nodes} nodes; wrote {args.output}")
    else:
        solved = digest(cases())
        args.output.write_text(json.dumps(solved, indent=2, sort_keys=True) + "\n")
        nodes = sum(solve["nodes"] for solve in solved.values())
        dive = sum(solve["dive_nodes"] for solve in solved.values())
        print(f"{len(solved)} solves, {nodes} nodes and {dive} dive nodes; wrote {args.output}")
    return compare(old, solved) if old is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
