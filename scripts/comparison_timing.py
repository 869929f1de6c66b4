#!/usr/bin/env python3
"""Time the layers of ``scenario.run_comparison`` over the paper's tables.

The tables are the ones the benchmark runs: the reduced one (scenarios 1-3
at seeds 3-5) with default solve options, and the full-scale one
(scenarios 1-3 at seed 3) with an 8 s per-case time limit. For each table
the script runs ``--passes`` passes of every comparison, each report
rendered with ``scenario.report_to_document`` and ``io.dumps``, and prints
the median over passes of the CPU time (``time.process_time``, in ms) spent
in each layer per pass:

- ``generate``: ``scenario.generate`` less its bootstrap solve;
- ``bootstrap``: the offline solve of the existing requests in ``generate``;
- ``validate``: making ``validate_instance`` reports, bootstrap included;
- ``setup``: ``solver._Problem`` set-up of the two cases, less validation
  and route pricing;
- ``online`` and ``no_reuse``: each case's ``solve_exact`` less its set-up
  and route pricing;
- ``floor``: route pricing (``solver._Problem._cheapest_route``, which
  ``reprice`` calls where its memo misses), for the root terms of every
  set-up and for each request the searches reprice at a type end,
  bootstrap included; the memo lookups stay in the layer that reprices;
- ``report``: ``scenario._case``, ``report_to_document`` and ``io.dumps``.

It also prints, per comparison, how many instance reports were made and how
many times a plan was checked against its instance (``ensure_plan_matches``),
and per pass how many routes were priced (``_cheapest_route`` calls).
The layers are timed by wrapping module attributes, which adds a little to
each wrapped call; the whole pass is timed with the wrappers in place.
Needs only the standard library. Run from the repository root:

    PYTHONPATH=src python scripts/comparison_timing.py [--passes N]
"""

import argparse
import statistics
import sys
import time
from collections import Counter

from chainplace import costs, io, model, scenario, solver
from chainplace.scenario import ScenarioSpec
from chainplace.solver import SolveOptions

TABLES = {
    "reduced": ((3, 4, 5), True, SolveOptions()),
    "full": ((3,), False, SolveOptions(time_limit=8.0)),
}
LAYERS = ("generate", "bootstrap", "validate", "setup", "online", "no_reuse", "floor", "report")


class Clock:
    """Self CPU time per layer: a wrapped call's time less that of the
    wrapped calls inside it, each charged to the layer its caller names."""

    def __init__(self):
        self.spent = Counter()
        self.calls = Counter()
        self._stack = []  # [layer, time of wrapped calls inside]

    def wrap(self, owner, attr, layer):
        """Time ``owner.attr``; ``layer`` maps the call's arguments, and the
        layer of the call it is inside, to the layer it is charged to."""
        original = getattr(owner, attr)
        clock = self

        def timed(*args, **kwargs):
            outer = clock._stack[-1][0] if clock._stack else None
            frame = [layer(outer, *args, **kwargs), 0.0]
            clock._stack.append(frame)
            start = time.process_time()
            try:
                return original(*args, **kwargs)
            finally:
                took = time.process_time() - start
                clock._stack.pop()
                clock.spent[frame[0]] += took - frame[1]
                clock.calls[attr] += 1
                if clock._stack:
                    clock._stack[-1][1] += took

        setattr(owner, attr, timed)

    def count(self, owner, attr):
        original = getattr(owner, attr)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)


def _case(options) -> str:
    return "no_reuse" if options is not None and options.no_reuse else "online"


def install(clock: Clock) -> None:
    def solve_layer(outer, instance, options=None):
        return "bootstrap" if outer in ("generate", "bootstrap") else _case(options)

    def setup_layer(outer, problem, instance, options):
        return "bootstrap" if outer == "bootstrap" else "setup"

    clock.wrap(scenario, "generate", lambda outer, spec: "generate")
    clock.wrap(scenario, "solve_exact", solve_layer)
    clock.wrap(solver._Problem, "__init__", setup_layer)
    clock.wrap(model, "_instance_report", lambda outer, instance: "validate")
    clock.wrap(solver._Problem, "_cheapest_route", lambda outer, *args: "floor")
    for owner, attr in ((scenario, "_case"), (scenario, "report_to_document"), (io, "dumps")):
        clock.wrap(owner, attr, lambda outer, *args, **kwargs: "report")
    # costs reads it under its own name, check_feasibility under model's
    clock.count(costs, "ensure_plan_matches")
    clock.count(model, "ensure_plan_matches")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    clock = Clock()
    install(clock)
    for table, (seeds, reduced, options) in TABLES.items():
        specs = [
            ScenarioSpec.table_row(sid, seed=seed, reduced=reduced)
            for seed in seeds
            for sid in sorted(scenario.REDUCED_SCENARIOS if reduced else scenario.FULL_SCENARIOS)
        ]
        per_pass = {layer: [] for layer in (*LAYERS, "pass")}
        for _ in range(args.passes + 1):  # the first pass warms up, untimed
            clock.spent.clear()
            clock.calls.clear()
            start = time.process_time()
            for spec in specs:
                io.dumps(scenario.report_to_document(scenario.run_comparison(spec, options)))
            per_pass["pass"].append(time.process_time() - start)
            for layer in LAYERS:
                per_pass[layer].append(clock.spent[layer])
        for values in per_pass.values():
            del values[0]
        figures = " ".join(
            f"{layer}_ms={statistics.median(values) * 1e3:.2f}" for layer, values in per_pass.items()
        )
        print(f"{table} comparisons={len(specs)} passes={args.passes} {figures}")
        reports = clock.calls["_instance_report"] / len(specs)
        checks = clock.calls["ensure_plan_matches"] / len(specs)
        print(f"{table} per_comparison reports={reports:g} plan_checks={checks:g}")
        # the same in every pass: each builds its problems, and their memos, anew
        print(f"{table} per_pass route_prices={clock.calls['_cheapest_route']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
