#!/usr/bin/env python3
"""Layered benchmark of chainplace.

    python3 perfbench/run.py --workload reduced_table|full_table|ilp_export \
        [--seed N] [--seconds S] [--trace 0|1] [--scenario-seed s]
    python3 perfbench/run.py --workload all     # every workload, traced and not

Run from the repository root. One process, one thread, operations back to
back (a closed loop with one client). ``--seed`` draws the order of the
operations in each pass; the instances come from ``--scenario-seed``
(default ``scenario.DEFAULT_SEED``), whose optima are frozen in
``references.json``. Passes repeat until ``--seconds`` have gone, at least
one. With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` one untraced pass is followed by traced passes and the
line holds the per-layer metrics. A wrong output fails the run (exit 1)
and names the case; a missing program fails it with exit 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
VAR = HERE / "_var"  # run outputs, ignored by git
# set-up runs in at least 3 fresh processes, and in more until they have
# used 2 CPU seconds, so that a 0.2 s set-up still gets a steady median
SETUP_REPEATS_MIN = 3
SETUP_CPU_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ok_share": "ratio",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "scenario.generate_s": ("scenario.generate",),
    "scenario.report_s": ("scenario.report_to_document",),
    "model.validate_s": ("solver.validate_instance", "ilp.validate_instance", "cli.validate_instance"),
    "model.snapshot_diff_s": ("scenario.snapshot_diff",),
    "model.check_s": ("model.check_feasibility",),
    "costs.total_objective_s": ("costs.total_objective",),
    "costs.service_delay_s": ("scenario.service_delay",),
    "ilp.enumerate_s": ("solver.enumerate_variables", "ilp.enumerate_variables"),
    "ilp.plan_vector_s": ("solver.plan_vector",),
    "ilp.build_s": ("ilp.build_ilp", "cli.build_ilp"),
    "ilp.export_mps_s": ("cli.export_mps",),
    "ilp.export_lp_s": ("cli.export_lp",),
    "ilp.import_s": ("ilp.import_solution",),
    "io.load_s": ("io.document_to_instance",),
    "io.dumps_s": ("io.dumps",),
}
# per-layer metric -> span names whose calls it counts
CALLS = {
    "model.validate_calls": SELF_TIME["model.validate_s"],
    "costs.total_objective_calls": ("costs.total_objective",),
    "ilp.plan_vector_calls": ("solver.plan_vector",),
}
SELF_TIME_OF = {span: metric for metric, spans in SELF_TIME.items() for span in spans}
CALLS_OF = {span: metric for metric, spans in CALLS.items() for span in spans}
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    "scenario.bootstrap_s": "s",
    "scenario.bootstrap_nodes": "count",
    "solver.online_s": "s",
    "solver.no_reuse_s": "s",
    "solver.online_nodes": "count",
    "solver.no_reuse_nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.incumbent_updates": "count",
    "solver.time_limited": "count",
    "solver.gap_money": "money",
    "solver.excess_money": "money",
    "ilp.key_hit_ratio": "ratio",
    "ilp.vars": "count",
    "ilp.rows": "count",
    "ilp.export_bytes": "bytes",
    "io.bytes_out": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Pass:
    cpu: float  # CPU seconds of this process over the pass
    wall: float
    outcomes: list
    first_span: int
    end_span: int


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import chainplace
    from it; raise ImportError when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "chainplace" / "__init__.py").is_file():
        raise ImportError(f"no chainplace package under {src}")
    sys.path.insert(0, str(src))
    import chainplace

    if Path(chainplace.__file__).resolve().parent != (src / "chainplace").resolve():
        raise ImportError(f"chainplace was imported from {chainplace.__file__}, not {src}")


def run_pass(workload, tracer, rng, number: int, mode: str) -> Pass:
    import tracing
    from workloads import WrongOutput

    order = workload.ops()
    rng.shuffle(order)
    produced = {}
    first = len(tracer.spans)
    gc.collect()  # every pass starts from a collected heap, whatever ran before it
    tracer.mode = mode
    wall, cpu = time.perf_counter(), time.process_time()
    for op in order:
        tracer.op = f"{number}:{op}"
        try:
            produced[op] = workload.run(op)
        except Exception as exc:  # any error of the program fails the run, naming the case
            raise WrongOutput(f"{op}: {type(exc).__name__}: {exc}") from exc
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    tracer.mode, tracer.op = tracing.OFF, None

    by_op = defaultdict(list)
    for index in range(first, len(tracer.spans)):
        span = tracer.spans[index]
        by_op[span.op].append((index, span))
    outcomes = []
    for op in workload.ops():
        spans = by_op[f"{number}:{op}"]
        checked = workload.check(op, produced[op], spans)
        if mode == tracing.ALL and all(o.ok for o in checked):
            checked[0].counts.update(
                {f"calls.{name}": n for name, n in Counter(s.name for _i, s in spans).items()}
            )
        outcomes.extend(checked)
    return Pass(cpu, wall, outcomes, first, len(tracer.spans))


def check_counts_repeat(passes: list[Pass]) -> None:
    """Each exact count of a verified case must be the same in every pass
    that records it, traced or not."""
    from workloads import WrongOutput

    seen = {}
    for p in passes:
        for o in p.outcomes:
            for key, value in o.counts.items():
                first = seen.setdefault((o.case, key), value)
                if first != value:
                    raise WrongOutput(
                        f"{o.case}: exact count {key} is {value} in one pass and {first} in another"
                    )


def layer_metrics(tracer, own: list[float], indexes, outcomes) -> dict:
    """Per-layer metrics over the spans at ``indexes`` (self times in s)."""
    m = dict.fromkeys(PER_LAYER, 0)
    updates_all = 0
    for i in indexes:
        span = tracer.spans[i]
        if span.name in SELF_TIME_OF:
            m[SELF_TIME_OF[span.name]] += own[i]
        if span.name in CALLS_OF:
            m[CALLS_OF[span.name]] += 1
        if span.name in ("ilp.build_ilp", "cli.build_ilp"):
            m["ilp.vars"] += span.attrs["vars"]
            m["ilp.rows"] += span.attrs["rows"]
        elif span.name in ("cli.export_mps", "cli.export_lp"):
            m["ilp.export_bytes"] += span.attrs["bytes"]
        elif span.name == "io.dumps":
            m["io.bytes_out"] += span.attrs["bytes"]
        elif span.name == "scenario.solve_exact":
            a = span.attrs
            updates_all += a["incumbent_updates"]
            parent = tracer.spans[span.parent] if span.parent is not None else None
            if parent is not None and parent.name == "scenario.generate":
                m["scenario.bootstrap_s"] += span.duration
                m["scenario.bootstrap_nodes"] += a["nodes"]
                continue
            kind = "no_reuse" if a["no_reuse"] else "online"
            m[f"solver.{kind}_s"] += own[i]
            m[f"solver.{kind}_nodes"] += a["nodes"]
            m["solver.incumbent_updates"] += a["incumbent_updates"]
            if a["status"] == "time_limit":
                m["solver.time_limited"] += 1
                m["solver.gap_money"] += (a["gap_micro"] or 0) / 1e6
    solve_s = m["solver.online_s"] + m["solver.no_reuse_s"]
    if solve_s:
        m["solver.nodes_per_s"] = (m["solver.online_nodes"] + m["solver.no_reuse_nodes"]) / solve_s
    if m["ilp.plan_vector_calls"]:
        # base: every solve in scope, the bootstrap solves included
        m["ilp.key_hit_ratio"] = updates_all / m["ilp.plan_vector_calls"]
    m["solver.excess_money"] = sum(
        o.total - o.reference for o in outcomes if o.total is not None
    ) / 1e6
    m["trace.spans"] = len(indexes)
    return m


def end_to_end(setup_times, passes) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    excess = sum(o.total - o.reference for o in outcomes if o.total is not None)
    scale = sum(abs(o.reference) for o in outcomes if o.total is not None)
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p.cpu for p in passes),
        "ok_share": sum(o.ok for o in outcomes) / len(outcomes),
        "cost_ratio": 1 + excess / scale if scale else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def child_command(args, *flags) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *flags,
            "--workload", args.workload, "--scenario-seed", str(args.scenario_seed)]


def run_workload(args) -> tuple[dict, int, list[Pass]]:
    import tracing
    import workloads

    cache = VAR / "refs"
    # references of seeds outside the frozen set are computed before anything
    # is timed, in a child, so that scipy never loads into this process
    code = subprocess.run(child_command(args, "--references-only")).returncode
    if code:
        raise workloads.WrongOutput(f"{args.workload}: computing references exited {code}")
    rng = random.Random(args.seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    (VAR / "work").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=VAR / "work") as tmp:
        work = Path(tmp)
        setup_times = []
        if args.trace:
            tracer.mode, tracer.op = tracing.ALL, "setup"
            workload = workloads.make(args.workload, args.scenario_seed, cache)
            workload.setup(work)
            tracer.mode, tracer.op = tracing.OFF, None
            workload.attach(work)
        else:
            while len(setup_times) < SETUP_REPEATS_MIN or sum(setup_times) < SETUP_CPU_S:
                target = work / f"setup{len(setup_times)}"
                target.mkdir()
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                code = subprocess.run(child_command(args, "--setup-only", str(target))).returncode
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                setup_times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
                if code:
                    raise workloads.WrongOutput(f"{args.workload}: set-up exited {code}")
            workload = workloads.make(args.workload, args.scenario_seed, cache)
            workload.attach(target)
        setup_end = len(tracer.spans)

        passes = []
        started = time.perf_counter()
        if args.trace:
            passes.append(run_pass(workload, tracer, rng, 0, tracing.CORE))
        while not passes or time.perf_counter() - started < args.seconds or (
            args.trace and len(passes) < 2
        ):
            mode = tracing.ALL if args.trace else tracing.CORE
            passes.append(run_pass(workload, tracer, rng, len(passes), mode))
        check_counts_repeat(passes)
    tracer.remove()
    attempted = sum(len(p.outcomes) for p in passes)

    if not args.trace:
        return end_to_end(setup_times, passes), attempted, passes

    own = tracing.self_times(tracer.spans)
    traced = passes[1:]
    per_pass = [
        layer_metrics(tracer, own, list(range(setup_end)) + list(range(p.first_span, p.end_span)),
                      p.outcomes)
        for p in traced
    ]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(p.cpu for p in traced) - passes[0].cpu
    VAR.joinpath("traces").mkdir(parents=True, exist_ok=True)
    out = VAR / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": args.scenario_seed,
        "environment": environment(),
        "passes": [{"cpu_s": p.cpu, "wall_s": p.wall, "traced": i > 0, "spans": [p.first_span, p.end_span]}
                   for i, p in enumerate(passes)],
        "setup_spans": [0, setup_end],
        "spans": [s.to_document() for s in tracer.spans],
    }))
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics, attempted, passes


def declared_metrics(trace_flag: int) -> dict:
    """The metrics BENCHMARK.json declares for this mode, checked against
    the ones this script computes."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section, known = ("per_layer", PER_LAYER) if trace_flag else ("end_to_end", END_TO_END)
    declared = {m["name"]: m["unit"] for m in bench[section]}
    if declared != known:
        raise SystemExit(f"BENCHMARK.json {section} does not match run.py: {sorted(declared.items() ^ known.items())}")
    return declared


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import NAMES

    results = {}
    for name in NAMES:
        for flag in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(flag), "--scenario-seed", str(args.scenario_seed)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                print(f"perfbench: {name} --trace {flag} failed with exit code {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            results.setdefault(name, {}).update(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
    for name, metrics in results.items():
        for metric, entry in metrics.items():
            print(f"{name:<14} {metric:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"environment": environment(), "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="draws the operation order")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="instance seed s (default: scenario.DEFAULT_SEED)")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--references-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("CHAINPLACE_")]:
        del os.environ[key]
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    # the benchmark's own modules import chainplace, so they load after it
    import workloads
    from chainplace import scenario

    if args.scenario_seed is None:
        args.scenario_seed = scenario.DEFAULT_SEED
    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")

    if args.setup_only or args.references_only:
        workload = workloads.make(args.workload, args.scenario_seed, VAR / "refs")
        if args.setup_only:
            workload.setup(Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)

    declared = declared_metrics(args.trace)
    try:
        metrics, attempted, passes = run_workload(args)
    except workloads.WrongOutput as exc:
        print(f"perfbench: FAILED {exc}", file=sys.stderr)
        return 1
    for name, unit in declared.items():
        print(f"{name:<28} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "scenario_seed": args.scenario_seed,
                      "pass_cpu_s": [p.cpu for p in passes], "pass_wall_s": [p.wall for p in passes]}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
