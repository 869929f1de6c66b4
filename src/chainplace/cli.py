"""Command-line entry point.

Subcommands: ``generate`` (write an instance document), ``solve`` (optimize
an instance or export its MILP), ``compare`` (online versus deploy-from-
scratch report) and ``check`` (feasibility and cost of a plan file).

Configuration precedence is flags over ``CHAINPLACE_*`` environment
variables over defaults. Results go to stdout or ``--output``; logs go to
stderr. Exit codes: 0 success/feasible/optimal, 1 usage or parse error,
2 infeasible, 3 time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable

from . import io as _io
from . import scenario as _scenario
from .errors import (
    BootstrapInfeasibleError,
    ChainplaceError,
    TimeLimitError,
    ValidationFailedError,
)
from .ilp import BuildOptions, _collector_paused, build_ilp, lp_chunks, mps_chunks
from .ilp import export_lp, export_mps  # noqa: F401 (perfbench wraps these names)
from .model import check_feasibility, validate_instance
from .costs import total_objective
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SolveOptions,
    _brute_force,
    _Problem,
    _solve_exact,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3

_STATUS_EXIT = {
    STATUS_OPTIMAL: EXIT_OK,
    STATUS_INFEASIBLE: EXIT_INFEASIBLE,
    STATUS_TIME_LIMIT: EXIT_TIME_LIMIT,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


_SLICE = 1 << 16


def _emit(text: str | Iterable[str], output: str | None) -> None:
    """Write a text, or its chunks, to ``output`` or to stdout."""
    chunks = text
    if isinstance(text, str):  # in slices, so that no second full copy is encoded
        chunks = (text[i:i + _SLICE] for i in range(0, len(text), _SLICE))
    if output:
        with open(output, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


class _UsageError(ChainplaceError):
    """A flag, environment variable or input document holds a value the CLI
    cannot use."""


def _env(name: str, parse):
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise _UsageError(f"{name}: cannot read {raw!r} as {parse.__name__}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = _env("CHAINPLACE_SEED", int)
    return env if env is not None else _scenario.DEFAULT_SEED


def _solve_options(args) -> SolveOptions:
    time_limit = args.time_limit
    if time_limit is None:
        time_limit = _env("CHAINPLACE_TIME_LIMIT", float)
    limit = {} if time_limit is None else {"time_limit": time_limit}  # else SolveOptions' own
    try:
        return SolveOptions(no_reuse=getattr(args, "no_reuse", False), **limit)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _read(kind: str, path: str, convert):
    """The JSON document at ``path`` converted by ``convert``. A document
    that does not convert is a usage error naming it."""
    try:
        with open(path) as fh:
            return convert(json.load(fh))
    except (ValueError, LookupError, TypeError, RecursionError) as exc:
        raise _UsageError(f"cannot read {kind} {path}: {exc}") from None


def _log_invalid(report) -> None:
    for v in report.violations:
        _log(f"invalid instance: {v}")


# the ScenarioSpec field each size flag sets, by the flag's name
_SIZE_FIELDS = {
    "servers": "n_servers",
    "users": "n_user_groups",
    "existing": "existing_requests",
    "new": "new_requests",
}


def _specs_from_args(args) -> list[_scenario.ScenarioSpec]:
    """Every spec the scenario flags name: one per table row ``--scenario``
    names, else one from the size flags. Each is built, and so checked,
    before the caller generates or compares any; a flag that makes no valid
    spec is a usage error."""
    seed = _resolve_seed(args)
    given = [name for name in _SIZE_FIELDS if getattr(args, name) is not None]
    try:
        overrides = _parse_overrides(args.set)
        if args.scenario is None:
            size = {_SIZE_FIELDS[name]: getattr(args, name) for name in given}
            if args.reduced:
                size = {**_scenario.REDUCED_SIZE, **size}
            return [_scenario.ScenarioSpec(seed=seed, overrides=overrides, **size)]
        if given:
            flags = ", ".join(f"--{name}" for name in given)
            raise ValueError(f"{flags} cannot be given with --scenario")
        return [
            _scenario.ScenarioSpec.table_row(
                scenario_id, seed=seed, reduced=args.reduced, overrides=overrides
            )
            for scenario_id in _parse_scenario_range(args.scenario)
        ]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_scenario_range(text: str) -> range | list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ids = range(int(lo), int(hi) + 1)
        else:
            ids = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--scenario expects an id, a range such as 1..3 or a list such as 1,3; got {text!r}"
        ) from None
    if not ids:
        raise ValueError(f"--scenario range {text!r} is empty")
    if ".." in text:
        return ids  # a range never repeats an id
    repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
    if repeated:
        listed = ", ".join(map(str, repeated))
        raise ValueError(f"--scenario lists id {listed} more than once; got {text!r}")
    return ids


def cmd_generate(args) -> int:
    specs = _specs_from_args(args)
    if len(specs) != 1:
        raise _UsageError("generate expects a single scenario id")
    instance = _scenario.generate(specs[0])
    _emit(_io.dumps(_io.instance_to_document(instance)), args.output)
    return EXIT_OK


def _export(instance, args) -> int:
    """Compile the instance, then write its MILP a chunk at a time, so the
    whole text never exists and a refused instance leaves no output file.
    The caller pauses the collector around the call, so the model, which
    forms no cycles, is freed on return before a collection could scan it."""
    try:
        model = build_ilp(instance, BuildOptions(no_reuse=args.no_reuse))
    except ValidationFailedError as exc:
        _log_invalid(exc.report)
        return EXIT_USAGE
    _emit((mps_chunks if args.export == "mps" else lp_chunks)(model), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _read("instance", args.instance, _io.document_to_instance)
    if args.export:
        with _collector_paused():
            return _export(instance, args)
    # _Problem validates the instance before any work; the search and the
    # oracle share one _Problem, so it is validated once
    try:
        problem = _Problem(instance, _solve_options(args))
        result = _solve_exact(problem)
    except ValidationFailedError as exc:
        _log_invalid(exc.report)
        return EXIT_USAGE

    document = _io.solve_result_to_document(instance, result, include_timing=args.timing)

    if args.oracle:
        oracle = _brute_force(problem)
        match = (
            result.status == oracle.status
            and result.plan == oracle.plan
            and (result.breakdown is None or result.breakdown.total == oracle.breakdown.total)
        )
        document["oracle_match"] = match
        if not match:
            _log("oracle mismatch: brute force disagrees with branch and bound")
            _emit(_io.dumps(document), args.output)
            return EXIT_USAGE

    _emit(_io.dumps(document), args.output)
    return _STATUS_EXIT[result.status]


def cmd_compare(args) -> int:
    options = _solve_options(args)
    reports = [
        _scenario.run_comparison(spec, options, license_refunds=args.license_refunds)
        for spec in _specs_from_args(args)
    ]
    worst = max(_STATUS_EXIT[c.status] for r in reports for c in (r.online, r.no_reuse))
    if args.format == "json":
        payload = [
            _scenario.report_to_document(r, include_timing=args.timing) for r in reports
        ]
        _emit(_io.dumps({"format_version": _io.FORMAT_VERSION, "reports": payload}), args.output)
    else:
        _emit(_scenario.reports_to_csv(reports, include_timing=args.timing), args.output)
    return worst


def cmd_check(args) -> int:
    instance = _read("instance", args.instance, _io.document_to_instance)
    validation = validate_instance(instance)
    if not validation.ok:
        _log_invalid(validation)
        return EXIT_USAGE
    plan = _read("plan", args.plan, _io.document_to_plan)

    try:
        report = check_feasibility(instance, plan)
    except ChainplaceError as exc:
        _log(f"plan does not match the instance: {exc}")
        return EXIT_USAGE
    breakdown = total_objective(instance, plan)
    document = {
        "format_version": _io.FORMAT_VERSION,
        "feasible": report.feasible,
        "violations": [
            {"constraint": v.code, "subject": list(v.subject), "detail": v.detail}
            for v in report.violations
        ],
        "breakdown": _io.breakdown_to_document(breakdown),
    }
    _emit(_io.dumps(document), args.output)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _add_common(parser, seed: bool = False, solver: bool = False) -> None:
    """``-o`` for every subcommand; ``--seed`` for those that generate an
    instance, ``--time-limit`` and ``--timing`` for those that solve."""
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="random seed")
    if solver:
        parser.add_argument("--time-limit", type=float, default=None, help="solver time limit in seconds")
    parser.add_argument("-o", "--output", default=None, help="write output to a file instead of stdout")
    if solver:
        parser.add_argument("--timing", action="store_true", help="include wall-clock timing in reports (non-reproducible bytes)")


def _add_scenario_flags(parser) -> None:
    parser.add_argument("--scenario", default=None, help="evaluation scenario id, range (1..3) or list (1,3)")
    parser.add_argument("--reduced", action="store_true", help="reduced scale: 4 servers, 4 user groups, 4 requests")
    parser.add_argument("--existing", type=int, default=None, help="number of existing requests")
    parser.add_argument("--new", type=int, default=None, help="number of new requests")
    parser.add_argument("--servers", type=int, default=None, help="number of replica servers")
    parser.add_argument("--users", type=int, default=None, help="number of end-user groups")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a generator parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a seeded problem instance")
    _add_scenario_flags(p_gen)
    _add_common(p_gen, seed=True)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve an instance file (or export its MILP)")
    p_solve.add_argument("instance", help="instance document (JSON)")
    p_solve.add_argument("--no-reuse", action="store_true", help="forbid assigning new requests to snapshot instances")
    p_solve.add_argument("--export", choices=("mps", "lp"), default=None, help="write the MILP in this format instead of solving")
    p_solve.add_argument("--oracle", action="store_true", help="also run the brute-force oracle and verify agreement")
    _add_common(p_solve, solver=True)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="online vs deploy-from-scratch comparison report")
    _add_scenario_flags(p_cmp)
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.add_argument(
        "--license-refunds",
        action="store_true",
        help="literal delta accounting: removals refund their license",
    )
    _add_common(p_cmp, seed=True, solver=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="check a plan file against an instance")
    p_check.add_argument("instance", help="instance document (JSON)")
    p_check.add_argument("plan", help="plan document (JSON)")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BootstrapInfeasibleError as exc:
        _log(str(exc))
        return EXIT_INFEASIBLE
    except TimeLimitError as exc:
        _log(str(exc))
        return EXIT_TIME_LIMIT
    except (ChainplaceError, OSError) as exc:
        _log(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
