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

from . import io as _io
from . import scenario as _scenario
from .errors import BootstrapInfeasibleError, ChainplaceError, ValidationFailedError
from .ilp import BuildOptions, build_ilp, export_lp, export_mps
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


def _emit(text: str, output: str | None) -> None:
    if output:
        # in slices, so that the text layer never encodes a second full copy
        with open(output, "w", newline="") as fh:
            fh.writelines(text[i:i + _SLICE] for i in range(0, len(text), _SLICE))
    else:
        sys.stdout.write(text)


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
    try:
        return SolveOptions(
            time_limit=600.0 if time_limit is None else time_limit,
            no_reuse=getattr(args, "no_reuse", False),
        )
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


def _spec_from_args(args, scenario_id=None) -> _scenario.ScenarioSpec:
    seed = _resolve_seed(args)
    overrides = _parse_overrides(getattr(args, "set", None))
    if scenario_id is not None:
        return _scenario.ScenarioSpec.table_row(
            scenario_id, seed=seed, reduced=args.reduced, overrides=overrides
        )
    def count(given, reduced, full):
        return given if given is not None else (reduced if args.reduced else full)

    n_servers = count(args.servers, _scenario.REDUCED_SERVERS, 6)
    n_users = count(args.users, _scenario.REDUCED_USER_GROUPS, 6)
    return _scenario.ScenarioSpec(
        seed=seed,
        n_servers=n_servers,
        n_user_groups=n_users,
        existing_requests=count(args.existing, 2, 2),
        new_requests=count(args.new, 2, 4),
        overrides=overrides,
    )


def _parse_scenario_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            ids = list(range(int(lo), int(hi) + 1))
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
    try:
        if args.scenario is not None:
            ids = _parse_scenario_range(args.scenario)
            if len(ids) != 1:
                _log("generate expects a single scenario id")
                return EXIT_USAGE
            spec = _spec_from_args(args, ids[0])
        else:
            spec = _spec_from_args(args)
        instance = _scenario.generate(spec)
    except BootstrapInfeasibleError as exc:
        _log(str(exc))
        return EXIT_INFEASIBLE
    except ValueError as exc:
        _log(str(exc))
        return EXIT_USAGE
    _emit(_io.dumps(_io.instance_to_document(instance)), args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _read("instance", args.instance, _io.document_to_instance)
    # build_ilp and _Problem validate the instance before any work; the
    # search and the oracle share one _Problem, so it is validated once
    try:
        if args.export:
            model = build_ilp(instance, BuildOptions(no_reuse=args.no_reuse))
        else:
            problem = _Problem(instance, _solve_options(args))
            result = _solve_exact(problem)
    except ValidationFailedError as exc:
        _log_invalid(exc.report)
        return EXIT_USAGE

    if args.export:
        text = export_mps(model) if args.export == "mps" else export_lp(model)
        _emit(text, args.output)
        return EXIT_OK

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
    reports = []
    worst = EXIT_OK
    try:
        ids = _parse_scenario_range(args.scenario) if args.scenario else [None]
        for scenario_id in ids:
            spec = _spec_from_args(args, scenario_id)
            report = _scenario.run_comparison(
                spec, options, license_refunds=args.license_refunds
            )
            reports.append(report)
            for case in (report.online, report.no_reuse):
                worst = max(worst, _STATUS_EXIT[case.status])
    except BootstrapInfeasibleError as exc:
        _log(str(exc))
        return EXIT_INFEASIBLE
    except ValueError as exc:
        _log(str(exc))
        return EXIT_USAGE

    if args.format == "json":
        payload = [
            _scenario.report_to_document(r, include_timing=args.timing) for r in reports
        ]
        _emit(_io.dumps({"format_version": "1", "reports": payload}), args.output)
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
        "format_version": "1",
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
    except ChainplaceError as exc:
        _log(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _log(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
