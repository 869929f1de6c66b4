"""The benchmark's workloads and the correctness gate every pass goes through.

A workload is a list of operations. One pass runs each operation once, in an
order drawn from the benchmark seed, and then checks every output against
the frozen references (``references.json``, written by ``freeze.py``). A
wrong output raises ``WrongOutput`` naming the case, which fails the run.

- ``reduced_table``: ``scenario.run_comparison`` on reduced scenarios 1..3
  at scenario seeds s, s+1 and s+2, each report rendered with
  ``scenario.report_to_document`` and ``io.dumps``.
- ``full_table``: the same at full scale, scenario seed s, with a per-case
  time limit of ``FULL_TIME_LIMIT_S``.
- ``ilp_export``: ``chainplace solve --export mps|lp [--no-reuse]`` through
  ``cli.main`` for the full-scale seed-s instances written at set-up, and
  for each case the clamped model built and the reference optimum imported
  through ``ilp.import_solution``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from dataclasses import dataclass, field

from chainplace import cli, costs, ilp, io, model, scenario
from chainplace.solver import STATUS_OPTIMAL, STATUS_TIME_LIMIT, SolveOptions

import freeze
from freeze import CASES, SCENARIOS, sha256

NAMES = ("reduced_table", "full_table", "ilp_export")
FULL_TIME_LIMIT_S = 8.0
REDUCED_SEEDS = 3  # reduced_table covers scenario seeds s .. s+2


class WrongOutput(Exception):
    """An output differs from its reference. The message names the case."""


@dataclass
class Outcome:
    case: str
    ok: bool  # verified and final; a time-limited solve is verified but not ok
    total: int | None = None  # reported objective, micro-money
    reference: int | None = None  # frozen optimum, micro-money
    counts: dict = field(default_factory=dict)  # exact counts that must repeat


def references(scale: str, seed: int, cache: pathlib.Path) -> dict:
    """Frozen references for one scale and scenario seed. Seeds outside the
    frozen set are computed once with HiGHS and cached under ``cache``."""
    frozen = json.loads(freeze.REFERENCES.read_text())[scale]
    if str(seed) in frozen:
        return frozen[str(seed)]
    path = cache / f"{scale}-{seed}.json"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as work:
            computed = freeze.scale_references(scale, seed, work)
        path.write_text(json.dumps(computed, sort_keys=True))
    return json.loads(path.read_text())


def case_solves(spans) -> list:
    """Solve spans of one operation that are table cases, not the bootstrap
    solve inside ``scenario.generate``."""
    generates = {index for index, span in spans if span.name == "scenario.generate"}
    return [
        span
        for _index, span in spans
        if span.name == "scenario.solve_exact" and span.parent not in generates
    ]


class TableWorkload:
    def __init__(self, scale: str, seeds, options: SolveOptions, cache: pathlib.Path):
        self.scale = scale
        self.options = options
        self.refs = {seed: references(scale, seed, cache) for seed in seeds}
        self._ops = {
            f"{scale}/s{seed}/sc{sid}": (seed, sid) for seed in seeds for sid in SCENARIOS
        }

    def ops(self) -> list[str]:
        return list(self._ops)

    def setup(self, work: pathlib.Path) -> None:
        pass

    def attach(self, work: pathlib.Path) -> None:
        pass

    def run(self, op: str) -> str:
        seed, sid = self._ops[op]
        report = scenario.run_comparison(freeze.spec_for(self.scale, seed, sid), self.options)
        return io.dumps(scenario.report_to_document(report))

    def check(self, op: str, text: str, spans) -> list[Outcome]:
        seed, sid = self._ops[op]
        ref_op = self.refs[seed][str(sid)]
        found = case_solves(spans)
        solves = {"no_reuse" if span.attrs["no_reuse"] else "online": span for span in found}
        if sorted(solves) != sorted(CASES) or len(found) != len(CASES):
            raise WrongOutput(f"{op}: expected one online and one no_reuse solve")
        instance = solves["online"].args[0]
        if freeze.instance_digest(instance) != ref_op["instance_sha256"]:
            raise WrongOutput(f"{op}: generated instance differs from the reference")
        document = json.loads(text)
        outcomes = []
        for case in CASES:
            outcomes.append(
                self._check_case(f"{op}/{case}", instance, solves[case].result,
                                 document[case], ref_op[case])
            )
        if all(o.ok for o in outcomes):
            outcomes[0].counts["report_bytes"] = len(text.encode())
        return outcomes

    @staticmethod
    def _check_case(label, instance, result, document, ref) -> Outcome:
        reported = document["breakdown"]["micro"]["total"]
        want = ref["total_micro"]
        if result.plan is None or document["status"] != result.status:
            raise WrongOutput(f"{label}: status {result.status} without a matching plan and report")
        if reported != result.breakdown.total:
            raise WrongOutput(f"{label}: report total {reported} != solve total {result.breakdown.total}")
        if result.status == STATUS_OPTIMAL:
            if reported != want:
                raise WrongOutput(f"{label}: optimal total {reported} != reference {want}")
            if document["migration_count"] != ref["migration_count"]:
                raise WrongOutput(
                    f"{label}: migration count {document['migration_count']} "
                    f"!= reference {ref['migration_count']}"
                )
            if ref["plan_sha256"] is None:
                if not model.check_feasibility(instance, result.plan).feasible:
                    raise WrongOutput(f"{label}: optimal plan is infeasible")
            elif freeze.plan_digest(result.plan) != ref["plan_sha256"]:
                raise WrongOutput(f"{label}: plan differs from the reference plan")
            counts = {
                "nodes": result.stats.nodes,
                "incumbent_updates": result.stats.incumbent_updates,
            }
            return Outcome(label, True, reported, want, counts)
        if result.status != STATUS_TIME_LIMIT:
            raise WrongOutput(f"{label}: unexpected status {result.status}")
        if not model.check_feasibility(instance, result.plan).feasible:
            raise WrongOutput(f"{label}: time-limited incumbent is infeasible")
        recomputed = costs.total_objective(instance, result.plan, clamp_instantiation=True).total
        if recomputed != reported:
            raise WrongOutput(f"{label}: reported total {reported} != cost of its plan {recomputed}")
        if reported < want:
            raise WrongOutput(f"{label}: total {reported} is below the reference optimum {want}")
        return Outcome(label, False, reported, want)


class IlpWorkload:
    FORMATS = ("mps", "lp")

    def __init__(self, seed: int, cache: pathlib.Path):
        self.seed = seed
        self.refs = references("full", seed, cache)
        self.ones = {
            (sid, case): frozenset(self.refs[str(sid)][case]["highs_ones"])
            for sid in SCENARIOS
            for case in CASES
        }
        self._ops = {}
        for sid in SCENARIOS:
            for case in CASES:
                for fmt in self.FORMATS:
                    self._ops[f"export/sc{sid}/{case}.{fmt}"] = ("export", sid, case, fmt)
                self._ops[f"import/sc{sid}/{case}"] = ("import", sid, case, None)
        self.paths: dict[int, pathlib.Path] = {}
        self.out: pathlib.Path | None = None

    def ops(self) -> list[str]:
        return list(self._ops)

    @staticmethod
    def _instance_path(work: pathlib.Path, sid: int) -> pathlib.Path:
        return work / f"full-sc{sid}.json"

    def setup(self, work: pathlib.Path) -> None:
        """Write the full-scale instance documents, as ``chainplace generate`` would."""
        for sid in SCENARIOS:
            instance = scenario.generate(freeze.spec_for("full", self.seed, sid))
            self._instance_path(work, sid).write_text(
                io.dumps(io.instance_to_document(instance))
            )

    def attach(self, work: pathlib.Path) -> None:
        """Use the instance documents a set-up wrote into ``work``."""
        for sid in SCENARIOS:
            path = self._instance_path(work, sid)
            if sha256(path.read_bytes()) != self.refs[str(sid)]["instance_sha256"]:
                raise WrongOutput(f"full/s{self.seed}/sc{sid}: generated instance differs from the reference")
            self.paths[sid] = path
        self.out = work / "exports"
        self.out.mkdir(exist_ok=True)

    def _export_path(self, sid: int, case: str, fmt: str) -> pathlib.Path:
        return self.out / f"sc{sid}-{case}.{fmt}"

    def run(self, op: str):
        kind, sid, case, fmt = self._ops[op]
        no_reuse = case == "no_reuse"
        if kind == "export":
            args = freeze.export_args(self.paths[sid], fmt, no_reuse, self._export_path(sid, case, fmt))
            return cli.main(args)
        with open(self.paths[sid]) as fh:
            instance = io.document_to_instance(json.load(fh))
        built = ilp.build_ilp(
            instance, ilp.BuildOptions(no_reuse=no_reuse, clamp_instantiation=True)
        )
        ones = self.ones[(sid, case)]
        values = {}
        for var in built.variables:
            name = ilp.sanitize_name(var.name)
            values[name] = 1.0 if name in ones else 0.0
        plan = ilp.import_solution(built, values)
        return {
            "objective": built.objective_micro(values),
            "total": costs.total_objective(instance, plan, clamp_instantiation=True).total,
            "feasible": model.check_feasibility(instance, plan).feasible,
            "vars": len(built.variables),
            "rows": len(built.rows),
        }

    def check(self, op: str, produced, spans) -> list[Outcome]:
        kind, sid, case, fmt = self._ops[op]
        ref = self.refs[str(sid)][case]
        label = f"full/s{self.seed}/sc{sid}/{case}/{kind}" + (f".{fmt}" if fmt else "")
        if kind == "export":
            if produced != 0:
                raise WrongOutput(f"{label}: chainplace exited {produced}")
            data = self._export_path(sid, case, fmt).read_bytes()
            if sha256(data) != ref[f"{fmt}_sha256"]:
                raise WrongOutput(f"{label}: exported {fmt.upper()} differs from the reference")
            return [Outcome(label, True)]
        want = ref["total_micro"]
        for key, expect in (("objective", want), ("total", want), ("feasible", True),
                            ("vars", ref["clamped_vars"]), ("rows", ref["clamped_rows"])):
            if produced[key] != expect:
                raise WrongOutput(f"{label}: imported {key} {produced[key]} != reference {expect}")
        return [Outcome(label, True, produced["total"], want)]


def make(name: str, seed: int, cache: pathlib.Path):
    """The workload ``name`` at scenario seed ``seed``, references loaded."""
    if name == "reduced_table":
        seeds = range(seed, seed + REDUCED_SEEDS)
        return TableWorkload("reduced", seeds, SolveOptions(), cache)
    if name == "full_table":
        return TableWorkload("full", (seed,), SolveOptions(time_limit=FULL_TIME_LIMIT_S), cache)
    if name == "ilp_export":
        return IlpWorkload(seed, cache)
    raise ValueError(f"unknown workload {name!r}")
