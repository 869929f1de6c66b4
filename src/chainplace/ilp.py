"""Compilation of a problem instance into an explicit binary linear program.

The compiled model owns the canonical variable order used everywhere else
(including the solver's tie-break), carries every product linearization as
explicit rows, and exports to MPS and LP interchange text. Objective
coefficients are held in exact micro-money; the text exporters emit them
divided by 1e6 (plain money units) because several MILP readers dislike
huge magnitudes. The scale is recorded in a comment header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import costs as _costs
from .errors import (
    AuxiliaryInconsistentError,
    MissingVariableError,
    NonBinaryValueError,
    ValidationFailedError,
)
from .model import (
    PlacementPlan,
    ProblemInstance,
    STATUS_NEW,
    normalize_route,
    validate_instance,
)

BINARY_TOL = 1e-6


@dataclass(frozen=True)
class BuildOptions:
    no_reuse: bool = False
    clamp_instantiation: bool = False  # removals stop refunding licenses;
    # exactly linear through the migration product variables


@dataclass(frozen=True)
class IlpVar:
    name: str
    family: str
    key: tuple


@dataclass(frozen=True)
class Row:
    tag: str
    key: tuple
    coeffs: tuple[tuple[int, int], ...]  # (variable index, integer coefficient)
    sense: str  # "E" | "L" | "G"
    rhs: int | float

    def satisfied_by(self, values) -> bool:
        lhs = sum(coef * values[idx] for idx, coef in self.coeffs)
        if self.sense == "E":
            return lhs == self.rhs
        if self.sense == "L":
            return lhs <= self.rhs
        return lhs >= self.rhs


def sanitize_name(name: str) -> str:
    """Interchange-safe alias: ``g[r0][s0]`` becomes ``g_r0_s0``."""
    return name.replace("][", "_").replace("[", "_").replace("]", "")


def _deployable_types(instance: ProblemInstance):
    """Types some request needs; the others keep their snapshot deployments
    (``ProblemInstance.frozen_deployments``) and get no variables."""
    required = set(instance.required_types())
    return tuple(t for t in instance.catalog.types if t.name in required)


def enumerate_variables(instance: ProblemInstance) -> tuple[IlpVar, ...]:
    """All binary variables in canonical order: g, t, l, p, x, m, q."""
    net = instance.network
    nodes = net.nodes
    out: list[IlpVar] = []

    for r in instance.requests:
        for s in net.servers:
            out.append(IlpVar(f"g[{r.id}][{s}]", "g", (r.id, s)))

    deployable = _deployable_types(instance)
    for vnf in deployable:
        for i in vnf.instances:
            for s in net.servers:
                out.append(IlpVar(f"t[{vnf.name}][{i}][{s}]", "t", (vnf.name, i, s)))

    for r in instance.requests:
        for s in net.servers:
            for k in r.chain:
                for i in instance.catalog.get(k).instances:
                    out.append(IlpVar(f"l[{r.id}][{s}][{k}][{i}]", "l", (r.id, s, k, i)))

    for r in instance.requests:
        for ai in range(len(nodes)):
            for bi in range(ai + 1, len(nodes)):
                a, b = nodes[ai], nodes[bi]
                out.append(IlpVar(f"p[{r.id}][{a}][{b}]", "p", (r.id, a, b)))
        for s in net.servers:
            out.append(IlpVar(f"p[{r.id}][{s}][{s}]", "p", (r.id, s, s)))

    for vnf in deployable:
        for i in vnf.instances:
            for s in net.servers:
                for t in net.servers:
                    out.append(
                        IlpVar(f"x[{vnf.name}][{i}][{s}][{t}]", "x", (vnf.name, i, s, t))
                    )

    for r in instance.requests:
        first = r.chain[0]
        for s in net.servers:
            for t in net.servers:
                for i in instance.catalog.get(first).instances:
                    out.append(IlpVar(f"m[{r.id}][{s}][{t}][{i}]", "m", (r.id, s, t, i)))

    for r in instance.requests:
        for pos in range(len(r.chain) - 1):
            ka, kb = r.chain[pos], r.chain[pos + 1]
            for s in net.servers:
                for t in net.servers:
                    for i in instance.catalog.get(ka).instances:
                        for j in instance.catalog.get(kb).instances:
                            out.append(
                                IlpVar(
                                    f"q[{r.id}][{s}][{t}][{pos}][{i}][{j}]",
                                    "q",
                                    (r.id, pos, s, t, i, j),
                                )
                            )
    return tuple(out)


def plan_vector(
    instance: ProblemInstance, plan: PlacementPlan, variables: Iterable[IlpVar]
) -> tuple[int, ...]:
    """0/1 values of the decision families g, t, l, p for a plan, in
    canonical order. Auxiliary families are skipped (they are products of
    these and cannot break a tie)."""
    net = instance.network
    routes = {r.id: normalize_route(net, plan.route(r.id)) for r in instance.requests}
    out = []
    for var in variables:
        if var.family == "g":
            out.append(1 if (var.key[0], var.key[1]) in plan.content_server else 0)
        elif var.family == "t":
            out.append(1 if var.key in plan.deployment else 0)
        elif var.family == "l":
            out.append(1 if var.key in plan.assignment else 0)
        elif var.family == "p":
            f, a, b = var.key
            out.append(1 if net.link(a, b) in routes[f] else 0)
    return tuple(out)


@dataclass(frozen=True)
class IlpModel:
    instance: ProblemInstance
    options: BuildOptions
    variables: tuple[IlpVar, ...]
    rows: tuple[Row, ...]
    objective: tuple[tuple[int, int], ...]  # (variable index, micro-money)
    constant: int  # micro-money
    name: str = "CHAINPLACE"

    def __post_init__(self):
        index = {v.name: i for i, v in enumerate(self.variables)}
        if len(index) != len(self.variables):
            raise ValueError("variable names are not unique")
        aliases = {sanitize_name(v.name): i for i, v in enumerate(self.variables)}
        if len(aliases) != len(self.variables):
            raise ValueError("sanitized variable aliases collide")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_alias_index", aliases)

    def variable_index(self, name: str) -> int:
        if name in self._index:
            return self._index[name]
        if name in self._alias_index:
            return self._alias_index[name]
        raise KeyError(name)

    def objective_micro(self, values: Mapping[str, float] | list | tuple) -> int:
        """Exact objective (micro-money) of a 0/1 assignment, constant included."""
        if isinstance(values, (list, tuple)):
            vec = values
        else:
            vec = [0] * len(self.variables)
            for name, val in values.items():
                vec[self.variable_index(name)] = val
        total = self.constant
        for idx, micro in self.objective:
            total += micro * round(vec[idx])
        return total


def build_ilp(instance: ProblemInstance, options: BuildOptions | None = None) -> IlpModel:
    """Compile the placement program: canonical variables, objective with its
    snapshot constant, and every constraint row tagged with its family."""
    options = options or BuildOptions()
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationFailedError(report)

    net = instance.network
    variables = enumerate_variables(instance)
    vidx = {v.name: i for i, v in enumerate(variables)}

    def g(f, s):
        return vidx[f"g[{f}][{s}]"]

    def t(k, i, s):
        return vidx[f"t[{k}][{i}][{s}]"]

    def l(f, s, k, i):
        return vidx[f"l[{f}][{s}][{k}][{i}]"]

    def p(f, a, b):
        if a != b and net.position(a) > net.position(b):
            a, b = b, a
        return vidx[f"p[{f}][{a}][{b}]"]

    def x(k, i, s, d):
        return vidx[f"x[{k}][{i}][{s}][{d}]"]

    def m(f, s, d, i):
        return vidx[f"m[{f}][{s}][{d}][{i}]"]

    def q(f, pos, s, d, i, j):
        return vidx[f"q[{f}][{s}][{d}][{pos}][{i}][{j}]"]

    deployable = _deployable_types(instance)
    snap = instance.snapshot
    frozen = instance.frozen_deployments()

    # objective: hosting + license coefficients on deployments, migration
    # prices on the product variables, link prices on route variables; the
    # -snapshot terms fold into the constant.
    objective: list[tuple[int, int]] = []
    for vnf in deployable:
        for i in vnf.instances:
            for s in net.servers:
                micro = vnf.resource_req * net.server_unit_cost[s] + vnf.license_cost
                if micro:
                    objective.append((t(vnf.name, i, s), micro))
    for vnf in deployable:
        for i in vnf.instances:
            for s in net.servers:
                for d in net.servers:
                    micro = vnf.migration(s, d)
                    if options.clamp_instantiation:
                        # a kept identifier is not a new instantiation:
                        # clamped license total is sum(L*t) - sum(L*x)
                        micro -= vnf.license_cost
                    if micro:
                        objective.append((x(vnf.name, i, s, d), micro))
    nodes = net.nodes
    for r in instance.requests:
        for ai in range(len(nodes)):
            for bi in range(ai + 1, len(nodes)):
                a, b = nodes[ai], nodes[bi]
                micro = net.cost_between(a, b) * r.traffic
                if micro:
                    objective.append((p(r.id, a, b), micro))
    objective.sort(key=lambda pair: pair[0])

    # frozen instances stay on both sides and cancel out
    constant = 0
    frozen_load = {s: 0 for s in net.servers}
    for k, _i, s in frozen:
        frozen_load[s] += instance.catalog.get(k).resource_req
    for k, _i, s in snap.deployed - set(frozen):
        vnf = instance.catalog.get(k)
        constant -= vnf.resource_req * net.server_unit_cost[s]
        if not options.clamp_instantiation:
            constant -= vnf.license_cost
    for r in instance.requests:
        for a, b in normalize_route(net, r.current_route):
            if a == b:
                continue
            constant -= net.cost_between(a, b) * r.traffic

    rows: list[Row] = []

    def add(tag, key, coeffs, sense, rhs):
        coeffs = tuple(sorted((idx, coef) for idx, coef in coeffs if coef))
        if coeffs:
            rows.append(Row(tag, key, coeffs, sense, rhs))

    # migration product linearization
    for vnf in deployable:
        for i in vnf.instances:
            for s in net.servers:
                cur = 1 if (vnf.name, i, s) in snap.deployed else 0
                for d in net.servers:
                    xi = x(vnf.name, i, s, d)
                    ti = t(vnf.name, i, d)
                    add("2-2", (vnf.name, i, s, d), [(xi, 1)], "L", cur)
                    add("2-3", (vnf.name, i, s, d), [(xi, 1), (ti, -1)], "L", 0)
                    add("2-4", (vnf.name, i, s, d), [(xi, 1), (ti, -1)], "G", cur - 1)

    # content server selection
    for r in instance.requests:
        add("6", (r.id,), [(g(r.id, s), 1) for s in net.servers], "E", 1)
        for s in net.servers:
            cap = 1 if s in r.candidate_servers else 0
            add("7", (r.id, s), [(g(r.id, s), 1)], "L", cap)

    # one assigned instance per required type, only on deployed instances
    for r in instance.requests:
        for k in r.chain:
            pool = instance.catalog.get(k).instances
            add(
                "8",
                (r.id, k),
                [(l(r.id, s, k, i), 1) for s in net.servers for i in pool],
                "E",
                1,
            )
            for s in net.servers:
                for i in pool:
                    add(
                        "9",
                        (r.id, s, k, i),
                        [(l(r.id, s, k, i), 1), (t(k, i, s), -1)],
                        "L",
                        0,
                    )

    # deployment cardinality
    for vnf in deployable:
        add(
            "10",
            (vnf.name,),
            [(t(vnf.name, i, s), 1) for i in vnf.instances for s in net.servers],
            "G",
            1,
        )
        for i in vnf.instances:
            add(
                "11",
                (vnf.name, i),
                [(t(vnf.name, i, s), 1) for s in net.servers],
                "L",
                1,
            )

    def limit(cap, used=0):
        exact = Fraction(instance.usage_threshold) * cap - used
        return int(exact) if exact.denominator == 1 else float(exact)

    # server resources left over by the frozen instances
    for s in net.servers:
        add(
            "12",
            (s,),
            [
                (t(vnf.name, i, s), vnf.resource_req)
                for vnf in deployable
                for i in vnf.instances
            ],
            "L",
            limit(net.server_capacity[s], frozen_load[s]),
        )

    # VNF processing capacity: only types with assignment variables
    assignable = {k for r in instance.requests for k in r.chain}
    for vnf in deployable:
        if vnf.name not in assignable:
            continue
        for i in vnf.instances:
            for s in net.servers:
                add(
                    "13",
                    (vnf.name, i, s),
                    [
                        (l(r.id, s, vnf.name, i), r.traffic)
                        for r in instance.requests
                        if vnf.name in r.chain
                    ],
                    "L",
                    limit(vnf.capacity),
                )

    # link bandwidth, self-links exempt
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            a, b = nodes[ai], nodes[bi]
            add(
                "14",
                (a, b),
                [(p(r.id, a, b), r.traffic) for r in instance.requests],
                "L",
                limit(net.bandwidth_between(a, b)),
            )

    # chain entry link (content server to first VNF host)
    for r in instance.requests:
        first = r.chain[0]
        for i in instance.catalog.get(first).instances:
            for s in net.servers:
                for d in net.servers:
                    mi = m(r.id, s, d, i)
                    key = (r.id, s, d, i)
                    add("15-2", key, [(mi, 1), (p(r.id, s, d), -1)], "L", 0)
                    add("15-3", key, [(mi, 1), (g(r.id, s), -1)], "L", 0)
                    add("15-4", key, [(mi, 1), (l(r.id, d, first, i), -1)], "L", 0)
                    add(
                        "15-5",
                        key,
                        [(mi, 1), (g(r.id, s), -1), (l(r.id, d, first, i), -1)],
                        "G",
                        -1,
                    )

    # consecutive chain links
    for r in instance.requests:
        for pos in range(len(r.chain) - 1):
            ka, kb = r.chain[pos], r.chain[pos + 1]
            for s in net.servers:
                for d in net.servers:
                    for i in instance.catalog.get(ka).instances:
                        for j in instance.catalog.get(kb).instances:
                            qi = q(r.id, pos, s, d, i, j)
                            la = l(r.id, s, ka, i)
                            lb = l(r.id, d, kb, j)
                            key = (r.id, pos, s, d, i, j)
                            add("16-2", key, [(qi, 1), (p(r.id, s, d), -1)], "L", 0)
                            add("16-3", key, [(qi, 1), (la, -1)], "L", 0)
                            add("16-4", key, [(qi, 1), (lb, -1)], "L", 0)
                            add("16-5", key, [(qi, 1), (la, -1), (lb, -1)], "G", -1)

    # user link: present exactly when the last VNF is hosted on s
    for r in instance.requests:
        last = r.chain[-1]
        pool = instance.catalog.get(last).instances
        for s in net.servers:
            coeffs = [(l(r.id, s, last, i), 1) for i in pool]
            coeffs.append((p(r.id, s, r.user), -1))
            add("17", (r.id, s), coeffs, "E", 0)

    # delay budget
    for r in instance.requests:
        coeffs = []
        for ai in range(len(nodes)):
            for bi in range(ai + 1, len(nodes)):
                a, b = nodes[ai], nodes[bi]
                coef = r.traffic * net.delay_between(a, b)
                if coef:
                    coeffs.append((p(r.id, a, b), coef))
        for k in r.chain:
            vnf = instance.catalog.get(k)
            for i in vnf.instances:
                for s in net.servers:
                    coef = r.traffic * vnf.processing_delay[s]
                    if coef:
                        coeffs.append((l(r.id, s, k, i), coef))
        add("18", (r.id,), coeffs, "L", r.delay_budget)

    if options.no_reuse:
        snapshot_ids = {(k, i) for k, i, _s in snap.deployed}
        for r in instance.requests:
            if r.status != STATUS_NEW:
                continue
            for k in r.chain:
                for i in instance.catalog.get(k).instances:
                    if (k, i) not in snapshot_ids:
                        continue
                    for s in net.servers:
                        add(
                            "NOREUSE",
                            (r.id, s, k, i),
                            [(l(r.id, s, k, i), 1)],
                            "E",
                            0,
                        )

    return IlpModel(
        instance=instance,
        options=options,
        variables=variables,
        rows=tuple(rows),
        objective=tuple(objective),
        constant=constant,
    )


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _row_names(model: IlpModel) -> list[str]:
    counters: dict[str, int] = {}
    names = []
    for row in model.rows:
        tag = row.tag.replace("-", "_")
        n = counters.get(tag, 0)
        counters[tag] = n + 1
        names.append(f"c{tag}_{n}")
    return names


def export_mps(model: IlpModel) -> str:
    """Deterministic MPS text. Objective coefficients and the objective-row
    RHS are money units (micro-money / 1e6); the RHS entry on the COST row
    carries the negated objective constant."""
    lines = [
        "* chainplace MPS export",
        "* money values are scaled: coefficient = micro-money / 1e6",
        "* the RHS entry on the COST row is the negated objective constant",
        f"NAME          {model.name}",
        "OBJSENSE",
        "    MIN",
        "ROWS",
        " N  COST",
    ]
    row_names = _row_names(model)
    for row, name in zip(model.rows, row_names):
        lines.append(f" {row.sense}  {name}")

    width = max((len(sanitize_name(v.name)) for v in model.variables), default=8)
    width = max(width, 8)
    obj_by_var: dict[int, int] = {idx: micro for idx, micro in model.objective}
    entries: dict[int, list[tuple[str, str]]] = {i: [] for i in range(len(model.variables))}
    for i, micro in obj_by_var.items():
        entries[i].append(("COST", _costs.format_money(micro)))
    for row, name in zip(model.rows, row_names):
        for idx, coef in row.coeffs:
            entries[idx].append((name, _fmt_value(coef)))

    lines.append("COLUMNS")
    lines.append("    MARKER                 'MARKER'                 'INTORG'")
    for i, var in enumerate(model.variables):
        alias = sanitize_name(var.name)
        for row_name, value in entries[i]:
            lines.append(f"    {alias:<{width}}  {row_name:<12}  {value}")
    lines.append("    MARKER                 'MARKER'                 'INTEND'")

    lines.append("RHS")
    if model.constant:
        lines.append(f"    RHS  COST  {_costs.format_money(-model.constant)}")
    for row, name in zip(model.rows, row_names):
        if row.rhs != 0:
            lines.append(f"    RHS  {name:<12}  {_fmt_value(row.rhs)}")

    lines.append("BOUNDS")
    for var in model.variables:
        lines.append(f" BV BND  {sanitize_name(var.name)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def export_lp(model: IlpModel) -> str:
    """Deterministic CPLEX-style LP text with the same scaling as MPS."""

    def term(coef_str: str, name: str, first: bool) -> str:
        sign = "-" if coef_str.startswith("-") else "+"
        mag = coef_str.lstrip("-")
        if first:
            return f"{'-' if sign == '-' else ''}{mag} {name}"
        return f"{sign} {mag} {name}"

    lines = [
        "\\ chainplace LP export",
        "\\ money values are scaled: coefficient = micro-money / 1e6",
        "Minimize",
    ]
    parts = []
    for idx, micro in model.objective:
        parts.append(term(_costs.format_money(micro), sanitize_name(model.variables[idx].name), not parts))
    if model.constant:
        c = _costs.format_money(model.constant)
        parts.append(term(c, "", not parts).rstrip())
    if not parts:
        parts = ["0"]
    lines.append(" obj: " + " ".join(parts))

    lines.append("Subject To")
    sense_txt = {"E": "=", "L": "<=", "G": ">="}
    for row, name in zip(model.rows, _row_names(model)):
        parts = []
        for idx, coef in row.coeffs:
            parts.append(term(str(coef), sanitize_name(model.variables[idx].name), not parts))
        lines.append(f" {name}: " + " ".join(parts) + f" {sense_txt[row.sense]} {_fmt_value(row.rhs)}")

    lines.append("Binaries")
    for var in model.variables:
        lines.append(f" {sanitize_name(var.name)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_solution_text(text: str) -> dict[str, float]:
    """Read a solution file: either ``name value`` / ``name=value`` lines or a
    JSON document with a top-level ``variables`` map."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        values = doc.get("variables", doc)
        return {str(k): float(v) for k, v in values.items()}
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "*", "\\")):
            continue
        if "=" in line:
            name, _, value = line.partition("=")
        else:
            name, _, value = line.partition(" ")
        name, value = name.strip(), value.strip()
        if not name or not value:
            continue
        out[name] = float(value)
    return out


def _as_bit(name: str, value: float) -> int:
    if abs(value) <= BINARY_TOL:
        return 0
    if abs(value - 1) <= BINARY_TOL:
        return 1
    raise NonBinaryValueError(f"{name} = {value!r} is not binary")


def import_solution(model: IlpModel, values: Mapping[str, float]) -> PlacementPlan:
    """Rebuild a placement plan from solver variable values.

    The four decision families must be present (canonical or sanitized
    names); auxiliary product variables are optional but are verified
    against their defining products when given. Frozen snapshot
    deployments have no variables and come back unchanged.
    """
    instance = model.instance
    resolved: dict[str, int | None] = {}
    for var in model.variables:
        raw = values.get(var.name)
        if raw is None:
            raw = values.get(sanitize_name(var.name))
        if raw is None:
            if var.family in ("g", "t", "l", "p"):
                raise MissingVariableError(f"missing value for {var.name}")
            resolved[var.name] = None
        else:
            resolved[var.name] = _as_bit(var.name, raw)

    def val(name: str) -> int:
        v = resolved[name]
        return 0 if v is None else v

    snap = instance.snapshot
    for var in model.variables:
        got = resolved[var.name]
        if got is None:
            continue
        if var.family == "x":
            k, i, s, d = var.key
            expect = (1 if (k, i, s) in snap.deployed else 0) * val(f"t[{k}][{i}][{d}]")
        elif var.family == "m":
            f, s, d, i = var.key
            first = instance.request(f).chain[0]
            expect = val(f"g[{f}][{s}]") * val(f"l[{f}][{d}][{first}][{i}]")
        elif var.family == "q":
            f, pos, s, d, i, j = var.key
            chain = instance.request(f).chain
            expect = val(f"l[{f}][{s}][{chain[pos]}][{i}]") * val(
                f"l[{f}][{d}][{chain[pos + 1]}][{j}]"
            )
        else:
            continue
        if got != expect:
            raise AuxiliaryInconsistentError(
                f"{var.name} = {got} but its defining product is {expect}"
            )

    content, assignment = [], []
    deployment = list(instance.frozen_deployments())
    routes: dict[str, set] = {r.id: set() for r in instance.requests}
    for var in model.variables:
        if not resolved[var.name]:
            continue
        if var.family == "g":
            content.append(var.key)
        elif var.family == "t":
            deployment.append(var.key)
        elif var.family == "l":
            assignment.append(var.key)
        elif var.family == "p":
            f, a, b = var.key
            routes[f].add(instance.network.link(a, b))

    return PlacementPlan(
        content_server=frozenset(content),
        deployment=frozenset(deployment),
        assignment=frozenset(assignment),
        routes={f: frozenset(links) for f, links in routes.items()},
    )
