"""Compilation of a problem instance into an explicit binary linear program.

The compiled model owns the canonical variable order used everywhere else
(including the solver's tie-break), carries every product linearization as
explicit rows, and exports to MPS and LP interchange text. Variables
(``IlpVar``) and rows (``Row``) are named tuples. ``_enumerate`` makes each
variable's interchange alias beside its name, from the sanitized parts of
the name; the model refuses aliases that collide
(``AliasCollisionError``), and the exporters and the solution importer read
them from ``IlpModel.aliases``. Objective coefficients are held in exact
micro-money; the text exporters emit them divided by 1e6 (plain money
units) because several MILP readers dislike huge magnitudes. The scale is
recorded in a comment header.

``build_ilp`` and ``import_solution`` find a variable's index by
arithmetic on the per-family block offsets that ``_enumerate`` records as
it appends the variables (``IlpModel.blocks``). ``build_ilp`` builds the
McCormick product rows (families 2-2..2-4, 15-2..15-5 and 16-2..16-5,
about 98% of the rows of a full-scale model) directly, with their
coefficients already sorted. The rows whose coefficients depend on the
instance data (6-14, 17, 18 and NOREUSE) go through one generic path that
drops zero coefficients, sorts the rest and keeps a row left empty only
when 0 violates it.

``build_ilp`` and both exporters run with the cyclic garbage collector
paused (the model's tuples form no cycles) and restore its previous state
when they return or raise. The exporters make their text a section at a
time and join it once: MPS keeps, per variable, references to shared cell
strings until its column is made, and LP joins its rows in blocks.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from . import costs as _costs
from .errors import (
    AliasCollisionError,
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


class IlpVar(NamedTuple):
    name: str
    family: str
    key: tuple


class Row(NamedTuple):
    """One constraint: ``sum(coef * x[idx]) <sense> rhs``. Coefficients are
    ints, sorted by variable index; ``rhs`` is a float only when the usage
    threshold makes a limit fractional."""

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


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector and restore its previous state on
    return or raise. Compiling and exporting allocate hundreds of thousands
    of tuples and lists that form no cycles; left on, the collector would
    scan the growing model again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def sanitize_name(name: str) -> str:
    """Interchange-safe alias: ``g[r0][s0]`` becomes ``g_r0_s0``."""
    return name.replace("[", "_").replace("]", "")


def _deployable_types(instance: ProblemInstance):
    """Types some request needs; the others keep their snapshot deployments
    (``ProblemInstance.frozen_deployments``) and get no variables."""
    required = set(instance.required_types())
    return tuple(t for t in instance.catalog.types if t.name in required)


def _enumerate(instance: ProblemInstance) -> tuple[tuple[IlpVar, ...], tuple[str, ...], tuple]:
    """All binary variables in canonical order (g, t, l, p, x, m, q), their
    aliases, and the first index of each block of them; a variable's index
    is its block's base plus its position inside the block. The blocks are, per
    family: ``g[r]``, ``t[k][i]``, ``l[r][k][s]`` (then the instance),
    ``p[r]`` (then ``pair``), ``x[k][i]`` (then ``s * n_servers + d``),
    ``m[r]`` (then ``(s * n_servers + d) * n_instances + i``) and
    ``q[r][pos]`` (then s, d, i, j in that nesting). Requests, instances
    and servers count by position. ``pair[a][b]`` is the offset of the link
    between node positions ``a`` and ``b`` in a request's ``p`` block, or of
    a server's self-link when ``a == b``.

    A name is ``family[part]...[part]``; its alias is the family and the
    ``sanitize_name`` of each part, joined by ``_``. This equals
    ``sanitize_name`` of the whole name for any ids, because
    ``sanitize_name`` maps each character on its own: ``[`` becomes ``_``
    and ``]`` goes."""
    net = instance.network
    nodes = net.nodes
    servers = net.servers
    out: list[IlpVar] = []
    aliases: list[str] = []

    def part(v) -> str:  # an id's text in an alias; ids need not be str
        return sanitize_name(str(v))

    s_al = [part(s) for s in servers]

    # tuple.__new__ makes each IlpVar without the named tuple's Python-level
    # constructor; names and aliases share the prefix of their inner loop
    new = tuple.__new__

    g_at = []
    for r in instance.requests:
        g_at.append(len(out))
        ra = part(r.id)
        for s, sa in zip(servers, s_al):
            out.append(new(IlpVar, (f"g[{r.id}][{s}]", "g", (r.id, s))))
            aliases.append(f"g_{ra}_{sa}")

    deployable = _deployable_types(instance)
    t_at = {vnf.name: [] for vnf in deployable}
    for vnf in deployable:
        k, ka = vnf.name, part(vnf.name)
        for i in vnf.instances:
            t_at[k].append(len(out))
            for s, sa in zip(servers, s_al):
                out.append(new(IlpVar, (f"t[{k}][{i}][{s}]", "t", (k, i, s))))
                aliases.append(f"t_{ka}_{i}_{sa}")

    l_at = []
    for r in instance.requests:
        # per server, the instances of each chain type in chain order
        per_type = {k: [] for k in r.chain}
        l_at.append(per_type)
        ra = part(r.id)
        chain = [(k, part(k), instance.catalog.get(k).instances) for k in r.chain]
        for s, sa in zip(servers, s_al):
            for k, ka, pool in chain:
                per_type[k].append(len(out))
                name, alias = f"l[{r.id}][{s}][{k}][", f"l_{ra}_{sa}_{ka}_"
                for i in pool:
                    out.append(new(IlpVar, (f"{name}{i}]", "l", (r.id, s, k, i))))
                    aliases.append(f"{alias}{i}")

    # a request's p block: node pairs in position order, then self-links
    links = list(itertools.combinations(range(len(nodes)), 2))
    links += [(si, si) for si in range(len(servers))]
    pair = [[0] * len(nodes) for _ in nodes]
    for off, (ai, bi) in enumerate(links):
        pair[ai][bi] = pair[bi][ai] = off
    n_al = [part(n) for n in nodes]
    # per link: its ends, and the end of its name and of its alias
    ends = [
        (nodes[ai], nodes[bi], f"][{nodes[ai]}][{nodes[bi]}]", f"_{n_al[ai]}_{n_al[bi]}")
        for ai, bi in links
    ]
    p_at = []
    for r in instance.requests:
        p_at.append(len(out))
        name, alias = f"p[{r.id}", f"p_{part(r.id)}"
        for a, b, name_end, alias_end in ends:
            out.append(new(IlpVar, (name + name_end, "p", (r.id, a, b))))
            aliases.append(alias + alias_end)
    x_at = {vnf.name: [] for vnf in deployable}
    for vnf in deployable:
        k, ka = vnf.name, part(vnf.name)
        for i in vnf.instances:
            x_at[k].append(len(out))
            for s, sa in zip(servers, s_al):
                name, alias = f"x[{k}][{i}][{s}][", f"x_{ka}_{i}_{sa}_"
                for d, da in zip(servers, s_al):
                    out.append(new(IlpVar, (f"{name}{d}]", "x", (k, i, s, d))))
                    aliases.append(alias + da)

    m_at = []
    for r in instance.requests:
        m_at.append(len(out))
        ra = part(r.id)
        pool = instance.catalog.get(r.chain[0]).instances
        for s, sa in zip(servers, s_al):
            for d, da in zip(servers, s_al):
                name, alias = f"m[{r.id}][{s}][{d}][", f"m_{ra}_{sa}_{da}_"
                for i in pool:
                    out.append(new(IlpVar, (f"{name}{i}]", "m", (r.id, s, d, i))))
                    aliases.append(f"{alias}{i}")

    q_at = []
    for r in instance.requests:
        q_at.append([])
        ra = part(r.id)
        for pos in range(len(r.chain) - 1):
            q_at[-1].append(len(out))
            pool_a = instance.catalog.get(r.chain[pos]).instances
            pool_b = instance.catalog.get(r.chain[pos + 1]).instances
            for s, sa in zip(servers, s_al):
                for d, da in zip(servers, s_al):
                    for i in pool_a:
                        name = f"q[{r.id}][{s}][{d}][{pos}][{i}]["
                        alias = f"q_{ra}_{sa}_{da}_{pos}_{i}_"
                        for j in pool_b:
                            out.append(new(IlpVar, (f"{name}{j}]", "q", (r.id, pos, s, d, i, j))))
                            aliases.append(f"{alias}{j}")
    return tuple(out), tuple(aliases), (g_at, t_at, l_at, p_at, pair, x_at, m_at, q_at)


def enumerate_variables(instance: ProblemInstance) -> tuple[IlpVar, ...]:
    """All binary variables in canonical order: g, t, l, p, x, m, q. The
    decision families g, t, l, p come first, so a vector over them, as
    ``plan_vector`` makes, orders plans as the full vector's prefix."""
    return _enumerate(instance)[0]


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
    """A compiled program. ``aliases[i]`` is ``sanitize_name`` of
    ``variables[i].name``, made by ``_enumerate`` beside the name; a model
    whose aliases are not unique raises ``AliasCollisionError``."""

    instance: ProblemInstance
    options: BuildOptions
    variables: tuple[IlpVar, ...]
    rows: tuple[Row, ...]
    objective: tuple[tuple[int, int], ...]  # (variable index, micro-money)
    constant: int  # micro-money
    blocks: tuple = field(repr=False, compare=False)  # see _enumerate
    aliases: tuple[str, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        # equal names give equal aliases, so one check covers both
        if len(set(self.aliases)) != len(self.aliases):
            seen: dict[str, str] = {}
            for var, alias in zip(self.variables, self.aliases):
                if alias in seen:
                    raise AliasCollisionError(
                        f"variables {seen[alias]} and {var.name} share the MPS/LP alias "
                        f"{alias}; choose ids that keep the aliases apart"
                    )
                seen[alias] = var.name

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        # a name has brackets and an alias has none, so the two never clash
        index = {alias: i for i, alias in enumerate(self.aliases)}
        index.update((v.name, i) for i, v in enumerate(self.variables))
        return index

    def variable_index(self, name: str) -> int:
        """Index of a variable by its canonical name or its alias."""
        return self._index[name]

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


@_collector_paused()
def build_ilp(instance: ProblemInstance, options: BuildOptions | None = None) -> IlpModel:
    """Compile the placement program: canonical variables, objective with its
    snapshot constant, and every constraint row tagged with its family."""
    options = options or BuildOptions()
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationFailedError(report)

    net = instance.network
    servers = net.servers
    n_s = len(servers)
    requests = instance.requests
    pools = {vnf.name: vnf.instances for vnf in instance.catalog.types}
    variables, aliases, blocks = _enumerate(instance)
    deployable = _deployable_types(instance)
    g_at, t_at, l_at, p_at, pair, x_at, m_at, q_at = blocks
    # distinct node pairs in canonical order: matrix positions, p offset
    pairs = [
        (ai, bi, pair[ai][bi])
        for ai in range(len(net.nodes))
        for bi in range(ai + 1, len(net.nodes))
    ]

    snap = instance.snapshot
    frozen = instance.frozen_deployments()

    # objective: hosting + license coefficients on deployments, migration
    # prices on the product variables, link prices on route variables; the
    # -snapshot terms fold into the constant.
    objective: list[tuple[int, int]] = []
    for vnf in deployable:
        for base in t_at[vnf.name]:
            for si, s in enumerate(servers):
                micro = vnf.resource_req * net.server_unit_cost[s] + vnf.license_cost
                if micro:
                    objective.append((base + si, micro))
    for vnf in deployable:
        for base in x_at[vnf.name]:
            for si, s in enumerate(servers):
                for di, d in enumerate(servers):
                    micro = vnf.migration(s, d)
                    if options.clamp_instantiation:
                        # a kept identifier is not a new instantiation:
                        # clamped license total is sum(L*t) - sum(L*x)
                        micro -= vnf.license_cost
                    if micro:
                        objective.append((base + si * n_s + di, micro))
    for ri, r in enumerate(requests):
        for ai, bi, off in pairs:
            micro = net.link_cost[ai][bi] * r.traffic
            if micro:
                objective.append((p_at[ri] + off, micro))
    objective.sort()  # by variable index; no index repeats

    # frozen instances stay on both sides and cancel out
    constant = 0
    frozen_load = {s: 0 for s in servers}
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
        coeffs = [c for c in coeffs if c[1]]
        if len(coeffs) > 1:
            coeffs.sort()
        row = Row(tag, key, tuple(coeffs), sense, rhs)
        # a row left without coefficients is kept only when 0 violates it
        if coeffs or not row.satisfied_by(()):
            rows.append(row)

    # The product rows (2-x, 15-x, 16-x) are built directly: their ±1
    # coefficients never vanish, and the canonical order g < t < l < p < x
    # < m < q sorts them without a comparison, except the two l factors of
    # 16-5. tuple.__new__ makes each Row from its five fields without the
    # named tuple's Python-level constructor, which costs twice as much.
    new = tuple.__new__

    # migration product linearization
    deployed = snap.deployed
    for vnf in deployable:
        k = vnf.name
        for i, t0, x0 in zip(vnf.instances, t_at[k], x_at[k]):
            for si, s in enumerate(servers):
                cur = 1 if (k, i, s) in deployed else 0
                for di, d in enumerate(servers):
                    xc = (x0 + si * n_s + di, 1)
                    both = ((t0 + di, -1), xc)
                    key = (k, i, s, d)
                    rows += (
                        new(Row, ("2-2", key, (xc,), "L", cur)),
                        new(Row, ("2-3", key, both, "L", 0)),
                        new(Row, ("2-4", key, both, "G", cur - 1)),
                    )

    # content server selection
    for ri, r in enumerate(requests):
        g0 = g_at[ri]
        add("6", (r.id,), [(g0 + si, 1) for si in range(n_s)], "E", 1)
        for si, s in enumerate(servers):
            cap = 1 if s in r.candidate_servers else 0
            add("7", (r.id, s), [(g0 + si, 1)], "L", cap)

    # one assigned instance per required type, only on deployed instances
    for ri, r in enumerate(requests):
        for k in r.chain:
            pool = pools[k]
            bases = l_at[ri][k]
            add(
                "8",
                (r.id, k),
                [(base + ii, 1) for base in bases for ii in range(len(pool))],
                "E",
                1,
            )
            for si, s in enumerate(servers):
                for ii, i in enumerate(pool):
                    add(
                        "9",
                        (r.id, s, k, i),
                        [(bases[si] + ii, 1), (t_at[k][ii] + si, -1)],
                        "L",
                        0,
                    )

    # deployment cardinality
    for vnf in deployable:
        t_bases = t_at[vnf.name]
        add(
            "10",
            (vnf.name,),
            [(base + si, 1) for base in t_bases for si in range(n_s)],
            "G",
            1,
        )
        for i, base in zip(vnf.instances, t_bases):
            add("11", (vnf.name, i), [(base + si, 1) for si in range(n_s)], "L", 1)

    def limit(cap, used=0):
        exact = instance.usage_limit(cap) - used
        return exact if type(exact) is int else float(exact)

    # server resources left over by the frozen instances
    for si, s in enumerate(servers):
        add(
            "12",
            (s,),
            [
                (base + si, vnf.resource_req)
                for vnf in deployable
                for base in t_at[vnf.name]
            ],
            "L",
            limit(net.server_capacity[s], frozen_load[s]),
        )

    # VNF processing capacity; every deployable type has assignment variables
    for vnf in deployable:
        k = vnf.name
        requesters = [(l_at[ri][k], r.traffic) for ri, r in enumerate(requests) if k in r.chain]
        for ii, i in enumerate(vnf.instances):
            for si, s in enumerate(servers):
                add(
                    "13",
                    (k, i, s),
                    [(bases[si] + ii, traffic) for bases, traffic in requesters],
                    "L",
                    limit(vnf.capacity),
                )

    # link bandwidth, self-links exempt
    nodes = net.nodes
    for ai, bi, off in pairs:
        add(
            "14",
            (nodes[ai], nodes[bi]),
            [(p_at[ri] + off, r.traffic) for ri, r in enumerate(requests)],
            "L",
            limit(net.bandwidth[ai][bi]),
        )

    # chain entry link (content server to first VNF host)
    for ri, r in enumerate(requests):
        f, first = r.id, r.chain[0]
        pool = pools[first]
        n_i = len(pool)
        g0, p0, m0, l_bases = g_at[ri], p_at[ri], m_at[ri], l_at[ri][first]
        for ii, i in enumerate(pool):
            for si, s in enumerate(servers):
                gc = (g0 + si, -1)
                for di, d in enumerate(servers):
                    mc = (m0 + (si * n_s + di) * n_i + ii, 1)
                    lc = (l_bases[di] + ii, -1)
                    key = (f, s, d, i)
                    rows += (
                        new(Row, ("15-2", key, ((p0 + pair[si][di], -1), mc), "L", 0)),
                        new(Row, ("15-3", key, (gc, mc), "L", 0)),
                        new(Row, ("15-4", key, (lc, mc), "L", 0)),
                        new(Row, ("15-5", key, (gc, lc, mc), "G", -1)),
                    )

    # consecutive chain links
    for ri, r in enumerate(requests):
        f, p0 = r.id, p_at[ri]
        for pos, (ka, kb) in enumerate(zip(r.chain, r.chain[1:])):
            pool_a, pool_b = pools[ka], pools[kb]
            la_bases, lb_bases = l_at[ri][ka], l_at[ri][kb]
            qi = q_at[ri][pos]  # q runs over s, d, i, j in this loop order
            for si, s in enumerate(servers):
                for di, d in enumerate(servers):
                    pc = (p0 + pair[si][di], -1)
                    lb_coeffs = [(lb_bases[di] + jj, -1) for jj in range(len(pool_b))]
                    for ii, i in enumerate(pool_a):
                        lac = (la_bases[si] + ii, -1)
                        for j, lbc in zip(pool_b, lb_coeffs):
                            qc = (qi, 1)
                            qi += 1
                            both = (lac, lbc, qc) if lac < lbc else (lbc, lac, qc)
                            key = (f, pos, s, d, i, j)
                            rows += (
                                new(Row, ("16-2", key, (pc, qc), "L", 0)),
                                new(Row, ("16-3", key, (lac, qc), "L", 0)),
                                new(Row, ("16-4", key, (lbc, qc), "L", 0)),
                                new(Row, ("16-5", key, both, "G", -1)),
                            )

    # user link: present exactly when the last VNF is hosted on s
    for ri, r in enumerate(requests):
        last = r.chain[-1]
        n_i = len(pools[last])
        user = net.position(r.user)
        for si, s in enumerate(servers):
            base = l_at[ri][last][si]
            coeffs = [(base + ii, 1) for ii in range(n_i)]
            coeffs.append((p_at[ri] + pair[si][user], -1))
            add("17", (r.id, s), coeffs, "E", 0)

    # delay budget
    for ri, r in enumerate(requests):
        coeffs = []
        for ai, bi, off in pairs:
            coef = r.traffic * net.link_delay[ai][bi]
            if coef:
                coeffs.append((p_at[ri] + off, coef))
        for k in r.chain:
            vnf = instance.catalog.get(k)
            for ii in range(len(vnf.instances)):
                for si, s in enumerate(servers):
                    coef = r.traffic * vnf.processing_delay[s]
                    if coef:
                        coeffs.append((l_at[ri][k][si] + ii, coef))
        add("18", (r.id,), coeffs, "L", r.delay_budget)

    if options.no_reuse:
        snapshot_ids = {(k, i) for k, i, _s in snap.deployed}
        for ri, r in enumerate(requests):
            if r.status != STATUS_NEW:
                continue
            for k in r.chain:
                for ii, i in enumerate(pools[k]):
                    if (k, i) not in snapshot_ids:
                        continue
                    for si, s in enumerate(servers):
                        add("NOREUSE", (r.id, s, k, i), [(l_at[ri][k][si] + ii, 1)], "E", 0)

    return IlpModel(
        instance=instance,
        options=options,
        variables=variables,
        rows=tuple(rows),
        objective=tuple(objective),
        constant=constant,
        blocks=blocks,
        aliases=aliases,
    )


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _row_names(model: IlpModel) -> list[str]:
    """``c<tag>_<n>`` for the n-th row of each tag, ``-`` written as ``_``."""
    # per tag, a callable giving its next name; the prefix is formatted once
    next_name = {
        tag: map(f"c{tag.replace('-', '_')}_".__add__, map(str, itertools.count())).__next__
        for tag in {row.tag for row in model.rows}
    }
    return [next_name[row.tag]() for row in model.rows]


@_collector_paused()
def export_mps(model: IlpModel) -> str:
    """Deterministic MPS text. Objective coefficients and the objective-row
    RHS are money units (micro-money / 1e6); the RHS entry on the COST row
    carries the negated objective constant."""
    # The text is made section by section, one string per section and one
    # per column, and joined once at the end.
    rows, aliases = model.rows, model.aliases
    names = _row_names(model)
    parts = [
        "* chainplace MPS export\n"
        "* money values are scaled: coefficient = micro-money / 1e6\n"
        "* the RHS entry on the COST row is the negated objective constant\n"
        "NAME          CHAINPLACE\n"
        "OBJSENSE\n"
        "    MIN\n"
        "ROWS\n"
        " N  COST\n",
        "".join([f" {row.sense}  {name}\n" for row, name in zip(rows, names)]),
        "COLUMNS\n    MARKER                 'MARKER'                 'INTORG'\n",
    ]
    # row names padded to the cell width of COLUMNS and RHS
    names = [f"{name:<12}  " for name in names]

    # A variable's column is its cells in row order, COST first; a cell is
    # its head, the row name and the value. ``cells`` keeps references to
    # those shared strings, not a string per coefficient, and a variable's
    # references go once its column text is made.
    width = max(8, max(map(len, aliases), default=8))
    heads = [f"    {alias:<{width}}  " for alias in aliases]
    value = functools.cache(lambda v: _fmt_value(v) + "\n")  # once per distinct value
    cells: list[list[str] | None] = [[] for _ in aliases]
    for idx, micro in model.objective:
        cells[idx] += (heads[idx], f"{'COST':<12}  ", _costs.format_money(micro) + "\n")
    for row, name in zip(rows, names):
        for idx, coef in row.coeffs:
            own = cells[idx]
            own.append(heads[idx])
            own.append(name)
            own.append(value(coef))
    del heads
    for idx, own in enumerate(cells):
        if own:
            parts.append("".join(own))
            cells[idx] = None

    rhs = ["    MARKER                 'MARKER'                 'INTEND'\nRHS\n"]
    if model.constant:
        rhs.append(f"    RHS  COST  {_costs.format_money(-model.constant)}\n")
    rhs += [f"    RHS  {name}{value(row.rhs)}" for row, name in zip(rows, names) if row.rhs != 0]
    parts.append("".join(rhs))
    del names, rhs

    parts.append("BOUNDS\n")
    parts.append("".join([f" BV BND  {alias}\n" for alias in aliases]))
    parts.append("ENDATA\n")
    return "".join(parts)


@_collector_paused()
def export_lp(model: IlpModel) -> str:
    """Deterministic CPLEX-style LP text with the same scaling as MPS."""

    def term(coef_str: str, name: str, first: bool) -> str:
        sign = "-" if coef_str.startswith("-") else "+"
        mag = coef_str.lstrip("-")
        if first:
            return f"{'-' if sign == '-' else ''}{mag} {name}"
        return f"{sign} {mag} {name}"

    aliases = model.aliases
    objective = [
        term(_costs.format_money(micro), aliases[idx], i == 0)
        for i, (idx, micro) in enumerate(model.objective)
    ]
    if model.constant:
        c = _costs.format_money(model.constant)
        objective.append(term(c, "", not objective).rstrip())
    parts = [
        "\\ chainplace LP export\n"
        "\\ money values are scaled: coefficient = micro-money / 1e6\n"
        "Minimize\n"
        f" obj: {' '.join(objective) or '0'}\n"
        "Subject To\n"
    ]

    # a coefficient's text before the variable, as the first term and after
    # it, formatted once per distinct value
    lead = functools.cache(lambda coef: term(str(coef), "", True))
    tail = functools.cache(lambda coef: term(str(coef), "", False))
    fmt = functools.cache(_fmt_value)
    sense_txt = {"E": "=", "L": "<=", "G": ">="}

    def row_lines():
        for row, name in zip(model.rows, _row_names(model)):
            terms = [tail(coef) + aliases[idx] for idx, coef in row.coeffs]
            if terms:
                idx, coef = row.coeffs[0]
                terms[0] = lead(coef) + aliases[idx]
            else:
                terms = ["0"]
            yield f" {name}: {' '.join(terms)} {sense_txt[row.sense]} {fmt(row.rhs)}\n"

    # the rows are joined a block at a time, so only one block's lines exist
    lines = row_lines()
    while block := "".join(itertools.islice(lines, 4096)):
        parts.append(block)

    parts.append("Binaries\n")
    parts.append("".join([f" {alias}\n" for alias in aliases]))
    parts.append("End\n")
    return "".join(parts)


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
    variables = model.variables
    bits: list[int | None] = []
    for var, alias in zip(variables, model.aliases):
        raw = values.get(var.name)
        if raw is None:
            raw = values.get(alias)
        if raw is None:
            if var.family in ("g", "t", "l", "p"):
                raise MissingVariableError(f"missing value for {var.name}")
            bits.append(None)
        else:
            bits.append(_as_bit(var.name, raw))

    # each product's factors by arithmetic on the block offsets, in the
    # canonical order of x, m and q; g, t and l bits are never missing
    n_s = len(instance.network.servers)
    deployable = _deployable_types(instance)
    g_at, t_at, l_at, _p_at, _pair, x_at, m_at, q_at = model.blocks
    pool_size = {vnf.name: len(vnf.instances) for vnf in instance.catalog.types}

    def check(idx: int, expect: int) -> None:
        got = bits[idx]
        if got is not None and got != expect:
            raise AuxiliaryInconsistentError(
                f"{variables[idx].name} = {got} but its defining product is {expect}"
            )

    deployed = instance.snapshot.deployed
    for vnf in deployable:
        for i, t0, x0 in zip(vnf.instances, t_at[vnf.name], x_at[vnf.name]):
            for si, s in enumerate(instance.network.servers):
                cur = 1 if (vnf.name, i, s) in deployed else 0
                for di in range(n_s):
                    check(x0 + si * n_s + di, cur * bits[t0 + di])
    for ri, r in enumerate(instance.requests):
        n_i = pool_size[r.chain[0]]
        l_bases = l_at[ri][r.chain[0]]
        mi = m_at[ri]  # m runs over s, d, i in this loop order
        for si in range(n_s):
            g = bits[g_at[ri] + si]
            for di in range(n_s):
                for ii in range(n_i):
                    check(mi, g * bits[l_bases[di] + ii])
                    mi += 1
    for ri, r in enumerate(instance.requests):
        for pos, (ka, kb) in enumerate(zip(r.chain, r.chain[1:])):
            la_bases, lb_bases = l_at[ri][ka], l_at[ri][kb]
            qi = q_at[ri][pos]  # q runs over s, d, i, j in this loop order
            for si in range(n_s):
                for di in range(n_s):
                    for ii in range(pool_size[ka]):
                        la = bits[la_bases[si] + ii]
                        for jj in range(pool_size[kb]):
                            check(qi, la * bits[lb_bases[di] + jj])
                            qi += 1

    content, assignment = [], []
    deployment = list(instance.frozen_deployments())
    routes: dict[str, set] = {r.id: set() for r in instance.requests}
    for var, got in zip(variables, bits):
        if not got:
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
