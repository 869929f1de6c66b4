"""Compilation of a problem instance into an explicit binary linear program.

The compiled model owns the canonical variable order used everywhere else
(including the solver's tie-break), carries every product linearization as
explicit rows, and exports to MPS and LP interchange text. One walk,
``_enumerate``, lays the variables out one block per owner (a request, or
a type and instance) over the cross product of the block's levels:
servers, instance ids, link ends, and the chain position for ``q``. Its
one block helper picks what a variable becomes: its interchange alias (the
sanitized parts of its name), which ``build_ilp`` keeps, or its ``IlpVar``
(name, family, key), which the first read of ``IlpModel.variables`` makes;
exports make no ``IlpVar``. The model refuses aliases that collide
(``AliasCollisionError``). Objective coefficients are held in exact
micro-money; the text exporters emit them divided by 1e6 (plain money
units) because several MILP readers dislike huge magnitudes, and say so
in a comment header.

The rows are blocks (``IlpModel.blocks``, a list of ``Block``): rows of
one shape, that is the same tags, senses, sizes and coefficient values
for every key, with their keys, a right-hand side per row and the
coefficient indices in an ``array`` buffer; values stay ints, so any size
stays exact. ``model.rows`` is a view (``RowView``) that supports
``len()`` and iteration alone, and makes each ``Row`` named tuple on
demand, block by block. ``build_ilp`` finds a variable's index by
arithmetic on the block offsets that ``_enumerate`` records. Each family
of McCormick product rows (2-x, 15-x, 16-x: about 98% of a full-scale
model's rows) collects its bounds and sorted indices in flat lists and
goes in as one block without keys: a product row's key is its
auxiliary's, read on demand. The other rows go through one generic path
that drops zero coefficients, sorts the rest and keeps an empty row only
when 0 violates it; ``put`` extends the last block with rows of its
shape. ``import_solution`` reads each product's factors from its "at
least" row (2-4, 15-5 or 16-5) by strided slices of its block, and the
solver reads the g, t, l, p bases through ``layout``, which makes no
variable: only ``_enumerate`` knows the variable layout.

One generator per format, ``mps_chunks`` and ``lp_chunks``, makes the text
in chunks of about 64 KiB, a block at a time; ``export_mps`` and
``export_lp`` join them, and ``chainplace solve --export`` writes them as
they come. LP repeats one key's text for a slice of about 4 096 rows and
fills its holes (names, aliases, bounds) by strided slice assignment. MPS
pads each block's row names as it sends ROWS, and keeps two references
per coefficient (row name, value text) until it joins that variable's
column under its head.
``build_ilp``, ``enumerate_variables`` and both ``export_*`` run with the
cyclic garbage collector paused (the model forms no cycles) and restore
its state when they return or raise.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gc
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

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


class Block(NamedTuple):
    """Rows of one shape: per key, a row per tag, with ``values`` as every
    key's coefficient values, ``sizes[pos]`` of them in row ``pos``; ``rhs``
    has a bound per row and ``cols`` a variable index per coefficient. A
    product block's keys are ``None``: a row's key is its auxiliary's."""

    tags: tuple[str, ...]
    senses: str
    sizes: tuple[int, ...]
    values: tuple[int, ...]
    keys: list[tuple] | None
    rhs: list[int | float]
    cols: array.array

    @property
    def n_keys(self) -> int:
        return len(self.rhs) // len(self.tags)


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


def _enumerate(instance: ProblemInstance, named: bool | None = False) -> tuple[tuple, tuple]:
    """All binary variables in canonical order (g, t, l, p, x, m, q), as
    aliases or, if ``named``, as ``IlpVar``s, and the first index of each
    block of them; a block is one owner's variables (a request's or a type
    instance's) over the cross product of its levels, and a variable's
    index is its block's base plus its position inside it. With ``named``
    None it makes no variable and no name part, and returns no variables
    and the bases up to ``pair`` after the p family. The blocks are,
    per family: ``g[r]``, ``t[k][i]``, ``l[r][k][s]`` (then the instance;
    one block per request, over servers, then its chain's instances),
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
    nodes, servers = net.nodes, net.servers
    out: list = []  # aliases, or IlpVars when named
    top = 0  # the next block's base
    tails: dict = {}  # per levels, end and order: the ends of a block's variables

    def name_end(entry: tuple) -> str:
        return "".join([f"[{v}]" for v in entry])

    def alias_end(entry: tuple) -> str:  # ids need not be str
        return "".join(["_" + sanitize_name(str(v)) for v in entry])

    def ends(levels: tuple, end, order=None) -> list:
        # per combination of the levels' entries, their ends joined, grown a
        # level at a time; an entry is a tuple of ids, ``tuple`` its key end
        got = tails.get((levels, end, order))
        if got is None:
            got = [end(())]
            for level in [list(map(end, entries)) for entries in levels]:
                got = [a + b for a in got for b in level]
            got = tails[levels, end, order] = list(map(order, got)) if order else got
        return got

    # tuple.__new__ makes each IlpVar without the named tuple's Python-level
    # constructor
    new = tuple.__new__

    def block(family: str, owner: tuple, *levels: tuple, order=None) -> int:
        """Append ``family[owner id]...[entry id]...`` over the cross product
        of ``levels``, keyed by ``owner`` and the entries' ids (the outer
        levels' in ``order``), unless ``named`` is None; return the first
        index. Each outer end maps the last level's ends, which keeps the
        cache of ends small."""
        nonlocal top
        start, outer, last = top, levels[:-1], levels[-1:]
        top += math.prod(map(len, levels))
        if named:
            name, names, keys = family + name_end(owner), ends(last, name_end), ends(last, tuple)
            for end, key in zip(ends(outer, name_end), ends(outer, tuple, order)):
                head, key = name + end, owner + key
                out.extend([new(IlpVar, (head + e, family, key + k)) for e, k in zip(names, keys)])
        elif named is not None:
            head, aliases = family + alias_end(owner), ends(last, alias_end)
            for end in ends(outer, alias_end):
                out.extend(map((head + end).__add__, aliases))
        return start

    on_servers = tuple((s,) for s in servers)
    ids = {vnf.name: tuple((i,) for i in vnf.instances) for vnf in instance.catalog.types}
    deployable = [(vnf.name, vnf.instances) for vnf in _deployable_types(instance)]
    g_at = [block("g", (r.id,), on_servers) for r in instance.requests]
    t_at = {k: [block("t", (k, i), on_servers) for i in pool] for k, pool in deployable}

    l_at = []
    for r in instance.requests:
        # per server, the instances of each chain type in chain order
        sizes = [len(ids[k]) for k in r.chain]
        chain = range(sum(sizes)) if named is None else tuple(
            (k,) + i for k in r.chain for i in ids[k])
        start = block("l", (r.id,), on_servers, chain)
        firsts = itertools.accumulate(sizes, initial=start)
        steps = [si * len(chain) for si in range(len(servers))]
        l_at.append({k: [first + step for step in steps] for k, first in zip(r.chain, firsts)})

    # a request's p block: node pairs in position order, then self-links
    links = list(itertools.combinations(range(len(nodes)), 2))
    links += [(si, si) for si in range(len(servers))]
    pair = [[0] * len(nodes) for _ in nodes]
    for off, (ai, bi) in enumerate(links):
        pair[ai][bi] = pair[bi][ai] = off
    link_ends = links if named is None else tuple((nodes[ai], nodes[bi]) for ai, bi in links)
    p_at = [block("p", (r.id,), link_ends) for r in instance.requests]
    if named is None:
        return (), (g_at, t_at, l_at, p_at, pair)

    x_at = {k: [block("x", (k, i), on_servers, on_servers) for i in pool] for k, pool in deployable}
    m_at = [block("m", (r.id,), on_servers, on_servers, ids[r.chain[0]]) for r in instance.requests]
    # a q name has the chain position after s and d; its key has it first
    q_key = operator.itemgetter(2, 0, 1, 3)
    q_at = [[block("q", (r.id,), on_servers, on_servers, ((pos,),), ids[ka], ids[kb], order=q_key)
             for pos, (ka, kb) in enumerate(zip(r.chain, r.chain[1:]))] for r in instance.requests]
    return tuple(out), (g_at, t_at, l_at, p_at, pair, x_at, m_at, q_at)


def layout(instance: ProblemInstance) -> tuple:
    """The block bases of the decision families g, t, l, p and ``pair``, the
    first five that ``_enumerate`` gives ``build_ilp``, with no variable made."""
    return _enumerate(instance, named=None)[1]


@_collector_paused()
def enumerate_variables(instance: ProblemInstance) -> tuple[IlpVar, ...]:
    """All binary variables in canonical order: g, t, l, p, x, m, q. The
    decision families g, t, l, p come first, so a vector over them, as
    ``plan_vector`` makes, orders plans as the full vector's prefix."""
    return _enumerate(instance, named=True)[0]


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


@dataclass(frozen=True, eq=False, slots=True)
class RowView:
    """``IlpModel.rows``: the model's rows, block by block, as ``Row``s made
    on demand. It supports ``len()`` and iteration only. A product row's key
    is its auxiliary's, the last coefficient of its key's rows."""

    model: IlpModel

    def __len__(self) -> int:
        return sum(len(block.rhs) for block in self.model.blocks)

    def __iter__(self) -> Iterator[Row]:
        for block in self.model.blocks:
            cols, stride, bounds = block.cols, len(block.values), iter(block.rhs)
            ats = itertools.accumulate(block.sizes, initial=0)
            shape = list(zip(block.tags, block.senses, ats, block.sizes))
            keys = block.keys or (self.model.variables[i].key for i in cols[stride - 1 :: stride])
            for a, key in zip(itertools.count(0, stride), keys):
                for tag, sense, at, size in shape:
                    coeffs = zip(cols[a + at : a + at + size], block.values[at : at + size])
                    yield Row(tag, key, tuple(coeffs), sense, next(bounds))


@dataclass(frozen=True)
class IlpModel:
    """A compiled program. ``aliases[i]`` is ``sanitize_name`` of
    ``variables[i].name``; ``variables`` is made on its first read, which
    the writers never make. A model whose aliases are not unique raises
    ``AliasCollisionError``. Each read of ``rows`` makes a new ``RowView``
    that refers to the model; nothing in the model refers back to it, so
    the model forms no cycle and is freed once its last reference goes."""

    instance: ProblemInstance
    options: BuildOptions
    blocks: list[Block] = field(repr=False)
    objective: tuple[tuple[int, int], ...]  # (variable index, micro-money)
    constant: int  # micro-money
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

    @property
    def rows(self) -> RowView:
        return RowView(self)

    @functools.cached_property
    def variables(self) -> tuple[IlpVar, ...]:
        return enumerate_variables(self.instance)

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        # a name has brackets and an alias has none, so the two never clash
        index = {alias: i for i, alias in enumerate(self.aliases)}
        index.update((v.name, i) for i, v in enumerate(self.variables))
        return index

    def variable_index(self, name: str) -> int:
        """Index of a variable by its canonical name or its alias."""
        return self._index[name]

    def objective_micro(self, values: Mapping[str, float]) -> int:
        """Exact objective (micro-money) of a 0/1 assignment, constant included."""
        vec = [0] * len(self.variables)
        for name, val in values.items():
            vec[self.variable_index(name)] = val
        total = self.constant
        for idx, micro in self.objective:
            total += micro * round(vec[idx])
        return total


# A product's rows (2-x, 15-x, 16-x) as a Block shape: tags, senses, sizes and
# coefficient values, all ±1; the canonical order g < t < l < p < x < m < q
# sorts their indices, except the two l factors of 16-5, with no comparison.
# 2-x: x <= cur, x - t <= 0, x - t >= cur - 1 (x = cur * t)
_MIGRATION = (("2-2", "2-3", "2-4"), "LLG", (1, 2, 2), (1, -1, 1, -1, 1))
# 15-x: m <= p, m <= g, m <= l, m - g - l >= -1 (m = g * l)
_ENTRY = (("15-2", "15-3", "15-4", "15-5"), "LLLG", (2, 2, 2, 3), (-1, 1) * 3 + (-1, -1, 1))
# 16-x: the same over q, p and the two l factors of consecutive chain slots
_CHAIN = (("16-2", "16-3", "16-4", "16-5"),) + _ENTRY[1:]


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
    aliases, (g_at, t_at, l_at, p_at, pair, x_at, m_at, q_at) = _enumerate(instance)
    deployable = _deployable_types(instance)
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

    blocks: list[Block] = []

    def put(shape, block_keys, bounds, coeffs):  # shape: see _MIGRATION
        if blocks and blocks[-1][:4] == shape:  # generic rows only
            blocks[-1].keys.extend(block_keys)
            blocks[-1].rhs.extend(bounds)
            blocks[-1].cols.fromlist(coeffs)
        elif bounds:  # a family without keys adds no block
            blocks.append(Block(*shape, block_keys, bounds, array.array("q", coeffs)))

    def add(tag, key, coeffs, sense, bound):
        coeffs = sorted(c for c in coeffs if c[1])
        # a row left without coefficients is kept only when 0 violates it
        if coeffs or not Row(tag, key, (), sense, bound).satisfied_by(()):
            idx, coef = zip(*coeffs) if coeffs else ((), ())
            put(((tag,), sense, (len(idx),), coef), [key], [bound], list(idx))

    # migration product linearization
    deployed = snap.deployed
    bounds, idx = [], []
    for vnf in deployable:
        k = vnf.name
        for i, t0, x0 in zip(vnf.instances, t_at[k], x_at[k]):
            for si, s in enumerate(servers):
                cur = 1 if (k, i, s) in deployed else 0
                for di in range(n_s):
                    x, t = x0 + si * n_s + di, t0 + di
                    bounds += (cur, 0, cur - 1)
                    idx += (x, t, x, t, x)
    put(_MIGRATION, None, bounds, idx)

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
            bases, pool = l_at[ri][k], pools[k]
            add("8", (r.id, k), [(base + ii, 1) for base in bases for ii in range(len(pool))], "E", 1)
            for si, s in enumerate(servers):
                for ii, i in enumerate(pool):
                    coeffs = [(bases[si] + ii, 1), (t_at[k][ii] + si, -1)]
                    add("9", (r.id, s, k, i), coeffs, "L", 0)

    # deployment cardinality
    for vnf in deployable:
        t_bases = t_at[vnf.name]
        add("10", (vnf.name,), [(base + si, 1) for base in t_bases for si in range(n_s)], "G", 1)
        for i, base in zip(vnf.instances, t_bases):
            add("11", (vnf.name, i), [(base + si, 1) for si in range(n_s)], "L", 1)

    usage_limit = functools.cache(instance.usage_limit)

    def limit(cap, used=0):
        exact = usage_limit(cap) - used
        return exact if type(exact) is int else float(exact)

    # server resources left over by the frozen instances
    for si, s in enumerate(servers):
        coeffs = [(base + si, vnf.resource_req) for vnf in deployable for base in t_at[vnf.name]]
        add("12", (s,), coeffs, "L", limit(net.server_capacity[s], frozen_load[s]))

    # VNF processing capacity; every deployable type has assignment variables
    for vnf in deployable:
        k = vnf.name
        requesters = [(l_at[ri][k], r.traffic) for ri, r in enumerate(requests) if k in r.chain]
        for ii, i in enumerate(vnf.instances):
            for si, s in enumerate(servers):
                coeffs = [(bases[si] + ii, traffic) for bases, traffic in requesters]
                add("13", (k, i, s), coeffs, "L", limit(vnf.capacity))

    # link bandwidth, self-links exempt
    nodes = net.nodes
    for ai, bi, off in pairs:
        coeffs = [(p_at[ri] + off, r.traffic) for ri, r in enumerate(requests)]
        add("14", (nodes[ai], nodes[bi]), coeffs, "L", limit(net.bandwidth[ai][bi]))

    # chain entry link (content server to first VNF host)
    idx = []
    for ri, r in enumerate(requests):
        first = r.chain[0]
        n_i = len(pools[first])
        g0, p0, m0, l_bases = g_at[ri], p_at[ri], m_at[ri], l_at[ri][first]
        for ii in range(n_i):
            for si in range(n_s):
                g = g0 + si
                for di in range(n_s):
                    m, li = m0 + (si * n_s + di) * n_i + ii, l_bases[di] + ii
                    idx += (p0 + pair[si][di], m, g, m, li, m, g, li, m)
    put(_ENTRY, None, [0, 0, 0, -1] * (len(idx) // len(_ENTRY[3])), idx)

    # consecutive chain links
    idx = []
    for ri, r in enumerate(requests):
        p0 = p_at[ri]
        for pos, (ka, kb) in enumerate(zip(r.chain, r.chain[1:])):
            n_a, n_b = len(pools[ka]), len(pools[kb])
            la_bases, lb_bases = l_at[ri][ka], l_at[ri][kb]
            qi = q_at[ri][pos]  # q runs over s, d, i, j in this loop order
            for si in range(n_s):
                for di in range(n_s):
                    p = p0 + pair[si][di]
                    for ii in range(n_a):
                        la = la_bases[si] + ii
                        for jj in range(n_b):
                            lb = lb_bases[di] + jj
                            lo, hi = (la, lb) if la < lb else (lb, la)
                            idx += (p, qi, la, qi, lb, qi, lo, hi, qi)
                            qi += 1
    put(_CHAIN, None, [0, 0, 0, -1] * (len(idx) // len(_CHAIN[3])), idx)

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
        coeffs = [(p_at[ri] + off, r.traffic * net.link_delay[ai][bi]) for ai, bi, off in pairs]
        for k in r.chain:
            delay, n_i = instance.catalog.get(k).processing_delay, len(pools[k])
            for base, s in zip(l_at[ri][k], servers):
                coeffs += [(base + ii, r.traffic * delay[s]) for ii in range(n_i)]
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
        blocks=blocks,
        objective=tuple(objective),
        constant=constant,
        aliases=aliases,
    )


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _named(blocks: list[Block]) -> Iterator[tuple[Block, list[tuple[str, int]]]]:
    """Each block with, per position, the prefix and first number of its row
    names: the n-th row of each tag is ``c<tag>_<n>``, ``-`` as ``_``."""
    seen: dict[str, int] = {}
    for block in blocks:
        yield block, [(f"c{tag.replace('-', '_')}_", seen.get(tag, 0)) for tag in block.tags]
        seen.update((tag, seen.get(tag, 0) + block.n_keys) for tag in block.tags)


_BLOCK = 4096  # rows, or aliases, per chunk of text; about 64 KiB of it


def _slices(block: Block) -> Iterator[tuple[int, int]]:
    """A block's keys as (first, end) slices of about ``_BLOCK`` rows."""
    n, per = block.n_keys, max(1, _BLOCK // len(block.tags))
    return ((k0, min(k0 + per, n)) for k0 in range(0, n, per))


def mps_chunks(model: IlpModel) -> Iterator[str]:
    """Deterministic MPS text, in chunks of about 64 KiB. Objective
    coefficients and the objective-row RHS are money units (micro-money /
    1e6); the RHS entry on the COST row carries the negated objective
    constant."""
    blocks, aliases = model.blocks, model.aliases
    yield (
        "* chainplace MPS export\n"
        "* money values are scaled: coefficient = micro-money / 1e6\n"
        "* the RHS entry on the COST row is the negated objective constant\n"
        "NAME          CHAINPLACE\n"
        "OBJSENSE\n"
        "    MIN\n"
        "ROWS\n"
        " N  COST\n"
    )
    names = []  # per block, each row's f"{name:<12}  ", made as ROWS go out
    for block, starts in _named(blocks):
        w, n = len(block.tags), block.n_keys
        names.append(padded := [""] * (w * n))
        pattern = []  # one key's ROWS lines, with a hole for each number
        for pos, (sense, (prefix, first)) in enumerate(zip(block.senses, starts)):
            pad = f"{prefix}%-{max(12 - len(prefix), 1)}d  "
            padded[pos::w] = map(pad.__mod__, range(first, first + n))
            pattern += (f" {sense}  {prefix}", "", "\n")
        for k0, k1 in _slices(block):
            items = pattern * (k1 - k0)
            for pos, (_prefix, first) in enumerate(starts):
                items[3 * pos + 1 :: 3 * w] = map(str, range(first + k0, first + k1))
            yield "".join(items)
    yield "COLUMNS\n    MARKER                 'MARKER'                 'INTORG'\n"

    # A variable's column is its cells in row order, COST first; a cell is
    # its head, the row name and the value. ``cells`` keeps two references
    # per cell, to shared name and value strings, until the column is
    # joined under its head.
    value = functools.cache(lambda v: _fmt_value(v) + "\n")  # once per distinct value
    cells: list[list[str] | None] = [[] for _ in aliases]
    cost = f"{'COST':<12}  "
    for idx, micro in model.objective:
        cells[idx] += (cost, _costs.format_money(micro) + "\n")
    for block, padded in zip(blocks, names):
        # each coefficient's row name and value text, in coefficient order
        sizes = itertools.cycle(block.sizes)
        row_of = itertools.chain.from_iterable(map(itertools.repeat, padded, sizes))
        texts = itertools.cycle([value(v) for v in block.values])
        for idx, name, text in zip(block.cols, row_of, texts):
            own = cells[idx]
            own.append(name)
            own.append(text)
    width = max(8, max(map(len, aliases), default=8))

    chunk, size = [], 0  # columns, joined once they reach 64 KiB
    for idx, alias in enumerate(aliases):
        own, cells[idx] = cells[idx], None
        column = [f"    {alias.ljust(width)}  "] * (len(own) * 3 // 2)  # a head per cell
        column[1::3], column[2::3] = own[0::2], own[1::2]
        chunk.append("".join(column))
        size += len(chunk[-1])
        if size >= 1 << 16:
            yield "".join(chunk)
            chunk, size = [], 0
    yield "".join(chunk)

    yield "    MARKER                 'MARKER'                 'INTEND'\nRHS\n"
    if model.constant:
        yield f"    RHS  COST  {_costs.format_money(-model.constant)}\n"
    for block, padded in zip(blocks, names):
        w = len(block.tags)
        for k0, k1 in _slices(block):
            bounds = block.rhs[k0 * w : k1 * w]
            nonzero = zip(itertools.compress(padded[k0 * w : k1 * w], bounds), filter(None, bounds))
            yield "".join([f"    RHS  {name}{value(b)}" for name, b in nonzero])
    del names

    yield "BOUNDS\n"
    for v0 in range(0, len(aliases), _BLOCK):
        yield "".join([f" BV BND  {alias}\n" for alias in aliases[v0 : v0 + _BLOCK]])
    yield "ENDATA\n"


@_collector_paused()
def export_mps(model: IlpModel) -> str:
    """The chunks of ``mps_chunks`` as one string."""
    return "".join(mps_chunks(model))


def lp_chunks(model: IlpModel) -> Iterator[str]:
    """Deterministic CPLEX-style LP text with the same scaling as MPS, in
    chunks of about 64 KiB."""

    def term(coef_str: str, name: str, first: bool) -> str:
        sign = ("-" if first else "- ") if coef_str.startswith("-") else ("" if first else "+ ")
        return f"{sign}{coef_str.lstrip('-')} {name}"

    aliases = model.aliases
    objective = [
        term(_costs.format_money(micro), aliases[idx], i == 0)
        for i, (idx, micro) in enumerate(model.objective)
    ]
    if model.constant:
        c = _costs.format_money(model.constant)
        objective.append(term(c, "", not objective).rstrip())
    yield (
        "\\ chainplace LP export\n"
        "\\ money values are scaled: coefficient = micro-money / 1e6\n"
        "Minimize\n"
        f" obj: {' '.join(objective) or '0'}\n"
        "Subject To\n"
    )
    del objective

    # a coefficient's text before the variable, as a row's first term
    # (after the colon) and as a later one, formatted once per distinct value
    lead = functools.cache(lambda coef: ": " + term(str(coef), "", True))
    tail = functools.cache(lambda coef: " " + term(str(coef), "", False))
    fmt = functools.cache(_fmt_value)
    sense_txt = {"E": "=", "L": "<=", "G": ">="}

    alias_of = aliases.__getitem__
    for block, starts in _named(model.blocks):
        # one key's rows as texts around holes for names, aliases and bounds;
        # a slice of keys repeats it and fills a hole with one strided slice
        w, stride = len(block.tags), len(block.values)
        pattern, name_at, alias_at, rhs_at = [], [], [], []
        values = iter(block.values)
        for sense, size in zip(block.senses, block.sizes):
            name_at.append(len(pattern))
            pattern += ("",) if size else ("", ": 0")
            for j in range(size):
                pattern += ((tail if j else lead)(next(values)), "")
                alias_at.append(len(pattern) - 1)
            pattern += (f" {sense_txt[sense]} ", "", "\n")
            rhs_at.append(len(pattern) - 2)
        step = len(pattern)
        for k0, k1 in _slices(block):
            items = pattern * (k1 - k0)
            for at, (prefix, first) in zip(name_at, starts):
                items[at::step] = map(f" {prefix}".__add__, map(str, range(first + k0, first + k1)))
            for j, at in enumerate(alias_at):
                items[at::step] = map(alias_of, block.cols[k0 * stride + j : k1 * stride : stride])
            for pos, at in enumerate(rhs_at):
                items[at::step] = map(fmt, block.rhs[k0 * w + pos : k1 * w : w])
            yield "".join(items)

    yield "Binaries\n"
    for v0 in range(0, len(aliases), _BLOCK):
        yield "".join([f" {alias}\n" for alias in aliases[v0 : v0 + _BLOCK]])
    yield "End\n"


@_collector_paused()
def export_lp(model: IlpModel) -> str:
    """The chunks of ``lp_chunks`` as one string."""
    return "".join(lp_chunks(model))


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
    against their defining products when given. Each auxiliary is the last
    coefficient of its product's "at least" row, after the factors it
    multiplies: ``2-4`` is ``x - t >= cur - 1`` and so defines ``x`` as
    ``(rhs + 1) * t``; ``15-5`` and ``16-5`` define ``m`` and ``q`` as the
    product of their two other variables. When several auxiliaries are
    wrong, the first in row order is named, which for ``m`` is not its
    variable order. Frozen snapshot deployments have no variables and come
    back unchanged.
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

    # the factors are g, t and l bits, never missing; a block's keys are in row order
    get = bits.__getitem__
    for block in model.blocks:
        w, stride = len(block.tags), len(block.values)
        ats = itertools.accumulate(block.sizes, initial=0)
        for pos, (tag, at) in enumerate(zip(block.tags, ats)):
            if tag == "2-4":  # x = (rhs + 1) * t
                factors = map((1).__add__, block.rhs[pos::w])
            elif tag == "15-5" or tag == "16-5":  # m or q = a * b
                factors, at = map(get, block.cols[at::stride]), at + 1
            else:
                continue
            aux = block.cols[at + 1 :: stride]
            expects = map(operator.mul, factors, map(get, block.cols[at::stride]))
            for idx, got, expect in zip(aux, map(get, aux), expects):
                if got is not None and got != expect:
                    raise AuxiliaryInconsistentError(
                        f"{variables[idx].name} = {got} but its defining product is {expect}"
                    )

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
