"""Domain types, instance validation, constraint checking and plan diffing.

Unit conventions used throughout the toolkit:

* money is held as integer micro-money (1 money unit == 1_000_000 micro),
* delays are integer microseconds,
* traffic, bandwidth and processing resources are integer abstract units.

All types are immutable after construction and safe to share between
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, MutableMapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexMismatchError

Link = tuple[str, str]

STATUS_EXISTING = "existing"
STATUS_NEW = "new"


def _frozen_tuples(items) -> frozenset:
    """``items`` as a frozenset of tuples. One that already is one is kept
    rather than copied, so a request, snapshot or plan made from another
    plan's sets shares them."""
    if type(items) is frozenset and all(type(t) is tuple for t in items):
        return items
    return frozenset(tuple(t) for t in items)


@dataclass(frozen=True)
class Network:
    """Full logical mesh of replica servers and end-user nodes.

    ``bandwidth``, ``link_cost`` and ``link_delay`` are dense square matrices
    indexed by the node order ``servers + users``. Costs are micro-money per
    traffic unit, delays microseconds. The matrices are symmetric; the cost
    and delay diagonals are zero (a co-located hop is free), the bandwidth
    diagonal is ignored.
    """

    servers: tuple[str, ...]
    users: tuple[str, ...]
    bandwidth: tuple[tuple[int, ...], ...]
    link_cost: tuple[tuple[int, ...], ...]
    link_delay: tuple[tuple[int, ...], ...]
    server_capacity: Mapping[str, int]
    server_unit_cost: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(self.servers))
        object.__setattr__(self, "users", tuple(self.users))
        for name in ("bandwidth", "link_cost", "link_delay"):
            rows = tuple(tuple(row) for row in getattr(self, name))
            object.__setattr__(self, name, rows)
        object.__setattr__(self, "server_capacity", dict(self.server_capacity))
        object.__setattr__(self, "server_unit_cost", dict(self.server_unit_cost))
        object.__setattr__(
            self, "_pos", {n: i for i, n in enumerate(self.servers + self.users)}
        )

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.servers + self.users

    def position(self, node: str) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise IndexMismatchError(f"unknown node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._pos

    def link(self, a: str, b: str) -> Link:
        """Canonical undirected link: endpoints ordered by node position."""
        if self.position(a) <= self.position(b):
            return (a, b)
        return (b, a)

    def cost_between(self, a: str, b: str) -> int:
        return self.link_cost[self.position(a)][self.position(b)]

    def delay_between(self, a: str, b: str) -> int:
        return self.link_delay[self.position(a)][self.position(b)]

    def bandwidth_between(self, a: str, b: str) -> int:
        return self.bandwidth[self.position(a)][self.position(b)]


@dataclass(frozen=True)
class VnfType:
    """One VNF type of the catalog with its per-server delay and per-pair
    migration price. ``capacity`` is the traffic the type can process,
    ``resource_req`` the server resources one instance consumes."""

    name: str
    license_cost: int
    capacity: int
    resource_req: int
    instances: tuple[int, ...]
    processing_delay: Mapping[str, int]
    migration_cost: Mapping[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        # a read-only mapping cannot change under the type, so types may
        # share one; anything else is copied
        for name in ("processing_delay", "migration_cost"):
            table = getattr(self, name)
            if not isinstance(table, Mapping) or isinstance(table, MutableMapping):
                object.__setattr__(self, name, dict(table))

    def migration(self, src: str, dst: str) -> int:
        if src == dst:
            return 0
        return self.migration_cost[(src, dst)]


@dataclass(frozen=True)
class VnfCatalog:
    types: tuple[VnfType, ...]

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "_by_name", {t.name: t for t in self.types})

    def get(self, name: str) -> VnfType:
        try:
            return self._by_name[name]
        except KeyError:
            raise IndexMismatchError(f"unknown VNF type {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class ServiceRequest:
    """A service request: an ordered VNF chain between the selected content
    server and ``user``. ``current_route`` is the set of links currently
    assigned (empty for new requests)."""

    id: str
    user: str
    chain: tuple[str, ...]
    traffic: int
    delay_budget: int
    candidate_servers: tuple[str, ...]
    status: str = STATUS_NEW
    current_route: frozenset[Link] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        object.__setattr__(self, "candidate_servers", tuple(self.candidate_servers))
        object.__setattr__(self, "current_route", _frozen_tuples(self.current_route))


@dataclass(frozen=True)
class Snapshot:
    """Current deployment map: (type, instance, server) triples."""

    deployed: frozenset[tuple[str, int, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "deployed", _frozen_tuples(self.deployed))
        servers: dict[tuple[str, int], str] = {}
        for k, i, s in sorted(self.deployed):
            servers.setdefault((k, i), s)
        object.__setattr__(self, "_server_of", servers)

    def server_of(self, vnf_type: str, instance: int) -> str | None:
        return self._server_of.get((vnf_type, instance))


EMPTY_SNAPSHOT = Snapshot(frozenset())


@dataclass(frozen=True)
class PlacementPlan:
    """One candidate solution: the four binary decision families.

    The sets intentionally allow states that violate constraints (for example
    two content servers for one request) so that ``check_feasibility`` can
    report on arbitrary plans, not only solver output.
    """

    content_server: frozenset[tuple[str, str]]
    deployment: frozenset[tuple[str, int, str]]
    assignment: frozenset[tuple[str, str, str, int]]
    routes: Mapping[str, frozenset[Link]]

    def __post_init__(self):
        for name in ("content_server", "deployment", "assignment"):
            object.__setattr__(self, name, _frozen_tuples(getattr(self, name)))
        object.__setattr__(
            self,
            "routes",
            {f: _frozen_tuples(links) for f, links in self.routes.items()},
        )

    def route(self, request_id: str) -> frozenset[Link]:
        return self.routes.get(request_id, frozenset())

    def servers_for(self, request_id: str) -> tuple[str, ...]:
        return tuple(sorted(s for f, s in self.content_server if f == request_id))

    def assigned(self, request_id: str, vnf_type: str) -> tuple[tuple[str, int], ...]:
        """(server, instance) pairs assigned to ``request_id`` for ``vnf_type``."""
        return tuple(
            sorted((s, i) for f, s, k, i in self.assignment
                   if f == request_id and k == vnf_type)
        )


@dataclass(frozen=True)
class ProblemInstance:
    network: Network
    catalog: VnfCatalog
    requests: tuple[ServiceRequest, ...]
    snapshot: Snapshot = EMPTY_SNAPSHOT
    usage_threshold: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))

    def request(self, request_id: str) -> ServiceRequest:
        for r in self.requests:
            if r.id == request_id:
                return r
        raise IndexMismatchError(f"unknown request {request_id!r}")

    def required_types(self) -> tuple[str, ...]:
        """VNF types needed by at least one request, in catalog order."""
        needed = {k for r in self.requests for k in r.chain}
        return tuple(t.name for t in self.catalog.types if t.name in needed)

    def frozen_deployments(self) -> tuple[tuple[str, int, str], ...]:
        """Snapshot entries of types no request needs, sorted. They are not
        decisions: every plan keeps them where they are, at no cost."""
        required = set(self.required_types())
        return tuple(sorted(e for e in self.snapshot.deployed if e[0] not in required))

    def usage_limit(self, capacity: int) -> int | Fraction:
        """Exact usable share of a capacity under the usage threshold: an
        int when it is whole, a Fraction otherwise."""
        limit = Fraction(self.usage_threshold) * capacity
        return int(limit) if limit.denominator == 1 else limit


@dataclass(frozen=True)
class DeploymentDelta:
    """Classification of every instance across snapshot and plan."""

    reused: tuple[tuple[str, int, str], ...]
    migrated: tuple[tuple[str, int, str, str], ...]
    instantiated: tuple[tuple[str, int, str], ...]
    removed: tuple[tuple[str, int, str], ...]


@dataclass(frozen=True)
class Violation:
    """One broken rule: a ``validate_instance`` code such as
    ``DUPLICATE_NODE``, or the number of the constraint ``check_feasibility``
    found violated, such as ``"12"``."""

    code: str
    subject: tuple
    detail: str = ""

    def __str__(self):
        where = ",".join(str(x) for x in self.subject)
        return f"{self.code}({where})" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    feasible = ok

    def has(self, code: str, *subject) -> bool:
        return any(
            v.code == code and (not subject or v.subject == tuple(subject))
            for v in self.violations
        )


def _check_matrix(out, name, matrix, n, zero_diagonal):
    if len(matrix) != n or any(len(row) != n for row in matrix):
        out.append(Violation("MATRIX_SHAPE", (name,), f"expected {n}x{n}"))
        return
    for i in range(n):
        for j in range(i, n):
            if matrix[i][j] != matrix[j][i]:
                out.append(Violation("MATRIX_NOT_SYMMETRIC", (name, i, j)))
            if matrix[i][j] < 0:
                out.append(Violation("NEGATIVE_ENTRY", (name, i, j)))
        if zero_diagonal and matrix[i][i] != 0:
            out.append(Violation("NONZERO_DIAGONAL", (name, i)))


def _type_violations(instance: ProblemInstance) -> list[Violation]:
    """Money, delay, capacity, bandwidth, traffic and instance-id entries
    that are not strict ints (a bool is not one), names and ids that are not
    strings, and a usage threshold that is not a number."""
    net = instance.network
    entries: list[tuple[tuple, object]] = []
    for name in ("bandwidth", "link_cost", "link_delay"):
        for i, row in enumerate(getattr(net, name)):
            entries += (((name, i, j), v) for j, v in enumerate(row))
    for name in ("server_capacity", "server_unit_cost"):
        entries += (((name, s), v) for s, v in getattr(net, name).items())
    for t in instance.catalog.types:
        for name in ("license_cost", "capacity", "resource_req"):
            entries.append(((name, t.name), getattr(t, name)))
        entries += ((("instances", t.name, pos), i) for pos, i in enumerate(t.instances))
        entries += ((("processing_delay", t.name, s), v) for s, v in t.processing_delay.items())
        entries += ((("migration_cost", t.name) + pair, v) for pair, v in t.migration_cost.items())
    for r in instance.requests:
        entries += ((("traffic", r.id), r.traffic), (("delay_budget", r.id), r.delay_budget))
    entries += ((("snapshot", k, s), i) for k, i, s in sorted(instance.snapshot.deployed, key=str))
    out = [
        Violation("NOT_AN_INTEGER", subject, repr(value))
        for subject, value in entries
        if type(value) is not int
    ]
    names = [(("servers", pos), s) for pos, s in enumerate(net.servers)]
    names += ((("users", pos), u) for pos, u in enumerate(net.users))
    names += ((("types", pos), t.name) for pos, t in enumerate(instance.catalog.types))
    for pos, r in enumerate(instance.requests):
        names += ((("requests", pos), r.id), (("user", r.id), r.user))
        names += ((("chain", r.id, at), k) for at, k in enumerate(r.chain))
        names += ((("candidate_servers", r.id, at), s) for at, s in enumerate(r.candidate_servers))
    out += (
        Violation("NOT_A_STRING", subject, repr(value))
        for subject, value in names
        if not isinstance(value, str)
    )
    if type(instance.usage_threshold) not in (int, float):
        out.append(Violation("NOT_A_NUMBER", ("usage_threshold",), repr(instance.usage_threshold)))
    return out


def validate_instance(instance: ProblemInstance) -> Report:
    """Check every structural invariant; violations come back as report
    entries with machine-readable codes, never as exceptions. Entry types
    are checked first, and alone when any is wrong, so that no comparison
    below meets a value it cannot order or hash."""
    out = _type_violations(instance)
    if out:
        return Report(tuple(out))
    net = instance.network
    nodes = net.servers + net.users

    seen: set[str] = set()
    for node in nodes:
        if node in seen:
            out.append(Violation("DUPLICATE_NODE", (node,)))
        seen.add(node)

    n = len(nodes)
    _check_matrix(out, "bandwidth", net.bandwidth, n, zero_diagonal=False)
    _check_matrix(out, "link_cost", net.link_cost, n, zero_diagonal=True)
    _check_matrix(out, "link_delay", net.link_delay, n, zero_diagonal=True)

    for s in net.servers:
        cap = net.server_capacity.get(s)
        if cap is None:
            out.append(Violation("MISSING_SERVER_CAPACITY", (s,)))
        elif cap <= 0:
            out.append(Violation("NONPOSITIVE_CAPACITY", (s,), f"G={cap}"))
        cost = net.server_unit_cost.get(s)
        if cost is None:
            out.append(Violation("MISSING_SERVER_COST", (s,)))
        elif cost < 0:
            out.append(Violation("NEGATIVE_COST", (s,), f"rho={cost}"))

    required = {k for r in instance.requests for k in r.chain}
    seen_types: set[str] = set()
    for t in instance.catalog.types:
        if t.name in seen_types:
            out.append(Violation("DUPLICATE_VNF_TYPE", (t.name,)))
        seen_types.add(t.name)
        if t.license_cost < 0 or t.capacity < 0 or t.resource_req < 0:
            out.append(Violation("NEGATIVE_COST", (t.name,)))
        if t.name in required and len(t.instances) < 1:
            out.append(Violation("EMPTY_INSTANCE_POOL", (t.name,)))
        if len(set(t.instances)) != len(t.instances):
            out.append(Violation("DUPLICATE_INSTANCE_ID", (t.name,)))
        for s in net.servers:
            if s not in t.processing_delay:
                out.append(Violation("MISSING_PROCESSING_DELAY", (t.name, s)))
            elif t.processing_delay[s] < 0:
                out.append(Violation("NEGATIVE_ENTRY", ("processing_delay", t.name, s)))
            for d in net.servers:
                phi = t.migration_cost.get((s, d))
                if phi is None:
                    out.append(Violation("MISSING_MIGRATION_COST", (t.name, s, d)))
                elif s == d and phi != 0:
                    out.append(Violation("NONZERO_SELF_MIGRATION", (t.name, s)))
                elif phi < 0:
                    out.append(Violation("NEGATIVE_ENTRY", ("migration_cost", t.name, s, d)))

    seen_ids: set[str] = set()
    for r in instance.requests:
        if r.id in seen_ids:
            out.append(Violation("DUPLICATE_REQUEST_ID", (r.id,)))
        seen_ids.add(r.id)
        if r.user not in net.users:
            out.append(Violation("UNKNOWN_USER", (r.id, r.user)))
        if not r.chain:
            out.append(Violation("EMPTY_CHAIN", (r.id,)))
        if len(set(r.chain)) != len(r.chain):
            out.append(Violation("DUPLICATE_CHAIN_TYPE", (r.id,)))
        for k in r.chain:
            if not instance.catalog.has(k):
                out.append(Violation("UNKNOWN_VNF_TYPE", (r.id, k)))
        if not r.candidate_servers:
            out.append(Violation("NO_CANDIDATE_SERVER", (r.id,)))
        for s in r.candidate_servers:
            if s not in net.servers:
                out.append(Violation("UNKNOWN_SERVER", (r.id, s)))
        if r.traffic < 0:
            out.append(Violation("NEGATIVE_ENTRY", ("traffic", r.id)))
        if r.delay_budget < 0:
            out.append(Violation("NEGATIVE_ENTRY", ("delay_budget", r.id)))
        if r.status not in (STATUS_EXISTING, STATUS_NEW):
            out.append(Violation("BAD_STATUS", (r.id, r.status)))
        if r.status == STATUS_NEW and r.current_route:
            out.append(Violation("NEW_REQUEST_HAS_ROUTE", (r.id,)))
        for a, b in r.current_route:
            if not net.has_node(a) or not net.has_node(b):
                out.append(Violation("UNKNOWN_NODE", (r.id, a, b)))

    placed: dict[tuple[str, int], str] = {}
    for k, i, s in sorted(instance.snapshot.deployed):
        if not instance.catalog.has(k):
            out.append(Violation("UNKNOWN_VNF_TYPE", ("snapshot", k)))
            continue
        if i not in instance.catalog.get(k).instances:
            out.append(Violation("UNKNOWN_INSTANCE", ("snapshot", k, i)))
        if s not in net.servers:
            out.append(Violation("UNKNOWN_SERVER", ("snapshot", s)))
        if (k, i) in placed:
            out.append(Violation("DUPLICATE_DEPLOYMENT", (k, i)))
        placed[(k, i)] = s

    if not (0 < instance.usage_threshold <= 1):
        out.append(
            Violation("USAGE_THRESHOLD_RANGE", (instance.usage_threshold,))
        )

    return Report(tuple(out))


def ensure_plan_matches(instance: ProblemInstance, plan: PlacementPlan) -> None:
    """Raise IndexMismatchError when the plan references anything outside the
    instance's index sets."""
    net = instance.network
    request_ids = {r.id for r in instance.requests}
    servers = set(net.servers)
    for f, s in plan.content_server:
        if f not in request_ids:
            raise IndexMismatchError(f"plan selects content server for unknown request {f!r}")
        if s not in servers:
            raise IndexMismatchError(f"plan selects unknown server {s!r}")
    # False and 0.0 equal the id 0 and would pass the membership tests
    for k, i, s in plan.deployment:
        if not instance.catalog.has(k):
            raise IndexMismatchError(f"plan deploys unknown VNF type {k!r}")
        if type(i) is not int or i not in instance.catalog.get(k).instances:
            raise IndexMismatchError(f"plan deploys unknown instance {(k, i)!r}")
        if s not in servers:
            raise IndexMismatchError(f"plan deploys on unknown server {s!r}")
    for f, s, k, i in plan.assignment:
        if f not in request_ids:
            raise IndexMismatchError(f"plan assigns VNF to unknown request {f!r}")
        if s not in servers:
            raise IndexMismatchError(f"plan assigns VNF on unknown server {s!r}")
        if (
            not instance.catalog.has(k)
            or type(i) is not int
            or i not in instance.catalog.get(k).instances
        ):
            raise IndexMismatchError(f"plan assigns unknown VNF instance {(k, i)!r}")
    for f, links in plan.routes.items():
        if f not in request_ids:
            raise IndexMismatchError(f"plan routes unknown request {f!r}")
        for a, b in links:
            if not net.has_node(a) or not net.has_node(b):
                raise IndexMismatchError(f"plan routes over unknown link {(a, b)!r}")


def normalize_route(net: Network, links: Iterable[Link]) -> frozenset[Link]:
    """Canonicalize an undirected link set: endpoints ordered by node position."""
    return frozenset(net.link(a, b) for a, b in links)


def check_feasibility(instance: ProblemInstance, plan: PlacementPlan) -> Report:
    """Evaluate each constraint family of the placement program on a plan.
    The at-least-one-deployment rule covers the types some request needs."""
    ensure_plan_matches(instance, plan)
    net = instance.network
    out: list[Violation] = []

    # (6)/(7): exactly one content server, chosen among the capable ones
    for r in instance.requests:
        chosen = plan.servers_for(r.id)
        if len(chosen) != 1:
            out.append(Violation("6", (r.id,), f"{len(chosen)} servers selected"))
        for s in chosen:
            if s not in r.candidate_servers:
                out.append(Violation("7", (r.id, s), "not a candidate server"))

    # (8): one instance of each required type per request
    for r in instance.requests:
        for k in r.chain:
            count = len(plan.assigned(r.id, k))
            if count != 1:
                out.append(Violation("8", (r.id, k), f"{count} instances assigned"))

    # (9): assigned instances must be deployed where they are used
    for f, s, k, i in sorted(plan.assignment):
        if (k, i, s) not in plan.deployment:
            out.append(Violation("9", (f, s, k, i), "assigned but not deployed"))

    # (10): at least one deployment per required type
    deployed_types = {k for k, _, _ in plan.deployment}
    for k in instance.required_types():
        if k not in deployed_types:
            out.append(Violation("10", (k,), "no instance deployed"))

    # (11): each instance lives on at most one server
    locations: dict[tuple[str, int], set[str]] = {}
    for k, i, s in plan.deployment:
        locations.setdefault((k, i), set()).add(s)
    for (k, i), servers in sorted(locations.items()):
        if len(servers) > 1:
            out.append(Violation("11", (k, i), f"on {len(servers)} servers"))

    # (12): server resources
    for s in net.servers:
        load = sum(
            instance.catalog.get(k).resource_req
            for k, _, srv in plan.deployment
            if srv == s
        )
        limit = instance.usage_limit(net.server_capacity[s])
        if load > limit:
            out.append(Violation("12", (s,), f"load {load} > {float(limit):g}"))

    # (13): VNF processing capacity
    inst_load: dict[tuple[str, int, str], int] = {}
    for f, s, k, i in plan.assignment:
        traffic = instance.request(f).traffic
        inst_load[(k, i, s)] = inst_load.get((k, i, s), 0) + traffic
    for (k, i, s), load in sorted(inst_load.items()):
        limit = instance.usage_limit(instance.catalog.get(k).capacity)
        if load > limit:
            out.append(Violation("13", (k, i, s), f"load {load} > {float(limit):g}"))

    # (14): link bandwidth, self-links exempt
    link_load: dict[Link, int] = {}
    for r in instance.requests:
        for a, b in normalize_route(net, plan.route(r.id)):
            if a == b:
                continue
            key = (a, b)
            link_load[key] = link_load.get(key, 0) + r.traffic
    for (a, b), load in sorted(link_load.items()):
        limit = instance.usage_limit(net.bandwidth_between(a, b))
        if load > limit:
            out.append(Violation("14", (a, b), f"load {load} > {float(limit):g}"))

    # (15)-(17): the chain's links must be assigned, the user link exactly
    for r in instance.requests:
        route = normalize_route(net, plan.route(r.id))
        chosen = plan.servers_for(r.id)
        first, last = r.chain[0], r.chain[-1]

        for cs in chosen:
            for s, _i in plan.assigned(r.id, first):
                if net.link(cs, s) not in route:
                    out.append(Violation("15", (r.id, cs, s), "missing chain entry link"))
        for pos in range(len(r.chain) - 1):
            for s, _i in plan.assigned(r.id, r.chain[pos]):
                for t, _j in plan.assigned(r.id, r.chain[pos + 1]):
                    if net.link(s, t) not in route:
                        out.append(
                            Violation("16", (r.id, r.chain[pos], s, t), "missing chain link")
                        )
        last_hosts = {s for s, _i in plan.assigned(r.id, last)}
        for s in net.servers:
            has_link = net.link(s, r.user) in route
            if (s in last_hosts) != has_link:
                out.append(
                    Violation(
                        "17", (r.id, s), "user link present iff last VNF hosted here"
                    )
                )

    # (18): delay budget; only checkable when the chain is fully assigned
    from .costs import service_delay  # local import to avoid a module cycle

    for r in instance.requests:
        if any(len(plan.assigned(r.id, k)) != 1 for k in r.chain):
            continue  # an (8) violation was already recorded
        delay = service_delay(instance, plan, r.id)
        if delay > r.delay_budget:
            out.append(Violation("18", (r.id,), f"{delay} > {r.delay_budget}"))

    return Report(tuple(out))


def snapshot_diff(snapshot: Snapshot, plan: PlacementPlan) -> DeploymentDelta:
    """Classify every instance as reused, migrated, instantiated or removed."""
    before: dict[tuple[str, int], str] = {}
    for k, i, s in snapshot.deployed:
        before[(k, i)] = s
    after: dict[tuple[str, int], str] = {}
    for k, i, s in plan.deployment:
        after[(k, i)] = s

    reused, migrated, instantiated, removed = [], [], [], []
    for k, i in sorted(set(before) | set(after)):
        src, dst = before.get((k, i)), after.get((k, i))
        if src is not None and dst is not None:
            if src == dst:
                reused.append((k, i, src))
            else:
                migrated.append((k, i, src, dst))
        elif dst is not None:
            instantiated.append((k, i, dst))
        else:
            removed.append((k, i, src))
    return DeploymentDelta(
        reused=tuple(reused),
        migrated=tuple(migrated),
        instantiated=tuple(instantiated),
        removed=tuple(removed),
    )
