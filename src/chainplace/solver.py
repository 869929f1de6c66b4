"""Exact solvers for the placement program.

``solve_exact`` is a depth-first branch and bound over the structural
decisions: placement per instance, then assignment per request chain slot.
A request's content server is chosen once its chain is assigned, by trying
each candidate in turn, because it changes only the request's entry link.
Routes are derived, never branched, because every route coefficient is
non-negative and the current routes only contribute a constant credit.
Each decision type needs two counts of instances (see ``_Problem``):
enough to carry the traffic of every request that uses it, and under
no_reuse, for a type that new requests use, enough fresh ones for the new
requests' traffic. Every leaf meets both counts. Each stage reads one
tail of its bound: the placement bound is the committed cost plus
``place_tail`` (which prices each request at its cheapest server->user
link), plus ``deploy_min`` while the current decision's type has no
qualifying instance deployed. At the placement leaf the servers of each
type are fixed, so the assignment bound is the committed cost plus
``_Problem.leaf_tail``: each unrouted request's cheapest route over them.
``brute_force`` is the independent oracle: it enumerates the same decision
space exhaustively and filters with the model module's constraint checker
instead of the incremental bookkeeping used here.

Both solvers break instance-permutation symmetry the same way: instances of
one type that are absent from the snapshot are activated in identifier
order. Snapshot instances are never restricted (they are distinguishable
through their migration sources), so no optimum is excluded.

The search runs on integer tables that ``_Problem`` builds once per solve,
indexed by node position in ``net.nodes`` (servers first, so a server's
position is its index in ``net.servers``): flat row-major link cost, delay
and usage-limit tables, per request the user's and the candidate servers'
positions, per chain slot the type's position and usage limit and its
processing delay by server, and per decision its type's position, its
resource need and its options with their contributions. Every per-type
fact is a list indexed by the type's position among the decision types.
The search state holds server loads and link loads in lists, chain hosts
as server positions and deployed instances as (decision, server) pairs per
type position, so no node looks a name up. A leaf offers the incumbent a
copy of that state. Equal totals are ordered by ``_Problem.leaf_key``: the
positions of the ones in the plan's canonical g, t, l, p vector, found by
arithmetic on per-problem position maps and made only when two totals tie.
Names appear once, when the search ends and the winning leaf is built into
a plan from the problem's placement entries and link-name tuples.
``brute_force`` keys its plans with the named variables and ``plan_vector``
instead, so the oracle stays independent of the position maps.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import costs as _costs
from .errors import TooLargeError, ValidationFailedError
from .ilp import enumerate_variables, plan_vector
from .model import (
    Link,
    PlacementPlan,
    ProblemInstance,
    STATUS_NEW,
    check_feasibility,
    normalize_route,
    validate_instance,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"

DEFAULT_ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class SolveOptions:
    time_limit: float = 600.0
    no_reuse: bool = False
    clamp_instantiation: bool = False  # price removals at zero instead of a
    # license refund; the evaluation harness turns this on

    def __post_init__(self):
        if not self.time_limit > 0:  # NaN compares false too
            raise ValueError("time_limit must be positive")


@dataclass
class SolveStats:
    nodes: int = 0
    incumbent_updates: int = 0
    wall_time: float = 0.0
    gap: int | None = None  # micro-money; set on time-limited runs


@dataclass(frozen=True)
class SolveResult:
    status: str
    plan: PlacementPlan | None
    breakdown: _costs.CostBreakdown | None
    stats: SolveStats


def derive_routes(
    instance: ProblemInstance,
    content_server: Mapping[str, str],
    assignment: Mapping[tuple[str, str], tuple[str, int]],
) -> dict[str, frozenset[Link]]:
    """Minimal link set forced by a content-server choice and a chain
    assignment: entry link, consecutive-host links, user link, with
    self-links standing in for co-located hops."""
    net = instance.network
    routes: dict[str, frozenset[Link]] = {}
    for f, cs in content_server.items():
        r = instance.request(f)
        hosts = [assignment[(f, k)][0] for k in r.chain]
        links = {net.link(cs, hosts[0])}
        for a, b in zip(hosts, hosts[1:]):
            links.add(net.link(a, b))
        links.add(net.link(hosts[-1], r.user))
        routes[f] = frozenset(links)
    return routes


def _instances_for(demand: int, limit: int | Fraction) -> int | float:
    """The fewest instances, at least one, whose usage limits together carry
    ``demand``; inf when the limit is 0 and the demand is not. The ceiling is
    exact for int and Fraction limits alike."""
    if not limit:
        return math.inf if demand else 1
    return max(1, -(-demand // limit))


@dataclass(frozen=True)
class _Decision:
    vnf_name: str
    type_pos: int  # the type's position among the decision types
    instance_id: int
    snap_server: str | None
    after: int | None  # the type's previous fresh decision, activated first
    resource_req: int
    # (type, id, server) per server position; the snapshot's own entry on
    # its snapshot server, so a plan that keeps the instance shares it
    placements: tuple
    # (option, exact micro-money) pairs in the order the search tries them;
    # an option is a server position, or None for not deployed
    options: tuple
    qualifies: bool  # deploying it covers its type (see _Problem.deploy_min)


class _Problem:
    """Immutable data shared by both solvers: the validated instance, the
    options, the decisions with their exact contributions, the bound tails
    the search reads, the integer tables the search runs on and the
    position maps its tie-break key reads (see ``leaf_key``). The
    instance is validated once, here, so one ``_Problem`` can feed both
    engines (``solve --oracle`` does).

    Decision types (the catalog types some chain uses) are numbered in
    catalog order, and every per-type table is a list by that position.
    ``need[k]`` is the fewest instances, at least one, whose usage limit
    carries the traffic of every request that uses type ``k``.
    ``need_qualified[k]`` is the same count for the new requests' traffic
    when the type is fresh-only (no_reuse, and some new request uses it),
    else 1. A count is inf when the limit is 0 and the traffic is not.

    ``place_tail[di]`` is the least cost still to come once decisions
    before ``di`` are made, with every request priced at its cheapest
    server->user link; ``deploy_min[di]`` is what the placement bound adds
    while di's type has no qualifying instance deployed. The assignment
    stage reads ``leaf_tail`` instead, built from the servers the placement
    leaf deploys.

    The tables number nodes by their position in ``net.nodes``. Servers come
    first, so a server's number is its index in ``net.servers``. Link tables
    are flat and row-major: entry ``a * n_nodes + b`` is the link between
    nodes ``a`` and ``b``."""

    def __init__(self, instance: ProblemInstance, options: SolveOptions):
        report = validate_instance(instance)
        if not report.ok:
            raise ValidationFailedError(report)
        self.instance = instance
        self.options = options
        net = instance.network
        self.net = net
        self.servers = net.servers
        self.requests = instance.requests
        limit = instance.usage_limit

        nodes = net.nodes
        n = self.n_nodes = len(nodes)
        self.server_cap = [limit(net.server_capacity[s]) for s in net.servers]
        self.link_cost = [c for row in net.link_cost for c in row]
        self.link_delay = [d for row in net.link_delay for d in row]
        # a self-link stands for a co-located hop: it costs nothing, adds no
        # delay and never fills; the bandwidth matrix is symmetric
        self.link_cap = [math.inf] * (n * n)
        for a, b in itertools.combinations(range(n), 2):
            self.link_cap[a * n + b] = self.link_cap[b * n + a] = limit(net.bandwidth[a][b])
        # canon[a * n + b]: the entry of the link's canonical orientation
        # (a <= b), which keys link loads and routes; link_names holds its
        # endpoint names, one tuple per link shared by every plan built here
        self.canon = [min(a, b) * n + max(a, b) for a in range(n) for b in range(n)]
        self.link_names = [(nodes[c // n], nodes[c % n]) for c in self.canon]

        snapshot_entries = {e: e for e in instance.snapshot.deployed}

        # snapshot entries of unneeded types are outside the decision space,
        # but they still occupy server capacity
        self.frozen = instance.frozen_deployments()
        self.base_load = [0] * len(net.servers)
        for k, _i, s in self.frozen:
            self.base_load[net.position(s)] += instance.catalog.get(k).resource_req

        self.decisions: list[_Decision] = []
        # once the last instance of a type is decided, the deployed instances
        # must already meet the type's counts; type_end maps the index after
        # it to the type's position, so checking at the boundary keeps the
        # placement stage from wading through dead subtrees
        self.type_end: dict[int, int] = {}
        self.need: list[int | float] = []
        self.need_qualified: list[int | float] = []
        slot = {}  # type name -> (type position, usage limit)
        positions = range(len(net.servers))
        for vnf in instance.catalog.types:
            users = [r for r in self.requests if vnf.name in r.chain]
            if not users:
                continue
            new_users = [r for r in users if r.status == STATUS_NEW]
            fresh_only = options.no_reuse and bool(new_users)
            k = len(self.need)
            cap = limit(vnf.capacity)
            slot[vnf.name] = (k, cap)
            self.need.append(_instances_for(sum(r.traffic for r in users), cap))
            self.need_qualified.append(
                _instances_for(sum(r.traffic for r in new_users), cap) if fresh_only else 1
            )
            hosting = [vnf.resource_req * net.server_unit_cost[s] for s in net.servers]
            last_fresh = None
            for i in vnf.instances:
                snap_server = instance.snapshot.server_of(vnf.name, i)
                previous = None
                placements = [(vnf.name, i, s) for s in net.servers]
                if snap_server is None:
                    previous, last_fresh = last_fresh, len(self.decisions)
                    choices = ((None, 0),) + tuple(
                        (s, hosting[s] + vnf.license_cost) for s in positions
                    )
                else:
                    keep = net.position(snap_server)
                    placements[keep] = snapshot_entries[placements[keep]]
                    back = hosting[keep]
                    if not options.clamp_instantiation:
                        back += vnf.license_cost
                    moves = [
                        (s, hosting[s] - hosting[keep] + vnf.migration(snap_server, server))
                        for s, server in enumerate(net.servers)
                    ]
                    choices = (moves[keep], (None, -back)) + tuple(
                        m for m in moves if m[0] != keep
                    )
                self.decisions.append(
                    _Decision(
                        vnf_name=vnf.name,
                        type_pos=k,
                        instance_id=i,
                        snap_server=snap_server,
                        after=previous,
                        resource_req=vnf.resource_req,
                        placements=tuple(placements),
                        options=choices,
                        qualifies=snap_server is None or not fresh_only,
                    )
                )
            self.type_end[len(self.decisions)] = k

        # per request, by request index: the cost of its current links,
        # which its new route replaces
        self.credit = []
        for r in self.requests:
            links = normalize_route(net, r.current_route)
            self.credit.append(r.traffic * sum(net.cost_between(a, b) for a, b in links))

        # Admissible tails of the placement stage (leaf_tail serves the
        # assignment stage). routes: each request gets the credit for its
        # current links back and pays at least traffic x its cheapest
        # server->user link. Every route loads its last-host->user link: the
        # user is a declared user node and node names are unique, so that
        # link is never a self-link, and the route's other links cost
        # nothing negative.
        # place_tail[di]: each undecided instance takes its cheapest option,
        # each later type adds deploy_min at its first decision, and every
        # request is still to route; inf passes through.
        # deploy_min[di]: the least extra over the cheapest option among the
        # qualifying decisions from di to the end of di's type, inf when
        # there are none. Every leaf deploys a qualifying instance of each
        # decision type: _type_demand_covered asks for need_qualified of
        # them, at least one. A type's term reads only its own undecided
        # instances, which place_tail counts at their cheapest option, and
        # adds one extra per type, so nothing is counted twice. So the bound
        # never exceeds the total of a leaf below it, and pruning only when
        # it is strictly above the incumbent still visits every leaf that
        # could improve or tie: a search that finishes returns the optimum,
        # the tie-break plan and the incumbent updates of a search without
        # the deployment and routing terms (leaf_tail's too), in no more nodes.
        routes = sum(
            r.traffic * min(net.cost_between(s, r.user) for s in net.servers) - credit
            for r, credit in zip(self.requests, self.credit)
        )
        count = len(self.decisions)
        self.deploy_min = [math.inf] * count
        self.place_tail = [routes] * (count + 1)
        least = math.inf
        for di in range(count - 1, -1, -1):
            d = self.decisions[di]
            tail = self.place_tail[di + 1]
            if di + 1 in self.type_end:  # di is the last of its type
                if di + 1 < count:
                    tail += self.deploy_min[di + 1]
                least = math.inf
            cheapest = min(c for _t, c in d.options)
            self.place_tail[di] = tail + cheapest
            if d.qualifies:
                extra = min(c for t, c in d.options if t is not None) - cheapest
                least = min(least, extra)
            self.deploy_min[di] = least

        # per request, by request index: the user's position, the candidate
        # content servers' positions, and per chain slot the type's
        # (position, usage limit) and its processing delay by server position
        self.user_at = [net.position(r.user) for r in self.requests]
        self.candidates = [
            tuple(s for s in positions if net.servers[s] in r.candidate_servers)
            for r in self.requests
        ]
        self.slots = [tuple(slot[k] for k in r.chain) for r in self.requests]
        self.proc_delay = [
            tuple(
                tuple(instance.catalog.get(k).processing_delay[s] for s in net.servers)
                for k in r.chain
            )
            for r in self.requests
        ]
        # new requests under no_reuse may not use snapshot instances
        self.skips_snapshot = [
            options.no_reuse and r.status == STATUS_NEW for r in self.requests
        ]
        # position maps of the decision variables g, t, l, p in the compiled
        # program's order (``ilp._enumerate``), which leaf_key reads. With
        # S servers, request ri's content server s is at ri * S + s, and
        # decision di on server s at t_at + di * S + s. A request's l block
        # runs per server over its chain slots' instances: chain slot pos on
        # server s by decision di is at l_slot[ri][pos] + s * l_width[ri] + di.
        # Its p block lists node pairs in combinations order, then the
        # servers' self-links: canonical link entry c is at p_at[ri] + p_off[c]
        n_servers = len(net.servers)
        self.t_at = len(self.requests) * n_servers
        size = [0] * len(self.need)  # instances per type position
        for d in self.decisions:
            size[d.type_pos] += 1
        first = list(itertools.accumulate(size, initial=0))  # decisions run by type
        at = self.t_at + len(self.decisions) * n_servers
        self.l_slot, self.l_width = [], []
        for slots in self.slots:
            offsets, width = [], 0
            for k, _limit in slots:
                offsets.append(at + width - first[k])
                width += size[k]
            self.l_slot.append(tuple(offsets))
            self.l_width.append(width)
            at += n_servers * width
        pairs = list(itertools.combinations(range(n), 2))
        pairs += [(s, s) for s in positions]
        self.p_off = [0] * (n * n)
        for off, (a, b) in enumerate(pairs):
            self.p_off[a * n + b] = off
        self.p_at = [at + ri * len(pairs) for ri in range(len(self.requests))]
        # leaf_tail's memo, the only state that changes after construction:
        # cheapest route per traffic unit by (user, candidates, slot masks)
        self._route_min: dict[tuple, int | float] = {}

    def leaf_tail(self, masks: tuple) -> list:
        """The assignment stage's tail once the placement is fixed: entry
        ``ri`` is the least cost still to come once requests before ``ri``
        are routed. ``masks[k]`` holds two server bitmasks for type position
        ``k``: the servers deploying it, and those deploying a qualifying
        instance of it. Each request pays traffic x its cheapest route,
        minus its credit. The route's content server is a candidate and its
        hosts deploy its slots' types; a request that skips snapshot
        instances reads the qualifying masks, since every type it uses is
        fresh-only. Capacities and delay are ignored. A route is a set of
        links, so a link used twice is priced once, as the objective prices
        it, and a self-link costs nothing: no leaf below pays less."""
        n, canon, cost = self.n_nodes, self.canon, self.link_cost
        tail = [0] * (len(self.requests) + 1)
        for ri in range(len(self.requests) - 1, -1, -1):
            fresh = self.skips_snapshot[ri]
            slot_masks = tuple(masks[k][fresh] for k, _limit in self.slots[ri])
            key = (self.user_at[ri], self.candidates[ri], slot_masks)
            route = self._route_min.get(key)
            if route is None:
                route = math.inf
                pools = [[s for s in range(len(self.servers)) if m >> s & 1] for m in slot_masks]
                for hosts in itertools.product(*pools):
                    links = {canon[a * n + b] for a, b in zip(hosts, hosts[1:])}
                    links.add(canon[hosts[-1] * n + self.user_at[ri]])
                    entries = (canon[cs * n + hosts[0]] for cs in self.candidates[ri])
                    entry = min(0 if e in links else cost[e] for e in entries)
                    route = min(route, entry + sum(cost[c] for c in links))
                self._route_min[key] = route
            tail[ri] = tail[ri + 1] + self.requests[ri].traffic * route - self.credit[ri]
        return tail

    def leaf_key(self, leaf: tuple) -> tuple:
        """The tie-break key of a search leaf, the (target, gamma, hosts,
        picks, routes) state that ``_Search._offer_leaf`` copies: the
        positions of the ones in its plan's canonical g, t, l, p vector,
        ascending and negated. Two leaves' keys compare as the vectors of
        their plans do, equality included: at the first position where the
        vectors differ, the plan with the 0 there has its next one later, so
        its key holds a smaller number there or ends first."""
        target, gamma, hosts, picks, routes = leaf
        n_servers, t_at, p_off = len(self.servers), self.t_at, self.p_off
        ones = [ri * n_servers + cs for ri, cs in enumerate(gamma)]
        ones += [t_at + di * n_servers + s for di, s in enumerate(target) if s is not None]
        for ri, (chain_links, entry) in enumerate(routes):
            l_slot, width = self.l_slot[ri], self.l_width[ri]
            ones += [at + s * width + di for at, s, di in zip(l_slot, hosts[ri], picks[ri])]
            p_at = self.p_at[ri]
            ones += [p_at + p_off[c] for c in chain_links | {entry}]
        ones.sort()
        return tuple(-i for i in ones)

    def leaf_plan(self, leaf: tuple) -> PlacementPlan:
        """The named plan of a search leaf, made of the problem's shared
        placement entries and link-name tuples."""
        target, gamma, hosts, picks, routes = leaf
        servers, decisions, names = self.servers, self.decisions, self.link_names
        assignment = []
        plan_routes = {}
        for ri, r in enumerate(self.requests):
            for s, di in zip(hosts[ri], picks[ri]):
                d = decisions[di]
                assignment.append((r.id, servers[s], d.vnf_name, d.instance_id))
            chain_links, entry = routes[ri]
            route = frozenset([names[c] for c in chain_links] + [names[entry]])
            # an unchanged route shares the request's set
            plan_routes[r.id] = r.current_route if route == r.current_route else route
        return PlacementPlan(
            content_server=frozenset(
                (r.id, servers[cs]) for r, cs in zip(self.requests, gamma)
            ),
            deployment={
                d.placements[s] for d, s in zip(decisions, target) if s is not None
            } | set(self.frozen),
            assignment=frozenset(assignment),
            routes=plan_routes,
        )


class _Incumbent:
    """The best leaf offered so far, by total and then by the tie-break
    key: the canonical g, t, l, p vector of its plan. The payload is what
    the engine offers (``brute_force`` a plan, the search a snapshot of its
    state) and ``key_of`` makes its key. A key is made only when two totals
    tie, and at most once per payload."""

    def __init__(self):
        self.total: int | None = None
        self.payload = None
        self.key: tuple | None = None  # the payload's key, once a tie asked for it
        self.key_of = None
        self.updates = 0

    def offer(self, total: int, payload, key_of) -> None:
        key = None
        if self.total is not None:
            if total > self.total:
                return
            if total == self.total:
                if self.key is None:
                    self.key = self.key_of(self.payload)
                key = key_of(payload)
                if not key < self.key:
                    return
        self.total, self.payload, self.key, self.key_of = total, payload, key, key_of
        self.updates += 1


class _Search:
    """The depth-first exploration of the search tree. State is mutated in
    place along the path and restored on backtrack. It holds positions and
    indices only: servers and links by their ``_Problem`` table position,
    instances by decision index. Names appear only in the plan that
    ``_solve_exact`` builds from the winning leaf."""

    def __init__(self, problem: _Problem, incumbent: _Incumbent, deadline: float):
        self.p = problem
        self.incumbent = incumbent
        self.deadline = deadline
        self.aborted = False
        self.abort_lb = math.inf
        self.nodes = 0

        # per decision: its server, None while not deployed
        self.target: list[int | None] = [None] * len(problem.decisions)
        # per type position: (decision, server) of each deployed instance,
        # in decision order
        self.deployed: list[list[tuple[int, int]]] = [[] for _k in problem.need]
        self.server_load = list(problem.base_load)
        # qualifying instances deployed, per type position (see
        # _Problem.deploy_min)
        self.qualified = [0] * len(problem.need)
        # per request: content server, then per chain slot its host and
        # decision, and the (chain links, entry link) of its route
        self.gamma: list[int | None] = [None] * len(problem.requests)
        self.hosts = [[0] * len(r.chain) for r in problem.requests]
        self.picks = [[0] * len(r.chain) for r in problem.requests]
        self.routes: list[tuple | None] = [None] * len(problem.requests)
        self.inst_load = [0] * len(problem.decisions)
        self.link_load = [0] * len(problem.link_cap)
        self.committed = 0
        self.route_tail: list = []  # the leaf tail, set at each placement leaf

    def _expired(self) -> bool:
        if self.aborted:
            return True
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            self.aborted = True
        return self.aborted

    def _type_demand_covered(self, k: int) -> bool:
        p = self.p
        return len(self.deployed[k]) >= p.need[k] and self.qualified[k] >= p.need_qualified[k]

    # stage (a): instance placements
    def _branch_tau(self, di: int) -> None:
        p = self.p
        ended = p.type_end.get(di)
        if ended is not None and not self._type_demand_covered(ended):
            return
        bound = self.committed + p.place_tail[di]
        if di < len(p.decisions) and not self.qualified[p.decisions[di].type_pos]:
            bound += p.deploy_min[di]
        if bound == math.inf:
            return  # a type can no longer deploy a qualifying instance
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        inc = self.incumbent.total
        if inc is not None and bound > inc:
            return
        if di == len(p.decisions):
            # every type passed _type_demand_covered at its type_end; the
            # placement is fixed, so the assignment stage prices routes over
            # the servers it deploys
            self.route_tail = p.leaf_tail(self._host_masks())
            self._branch_lambda(0, 0)
            return

        d = p.decisions[di]
        # fresh instances activate in identifier order
        fresh_blocked = d.after is not None and self.target[d.after] is None
        for target, delta in d.options:
            if target is not None and (
                fresh_blocked
                or self.server_load[target] + d.resource_req > p.server_cap[target]
            ):
                continue
            self._commit_tau(di, target, delta)
            self._branch_tau(di + 1)
            self._undo_tau(di, target, delta)

    def _host_masks(self) -> tuple:
        """Per type position, the bitmasks of the servers deploying it and
        of those deploying a qualifying instance of it, as
        ``_Problem.leaf_tail`` reads them."""
        decisions = self.p.decisions
        masks = []
        for placed in self.deployed:
            every = qualified = 0
            for di, s in placed:
                every |= 1 << s
                if decisions[di].qualifies:
                    qualified |= 1 << s
            masks.append((every, qualified))
        return tuple(masks)

    def _commit_tau(self, di: int, target: int | None, delta: int) -> None:
        self.committed += delta
        if target is not None:
            d = self.p.decisions[di]
            self.target[di] = target
            self.deployed[d.type_pos].append((di, target))
            self.server_load[target] += d.resource_req
            if d.qualifies:
                self.qualified[d.type_pos] += 1

    def _undo_tau(self, di: int, target: int | None, delta: int) -> None:
        self.committed -= delta
        if target is not None:
            d = self.p.decisions[di]
            self.target[di] = None
            self.deployed[d.type_pos].pop()
            self.server_load[target] -= d.resource_req
            if d.qualifies:
                self.qualified[d.type_pos] -= 1

    # stage (b): chain assignments; a finished chain is routed once per
    # content-server candidate
    def _branch_lambda(self, ri: int, pos: int) -> None:
        p = self.p
        bound = self.committed + self.route_tail[ri]
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        inc = self.incumbent.total
        if inc is not None and bound > inc:
            return
        if ri == len(p.requests):
            self._offer_leaf()
            return
        slots = p.slots[ri]
        if pos == len(slots):
            self._route_and_descend(ri)
            return
        traffic = p.requests[ri].traffic
        k, limit = slots[pos]
        skips_snapshot = p.skips_snapshot[ri]
        hosts, picks, inst_load = self.hosts[ri], self.picks[ri], self.inst_load
        for di, s in self.deployed[k]:
            if skips_snapshot and p.decisions[di].snap_server is not None:
                continue
            load = inst_load[di] + traffic
            if load > limit:
                continue
            hosts[pos], picks[pos] = s, di
            inst_load[di] = load
            self._branch_lambda(ri, pos + 1)
            inst_load[di] = load - traffic

    def _route_and_descend(self, ri: int) -> None:
        p = self.p
        r = p.requests[ri]
        traffic = r.traffic
        n, canon = p.n_nodes, p.canon
        link_cap, link_load = p.link_cap, self.link_load
        hosts = self.hosts[ri]
        chain_links = {canon[a * n + b] for a, b in zip(hosts, hosts[1:])}
        chain_links.add(canon[hosts[-1] * n + p.user_at[ri]])

        # delay and cost per traffic unit until the chain part is checked
        delay = 0
        route_cost = 0
        for link in chain_links:
            if link_load[link] + traffic > link_cap[link]:
                return
            delay += p.link_delay[link]
            route_cost += p.link_cost[link]
        for proc, s in zip(p.proc_delay[ri], hosts):
            delay += proc[s]
        delay *= traffic
        route_cost *= traffic
        if delay > r.delay_budget:
            return  # an entry link only adds delay

        for link in chain_links:
            link_load[link] += traffic
        # the content server changes only the entry link, so the chain part
        # is checked and loaded once for all candidates
        for cs in p.candidates[ri]:
            entry = canon[cs * n + hosts[0]]
            extra = entry not in chain_links
            entry_cost = 0
            if extra:
                if link_load[entry] + traffic > link_cap[entry]:
                    continue
                if delay + traffic * p.link_delay[entry] > r.delay_budget:
                    continue
                entry_cost = traffic * p.link_cost[entry]
                link_load[entry] += traffic
            self.gamma[ri] = cs
            self.routes[ri] = (chain_links, entry)
            delta = route_cost + entry_cost - p.credit[ri]
            self.committed += delta

            self._branch_lambda(ri + 1, 0)

            self.committed -= delta
            if extra:
                link_load[entry] -= traffic
        for link in chain_links:
            link_load[link] -= traffic

    def _offer_leaf(self) -> None:
        # the leaf's bound is its total, so it is never worse than the
        # incumbent; the offer keeps a copy of the state that makes the plan
        leaf = (
            list(self.target),
            list(self.gamma),
            [list(h) for h in self.hosts],
            [list(p) for p in self.picks],
            list(self.routes),  # route tuples are never changed once made
        )
        self.incumbent.offer(self.committed, leaf, self.p.leaf_key)


def solve_exact(instance: ProblemInstance, options: SolveOptions | None = None) -> SolveResult:
    """Provably optimal plan, or infeasible, or the best incumbent when the
    time limit strikes. Equal-cost optima resolve to the lexicographically
    smallest canonical variable vector, so results are unique and
    repeatable. The bound at each node adds the exact committed cost, the
    cheapest contribution of each undecided instance, for each type with no
    qualifying instance deployed yet the least extra cost of deploying one,
    the credit of the current routes not yet replaced and, for each request
    not yet routed, its cheapest user link while placing and its cheapest
    route over the deployed servers once placed; on a time-limited run the
    least bound left unexplored gives ``stats.gap``."""
    return _solve_exact(_Problem(instance, options or SolveOptions()))


def _solve_exact(problem: _Problem) -> SolveResult:
    instance, options = problem.instance, problem.options
    if any(load > cap for load, cap in zip(problem.base_load, problem.server_cap)):
        # the untouched instances alone overfill a server
        return SolveResult(STATUS_INFEASIBLE, None, None, SolveStats())
    incumbent = _Incumbent()
    start = time.monotonic()
    search = _Search(problem, incumbent, start + options.time_limit)
    search._branch_tau(0)

    stats = SolveStats(
        nodes=search.nodes,
        incumbent_updates=incumbent.updates,
        wall_time=time.monotonic() - start,
    )
    if incumbent.payload is None:
        if search.aborted:
            return SolveResult(STATUS_TIME_LIMIT, None, None, stats)
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)

    plan = problem.leaf_plan(incumbent.payload)
    breakdown = _costs.total_objective(
        instance, plan, clamp_instantiation=options.clamp_instantiation
    )
    if search.aborted:
        lb = min(search.abort_lb, incumbent.total)
        stats.gap = incumbent.total - lb if lb != math.inf else None
        return SolveResult(STATUS_TIME_LIMIT, plan, breakdown, stats)
    return SolveResult(STATUS_OPTIMAL, plan, breakdown, stats)


def brute_force(instance: ProblemInstance, options: SolveOptions | None = None) -> SolveResult:
    """Exhaustive oracle: enumerate every content-server, placement and
    assignment combination, derive routes, keep what ``check_feasibility``
    accepts and minimize ``total_objective`` under the same tie-break as
    ``solve_exact``.

    Assignments are enumerated over deployed instances only; anything else
    would fail the deployment constraint the checker applies anyway. A
    decision space above ``DEFAULT_ENUMERATION_CAP`` raises ``TooLargeError``.
    """
    return _brute_force(_Problem(instance, options or SolveOptions()))


def _brute_force(p: _Problem) -> SolveResult:
    instance, options = p.instance, p.options
    snapshot = instance.snapshot
    gamma_domains = [tuple(p.servers[s] for s in cands) for cands in p.candidates]
    size = math.prod(max(1, len(domain)) for domain in gamma_domains)
    size *= (1 + len(p.servers)) ** len(p.decisions)
    size *= math.prod(
        max(1, len(instance.catalog.get(k).instances)) for r in p.requests for k in r.chain
    )
    if size > DEFAULT_ENUMERATION_CAP:
        raise TooLargeError(
            f"decision space {size} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )

    decision_vars = tuple(v for v in enumerate_variables(instance) if v.family in "gtlp")

    def key_of(plan: PlacementPlan) -> tuple[int, ...]:
        return plan_vector(instance, plan, decision_vars)

    start = time.monotonic()
    incumbent = _Incumbent()
    nodes = 0

    targets = (None,) + tuple(p.servers)
    for gamma in itertools.product(*gamma_domains) if p.requests else [()]:
        content = {r.id: s for r, s in zip(p.requests, gamma)}
        for choice in itertools.product(targets, repeat=len(p.decisions)):
            # fresh instances activate in identifier order
            if any(
                s is not None and d.after is not None and choice[d.after] is None
                for d, s in zip(p.decisions, choice)
            ):
                continue
            tau = {
                (d.vnf_name, d.instance_id): s
                for d, s in zip(p.decisions, choice)
                if s is not None
            }
            deployed: dict[str, list[tuple[int, str]]] = {}
            for (k, i), s in sorted(tau.items()):
                deployed.setdefault(k, []).append((i, s))
            # a type with no instance to assign leaves an empty domain
            lam_domains = []
            for r in p.requests:
                for k in r.chain:
                    pool = deployed.get(k, [])
                    if options.no_reuse and r.status == STATUS_NEW:
                        pool = [(i, s) for i, s in pool if snapshot.server_of(k, i) is None]
                    lam_domains.append(((r.id, k), pool))
            for picks in itertools.product(*(dom for _key, dom in lam_domains)):
                nodes += 1
                assignment = {
                    key: (s, i)
                    for (key, _dom), (i, s) in zip(lam_domains, picks)
                }
                routes = derive_routes(instance, content, assignment)
                plan = PlacementPlan(
                    content_server=frozenset(content.items()),
                    deployment=frozenset(
                        {(k, i, s) for (k, i), s in tau.items()} | set(p.frozen)
                    ),
                    assignment=frozenset(
                        (f, s, k, i) for (f, k), (s, i) in assignment.items()
                    ),
                    routes=routes,
                )
                if not check_feasibility(instance, plan).feasible:
                    continue
                total = _costs.total_objective(
                    instance, plan, clamp_instantiation=options.clamp_instantiation
                ).total
                incumbent.offer(total, plan, key_of)

    wall = time.monotonic() - start
    stats = SolveStats(nodes=nodes, incumbent_updates=incumbent.updates, wall_time=wall)
    if incumbent.payload is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)
    breakdown = _costs.total_objective(
        instance, incumbent.payload, clamp_instantiation=options.clamp_instantiation
    )
    return SolveResult(STATUS_OPTIMAL, incumbent.payload, breakdown, stats)
