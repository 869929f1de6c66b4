"""Exact solvers for the placement program.

``solve_exact`` is a depth-first branch and bound over the structural
decisions: placement per instance, then one route per request. Once every
instance is placed, a request's route is one of its columns (see
``_Problem.columns``): a candidate content server and a deployed instance
per chain slot. A column's links are derived, never branched, because
every route coefficient is non-negative and the current routes only
contribute a constant credit.
Each decision type needs two counts of instances (see ``_Problem``):
enough to carry the traffic of every request that uses it, and under
no_reuse, for a type that new requests use, enough fresh ones for the new
requests' traffic. Every leaf meets both counts. An instance that counts
toward the second is a qualifying one, and the no_reuse rule reads only
that flag: a new request under no_reuse uses fresh-only types alone, so it
is assigned, and priced, over qualifying instances. Routes are priced by
one method, ``_Problem.reprice``, over the decided types: a type is
decided, and its servers are final, once its last instance is. The
placement bound is the committed cost plus ``place_tail`` (the undecided
instances and the later types' demands), plus the demand of the current
decision's type (``_Problem.demand``): the least extra its remaining
decisions must pay to meet both counts, 0 at the type's end exactly when
they are met and inf when they cannot be, plus the route floor over the
types decided so far. A placement node's parent
computes that bound, once per option, before it commits and descends, so
a child over the incumbent costs no call; where the option decides a type,
the parent checks the bound on the floor it has before it prices the
longer prefix, since deciding a type never lowers the floor. The search
carries the floor as one number beside its per-request terms, and at a
type end reprices in place only the requests whose chains use the type,
one at a time, reading the cheapest route of each from a memo by the
request and its slots' server masks. No term falls, so it stops at the
first one that prunes the node, as pricing them all would. At the
placement leaf every type is decided, so the assignment bound is the
committed cost plus the floor's tail, the suffix sums of its terms: each
unrouted request's cheapest route over the deployed servers. An
assignment node's parent bounds it too, once per column, so the search's
node count holds only nodes visited with an open bound.
``brute_force`` is the independent oracle: it enumerates the same decision
space exhaustively and filters with the model module's constraint checker
instead of the incremental bookkeeping used here. Both take the
``SolveOptions`` that ``ilp.build_ilp`` takes.

Both solvers break instance-permutation symmetry the same way: instances of
one type that are absent from the snapshot are activated in identifier
order. Snapshot instances are never restricted (they are distinguishable
through their migration sources), so no optimum is excluded. Once a fresh
instance is left out, the type's later fresh ones can only be left out
too, so the search does not visit them: it jumps to the type's next
snapshot decision or to the type's end (``_Problem.skip``).

The search runs on integer tables that ``_Problem`` builds once per solve,
indexed by node position in the network's node list (servers first, so a
server's position is its index in its server list): flat row-major link
cost, delay and usage-limit tables; per request the user's and the
candidate servers' positions and its chain as type positions; per type
position the usage limit and the processing delay by server; and per
decision its type's position, its resource need and its options with their
contributions. The search state holds each decision once: per decision its
server, per type position the indices of the deployed decisions, per
request its column, and server loads and the room left on each instance
and link in lists, so no node looks a name up. A leaf offers the incumbent
a copy of that state. Equal totals are ordered by
``_Problem.leaf_key``, the search's one key function, which ``_Incumbent``
is given once: the positions of the ones in the plan's canonical g, t, l, p
vector, read from the block bases ``ilp.layout`` gives once per solve, and
made only when two totals tie. Names appear once, when the search ends and
``_Problem.leaf_plan`` builds the winning leaf into a plan.
``brute_force`` keys its plans with the named variables and ``plan_vector``
instead, so the oracle does not read the bases the search reads.

The incumbent starts warm: before the search runs, a dive through the same
code (``_Dive``) tries each decision's options cheapest first and offers its
first leaf, giving up after a node budget. The search's pruning stays
strict and ties still go through the key, so the warm incumbent only
removes nodes: the search visits a subset of the nodes it visits from an
empty incumbent, and returns the same optimum and the same plan.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Mapping

from . import costs as _costs
from .errors import TooLargeError, ValidationFailedError
from .ilp import enumerate_variables, layout, plan_vector
from .model import (
    Link,
    PlacementPlan,
    ProblemInstance,
    STATUS_NEW,
    SolveOptions,
    check_feasibility,
    normalize_route,
    validate_instance,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"

DEFAULT_ENUMERATION_CAP = 10_000_000


@dataclass
class SolveStats:
    """``nodes`` counts the search's nodes, each visited with an open bound
    (see ``_Search``), and ``dive_nodes`` the warm-start dive's before it
    (see ``_Dive``). ``incumbent_updates`` counts the offers the incumbent
    accepted from both."""

    nodes: int = 0
    dive_nodes: int = 0
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


def _instances_for(demand: int, limit: int) -> int | float:
    """The fewest instances, at least one, whose usage limits together carry
    ``demand``; inf when the limit is 0 and the demand is not."""
    if not limit:
        return math.inf if demand else 1
    return max(1, -(-demand // limit))


def _demand_rows(extras: list, need: int | float) -> list[list]:
    """Per position from a type's first decision to its end, by how many of
    its instances are deployed (none to all): the sum of the fewest
    cheapest ``extras`` from the position on that lift the count to
    ``need``, inf when too few remain, 0 (not summed) from ``need`` on."""
    short = min(need, len(extras) + 1)
    rows = []
    for j in range(len(extras) + 1):
        rest = sorted(extras[j:])
        row = [sum(rest[: need - c]) if need - c <= len(rest) else math.inf for c in range(short)]
        rows.append(row + [0] * (len(extras) + 1 - short))
    return rows


@dataclass(frozen=True)
class _Decision:
    vnf_name: str
    type_pos: int  # the type's position among the decision types
    instance_id: int
    after: int | None  # the type's previous fresh decision, activated first
    resource_req: int
    # (option, exact micro-money) pairs in the order the search tries them
    # (the dive sorts them, see _Dive); an option is a server position, or
    # None for not deployed
    options: tuple
    # deploying it counts toward its type's need_qualified (see _Problem);
    # a request that skips snapshot instances may use only qualifying ones
    qualifies: bool


def _route_shape(slots: tuple, decided: int) -> tuple:
    """What ``_Problem._cheapest_route`` reads of a chain of type positions
    ``slots`` when the types below ``decided`` are decided: the decided
    slots' positions, the positions in their host tuple of consecutive
    decided slots, and whether the first and the last slot are decided."""
    spots = [pos for pos, k in enumerate(slots) if k < decided]
    hops = [(i, i + 1) for i in range(len(spots) - 1) if spots[i + 1] == spots[i] + 1]
    return spots, hops, slots[0] < decided, slots[-1] < decided


class _MaskServers(dict):
    """Server positions by bitmask, each tuple made on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        servers = self[mask] = tuple(s for s in range(mask.bit_length()) if mask >> s & 1)
        return servers


class _Problem:
    """Immutable data shared by both solvers: the validated instance, the
    options, the decisions with their exact contributions, the bound tails
    the search reads, the integer tables the search runs on and the
    variable positions its tie-break key reads (see ``leaf_key``). Each
    ``_Problem`` asks for the instance's report, which the instance makes
    on the first request and keeps (see ``ProblemInstance``), so an
    instance is validated once however many ``_Problem``s it feeds: the
    online and no_reuse cases of ``run_comparison``, and the search and the
    oracle of ``solve --oracle``, each build their own.

    Decision types (``ProblemInstance.required_types``: the catalog types
    some chain uses) are numbered in catalog order, and every per-type fact
    is a list by that position, kept once: ``slots[ri]`` names request ``ri``'s chain
    by these positions. Usage limits are floored to ints (inf for a
    self-link): loads are sums of ints, so a load fits under a limit exactly
    when it fits under its floor; the model, ILP and checker keep the exact
    ones. ``type_cap[k]`` is type ``k``'s limit per instance and
    ``type_delay[k]`` its processing delay by server position.
    ``need[k]`` is the fewest instances, at least one, whose usage limits
    carry the traffic of every request that uses type ``k``.
    ``need_qualified[k]`` is the same count for the new requests' traffic
    when the type is fresh-only (no_reuse, and some new request uses it),
    else 1. A count is inf when the limit is 0 and the traffic is not.

    ``place_tail[di]`` is the least placement cost still to come once
    decisions before ``di`` are made, with an entry past the last decision,
    0, which is the bound of the assignment stage's root. ``demand[j]``, for
    each position ``j`` after a type's first decision up to the type's end,
    is the pair of lists the placement bound reads there for the type's
    counts (see ``__init__``). ``skip[di]`` is where the search
    goes from ``di`` when the next decision is a fresh instance that can no
    longer activate: the type's next snapshot decision, or its end.
    Routes are priced apart, one request's term at a time, by ``reprice``
    over per-type server masks of the types whose last instance is
    decided: ``root_terms`` before any is, and then, as each type is
    decided, only the requests in ``repriced[k]`` priced again. The
    placement stage reads the terms' sum, the floor, and the assignment
    stage their suffix sums, where each request takes one of its
    ``columns``. The cheapest-route memo of ``reprice`` and
    the columns' memo are attributes of the ``_Problem`` and go with it.

    The tables number nodes by their position in the network's node list.
    Servers come first, so a server's number is its index in ``servers``.
    Link tables are flat and row-major: entry ``a * n_nodes + b`` is the
    link between nodes ``a`` and ``b``.

    ``leaf_key`` reads its positions from ``ilp.layout``: request ``ri``'s
    content server ``s`` is at ``g_at[ri] + s``, decision ``di`` on server
    ``s`` at ``t_at[di] + s`` and, in chain slot ``pos``, at
    ``l_at[ri][pos][s] + di``, and link entry ``c`` at ``p_at[ri] + p_off[c]``."""

    def __init__(self, instance: ProblemInstance, options: SolveOptions):
        report = validate_instance(instance)
        if not report.ok:
            raise ValidationFailedError(report)
        self.instance = instance
        self.options = options
        net = instance.network
        self.servers = net.servers
        self.requests = instance.requests
        limit_of = functools.cache(lambda capacity: math.floor(instance.usage_limit(capacity)))

        n = self.n_nodes = len(net.nodes)
        self.server_cap = [limit_of(net.server_capacity[s]) for s in net.servers]
        self.link_cost = [c for row in net.link_cost for c in row]
        self.link_delay = [d for row in net.link_delay for d in row]
        # a self-link stands for a co-located hop: it costs nothing, adds no
        # delay and never fills; the bandwidth matrix is symmetric
        self.link_cap = [math.inf] * (n * n)
        for a, b in itertools.combinations(range(n), 2):
            self.link_cap[a * n + b] = self.link_cap[b * n + a] = limit_of(net.bandwidth[a][b])
        # canon[a * n + b]: the entry of the link's canonical orientation
        # (a <= b), which keys link loads and routes
        self.canon = [a * n + b if a <= b else b * n + a for a in range(n) for b in range(n)]

        # snapshot entries of unneeded types are outside the decision space,
        # but they still occupy server capacity
        self.frozen = instance.frozen_deployments()
        self.base_load = [0] * len(net.servers)
        for k, _i, s in self.frozen:
            self.base_load[net.position(s)] += instance.catalog.get(k).resource_req

        self.decisions: list[_Decision] = []
        # the index after each type's last decision, where the type is decided
        self.type_end: set[int] = set()
        # skip[di]: the type's first snapshot decision after di, or the index
        # after its last decision. Fresh instances activate in identifier
        # order, so once one is left out the type's later fresh ones are
        # forced out too, and the search jumps to skip[di]
        self.skip: list[int] = []
        self.need: list[int | float] = []
        self.need_qualified: list[int | float] = []
        self.type_cap: list[int] = []
        self.type_delay: list[tuple[int, ...]] = []
        # Admissible placement tails; reprice adds the routes. demand[j], for
        # j after a type's first decision up to its end, holds two lists by
        # how many of its instances are deployed, all and qualifying: the least
        # total extra (cheapest deploying option less cheapest option) its
        # decisions from j on add to reach need[k], and need_qualified[k].
        # Every leaf below deploys that many more, each paying its extra over
        # the cheapest option place_tail counts, so either sum, and their
        # larger, is a lower bound. place_tail[di] adds each later type's
        # demand at its first decision; inf passes through. So no bound
        # exceeds a leaf below it, and pruning only above the incumbent
        # returns the optimum, the tie-break plan and the incumbent updates
        # of a search without the demand and routing terms, in no more nodes.
        self.demand: list[tuple[list, list] | None] = [None]
        least = []  # per decision, what place_tail counts for it
        type_pos = {}  # type name -> type position
        positions = range(len(net.servers))
        for vnf in instance.required_types():
            users = [r for r in self.requests if vnf.name in r.chain]
            new_users = [r for r in users if r.status == STATUS_NEW]
            fresh_only = options.no_reuse and bool(new_users)
            k = type_pos[vnf.name] = len(self.need)
            cap = limit_of(vnf.capacity)
            self.type_cap.append(cap)
            self.type_delay.append(tuple(vnf.processing_delay[s] for s in net.servers))
            self.need.append(_instances_for(sum(r.traffic for r in users), cap))
            self.need_qualified.append(
                _instances_for(sum(r.traffic for r in new_users), cap) if fresh_only else 1
            )
            hosting = [vnf.resource_req * net.server_unit_cost[s] for s in net.servers]
            start, last_fresh, held = len(self.decisions), None, []
            for i in vnf.instances:
                snap_server = instance.snapshot.server_of(vnf.name, i)
                previous = None
                if snap_server is None:
                    previous, last_fresh = last_fresh, len(self.decisions)
                    choices = ((None, 0),) + tuple(
                        (s, hosting[s] + vnf.license_cost) for s in positions
                    )
                else:
                    held.append(len(self.decisions))
                    keep = net.position(snap_server)
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
                        after=previous,
                        resource_req=vnf.resource_req,
                        options=choices,
                        qualifies=snap_server is None or not fresh_only,
                    )
                )
            end = len(self.decisions)
            self.type_end.add(end)
            self.skip += [next((j for j in held if j > di), end) for di in range(start, end)]
            extras, extras_qualified = [], []
            for d in self.decisions[start:]:
                cheapest = min(c for _t, c in d.options)
                extras.append(min(c for t, c in d.options if t is not None) - cheapest)
                extras_qualified.append(extras[-1] if d.qualifies else math.inf)
                least.append(cheapest)
            every = _demand_rows(extras, self.need[k])
            # every instance of a type that is not fresh-only qualifies and
            # need_qualified is 1, so its qualifying rows never exceed these
            qualified = (
                _demand_rows(extras_qualified, self.need_qualified[k]) if fresh_only else every
            )
            least[start] += max(every[0][0], qualified[0][0])
            self.demand += zip(every[1:], qualified[1:])

        # per request, by request index: the cost of its current links,
        # which its new route replaces
        self.credit = []
        for r in self.requests:
            links = normalize_route(net, r.current_route)
            self.credit.append(r.traffic * sum(net.cost_between(a, b) for a, b in links))

        self.place_tail = list(itertools.accumulate(reversed(least), initial=0))[::-1]

        # per request, by request index: the user's position, the candidate
        # content servers' positions, and its chain slots' type positions
        self.user_at = [net.position(r.user) for r in self.requests]
        self.candidates = [
            tuple(s for s in positions if net.servers[s] in r.candidate_servers)
            for r in self.requests
        ]
        # per request, the end links _cheapest_route reads
        self.end_links = list(map(self._end_links, self.user_at, self.candidates))
        self.slots = [tuple(type_pos[k] for k in r.chain) for r in self.requests]
        # new requests under no_reuse may not use snapshot instances
        self.skips_snapshot = [
            options.no_reuse and r.status == STATUS_NEW for r in self.requests
        ]
        # per type position k: (request, route shape once k is decided) for
        # each request whose chain uses k (see reprice)
        self.repriced = [[] for _k in self.need]
        for ri, slots in enumerate(self.slots):
            for k in dict.fromkeys(slots):
                self.repriced[k].append((ri, _route_shape(slots, k + 1)))
        self.g_at, t_at, l_at, self.p_at, pair = layout(instance)
        first = dict(zip(t_at, itertools.accumulate(map(len, t_at.values()), initial=0)))
        self.t_at = [at for bases in t_at.values() for at in bases]
        self.l_at = [
            [[at - first[k] for at in bases[k]] for k in r.chain]
            for r, bases in zip(self.requests, l_at)
        ]
        self.p_off = [off for row in pair for off in row]
        # the only state that changes after construction, filled on first
        # use: reprice's one memo, the cheapest route per traffic unit by
        # (request, server mask per chain slot); the server positions of each
        # mask; and columns' memo, by (request, eligible pairs per slot)
        self._route_min: dict[tuple, int | float] = {}
        self._mask_servers = _MaskServers()
        self._columns: dict[tuple, tuple] = {}
        # the floor's terms before any type is decided; every floor the
        # search reads is repriced from them, one type at a time
        undecided = [None] * len(self.need)
        self.root_terms = [
            self.reprice(ri, _route_shape(slots, 0), (undecided, undecided))
            for ri, slots in enumerate(self.slots)
        ]

    def columns(self, ri: int, eligible: tuple) -> tuple:
        """Request ``ri``'s route columns, memoized, when its chain slot
        ``pos`` may use the (decision, server) pairs in ``eligible[pos]``: a
        column per content server and pair per slot that meets the delay
        budget, in the search's order: the pairs as given, the first slot's
        outermost, then the content servers in candidate order. A column is
        (content server, decision per slot, links, uses, cost). Its links
        are the route's link set as canonical entries, each once: the entry
        link, the links between consecutive hosts and the user link. Its
        uses are the positions in ``_Search.room`` it loads: its decisions,
        then its links of finite capacity. Its cost is traffic x its links'
        cost, less the request's credit. The search checks usage limits and
        link capacities, which depend on the other requests' routes."""
        key = (ri, eligible)
        known = self._columns.get(key)
        if known is None:
            known = self._columns[key] = self._build_columns(ri, eligible)
        return known

    def _build_columns(self, ri: int, eligible: tuple) -> tuple:
        """The content server changes only the entry link, so a chain's
        links, delay and cost are summed once for all candidates; an entry
        link the chain already takes adds nothing."""
        n, canon, cost, delay = self.n_nodes, self.canon, self.link_cost, self.link_delay
        r = self.requests[ri]
        traffic, budget, credit = r.traffic, r.delay_budget, self.credit[ri]
        user, slots = self.user_at[ri], self.slots[ri]
        link_at, link_cap = len(self.decisions), self.link_cap
        columns = []
        for pairs in itertools.product(*eligible):
            picks, hosts = zip(*pairs)
            chain = {canon[a * n + b] for a, b in zip(hosts, hosts[1:])}
            chain.add(canon[hosts[-1] * n + user])
            links = tuple(chain)
            uses = picks + tuple([link_at + c for c in links if link_cap[c] != math.inf])
            chain_delay = sum([self.type_delay[k][s] for k, s in zip(slots, hosts)])
            chain_delay += sum([delay[c] for c in links])
            chain_cost = traffic * sum([cost[c] for c in links]) - credit
            for cs in self.candidates[ri]:
                entry = canon[cs * n + hosts[0]]
                if entry in chain:
                    if traffic * chain_delay <= budget:
                        columns.append((cs, picks, links, uses, chain_cost))
                elif traffic * (chain_delay + delay[entry]) <= budget:
                    loads = (link_at + entry,) if link_cap[entry] != math.inf else ()
                    price = chain_cost + traffic * cost[entry]
                    columns.append((cs, picks, links + (entry,), uses + loads, price))
        return tuple(columns)

    def _end_links(self, user: int, candidates: tuple) -> tuple:
        """What ``_cheapest_route`` reads of a request's two ends. By server
        position ``s``: the cost of the link from ``s`` to the user, the
        entries of the links from each candidate to ``s``, and the cheapest
        of those links. Then the cheapest server->user link, which an open
        last slot pays."""
        n, canon, cost = self.n_nodes, self.canon, self.link_cost
        servers = len(self.servers)  # servers come first, so row a's first entries
        to_user = cost[user : servers * n : n]
        # each candidate's row of links to the servers, then by server
        entries = zip(*[canon[cs * n : cs * n + servers] for cs in candidates])
        entry_costs = zip(*[cost[cs * n : cs * n + servers] for cs in candidates])
        return to_user, list(map(frozenset, entries)), list(map(min, entry_costs)), min(to_user)

    def reprice(self, ri: int, shape: tuple, hosts: tuple[list, list]) -> int | float:
        """Request ``ri``'s term of the route floor, when its chain has the
        route ``shape`` (see ``_route_shape``) over ``hosts``. The floor is
        the sum of the terms of every request, and its suffix from ``ri``
        on is the least cost of routing the requests from ``ri`` on.
        ``hosts[0][k]`` is the bitmask of the servers deploying type
        position ``k`` and ``hosts[1][k]`` of those deploying a qualifying
        instance of it, both None while the type is undecided. A request
        that skips snapshot instances reads the qualifying masks, since
        every type it uses is fresh-only. The request pays traffic x its
        cheapest route over the servers of its decided chain slots (see
        ``_cheapest_route``), minus its credit. Capacities and delay are
        ignored, and the route's links are a subset of those of any route
        its leaves take: no leaf below pays less. With no type decided it
        pays its cheapest server->user link; with every type decided the
        terms' suffix sums are the assignment stage's tail.

        Deciding one more type never lowers a term: the request's counted
        links stay counted, and only requests that use the new type change.
        So the search reprices just those requests, one at a time, and
        stops as soon as the floor so far prunes the node; the cheapest
        routes are memoized by the request and its slots' masks, so
        prefixes that share them price each once."""
        masks = tuple(map(hosts[self.skips_snapshot[ri]].__getitem__, self.slots[ri]))
        key = (ri, masks)
        route = self._route_min.get(key)
        if route is None:
            route = self._route_min[key] = self._cheapest_route(ri, masks, shape)
        return self.requests[ri].traffic * route - self.credit[ri]

    def _cheapest_route(self, ri: int, masks: tuple, shape: tuple) -> int | float:
        """The cheapest route per traffic unit of request ``ri`` when chain
        slot ``pos`` is hosted on a server of ``masks[pos]``, or anywhere
        when that is None (undecided). Only the decided slots' hosts are
        enumerated. The route counts, as a set of links: the entry link from
        a candidate content server if the first slot is decided, the links
        between consecutive decided slots, and the user link from the last
        host if the last slot is decided. An undecided last slot pays the
        cheapest server->user link instead, which is none of the counted
        links: the user is not a server. A link that touches an undecided
        slot is dropped. A link used twice is priced once, as the objective
        prices it, and a self-link costs nothing: so the entry link is free
        when some candidate's entry link is already a hop of the route, and
        else costs the cheapest one. The user link is never a hop."""
        to_user, entries, entry_min, open_end = self.end_links[ri]
        spots, hops, first, last = shape
        n, canon, cost = self.n_nodes, self.canon, self.link_cost
        servers_of = self._mask_servers
        route = math.inf
        for hosts in itertools.product(*[servers_of[masks[pos]] for pos in spots]):
            links = {canon[hosts[i] * n + hosts[j]] for i, j in hops}
            price = sum(map(cost.__getitem__, links))
            if first and links.isdisjoint(entries[hosts[0]]):
                price += entry_min[hosts[0]]
            if last:
                price += to_user[hosts[-1]]
            if price < route:
                route = price
        return route if last else route + open_end

    def leaf_key(self, leaf: tuple) -> tuple:
        """The tie-break key of a search leaf, the (target, columns) state
        that ``_Search._offer_leaf`` copies: the positions of
        the ones in its plan's canonical g, t, l, p vector, ascending and
        negated. Two leaves' keys compare as the vectors of their plans do,
        equality included: at the first position where the vectors differ,
        the plan with the 0 there has its next one later, so its key holds a
        smaller number there or ends first."""
        target, columns = leaf
        t_at, p_off = self.t_at, self.p_off
        ones = [t_at[di] + s for di, s in enumerate(target) if s is not None]
        for ri, (cs, picks, links, _uses, _cost) in enumerate(columns):
            ones.append(self.g_at[ri] + cs)
            ones += [at[target[di]] + di for at, di in zip(self.l_at[ri], picks)]
            p_at = self.p_at[ri]
            ones += [p_at + p_off[c] for c in links]
        ones.sort()
        return tuple(-i for i in ones)

    def leaf_plan(self, leaf: tuple) -> PlacementPlan:
        """The named plan of a search leaf, the one place the search makes
        names. An instance that stays put keeps the snapshot's own entry and
        an unchanged route the request's own set, so a plan shares what it
        does not change."""
        target, columns = leaf
        servers, decisions, n = self.servers, self.decisions, self.n_nodes
        nodes = self.instance.network.nodes
        assignment = []
        plan_routes = {}
        for r, (_cs, picks, links, _uses, _cost) in zip(self.requests, columns):
            for di in picks:
                d = decisions[di]
                assignment.append((r.id, servers[target[di]], d.vnf_name, d.instance_id))
            route = frozenset((nodes[c // n], nodes[c % n]) for c in links)
            plan_routes[r.id] = r.current_route if route == r.current_route else route
        placed = {
            (d.vnf_name, d.instance_id, servers[s])
            for d, s in zip(decisions, target)
            if s is not None
        }
        # an instance that stays put keeps the snapshot's own entry: a set
        # keeps the element it holds when an equal one is added
        kept = {e for e in self.instance.snapshot.deployed if e in placed}
        return PlacementPlan(
            content_server=frozenset(
                (r.id, servers[column[0]]) for r, column in zip(self.requests, columns)
            ),
            deployment=kept.union(self.frozen, placed),
            assignment=frozenset(assignment),
            routes=plan_routes,
        )


class _Incumbent:
    """The best payload offered so far, by total and then by the tie-break
    key: the canonical g, t, l, p vector of its plan. The payload is what
    the engine offers (``brute_force`` a plan, the search a snapshot of its
    state); ``key_of``, given once, is the engine's one key function
    (``_Problem.leaf_key`` for the search, ``plan_vector`` over the named
    variables for the oracle). A key is made only when two totals tie, and
    at most once per payload."""

    def __init__(self, key_of):
        self.key_of = key_of
        self.total: int | None = None
        self.payload = None
        self.key: tuple | None = None  # the payload's key, once a tie asked for it
        self.updates = 0

    def offer(self, total: int, payload) -> None:
        key = None
        if self.total is not None:
            if total > self.total:
                return
            if total == self.total:
                if self.key is None:
                    self.key = self.key_of(self.payload)
                key = self.key_of(payload)
                if not key < self.key:
                    return
        self.total, self.payload, self.key = total, payload, key
        self.updates += 1


class _Search:
    """The depth-first exploration of the search tree. State is mutated in
    place along the path and restored on backtrack. It holds positions and
    indices only, each fact once: servers and links by their ``_Problem``
    table position, instances by decision index, and a chain slot or a
    deployed instance reads its server as its decision's ``target``. Names
    appear only in ``_Problem.leaf_plan``. The incumbent may come in warm
    (see ``_Dive``); a node is pruned only when its bound is strictly above
    the incumbent's total. A placement node is bounded by its parent (see
    ``_child``) and visited only when that bound is open, so the forced
    placements ``_Problem.skip`` jumps and the children over the incumbent
    cost no node. An assignment node routes one request: the columns of
    every request are fetched once per placement leaf, and the node tries
    each column in turn that its bound, the committed cost plus the
    column's and the tail after the request, leaves open and that the
    instances' usage limits and the links' capacities still admit. So
    ``nodes`` counts only nodes visited with an open bound: an assignment
    child its parent prunes is not visited, nor counted."""

    def __init__(self, problem: _Problem, incumbent: _Incumbent, deadline: float):
        """Start at the root: nothing placed, no type decided, and the root
        floor in hand. The floor's terms are changed in place as types are
        decided and restored on backtrack (see ``_end_type``)."""
        self.p = problem
        self.incumbent = incumbent
        self.deadline = deadline
        self.aborted = False  # the deadline struck
        self.abort_lb = math.inf
        self.nodes = 0
        # per decision: its options in the order this search tries them
        self.options = [d.options for d in problem.decisions]

        # per decision: its server, None while not deployed
        self.target: list[int | None] = [None] * len(problem.decisions)
        # per type position: the deployed decisions, in decision order
        self.deployed: list[list[int]] = [[] for _k in problem.need]
        self.server_load = list(problem.base_load)
        # qualifying instances deployed, per type position (see
        # _Problem.demand)
        self.qualified = [0] * len(problem.need)
        # per request: its columns at the current placement leaf, and the
        # column that routes it (see _Problem.columns)
        self.columns: list[tuple] = []
        self.route: list[tuple | None] = [None] * len(problem.requests)
        # the traffic each resource can still carry: per decision its
        # instance, then per link entry its link (see _Problem.columns)
        self.room = [problem.type_cap[d.type_pos] for d in problem.decisions] + problem.link_cap
        self.committed = 0
        # per type position, the bitmasks of the servers deploying it and of
        # those deploying a qualifying instance, None until the type is
        # decided (once its last instance is); and the route floor over the
        # decided types, its per-request terms (see _Problem.reprice), and
        # at a placement leaf the terms' suffix sums, the assignment tail
        self.hosts = ([None] * len(problem.need), [None] * len(problem.need))
        self.terms = list(problem.root_terms)
        self.floor = sum(self.terms)
        self.tail: list = []

    def _expired(self) -> bool:
        if self.aborted:
            return True
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            self.aborted = True
        return self.aborted

    def run(self) -> None:
        """Search from the root, where no instance is placed."""
        bound = self._bound(0)
        if self._open(bound):
            self._descend(0, bound)

    def _bound(self, di: int) -> int | float:
        """The placement bound at decision ``di`` (past the last one, the
        assignment stage's root) before the demand of the type under way:
        the committed cost, plus ``place_tail[di]``, plus the route floor
        over the decided types."""
        return self.committed + self.p.place_tail[di] + self.floor

    def _open(self, bound: int | float) -> bool:
        """Whether a child with this bound is visited: it is finite (else a
        type can no longer meet its counts) and not above the incumbent's
        total."""
        inc = self.incumbent.total
        return bound != math.inf and (inc is None or bound <= inc)

    def _descend(self, di: int, bound: int | float) -> None:
        p = self.p
        if di == len(p.decisions):
            # every type is decided and met its counts, so the floor's
            # suffix sums are the assignment stage's tail. Each type's
            # deployed (decision, server) pairs, all and qualifying, key the
            # requests' columns
            self.tail = list(itertools.accumulate(reversed(self.terms), initial=0))
            self.tail.reverse()
            pairs = []
            for deployed in self.deployed:
                every = tuple((d, self.target[d]) for d in deployed)
                pairs.append((every, tuple(e for e in every if p.decisions[e[0]].qualifies)))
            self.columns = [
                p.columns(ri, tuple(pairs[k][fresh] for k in slots))
                for ri, (slots, fresh) in enumerate(zip(p.slots, p.skips_snapshot))
            ]
            self._assign(0, bound)
        else:
            self._branch_tau(di, bound)

    # stage (a): instance placements. A node's bound was computed, and
    # found open, by its parent.
    def _branch_tau(self, di: int, bound: int | float) -> None:
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        p = self.p
        d = p.decisions[di]
        # every option that deploys the instance leads to one child, and
        # leaving it out to another; an option adds its delta to the bound
        placed, left_out = self._child(di, True), self._child(di, False)
        for target, delta in self.options[di]:
            if target is None:
                child, ends, base = left_out
            elif self.server_load[target] + d.resource_req > p.server_cap[target]:
                continue
            else:
                child, ends, base = placed
            bound = base + delta
            if not self._open(bound):
                continue
            self._commit_tau(di, target, delta)
            if ends:
                self._end_type(d.type_pos, child)
            else:
                self._branch_tau(child, bound)
            self._undo_tau(di, target, delta)

    def _end_type(self, k: int, child: int) -> None:
        """Descend to ``child`` past the end of type position ``k``, whose
        deployed instances meet its counts (else its demand was inf). Its
        servers are final, so the floor prices routes over them too: the
        requests that use the type are repriced one at a time, in place.
        No term falls, so the floor never does: the bound on the floor in
        hand was checked first, and each partial repricing is a bound too.
        The first one over the incumbent prunes the child, as the whole
        repricing would; either way the terms it changed are restored."""
        p = self.p
        every, qualified = self.hosts
        every[k], qualified[k] = self._type_masks(k)
        floor, terms, was = self.floor, self.terms, []
        base = self.committed + p.place_tail[child]
        for ri, shape in p.repriced[k]:
            term = p.reprice(ri, shape, self.hosts)
            was.append(terms[ri])
            self.floor += term - terms[ri]
            terms[ri] = term
            if not self._open(base + self.floor):
                break
        else:
            self._descend(child, base + self.floor)
        for (ri, _shape), term in zip(p.repriced[k], was):
            terms[ri] = term
        self.floor = floor
        every[k] = qualified[k] = None

    def _child(self, di: int, deploys: bool) -> tuple[int, bool, int | float]:
        """Where decision ``di`` leads when it deploys its instance or
        leaves it out: the child's decision index, whether that ends di's
        type, and the child's bound before the option's delta. Fresh
        instances activate in identifier order, so when the next decision is
        a fresh one whose predecessor is left out, it and the type's later
        fresh ones are forced out too, and the child is ``skip[di]``. The
        bound charges di's type the demand at the child for the instances
        deployed with this choice (see ``_Problem.demand``)."""
        p = self.p
        d = p.decisions[di]
        child = di + 1
        after = p.decisions[child].after if child < len(p.decisions) else None
        if after is not None and not (deploys if after == di else self.target[after] is not None):
            child = p.skip[di]
        k = d.type_pos
        every, qualified = p.demand[child]
        n, q = len(self.deployed[k]) + deploys, self.qualified[k] + d.qualifies * deploys
        return child, child in p.type_end, self._bound(child) + max(every[n], qualified[q])

    def _type_masks(self, k: int) -> tuple[int, int]:
        """The bitmasks of the servers deploying type position ``k`` and of
        those deploying a qualifying instance of it."""
        every = qualified = 0
        for di in self.deployed[k]:
            bit = 1 << self.target[di]
            every |= bit
            if self.p.decisions[di].qualifies:
                qualified |= bit
        return every, qualified

    def _commit_tau(self, di: int, target: int | None, delta: int) -> None:
        self.committed += delta
        if target is not None:
            d = self.p.decisions[di]
            self.target[di] = target
            self.deployed[d.type_pos].append(di)
            self.server_load[target] += d.resource_req
            self.qualified[d.type_pos] += d.qualifies

    def _undo_tau(self, di: int, target: int | None, delta: int) -> None:
        self.committed -= delta
        if target is not None:
            d = self.p.decisions[di]
            self.target[di] = None
            self.deployed[d.type_pos].pop()
            self.server_load[target] -= d.resource_req
            self.qualified[d.type_pos] -= d.qualifies

    # stage (b): routes, one column per request (see _Problem.columns). A
    # node's bound was computed, and found open, by its parent.
    def _assign(self, ri: int, bound: int | float) -> None:
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        if ri == len(self.route):
            self._offer_leaf()
            return
        traffic = self.p.requests[ri].traffic
        room = self.room
        # a column adds its cost to the committed cost and the tail after ri
        base = self.committed + self.tail[ri + 1]
        for column in self.columns[ri]:
            _cs, _picks, _links, uses, cost = column
            bound = base + cost
            inc = self.incumbent.total
            if inc is not None and bound > inc:
                continue
            if min(map(room.__getitem__, uses)) < traffic:  # uses is never empty
                continue
            for u in uses:
                room[u] -= traffic
            self.route[ri] = column
            self.committed += cost
            self._assign(ri + 1, bound)
            self.committed -= cost
            for u in uses:
                room[u] += traffic

    def _offer_leaf(self) -> None:
        # the leaf's bound is its total, so it is never worse than the
        # incumbent; the offer keeps a copy of the state that makes the
        # plan, and columns are never changed once made
        self.incumbent.offer(self.committed, (list(self.target), list(self.route)))


class _DiveOver(Exception):
    """Unwinds a dive that has offered its first leaf or met its budget."""


class _Dive(_Search):
    """The warm start: the search's code with each decision's options tried
    cheapest first (ties in the search's order), stopped once it has
    offered its first leaf or visited ``budget`` nodes, about four
    root-to-leaf paths. A stop is not a time-limit abort: ``aborted``
    still means only that the deadline struck, and the dive's ``abort_lb``
    is never read. A stop unwinds the whole path at once, without restoring
    the state, so a dive runs once."""

    def __init__(self, problem: _Problem, incumbent: _Incumbent, deadline: float):
        super().__init__(problem, incumbent, deadline)
        self.options = [tuple(sorted(o, key=lambda option: option[1])) for o in self.options]
        # a path has at most a node per decision and per request, and its leaf
        self.budget = 4 * (len(problem.decisions) + len(problem.requests) + 1)

    def run(self) -> None:
        try:
            super().run()
        except _DiveOver:
            pass

    def _expired(self) -> bool:
        if self.nodes == self.budget:
            raise _DiveOver
        return super()._expired()

    def _offer_leaf(self) -> None:
        super()._offer_leaf()
        raise _DiveOver


def solve_exact(instance: ProblemInstance, options: SolveOptions | None = None) -> SolveResult:
    """Provably optimal plan, or infeasible, or the best incumbent when the
    time limit strikes. Equal-cost optima resolve to the lexicographically
    smallest canonical variable vector, so results are unique and
    repeatable. The bound at each node adds the exact committed cost, the
    cheapest contribution of each undecided instance, for each type the
    least extra cost of the instances its counts still ask for (inf when
    too few remain), the credit of the current routes not yet replaced and,
    for each request
    not yet routed, a route floor: its cheapest route over the servers of
    the types whose instances are all placed, leaving out the links that
    touch a chain slot of another type, with an open last slot paying the
    cheapest user link. Once every instance is placed the floor is the
    cheapest whole route over the deployed servers. On a time-limited run the
    least bound left unexplored gives ``stats.gap``. A bounded
    cheapest-first dive seeds the incumbent first (see ``_Dive``), which
    changes the node count but not the result. ``stats.nodes`` counts the
    nodes visited, each with an open bound: a placement or assignment
    child whose bound is above the incumbent, and a fresh instance that
    can no longer activate, are not visited."""
    return _solve_exact(_Problem(instance, options or SolveOptions()))


def _solve_exact(problem: _Problem) -> SolveResult:
    instance, options = problem.instance, problem.options
    if any(load > cap for load, cap in zip(problem.base_load, problem.server_cap)):
        # the untouched instances alone overfill a server
        return SolveResult(STATUS_INFEASIBLE, None, None, SolveStats())
    incumbent = _Incumbent(problem.leaf_key)
    start = time.monotonic()
    deadline = start + options.time_limit
    # the dive only seeds the incumbent, so meeting its budget or its first
    # leaf decides nothing. A deadline that strikes in the dive still makes
    # the solve time-limited; the search runs up to its own first deadline
    # check, and its abort_lb gives the gap
    dive = _Dive(problem, incumbent, deadline)
    dive.run()
    search = _Search(problem, incumbent, deadline)
    search.run()
    aborted = dive.aborted or search.aborted

    stats = SolveStats(
        nodes=search.nodes,
        dive_nodes=dive.nodes,
        incumbent_updates=incumbent.updates,
        wall_time=time.monotonic() - start,
    )
    if incumbent.payload is None:
        if aborted:
            return SolveResult(STATUS_TIME_LIMIT, None, None, stats)
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)

    plan = problem.leaf_plan(incumbent.payload)
    breakdown = _costs.total_objective(
        instance, plan, clamp_instantiation=options.clamp_instantiation
    )
    if aborted:
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
    incumbent = _Incumbent(key_of)
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
                incumbent.offer(total, plan)

    wall = time.monotonic() - start
    stats = SolveStats(nodes=nodes, incumbent_updates=incumbent.updates, wall_time=wall)
    if incumbent.payload is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)
    breakdown = _costs.total_objective(
        instance, incumbent.payload, clamp_instantiation=options.clamp_instantiation
    )
    return SolveResult(STATUS_OPTIMAL, incumbent.payload, breakdown, stats)
