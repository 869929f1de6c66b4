"""Exact solvers for the placement program.

``solve_exact`` is a depth-first branch and bound over the structural
decisions: placement per instance, then assignment per request chain slot.
A request's content server is chosen once its chain is assigned, by trying
each candidate in turn, because it changes only the request's entry link.
Routes are derived, never branched, because every route coefficient is
non-negative and the current routes only contribute a constant credit.
The placement bound also charges each type that has no qualifying instance
deployed yet the least extra cost of deploying one of its undecided
qualifying instances: under no_reuse only a fresh instance qualifies for a
type that new requests need, since each plan must deploy one.
``brute_force`` is the independent oracle: it enumerates the same decision
space exhaustively and filters with the model module's constraint checker
instead of the incremental bookkeeping used here.

Both solvers break instance-permutation symmetry the same way: instances of
one type that are absent from the snapshot are activated in identifier
order. Snapshot instances are never restricted (they are distinguishable
through their migration sources), so no optimum is excluded.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
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
        if self.time_limit <= 0:
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


@dataclass(frozen=True)
class _Decision:
    vnf_name: str
    instance_id: int
    snap_server: str | None
    fresh_rank: int | None  # position among the type's fresh instances
    contrib: dict  # option (server or None) -> exact micro-money
    min_contrib: int
    qualifies: bool  # deploying it covers its type (see _Problem.deploy_min)


class _Problem:
    """Immutable data shared by both solvers: the validated instance, the
    options, the decisions with their exact contributions, and the suffix
    sums the search bound reads. The instance is validated once, here, so
    one ``_Problem`` can feed both engines (``solve --oracle`` does)."""

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
        self.server_limit = {s: limit(net.server_capacity[s]) for s in net.servers}
        self.vnf_limit = {t.name: limit(t.capacity) for t in instance.catalog.types}
        self.link_limit = {
            (a, b): limit(net.bandwidth_between(a, b))
            for a, b in itertools.combinations(net.nodes, 2)
        }

        required = set(instance.required_types())
        self.snapshot_ids = {(k, i) for k, i, _s in instance.snapshot.deployed}

        # snapshot entries of unneeded types are outside the decision space,
        # but they still occupy server capacity
        self.frozen = instance.frozen_deployments()
        self.base_server_load = {s: 0 for s in net.servers}
        for k, _i, s in self.frozen:
            self.base_server_load[s] += instance.catalog.get(k).resource_req

        self.decisions: list[_Decision] = []
        self.required_by_new: set[str] = {
            k for r in self.requests if r.status == STATUS_NEW for k in r.chain
        }
        for vnf in instance.catalog.types:
            if vnf.name not in required:
                continue
            fresh_only = options.no_reuse and vnf.name in self.required_by_new
            fresh_rank = 0
            for i in vnf.instances:
                snap_server = instance.snapshot.server_of(vnf.name, i)
                rank = None
                if snap_server is None:
                    rank = fresh_rank
                    fresh_rank += 1
                contrib = {}
                if snap_server is None:
                    contrib[None] = 0
                    for s in net.servers:
                        contrib[s] = (
                            vnf.resource_req * net.server_unit_cost[s]
                            + vnf.license_cost
                        )
                else:
                    back = vnf.resource_req * net.server_unit_cost[snap_server]
                    if not options.clamp_instantiation:
                        back += vnf.license_cost
                    contrib[None] = -back
                    for s in net.servers:
                        contrib[s] = (
                            vnf.resource_req * net.server_unit_cost[s]
                            - vnf.resource_req * net.server_unit_cost[snap_server]
                            + vnf.migration(snap_server, s)
                        )
                self.decisions.append(
                    _Decision(
                        vnf_name=vnf.name,
                        instance_id=i,
                        snap_server=snap_server,
                        fresh_rank=rank,
                        contrib=contrib,
                        min_contrib=min(contrib.values()),
                        qualifies=snap_server is None or not fresh_only,
                    )
                )

        # once the last instance of a type is decided, the deployed capacity
        # must already cover the type's demand; checking at the boundary
        # keeps the placement stage from wading through dead subtrees
        self.type_end: dict[int, str] = {}
        prev = None
        for idx, d in enumerate(self.decisions):
            if prev is not None and d.vnf_name != prev:
                self.type_end[idx] = prev
            prev = d.vnf_name
        if prev is not None:
            self.type_end[len(self.decisions)] = prev

        # admissible tails: undecided instances take their cheapest option
        # (suffix_min); a type with no qualifying instance deployed yet adds
        # the least extra of deploying one of its undecided qualifying
        # instances (deploy_min, deploy_tail); unrouted requests get the
        # credit for their current links back (suffix_credit) and pay at
        # least traffic x their cheapest server->user link (suffix_route),
        # both set up below.
        # Every leaf deploys a qualifying instance of each decision type:
        # _type_demand_covered asks for one, a fresh one for a type that new
        # requests need under no_reuse. Deploying decision d costs at least
        # min_contrib + extra, extra being its cheapest server option minus
        # min_contrib. A type's term reads only its own undecided instances,
        # which suffix_min counts at min_contrib, and adds one extra per
        # type, so nothing is counted twice. Every route loads its
        # last-host->user link: the user is a declared user node and node
        # names are unique, so that link is never a self-link, and the
        # route's other links cost nothing negative. So the bound never
        # exceeds the total of a leaf below it, and pruning only when it is
        # strictly above the incumbent still visits every leaf that could
        # improve or tie: a search that finishes returns the optimum, the
        # tie-break plan and the incumbent updates of a search without the
        # deployment and routing terms, in no more nodes.
        n = len(self.decisions)
        self.suffix_min = [0] * (n + 1)
        # deploy_min[di]: least extra over the qualifying decisions from di
        # to the end of di's type, inf when there are none; deploy_tail[di]:
        # the sum of deploy_min at the first decision of each later type
        self.deploy_min = [math.inf] * n
        self.deploy_tail = [0] * (n + 1)
        least = math.inf
        for di in range(n - 1, -1, -1):
            d = self.decisions[di]
            self.suffix_min[di] = self.suffix_min[di + 1] + d.min_contrib
            self.deploy_tail[di] = self.deploy_tail[di + 1]
            if di + 1 in self.type_end:  # di is the last of its type
                if di + 1 < n:
                    self.deploy_tail[di] += self.deploy_min[di + 1]
                least = math.inf
            if d.qualifies:
                extra = min(d.contrib[s] for s in net.servers) - d.min_contrib
                least = min(least, extra)
            self.deploy_min[di] = least

        self.demand_all = {
            t.name: sum(r.traffic for r in self.requests if t.name in r.chain)
            for t in instance.catalog.types
        }
        self.demand_new = {
            t.name: sum(
                r.traffic
                for r in self.requests
                if r.status == STATUS_NEW and t.name in r.chain
            )
            for t in instance.catalog.types
        }

        self.credit = {}
        for r in self.requests:
            total = 0
            for a, b in {net.link(x, y) for x, y in r.current_route}:
                if a != b:
                    total += net.cost_between(a, b) * r.traffic
            self.credit[r.id] = total
        self.suffix_credit = [0] * (len(self.requests) + 1)
        self.suffix_route = [0] * (len(self.requests) + 1)
        for ri in range(len(self.requests) - 1, -1, -1):
            r = self.requests[ri]
            self.suffix_credit[ri] = self.suffix_credit[ri + 1] - self.credit[r.id]
            user_link = min(net.cost_between(s, r.user) for s in net.servers)
            self.suffix_route[ri] = self.suffix_route[ri + 1] + r.traffic * user_link

        self.candidates = {
            r.id: tuple(s for s in net.servers if s in r.candidate_servers)
            for r in self.requests
        }
        self.gtlp_vars = tuple(
            v for v in enumerate_variables(instance) if v.family in "gtlp"
        )

    def deploy_need(self, di: int, qualified: Mapping[str, int]) -> int | float:
        """The deployment term of the placement bound at decision ``di``,
        given how many qualifying instances each type has deployed so far;
        inf when a type without one has no qualifying instance left."""
        need = self.deploy_tail[di]
        if di < len(self.decisions) and not qualified[self.decisions[di].vnf_name]:
            need += self.deploy_min[di]
        return need

    def tau_options(self, decision: _Decision) -> tuple:
        if decision.snap_server is not None:
            keep = decision.snap_server
            return (keep, None) + tuple(s for s in self.servers if s != keep)
        return (None,) + tuple(self.servers)


class _Incumbent:
    """The best plan offered so far, by total and then by the tie-break
    key: the plan's canonical g, t, l, p vector."""

    def __init__(self, problem: _Problem):
        self.p = problem
        self.total: int | None = None
        self.key: tuple | None = None
        self.plan: PlacementPlan | None = None
        self.updates = 0

    def offer(self, total: int, plan: PlacementPlan) -> None:
        if self.total is not None and total > self.total:
            return
        key = plan_vector(self.p.instance, plan, self.p.gtlp_vars)
        if self.total is None or (total, key) < (self.total, self.key):
            self.total, self.key, self.plan = total, key, plan
            self.updates += 1


class _Search:
    """The depth-first exploration of the search tree. State is mutated in
    place along the path and restored on backtrack."""

    def __init__(self, problem: _Problem, incumbent: _Incumbent, deadline: float):
        self.p = problem
        self.incumbent = incumbent
        self.deadline = deadline
        self.aborted = False
        self.abort_lb = math.inf
        self.nodes = 0

        self.gamma: list[str | None] = [None] * len(problem.requests)
        self.deployed: dict[str, list[tuple[int, str]]] = {}
        self.server_load = dict(problem.base_server_load)
        self.fresh_open: dict[str, bool] = {}
        # qualifying instances deployed, per type (see _Problem.deploy_min)
        self.qualified = {d.vnf_name: 0 for d in problem.decisions}
        self.assign: dict[tuple[str, str], tuple[str, int]] = {}
        self.inst_load: dict[tuple[str, int], int] = {}
        self.link_load: dict[Link, int] = {}
        self.routes: dict[str, frozenset[Link]] = {}
        self.committed = 0

    def _expired(self) -> bool:
        if self.aborted:
            return True
        self.nodes += 1
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            self.aborted = True
        return self.aborted

    def _type_demand_covered(self, k: str) -> bool:
        pool = self.deployed.get(k, ())
        if not pool:  # decision types are required by some request
            return False
        if len(pool) * self.p.vnf_limit[k] < self.p.demand_all[k]:
            return False
        if self.p.options.no_reuse and k in self.p.required_by_new:
            fresh = self.qualified[k]  # only fresh instances qualify here
            if not fresh or fresh * self.p.vnf_limit[k] < self.p.demand_new[k]:
                return False
        return True

    # stage (a): instance placements
    def _branch_tau(self, di: int) -> None:
        p = self.p
        ended = p.type_end.get(di)
        if ended is not None and not self._type_demand_covered(ended):
            return
        bound = (
            self.committed
            + p.suffix_min[di]
            + p.deploy_need(di, self.qualified)
            + p.suffix_credit[0]
            + p.suffix_route[0]
        )
        if bound == math.inf:
            return  # a type can no longer deploy a qualifying instance
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        inc = self.incumbent.total
        if inc is not None and bound > inc:
            return
        if di == len(self.p.decisions):
            # every type passed _type_demand_covered at its type_end
            self._branch_lambda(0, 0)
            return

        d = self.p.decisions[di]
        fresh_blocked = (
            d.fresh_rank is not None
            and d.fresh_rank > 0
            and not self.fresh_open.get((d.vnf_name, d.fresh_rank - 1), False)
        )
        vnf = self.p.instance.catalog.get(d.vnf_name)
        for target in self.p.tau_options(d):
            delta = d.contrib[target]
            if target is None:
                self._commit_tau(d, None, delta)
                self._branch_tau(di + 1)
                self._undo_tau(d, None, delta)
                continue
            if fresh_blocked:
                continue  # fresh instances activate in identifier order
            if self.server_load[target] + vnf.resource_req > self.p.server_limit[target]:
                continue
            self._commit_tau(d, target, delta)
            self._branch_tau(di + 1)
            self._undo_tau(d, target, delta)

    def _commit_tau(self, d: _Decision, target, delta: int) -> None:
        self.committed += delta
        if target is not None:
            self.deployed.setdefault(d.vnf_name, []).append((d.instance_id, target))
            self.server_load[target] += self.p.instance.catalog.get(d.vnf_name).resource_req
            if d.fresh_rank is not None:
                self.fresh_open[(d.vnf_name, d.fresh_rank)] = True
            if d.qualifies:
                self.qualified[d.vnf_name] += 1

    def _undo_tau(self, d: _Decision, target, delta: int) -> None:
        self.committed -= delta
        if target is not None:
            self.deployed[d.vnf_name].pop()
            self.server_load[target] -= self.p.instance.catalog.get(d.vnf_name).resource_req
            if d.fresh_rank is not None:
                self.fresh_open[(d.vnf_name, d.fresh_rank)] = False
            if d.qualifies:
                self.qualified[d.vnf_name] -= 1

    # stage (b): chain assignments; a finished chain is routed once per
    # content-server candidate
    def _branch_lambda(self, ri: int, pos: int) -> None:
        bound = self.committed + self.p.suffix_credit[ri] + self.p.suffix_route[ri]
        if self._expired():
            self.abort_lb = min(self.abort_lb, bound)
            return
        inc = self.incumbent.total
        if inc is not None and bound > inc:
            return
        if ri == len(self.p.requests):
            self._offer_leaf()
            return
        r = self.p.requests[ri]
        if pos == len(r.chain):
            self._route_and_descend(ri)
            return
        k = r.chain[pos]
        no_reuse_blocked = self.p.options.no_reuse and r.status == STATUS_NEW
        for i, s in self.deployed.get(k, ()):
            if no_reuse_blocked and (k, i) in self.p.snapshot_ids:
                continue
            if self.inst_load.get((k, i), 0) + r.traffic > self.p.vnf_limit[k]:
                continue
            self.assign[(r.id, k)] = (s, i)
            self.inst_load[(k, i)] = self.inst_load.get((k, i), 0) + r.traffic
            self._branch_lambda(ri, pos + 1)
            self.inst_load[(k, i)] -= r.traffic
            del self.assign[(r.id, k)]

    def _route_and_descend(self, ri: int) -> None:
        p = self.p
        r = p.requests[ri]
        net = p.net
        hosts = [self.assign[(r.id, k)][0] for k in r.chain]
        chain_links = {net.link(a, b) for a, b in zip(hosts, hosts[1:])}
        chain_links.add(net.link(hosts[-1], r.user))
        loaded = [(a, b) for a, b in chain_links if a != b]

        delay = 0
        route_cost = 0
        for link in loaded:
            if self.link_load.get(link, 0) + r.traffic > p.link_limit[link]:
                return
            delay += r.traffic * net.delay_between(*link)
            route_cost += r.traffic * net.cost_between(*link)
        for k, s in zip(r.chain, hosts):
            delay += r.traffic * p.instance.catalog.get(k).processing_delay[s]
        if delay > r.delay_budget:
            return  # an entry link only adds delay

        for link in loaded:
            self.link_load[link] = self.link_load.get(link, 0) + r.traffic
        # the content server changes only the entry link, so the chain part
        # is checked and loaded once for all candidates
        for cs in p.candidates[r.id]:
            entry = net.link(cs, hosts[0])
            extra = entry[0] != entry[1] and entry not in chain_links
            entry_cost = 0
            if extra:
                if self.link_load.get(entry, 0) + r.traffic > p.link_limit[entry]:
                    continue
                if delay + r.traffic * net.delay_between(*entry) > r.delay_budget:
                    continue
                entry_cost = r.traffic * net.cost_between(*entry)
                self.link_load[entry] = self.link_load.get(entry, 0) + r.traffic
            self.gamma[ri] = cs
            self.routes[r.id] = frozenset(chain_links | {entry})
            delta = route_cost + entry_cost - p.credit[r.id]
            self.committed += delta

            self._branch_lambda(ri + 1, 0)

            self.committed -= delta
            if extra:
                self.link_load[entry] -= r.traffic
        self.gamma[ri] = None
        self.routes.pop(r.id, None)
        for link in loaded:
            self.link_load[link] -= r.traffic

    def _offer_leaf(self) -> None:
        # the leaf's bound is its total, so the plan is never worse than
        # the incumbent
        p = self.p
        plan = PlacementPlan(
            content_server=frozenset(
                (r.id, self.gamma[ri]) for ri, r in enumerate(p.requests)
            ),
            deployment={
                (k, i, s) for k, pool in self.deployed.items() for i, s in pool
            } | set(p.frozen),
            assignment=frozenset(
                (f, s, k, i) for (f, k), (s, i) in self.assign.items()
            ),
            routes=dict(self.routes),
        )
        self.incumbent.offer(self.committed, plan)


def solve_exact(instance: ProblemInstance, options: SolveOptions | None = None) -> SolveResult:
    """Provably optimal plan, or infeasible, or the best incumbent when the
    time limit strikes. Equal-cost optima resolve to the lexicographically
    smallest canonical variable vector, so results are unique and
    repeatable. The bound at each node adds the exact committed cost, the
    cheapest contribution of each undecided instance, for each type with no
    qualifying instance deployed yet the least extra cost of deploying one,
    the credit of the current routes not yet replaced and the cheapest user
    link of each request not yet routed; on a time-limited run the least
    bound left unexplored gives ``stats.gap``."""
    return _solve_exact(_Problem(instance, options or SolveOptions()))


def _solve_exact(problem: _Problem) -> SolveResult:
    instance, options = problem.instance, problem.options
    if any(problem.base_server_load[s] > problem.server_limit[s] for s in problem.servers):
        # the untouched instances alone overfill a server
        return SolveResult(STATUS_INFEASIBLE, None, None, SolveStats())
    incumbent = _Incumbent(problem)
    start = time.monotonic()
    search = _Search(problem, incumbent, start + options.time_limit)
    search._branch_tau(0)

    stats = SolveStats(
        nodes=search.nodes,
        incumbent_updates=incumbent.updates,
        wall_time=time.monotonic() - start,
    )
    if incumbent.plan is None:
        if search.aborted:
            return SolveResult(STATUS_TIME_LIMIT, None, None, stats)
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)

    breakdown = _costs.total_objective(
        instance, incumbent.plan, clamp_instantiation=options.clamp_instantiation
    )
    if search.aborted:
        lb = min(search.abort_lb, incumbent.total)
        stats.gap = incumbent.total - lb if lb != math.inf else None
        return SolveResult(STATUS_TIME_LIMIT, incumbent.plan, breakdown, stats)
    return SolveResult(STATUS_OPTIMAL, incumbent.plan, breakdown, stats)


def brute_force(
    instance: ProblemInstance,
    options: SolveOptions | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolveResult:
    """Exhaustive oracle: enumerate every content-server, placement and
    assignment combination, derive routes, keep what ``check_feasibility``
    accepts and minimize ``total_objective`` under the same tie-break as
    ``solve_exact``.

    Assignments are enumerated over deployed instances only; anything else
    would fail the deployment constraint the checker applies anyway.
    """
    return _brute_force(_Problem(instance, options or SolveOptions()), cap)


def _brute_force(p: _Problem, cap: int = DEFAULT_ENUMERATION_CAP) -> SolveResult:
    instance, options = p.instance, p.options
    size = 1
    for r in p.requests:
        size *= max(1, len(p.candidates[r.id]))
    for _d in p.decisions:
        size *= 1 + len(p.servers)
    for r in p.requests:
        for k in r.chain:
            size *= max(1, len(instance.catalog.get(k).instances))
    if size > cap:
        raise TooLargeError(f"decision space {size} exceeds enumeration cap {cap}")

    start = time.monotonic()
    incumbent = _Incumbent(p)
    nodes = 0

    gamma_domains = [p.candidates[r.id] for r in p.requests]
    required = instance.required_types()

    def tau_combos(di: int, fresh_used: dict[str, int]):
        if di == len(p.decisions):
            yield {}
            return
        d = p.decisions[di]
        blocked = (
            d.fresh_rank is not None and d.fresh_rank > fresh_used.get(d.vnf_name, 0)
        )
        for target in (None,) + tuple(p.servers):
            if target is not None and blocked:
                continue
            if target is not None and d.fresh_rank is not None:
                fresh_used[d.vnf_name] = fresh_used.get(d.vnf_name, 0) + 1
            for rest in tau_combos(di + 1, fresh_used):
                combo = {(d.vnf_name, d.instance_id): target} if target else {}
                combo.update(rest)
                yield combo
            if target is not None and d.fresh_rank is not None:
                fresh_used[d.vnf_name] -= 1

    for gamma in itertools.product(*gamma_domains) if p.requests else [()]:
        content = {r.id: s for r, s in zip(p.requests, gamma)}
        for tau in tau_combos(0, {}):
            deployed: dict[str, list[tuple[int, str]]] = {}
            for (k, i), s in sorted(tau.items()):
                deployed.setdefault(k, []).append((i, s))
            if any(not deployed.get(k) for k in required):
                continue
            lam_domains = []
            feasible_domains = True
            for r in p.requests:
                for k in r.chain:
                    pool = deployed.get(k, [])
                    if options.no_reuse and r.status == STATUS_NEW:
                        pool = [
                            (i, s) for i, s in pool if (k, i) not in p.snapshot_ids
                        ]
                    if not pool:
                        feasible_domains = False
                        break
                    lam_domains.append(((r.id, k), pool))
                if not feasible_domains:
                    break
            if not feasible_domains:
                continue
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
    if incumbent.plan is None:
        return SolveResult(STATUS_INFEASIBLE, None, None, stats)
    breakdown = _costs.total_objective(
        instance, incumbent.plan, clamp_instantiation=options.clamp_instantiation
    )
    return SolveResult(STATUS_OPTIMAL, incumbent.plan, breakdown, stats)
