"""The four cost components of the reconfiguration objective and per-request
service delay.

Every function here is the ground truth the solvers are measured against.
Each public one checks the plan once. The objective reads each plan set
once; the delays read only the asked requests' assignments and routes. All
money values are integer micro-money, so component sums are exact and two
plans can be compared without floating-point drift. The hosting and
routing components are deltas against the current snapshot and may be
negative; migration never is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    PlacementPlan,
    ProblemInstance,
    _chain_hosts,
    _service_delay,
    ensure_plan_matches,
    normalize_route,
)


def format_money(micro: int) -> str:
    """Exact decimal money string for an integer micro-money amount."""
    sign = "-" if micro < 0 else ""
    whole, frac = divmod(abs(micro), 10**6)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


@dataclass(frozen=True)
class CostBreakdown:
    hosting_delta: int
    migration: int
    instantiation: int
    routing_delta: int
    total: int

    def as_money(self) -> dict[str, str]:
        # the vars of a dataclass instance are its fields
        return {name: format_money(micro) for name, micro in vars(self).items()}


def _hosting_delta(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Differential server-resource cost between plan and snapshot."""
    net = instance.network
    total = 0
    for k, _i, s in plan.deployment:
        total += instance.catalog.get(k).resource_req * net.server_unit_cost[s]
    for k, _i, s in instance.snapshot.deployed:
        total -= instance.catalog.get(k).resource_req * net.server_unit_cost[s]
    return total


def _migration_cost(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Price of moving snapshot instances to their plan servers; staying put
    is free, so the result is never negative. An infeasible plan may put one
    instance on several servers: each move is priced."""
    destinations: dict[tuple[str, int], list[str]] = {}
    for k, i, dst in plan.deployment:
        destinations.setdefault((k, i), []).append(dst)
    total = 0
    for k, i, src in instance.snapshot.deployed:
        vnf = instance.catalog.get(k)
        for dst in destinations.get((k, i), ()):
            total += vnf.migration(src, dst)
    return total


def _instantiation_cost(instance: ProblemInstance, plan: PlacementPlan, clamp: bool) -> int:
    """License cost of new instantiations. The literal reading refunds the
    license of a removed instance (negative term); a migrated instance
    telescopes to zero. With ``clamp`` each instance contributes max(0, net
    new deployments) instead."""
    added: dict[tuple[str, int], int] = {}
    for k, i, _s in plan.deployment:
        added[(k, i)] = added.get((k, i), 0) + 1
    for k, i, _s in instance.snapshot.deployed:
        added[(k, i)] = added.get((k, i), 0) - 1
    return sum(
        instance.catalog.get(k).license_cost * (max(0, n) if clamp else n)
        for (k, _i), n in added.items()
    )


def _routing_delta(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Differential link cost between plan routes and current routes, each
    undirected link counted once per request. Every link but a co-located
    hop is charged, the final hop to the end-user included."""
    net = instance.network
    total = 0
    for r in instance.requests:
        for links, sign in ((plan.route(r.id), 1), (r.current_route, -1)):
            for a, b in normalize_route(net, links):
                if a != b:
                    total += sign * net.cost_between(a, b) * r.traffic
    return total


def total_objective(
    instance: ProblemInstance, plan: PlacementPlan, clamp_instantiation: bool = False
) -> CostBreakdown:
    """All four components of the reconfiguration cost and their exact sum."""
    ensure_plan_matches(instance, plan)
    hosting = _hosting_delta(instance, plan)
    migration = _migration_cost(instance, plan)
    instantiation = _instantiation_cost(instance, plan, clamp_instantiation)
    routing = _routing_delta(instance, plan)
    return CostBreakdown(
        hosting_delta=hosting,
        migration=migration,
        instantiation=instantiation,
        routing_delta=routing,
        total=hosting + migration + instantiation + routing,
    )


def service_delay(instance: ProblemInstance, plan: PlacementPlan, request_id: str) -> int:
    """Transmission plus processing delay of one request, in microseconds."""
    ensure_plan_matches(instance, plan)
    return _delays(instance, plan, [instance.request(request_id)])[request_id]


def service_delays(instance: ProblemInstance, plan: PlacementPlan) -> dict[str, int]:
    """``service_delay`` of every request, by id in request order."""
    ensure_plan_matches(instance, plan)
    return _delays(instance, plan, instance.requests)


def _delays(instance: ProblemInstance, plan: PlacementPlan, requests) -> dict[str, int]:
    """The delay of each of ``requests`` over the checked plan, from their
    own assignment pairs and normalized routes only."""
    wanted = {r.id for r in requests}
    assigned: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for f, s, k, i in plan.assignment:
        if f in wanted:
            assigned.setdefault((f, k), []).append((s, i))
    net = instance.network
    return {
        r.id: _service_delay(
            instance, r, _chain_hosts(r, assigned), normalize_route(net, plan.route(r.id))
        )
        for r in requests
    }
