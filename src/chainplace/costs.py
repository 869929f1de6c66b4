"""The four cost components of the reconfiguration objective and per-request
service delay.

Every function here is the ground truth the solvers are measured against.
All money values are integer micro-money, so component sums are exact and
two plans can be compared without floating-point drift. The hosting and
routing components are deltas against the current snapshot and may be
negative; migration never is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnassignedChainError
from .model import (
    PlacementPlan,
    ProblemInstance,
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
        return {
            "hosting_delta": format_money(self.hosting_delta),
            "migration": format_money(self.migration),
            "instantiation": format_money(self.instantiation),
            "routing_delta": format_money(self.routing_delta),
            "total": format_money(self.total),
        }


def hosting_delta(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Differential server-resource cost between plan and snapshot."""
    ensure_plan_matches(instance, plan)
    net = instance.network
    total = 0
    for k, _i, s in plan.deployment:
        total += instance.catalog.get(k).resource_req * net.server_unit_cost[s]
    for k, _i, s in instance.snapshot.deployed:
        total -= instance.catalog.get(k).resource_req * net.server_unit_cost[s]
    return total


def migration_cost(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Price of moving snapshot instances to their plan servers; staying put
    is free, so the result is never negative."""
    ensure_plan_matches(instance, plan)
    total = 0
    for k, i, src in instance.snapshot.deployed:
        vnf = instance.catalog.get(k)
        for kk, ii, dst in plan.deployment:
            if kk == k and ii == i:
                total += vnf.migration(src, dst)
    return total


def instantiation_cost(
    instance: ProblemInstance, plan: PlacementPlan, clamp: bool = False
) -> int:
    """License cost of new instantiations.

    The literal reading refunds the license of a removed instance (negative
    term); a migrated instance telescopes to zero. With ``clamp`` each
    instance contributes max(0, net new deployments) instead.
    """
    ensure_plan_matches(instance, plan)
    if not clamp:
        total = 0
        for k, _i, _s in plan.deployment:
            total += instance.catalog.get(k).license_cost
        for k, _i, _s in instance.snapshot.deployed:
            total -= instance.catalog.get(k).license_cost
        return total

    per_instance: dict[tuple[str, int], int] = {}
    for k, i, _s in plan.deployment:
        per_instance[(k, i)] = per_instance.get((k, i), 0) + 1
    for k, i, _s in instance.snapshot.deployed:
        per_instance[(k, i)] = per_instance.get((k, i), 0) - 1
    return sum(
        instance.catalog.get(k).license_cost * max(0, net)
        for (k, _i), net in per_instance.items()
        if net > 0
    )


def _charged_links(instance: ProblemInstance, links):
    """The links of a route that cost money: all but co-located hops."""
    return [(a, b) for a, b in normalize_route(instance.network, links) if a != b]


def routing_delta(instance: ProblemInstance, plan: PlacementPlan) -> int:
    """Differential link cost between plan routes and current routes, each
    undirected link counted once per request. Every node pair is charged,
    the final hop to the end-user included."""
    ensure_plan_matches(instance, plan)
    net = instance.network
    total = 0
    for r in instance.requests:
        for a, b in _charged_links(instance, plan.route(r.id)):
            total += net.cost_between(a, b) * r.traffic
        for a, b in _charged_links(instance, r.current_route):
            total -= net.cost_between(a, b) * r.traffic
    return total


def total_objective(
    instance: ProblemInstance, plan: PlacementPlan, clamp_instantiation: bool = False
) -> CostBreakdown:
    """All four components of the reconfiguration cost and their exact sum."""
    hosting = hosting_delta(instance, plan)
    migration = migration_cost(instance, plan)
    instantiation = instantiation_cost(instance, plan, clamp=clamp_instantiation)
    routing = routing_delta(instance, plan)
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
    r = instance.request(request_id)
    net = instance.network

    for k in r.chain:
        if len(plan.assigned(request_id, k)) != 1:
            raise UnassignedChainError(
                f"request {request_id!r} does not assign exactly one instance of {k!r}"
            )

    transmission = 0
    for a, b in normalize_route(net, plan.route(request_id)):
        transmission += r.traffic * net.delay_between(a, b)

    processing = 0
    for k in r.chain:
        ((s, _i),) = plan.assigned(request_id, k)
        processing += r.traffic * instance.catalog.get(k).processing_delay[s]

    return transmission + processing
