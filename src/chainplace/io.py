"""Reading and writing the toolkit's file formats.

The instance document is JSON with top-level keys ``network``, ``catalog``,
``requests``, ``snapshot`` and ``usage_threshold``. Matrices are dense
row-major arrays over the declared node order (servers then users); money
fields are integer micro-money, delays integer microseconds. Every document
carries ``format_version`` "1". Serialization is canonical (sorted keys,
two-space indent, trailing newline) so identical data yields identical
bytes.
"""

from __future__ import annotations

import json
from typing import Mapping

from .costs import CostBreakdown, service_delays
from .model import (
    Link,
    Network,
    PlacementPlan,
    ProblemInstance,
    ServiceRequest,
    Snapshot,
    VnfCatalog,
    VnfType,
    normalize_route,
    snapshot_diff,
)

FORMAT_VERSION = "1"


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _route_matrix(net: Network, links) -> list[list[int]]:
    n = len(net.nodes)
    matrix = [[0] * n for _ in range(n)]
    for a, b in normalize_route(net, links):
        ia, ib = net.position(a), net.position(b)
        matrix[ia][ib] = 1
        matrix[ib][ia] = 1
    return matrix


def _matrix_links(net: Network, matrix, request_id) -> frozenset[Link]:
    """The links of a symmetric n×n matrix of the ints 0 and 1; any other
    matrix is refused with a ``ValueError`` naming the request."""
    nodes = net.nodes
    n = len(nodes)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"request {request_id}: current_route is not a {n}x{n} matrix")
    for i, row in enumerate(matrix):
        for j, flag in enumerate(row):
            if type(flag) is not int or flag not in (0, 1):
                raise ValueError(
                    f"request {request_id}: current_route[{i}][{j}] is {json.dumps(flag)}, "
                    "not 0 or 1"
                )
    links = set()
    for i, row in enumerate(matrix):
        for j in range(i, n):
            if row[j] != matrix[j][i]:
                raise ValueError(
                    f"request {request_id}: current_route is not symmetric: "
                    f"[{i}][{j}] is {row[j]} but [{j}][{i}] is {matrix[j][i]}"
                )
            if row[j]:
                links.add((nodes[i], nodes[j]))
    return frozenset(links)


def instance_to_document(instance: ProblemInstance) -> dict:
    net = instance.network
    return {
        "format_version": FORMAT_VERSION,
        "usage_threshold": instance.usage_threshold,
        "network": {
            "servers": list(net.servers),
            "users": list(net.users),
            "bandwidth": [list(row) for row in net.bandwidth],
            "link_cost": [list(row) for row in net.link_cost],
            "link_delay": [list(row) for row in net.link_delay],
            "server_capacity": [net.server_capacity[s] for s in net.servers],
            "server_unit_cost": [net.server_unit_cost[s] for s in net.servers],
        },
        "catalog": {
            "types": [
                {
                    "name": t.name,
                    "license_cost": t.license_cost,
                    "capacity": t.capacity,
                    "resource_req": t.resource_req,
                    "instances": list(t.instances),
                    "processing_delay": [t.processing_delay[s] for s in net.servers],
                    "migration_cost": [
                        [t.migration_cost.get((s, d), 0) for d in net.servers]
                        for s in net.servers
                    ],
                }
                for t in instance.catalog.types
            ]
        },
        "requests": [
            {
                "id": r.id,
                "user": r.user,
                "chain": list(r.chain),
                "traffic": r.traffic,
                "delay_budget": r.delay_budget,
                "candidate_servers": list(r.candidate_servers),
                "status": r.status,
                "current_route": _route_matrix(net, r.current_route),
            }
            for r in instance.requests
        ],
        "snapshot": {
            "deployed": [list(entry) for entry in sorted(instance.snapshot.deployed)]
        },
    }


def _check_version(document, kind: str) -> None:
    """Refuse anything but a JSON object of the supported format version."""
    if not isinstance(document, Mapping):
        raise ValueError(f"{kind} document is not a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format_version {version!r}")


def _per_server(field: str, values, servers) -> dict:
    """``values`` keyed by server, refused unless there is one per server."""
    if len(values) == len(servers):
        return dict(zip(servers, values))
    raise ValueError(f"{field} needs one entry per server: got {len(values)} for {len(servers)}")


def document_to_instance(document: Mapping) -> ProblemInstance:
    _check_version(document, "instance")
    netdoc = document["network"]
    servers = list(netdoc["servers"])
    network = Network(
        servers=tuple(servers),
        users=tuple(netdoc["users"]),
        bandwidth=tuple(tuple(row) for row in netdoc["bandwidth"]),
        link_cost=tuple(tuple(row) for row in netdoc["link_cost"]),
        link_delay=tuple(tuple(row) for row in netdoc["link_delay"]),
        server_capacity=_per_server("server_capacity", netdoc["server_capacity"], servers),
        server_unit_cost=_per_server("server_unit_cost", netdoc["server_unit_cost"], servers),
    )
    types = []
    for tdoc in document["catalog"]["types"]:
        prefix = f"type {tdoc['name']}: "
        rows = _per_server(prefix + "migration_cost", tdoc["migration_cost"], servers)
        rows = {
            s: _per_server(f"{prefix}migration_cost row {s}", row, servers)
            for s, row in rows.items()
        }
        types.append(
            VnfType(
                name=tdoc["name"],
                license_cost=tdoc["license_cost"],
                capacity=tdoc["capacity"],
                resource_req=tdoc["resource_req"],
                instances=tuple(tdoc["instances"]),
                processing_delay=_per_server(
                    prefix + "processing_delay", tdoc["processing_delay"], servers
                ),
                migration_cost={(s, d): c for s, row in rows.items() for d, c in row.items()},
            )
        )
    requests = []
    for rdoc in document["requests"]:
        requests.append(
            ServiceRequest(
                id=rdoc["id"],
                user=rdoc["user"],
                chain=tuple(rdoc["chain"]),
                traffic=rdoc["traffic"],
                delay_budget=rdoc["delay_budget"],
                candidate_servers=tuple(rdoc["candidate_servers"]),
                status=rdoc["status"],
                current_route=_matrix_links(network, rdoc["current_route"], rdoc["id"]),
            )
        )
    snapshot = Snapshot(
        frozenset((k, i, s) for k, i, s in document["snapshot"]["deployed"])
    )
    return ProblemInstance(
        network=network,
        catalog=VnfCatalog(tuple(types)),
        requests=tuple(requests),
        snapshot=snapshot,
        usage_threshold=document["usage_threshold"],
    )


def plan_to_document(plan: PlacementPlan) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "content_server": [list(x) for x in sorted(plan.content_server)],
        "deployment": [list(x) for x in sorted(plan.deployment)],
        "assignment": [list(x) for x in sorted(plan.assignment)],
        "routes": {
            f: [list(link) for link in sorted(links)]
            for f, links in plan.routes.items()
        },
    }


def _instance_id(field: str, entry, value) -> int:
    """A plan entry's instance id. JSON ``false`` and ``0.0`` compare equal
    to ``0``, so anything but a strict int is refused."""
    if type(value) is not int:
        raise ValueError(
            f"{field} entry {json.dumps(entry)}: instance id {json.dumps(value)} is not an integer"
        )
    return value


def document_to_plan(document: Mapping) -> PlacementPlan:
    _check_version(document, "plan")
    if not isinstance(document["routes"], Mapping):
        raise ValueError("plan routes is not a JSON object")
    deployment, assignment = set(), set()
    for entry in document["deployment"]:
        k, i, s = entry
        deployment.add((k, _instance_id("deployment", entry, i), s))
    for entry in document["assignment"]:
        f, s, k, i = entry
        assignment.add((f, s, k, _instance_id("assignment", entry, i)))
    return PlacementPlan(
        content_server=frozenset((f, s) for f, s in document["content_server"]),
        deployment=frozenset(deployment),
        assignment=frozenset(assignment),
        routes={
            f: frozenset((a, b) for a, b in links)
            for f, links in document["routes"].items()
        },
    )


def breakdown_to_document(breakdown: CostBreakdown) -> dict:
    return {"micro": dict(vars(breakdown)), "money": breakdown.as_money()}


def stats_to_document(stats, include_timing: bool) -> dict:
    """The search stats of one solve. ``nodes`` counts the search's nodes
    visited with an open bound (a placement or assignment child that its
    parent prunes is not visited) and ``dive_nodes`` the warm-start dive's
    before it; ``incumbent_updates`` counts the offers accepted from both.
    Timing is zeroed unless requested, so report bytes are stable;
    ``gap_micro`` appears on time-limited runs."""
    doc = {
        "nodes": stats.nodes,
        "dive_nodes": stats.dive_nodes,
        "incumbent_updates": stats.incumbent_updates,
        "wall_time_s": round(stats.wall_time, 3) if include_timing else 0.0,
    }
    if stats.gap is not None:
        doc["gap_micro"] = stats.gap
    return doc


def solve_result_to_document(
    instance: ProblemInstance, result, include_timing: bool = False
) -> dict:
    """Structured report for one solve: status, plan, cost breakdown, the
    deployment delta against the snapshot, per-request delays and search
    stats (see ``stats_to_document``)."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "status": result.status,
        "stats": stats_to_document(result.stats, include_timing),
    }
    if result.plan is not None:
        delta = vars(snapshot_diff(instance.snapshot, result.plan))
        doc["plan"] = plan_to_document(result.plan)
        doc["breakdown"] = breakdown_to_document(result.breakdown)
        doc["delta"] = {kind: [list(x) for x in entries] for kind, entries in delta.items()}
        doc["delays_us"] = service_delays(instance, result.plan)
    return doc
