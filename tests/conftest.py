"""Shared builders for hand-sized test instances.

Values follow the benchmark simulation constants: 2 vCPU per VNF, $5/vCPU
hosting, $100 license, 20 ms processing, 8 vCPU servers, unit traffic.
Money is micro-money, delays are microseconds.
"""

from dataclasses import replace

import pytest

from chainplace.model import (
    Network,
    PlacementPlan,
    ProblemInstance,
    ServiceRequest,
    Snapshot,
    VnfCatalog,
    VnfType,
)
from chainplace.scenario import ScenarioSpec, generate

MONEY = 10**6
MS = 1000

LICENSE = 100 * MONEY
UNIT_COST = 5 * MONEY
RESOURCE = 2
CAPACITY = 8
PROC_DELAY = 20 * MS


def mk_network(
    n_servers=2,
    n_users=1,
    link_cost=100_000,
    link_delay=10 * MS,
    bandwidth=10,
    capacity=CAPACITY,
    unit_cost=UNIT_COST,
):
    """Uniform full mesh with zero diagonals."""
    servers = tuple(f"s{i}" for i in range(n_servers))
    users = tuple(f"u{i}" for i in range(n_users))
    n = n_servers + n_users
    cost = [[0 if i == j else link_cost for j in range(n)] for i in range(n)]
    delay = [[0 if i == j else link_delay for j in range(n)] for i in range(n)]
    band = [[0 if i == j else bandwidth for j in range(n)] for i in range(n)]
    return Network(
        servers=servers,
        users=users,
        bandwidth=band,
        link_cost=cost,
        link_delay=delay,
        server_capacity={s: capacity for s in servers},
        server_unit_cost={s: unit_cost for s in servers},
    )


def mk_type(net, name="k0", instances=1, license_cost=LICENSE, capacity=10,
            resource=RESOURCE, proc_delay=PROC_DELAY, migration_unit=None):
    """Type with uniform per-server delay; migration priced at 44 times the
    link cost unless overridden."""
    migration = {}
    for s in net.servers:
        for d in net.servers:
            if s == d:
                migration[(s, d)] = 0
            elif migration_unit is not None:
                migration[(s, d)] = migration_unit
            else:
                migration[(s, d)] = 44 * net.cost_between(s, d)
    return VnfType(
        name=name,
        license_cost=license_cost,
        capacity=capacity,
        resource_req=resource,
        instances=tuple(range(instances)),
        processing_delay={s: proc_delay for s in net.servers},
        migration_cost=migration,
    )


def mk_request(net, rid="r0", chain=("k0",), user=None, traffic=1,
               budget=1900 * MS, candidates=None, status="new", route=()):
    return ServiceRequest(
        id=rid,
        user=user or net.users[0],
        chain=tuple(chain),
        traffic=traffic,
        delay_budget=budget,
        candidate_servers=tuple(net.servers if candidates is None else candidates),
        status=status,
        current_route=frozenset(route),
    )


def mk_instance(net=None, types=None, requests=None, snapshot=(), mu=1.0):
    net = net or mk_network()
    if types is None:
        types = [mk_type(net)]
    catalog = VnfCatalog(tuple(types))
    if requests is None:
        requests = [mk_request(net)]
    return ProblemInstance(
        network=net,
        catalog=catalog,
        requests=tuple(requests),
        snapshot=Snapshot(frozenset(snapshot)),
        usage_threshold=mu,
    )


def mk_plan(content=(), deployment=(), assignment=(), routes=None):
    return PlacementPlan(
        content_server=frozenset(content),
        deployment=frozenset(deployment),
        assignment=frozenset(assignment),
        routes=dict(routes or {}),
    )


def frozen_load_instance(mu):
    """Two instances of k0, a type no request needs, fill s0 to its 4 units
    of capacity; the one new request needs k1. At ``mu`` 1 the optimum puts
    k1 on s1 (102.09 money); at ``mu`` 0.5 the frozen load alone overfills
    s0."""
    net = mk_network(capacity=4, unit_cost=UNIT_COST // 5, link_cost=90_000)
    return mk_instance(
        net,
        types=[mk_type(net, name="k0", instances=2), mk_type(net, name="k1")],
        requests=[mk_request(net, chain=("k1",))],
        snapshot=[("k0", 0, "s0"), ("k0", 1, "s0")],
        mu=mu,
    )


def colliding_instance():
    """Two variables whose aliases collide: ``l[r0][s0][s0_k0][0]`` and
    ``l[r0_s0][s0][k0][0]`` both sanitize to ``l_r0_s0_s0_k0_0``."""
    net = mk_network()
    types = [mk_type(net, name="k0"), mk_type(net, name="s0_k0")]
    requests = [
        mk_request(net, rid="r0", chain=("s0_k0",)),
        mk_request(net, rid="r0_s0", chain=("k0",)),
    ]
    return mk_instance(net, types=types, requests=requests)


def export_case_instance(described):
    """The instance a case of tests/data/export_digests.json describes:
    ``frozen_load_instance`` (optionally without its request), or a
    scenario table row with generator overrides."""
    if "frozen_load_mu" in described:
        inst = frozen_load_instance(described["frozen_load_mu"])
        return replace(inst, requests=()) if described.get("no_requests") else inst
    spec = ScenarioSpec.table_row(
        described["scenario"],
        seed=described["seed"],
        reduced=described["reduced"],
        overrides=described["overrides"],
    )
    return generate(spec)


@pytest.fixture
def net2():
    return mk_network(n_servers=2, n_users=1)


@pytest.fixture
def tiny(net2):
    """2 servers, 1 user, 1 type with 1 instance, 1 new request."""
    return mk_instance(net2)
