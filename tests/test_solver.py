import itertools
import json
import math
import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainplace.costs import service_delay, total_objective
from chainplace.errors import TooLargeError
from chainplace.ilp import build_ilp, enumerate_variables, export_mps, import_solution, plan_vector
from chainplace.model import Network, check_feasibility
from chainplace.scenario import DEFAULT_SEED, ScenarioSpec, generate, run_comparison
from chainplace.solver import (
    SolveOptions,
    _brute_force,
    _Dive,
    _Incumbent,
    _Problem,
    _Search,
    _solve_exact,
    brute_force,
    derive_routes,
    solve_exact,
)

from conftest import (
    MS,
    RESOURCE,
    UNIT_COST,
    frozen_load_instance,
    mk_instance,
    mk_network,
    mk_plan,
    mk_request,
    mk_type,
)
from helpers import solve_mps_with_highs

DATA = pathlib.Path(__file__).parent / "data"
# HiGHS optima of the full-scale table, by scenario seed; seeds 5 and 7
# keep seed 3 from being the only full-scale proof, and seed 7 is the
# hardest instance measured for the search
FULL_ORACLE = {
    DEFAULT_SEED: DATA / "acceptance_oracle_full.json",
    5: DATA / "acceptance_oracle_full_seed5.json",
    7: DATA / "acceptance_oracle_full_seed7.json",
}
OPTION_SETS = [
    SolveOptions(),
    SolveOptions(no_reuse=True),
    SolveOptions(clamp_instantiation=True),
]


# 10 servers, 10 user groups, 7 existing and 9 new requests at seed 4: a
# case past the first frontier that generates in about 0.03 s, and whose
# no_reuse solve takes hundreds of thousands of nodes, so a short time
# limit binds at any of the search's clock reads (every 256 nodes); its
# warm-start dive offers a leaf in about 30 nodes
SLOW_SPEC = ScenarioSpec(
    seed=4, n_servers=10, n_user_groups=10, existing_requests=7, new_requests=9
)


def small_spec(seed, existing=1, new=1, servers=2, types=2):
    return ScenarioSpec(
        seed=seed,
        n_servers=servers,
        n_user_groups=1,
        existing_requests=existing,
        new_requests=new,
        overrides={"vnf_types": types, "chain_length_range": (1, min(2, types))},
    )


class TestDeriveRoutes:
    def test_colocated_chain_keeps_only_self_and_user_links(self, tiny):
        routes = derive_routes(tiny, {"r0": "s0"}, {("r0", "k0"): ("s0", 0)})
        assert routes["r0"] == frozenset({("s0", "s0"), ("s0", "u0")})

    def test_spread_chain_traces_every_hop(self):
        net = mk_network(n_servers=3)
        types = [mk_type(net, name=f"k{i}") for i in range(3)]
        inst = mk_instance(
            net, types=types, requests=[mk_request(net, chain=("k0", "k1", "k2"))]
        )
        routes = derive_routes(
            inst,
            {"r0": "s0"},
            {("r0", "k0"): ("s0", 0), ("r0", "k1"): ("s1", 0), ("r0", "k2"): ("s2", 0)},
        )
        assert routes["r0"] == frozenset(
            {("s0", "s0"), ("s0", "s1"), ("s1", "s2"), ("s2", "u0")}
        )

    def test_minimality_every_link_is_forced(self):
        net = mk_network(n_servers=3)
        types = [mk_type(net, name=f"k{i}") for i in range(2)]
        inst = mk_instance(
            net, types=types, requests=[mk_request(net, chain=("k0", "k1"))]
        )
        routes = derive_routes(
            inst, {"r0": "s1"}, {("r0", "k0"): ("s0", 0), ("r0", "k1"): ("s2", 0)}
        )
        # entry link, one chain hop, one user link; nothing else
        assert routes["r0"] == frozenset({("s0", "s1"), ("s0", "s2"), ("s2", "u0")})


class TestSolveExact:
    def test_single_request_costs_license_hosting_and_route(self, tiny):
        result = solve_exact(tiny)
        assert result.status == "optimal"
        # license 100 + hosting 10 + one user link (uniform cost mesh)
        expected = 100_000_000 + 10_000_000 + tiny.network.cost_between("s0", "u0")
        assert result.breakdown.total == expected
        oracle = brute_force(tiny)
        assert oracle.breakdown.total == result.breakdown.total
        assert oracle.plan == result.plan

    def test_already_optimal_snapshot_is_kept_at_zero_cost(self):
        inst = generate(small_spec(seed=5, existing=1, new=0))
        result = solve_exact(inst)
        assert result.status == "optimal"
        assert result.breakdown.total == 0
        assert result.plan.deployment == inst.snapshot.deployed
        # a plan that changes nothing shares the snapshot's entries and the
        # requests' route sets rather than copying them
        own = {e: e for e in inst.snapshot.deployed}
        assert all(e is own[e] for e in result.plan.deployment)
        for r in inst.requests:
            assert result.plan.routes[r.id] is r.current_route

    def test_unreachable_delay_budget_is_infeasible(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, budget=1)])
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.plan is None

    @pytest.mark.parametrize(
        "capacity, requests",
        [(0, 1), (1, 4)],
        ids=["no-capacity", "pool-too-small"],
    )
    def test_type_that_can_never_meet_its_count_is_refuted_at_the_root(
        self, net2, capacity, requests
    ):
        """A pool of three instances that no placement can make carry the
        traffic: none carries any, or each carries one of four requests.
        The bound charges the type inf before any instance is placed, so
        neither the dive nor the search visits a node."""
        inst = mk_instance(
            net2,
            types=[mk_type(net2, capacity=capacity, instances=3)],
            requests=[mk_request(net2, rid=f"r{i}") for i in range(requests)],
        )
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.stats.nodes == result.stats.dive_nodes == 0

    def test_candidate_choice_follows_route_costs(self):
        base = mk_network(n_servers=2)
        rows = [list(r) for r in base.link_cost]
        iu = base.position("u0")
        rows[base.position("s0")][iu] = rows[iu][base.position("s0")] = 110_000
        rows[base.position("s1")][iu] = rows[iu][base.position("s1")] = 95_000
        net = Network(
            servers=base.servers,
            users=base.users,
            bandwidth=base.bandwidth,
            link_cost=rows,
            link_delay=base.link_delay,
            server_capacity=base.server_capacity,
            server_unit_cost=base.server_unit_cost,
        )
        inst = mk_instance(net)
        plan = solve_exact(inst).plan
        assert ("r0", "s1") in plan.content_server

        flipped = [list(r) for r in rows]
        flipped[base.position("s0")][iu] = flipped[iu][base.position("s0")] = 95_000
        flipped[base.position("s1")][iu] = flipped[iu][base.position("s1")] = 110_000
        net2 = Network(
            servers=base.servers,
            users=base.users,
            bandwidth=base.bandwidth,
            link_cost=flipped,
            link_delay=base.link_delay,
            server_capacity=base.server_capacity,
            server_unit_cost=base.server_unit_cost,
        )
        plan2 = solve_exact(mk_instance(net2)).plan
        assert ("r0", "s0") in plan2.content_server

    def test_time_limited_gap_stays_below_the_incumbent(self):
        # the demand term keeps the lower bound positive on a full-scale
        # case; without it the gap exceeds the incumbent. The clock is read
        # every 256 nodes, so the case must take more: full-scale seed-5
        # scenario 1 under no_reuse takes the nodes the search digest pins
        # and about 0.005 s of CPU on a 2-vCPU Xeon host, so a 0.0005 s
        # limit binds with room to spare; the warm-start dive offers a leaf
        # before any deadline check, so the run stops with an incumbent
        nodes = json.loads((DATA / "search_digest.json").read_text())[
            "full/seed5/scenario1/no_reuse"
        ]["nodes"]
        assert nodes > 256, (
            f"full s5 sc1 no_reuse now proves optimal in {nodes} nodes; the clock is read "
            "every 256 nodes, so no time limit binds on it: move this test to a slower case"
        )
        frozen = json.loads(FULL_ORACLE[5].read_text())
        optimum = frozen["scenarios"]["1"]["no_reuse"]["total_micro"]
        inst = generate(ScenarioSpec.table_row(1, seed=5))
        options = SolveOptions(time_limit=0.0005, no_reuse=True, clamp_instantiation=True)
        assert 0 < root_bound(_Problem(inst, options)) <= optimum
        result = solve_exact(inst, options)
        assert result.status == "time_limit"
        assert 0 <= result.stats.gap < result.breakdown.total

    def test_time_limit_returns_incumbent_with_gap(self):
        inst = generate(SLOW_SPEC)
        result = solve_exact(inst, SolveOptions(time_limit=0.0005, no_reuse=True))
        assert result.status == "time_limit"
        if result.plan is not None:
            assert check_feasibility(inst, result.plan).feasible
            assert result.stats.gap is None or result.stats.gap >= 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_plans_and_objectives_match(self, seed):
        inst = generate(small_spec(seed=seed))
        fast = solve_exact(inst)
        slow = brute_force(inst)
        assert fast.status == slow.status == "optimal"
        assert fast.breakdown.total == slow.breakdown.total
        assert fast.plan == slow.plan

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_under_clamped_accounting(self, seed):
        inst = generate(small_spec(seed=seed))
        options = SolveOptions(clamp_instantiation=True)
        fast = solve_exact(inst, options)
        slow = brute_force(inst, options)
        assert fast.breakdown.total == slow.breakdown.total
        assert fast.plan == slow.plan

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_under_no_reuse(self, seed):
        inst = generate(small_spec(seed=seed))
        options = SolveOptions(no_reuse=True)
        fast = solve_exact(inst, options)
        slow = brute_force(inst, options)
        assert fast.breakdown.total == slow.breakdown.total
        assert fast.plan == slow.plan


@st.composite
def binding_instances(draw):
    """Two servers, one or two users, at most three VNF instances and two
    requests, with link bandwidth, VNF capacity, server capacity, the usage
    threshold and the delay budgets all small enough to bind. Each knob also
    draws a loose value now and then, so that enough draws stay feasible."""
    servers = ("s0", "s1")
    users = tuple(f"u{i}" for i in range(draw(st.integers(1, 2))))
    nodes = servers + users
    n = len(nodes)
    cost = [[0] * n for _ in range(n)]
    delay = [[0] * n for _ in range(n)]
    band = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        cost[i][j] = cost[j][i] = draw(st.sampled_from([90_000, 100_000, 115_000]))
        delay[i][j] = delay[j][i] = draw(st.sampled_from([5 * MS, 20 * MS, 50 * MS]))
        band[i][j] = band[j][i] = draw(st.sampled_from([1, 2, 10]))
    net = Network(
        servers=servers,
        users=users,
        bandwidth=band,
        link_cost=cost,
        link_delay=delay,
        server_capacity={s: draw(st.sampled_from([4, 8])) for s in servers},
        # unequal hosting prices make the cheap host and the content server
        # differ, so entry links are common
        server_unit_cost={
            s: draw(st.sampled_from([UNIT_COST // 5, UNIT_COST, 4 * UNIT_COST]))
            for s in servers
        },
    )
    pools = draw(
        st.lists(st.integers(1, 2), min_size=1, max_size=2).filter(lambda c: sum(c) <= 3)
    )
    types = [
        mk_type(
            net,
            name=f"k{t}",
            instances=count,
            capacity=draw(st.sampled_from([2, 4])),
            proc_delay=draw(st.sampled_from([10 * MS, 20 * MS])),
        )
        for t, count in enumerate(pools)
    ]
    snapshot = []
    for t in types:
        for i in t.instances:
            server = draw(st.sampled_from((None,) + servers))
            if server is not None:
                snapshot.append((t.name, i, server))
    # a current route's links each have a server end (servers come first)
    pairs = itertools.combinations_with_replacement(nodes, 2)
    links = [net.link(a, b) for a, b in pairs if a in servers]
    requests = []
    for ri in range(draw(st.integers(1, 2))):
        order = draw(st.permutations([t.name for t in types]))
        existing = draw(st.booleans())
        requests.append(
            mk_request(
                net,
                rid=f"r{ri}",
                chain=order[: draw(st.integers(1, len(order)))],
                user=draw(st.sampled_from(users)),
                traffic=draw(st.sampled_from([1, 1, 2])),
                budget=draw(st.sampled_from([60, 100, 150, 1900, 1900])) * MS,
                candidates=draw(
                    st.lists(st.sampled_from(servers), min_size=1, max_size=2, unique=True)
                ),
                status="existing" if existing else "new",
                route=draw(st.sets(st.sampled_from(links), max_size=3)) if existing else (),
            )
        )
    return mk_instance(
        net,
        types=types,
        requests=requests,
        snapshot=snapshot,
        mu=draw(st.sampled_from([0.5, 0.75, 1.0, 1.0])),
    )


def snapshot_beside_fresh_instance():
    """Each server holds one instance of k0, and an instance carries one
    request. The existing request keeps the snapshot instance on s0; the
    new request's content is on s0 too, but under no_reuse it must use the
    fresh instance, which only fits on s1. So its cheapest route is
    s0 -> s1 -> u0, where reusing would cost only the s0 -> u0 link."""
    net = mk_network(n_servers=2, capacity=RESOURCE)
    return mk_instance(
        net,
        types=[mk_type(net, instances=2, capacity=1)],
        requests=[
            mk_request(net, rid="r0", status="existing",
                       route=[net.link("s0", "s0"), net.link("s0", "u0")]),
            mk_request(net, rid="r1", candidates=("s0",)),
        ],
        snapshot=[("k0", 0, "s0")],
    )


def snapshot_among_fresh_instances(held, new):
    """k0's pool is (0, 1, 2) and the snapshot holds instance ``held`` on
    s0: with ``held`` 1 it sits between the fresh instances, with 2 after
    both. An instance carries one request, so the existing request and the
    ``new`` new ones need ``new + 1`` instances: the snapshot one and the
    first ``new`` fresh ones. With no new request only the snapshot
    instance stays, so the search must reach its decision past fresh
    instances left out; with two, a fresh instance past it is deployed
    too when ``held`` is 1."""
    net = mk_network(n_servers=2)
    requests = [
        mk_request(net, rid="r0", status="existing",
                   route=[net.link("s0", "s0"), net.link("s0", "u0")]),
    ]
    requests += [mk_request(net, rid=f"r{i + 1}") for i in range(new)]
    return mk_instance(
        net,
        types=[mk_type(net, instances=3, capacity=1)],
        requests=requests,
        snapshot=[("k0", held, "s0")],
    )


class TestBindingRegimes:
    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @example(instance=frozen_load_instance(0.5), options=SolveOptions())
    @settings(max_examples=300, deadline=None)
    def test_search_matches_brute_force(self, instance, options):
        fast = solve_exact(instance, options)
        slow = brute_force(instance, options)
        assert fast.status == slow.status
        assert fast.plan == slow.plan
        if slow.breakdown is not None:
            assert fast.breakdown.total == slow.breakdown.total

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @settings(max_examples=100, deadline=None)
    def test_highs_on_the_export_matches_the_search(self, instance, options):
        """The third engine: HiGHS, at a gap of 0, on the MPS built from the
        same options the search reads. It proves infeasible exactly when
        the search does, and otherwise its plan checks out at the search's
        total."""
        fast = solve_exact(instance, options)
        model = build_ilp(instance, options)
        solved = solve_mps_with_highs(export_mps(model))
        assert (solved is None) == (fast.status == "infeasible")
        if solved is None:
            return
        plan = import_solution(model, solved[1])
        assert check_feasibility(instance, plan).feasible
        clamp = options.clamp_instantiation
        assert total_objective(instance, plan, clamp_instantiation=clamp).total == (
            fast.breakdown.total
        )

    @pytest.mark.parametrize("new", [0, 1, 2])
    @pytest.mark.parametrize("held", [1, 2])
    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    def test_snapshot_instance_among_fresh_ones(self, held, new, no_reuse):
        """The search jumps over fresh instances that can no longer
        activate, to the type's next snapshot decision or its end; the
        instances on either side of the snapshot one stay reachable."""
        instance = snapshot_among_fresh_instances(held, new)
        options = SolveOptions(no_reuse=no_reuse, clamp_instantiation=True)
        fast = solve_exact(instance, options)
        slow = brute_force(instance, options)
        assert fast.status == slow.status == "optimal"
        assert fast.plan == slow.plan
        assert fast.breakdown.total == slow.breakdown.total
        fresh = [i for i in range(3) if i != held]
        assert {i for _k, i, _s in fast.plan.deployment} == {held, *fresh[:new]}
        TestWarmStart.assert_same_as_plain_search(_Problem(instance, options))


def route_floor(p, prefix: tuple) -> list:
    """The route floor over the types of ``prefix`` as the suffix sums of
    its per-request terms: entry ``ri`` is the least cost of routing the
    requests from ``ri`` on, entry 0 the floor. The terms are priced from
    the root's, one type at a time, through ``_Problem.reprice``: every
    request that uses the type, as the search prices them when no
    repricing prunes. ``prefix[k]`` holds two server bitmasks for each
    decided type position ``k``: the servers deploying it, and those
    deploying a qualifying instance of it."""
    every, qualified = [None] * len(p.need), [None] * len(p.need)
    terms = list(p.root_terms)
    for k, masks in enumerate(prefix):
        every[k], qualified[k] = masks
        for ri, shape in p.repriced[k]:
            terms[ri] = p.reprice(ri, shape, (every, qualified))
    return list(itertools.accumulate(terms[::-1], initial=0))[::-1]


def demand(p, k: int, first: int, deployed: int, qualified: int) -> int | float:
    """What the search bound charges type position ``k`` when its decisions
    from ``first`` on are undecided, ``deployed`` of its instances are
    deployed and ``qualified`` of those qualify: the larger of the least
    extras that bring the deployed instances to ``need[k]`` and the
    qualifying ones to ``need_qualified[k]``, inf when too few decisions
    remain. A decision's extra is its cheapest deploying option less its
    cheapest option."""
    rest = [d for d in p.decisions[first:] if d.type_pos == k]

    def extra(d):
        return min(c for t, c in d.options if t is not None) - min(c for _t, c in d.options)

    def cheapest(pool, more):
        if more <= 0:
            return 0
        if more > len(pool):
            return math.inf
        return sum(sorted(map(extra, pool))[:more])

    return max(
        cheapest(rest, p.need[k] - deployed),
        cheapest([d for d in rest if d.qualifies], p.need_qualified[k] - qualified),
    )


def placement_tail(p, di: int, deployed: list, qualified: list) -> int | float:
    """The search bound's placement terms at decision ``di`` when
    ``deployed[k]`` instances of each type position ``k`` are deployed,
    ``qualified[k]`` of them qualifying: each undecided decision's cheapest
    option, plus the demand of di's type and of every later one."""
    tail = sum(min(c for _t, c in d.options) for d in p.decisions[di:])
    types = range(p.decisions[di].type_pos, len(p.need))
    return tail + sum(demand(p, k, di, deployed[k], qualified[k]) for k in types)


def root_bound(p) -> int:
    """The search bound at the root, before any instance is placed and so
    before any type is decided."""
    none = [0] * len(p.need)
    placement = placement_tail(p, 0, none, none) if p.decisions else 0
    return placement + route_floor(p, ())[0]


def host_masks(p, plan) -> tuple:
    """Per type position, the bitmasks of the servers that deploy the type
    in ``plan`` and of those that deploy a qualifying instance of it: any
    instance, or a fresh one when the type is fresh-only (no_reuse, and a
    new request uses it). This is the prefix ``route_floor`` reads
    at the placement leaf of ``plan``'s path; the placement nodes read its
    first entries, one per type decided before them."""
    position = {d.vnf_name: d.type_pos for d in p.decisions}
    fresh_only = {
        k for r in p.requests if p.options.no_reuse and r.status == "new" for k in r.chain
    }
    masks = [[0, 0] for _k in p.need]
    for k, i, s in plan.deployment:
        if k in position:
            bit = 1 << p.instance.network.position(s)
            masks[position[k]][0] |= bit
            if k not in fresh_only or p.instance.snapshot.server_of(k, i) is None:
                masks[position[k]][1] |= bit
    return tuple(tuple(pair) for pair in masks)


def route_cost(net, route) -> int:
    return sum(net.cost_between(a, b) for a, b in route if a != b)


def path_bounds(p, plan) -> tuple[list[int], int]:
    """The search bound at each node on the path to ``plan``: placements in
    decision order, then one node per request before it is routed. Also
    returns the committed cost at the leaf, which is the plan's total. The
    placement bounds count, per type, the instances and the qualifying ones
    the path has deployed so far, as the search does (see ``demand``), and
    add the route floor over the types decided before them: decisions run
    by type, so those are the types at lower positions. A decision's
    options are keyed by server position. The assignment bounds read the
    floor over every type."""
    placed = {(k, i): p.instance.network.position(s) for k, i, s in plan.deployment}
    masks = host_masks(p, plan)
    deployed, qualified = [0] * len(p.need), [0] * len(p.need)
    committed, bounds = 0, []
    for di, d in enumerate(p.decisions):
        floor = route_floor(p, masks[: d.type_pos])[0]
        bounds.append(committed + placement_tail(p, di, deployed, qualified) + floor)
        target = placed.get((d.vnf_name, d.instance_id))
        committed += dict(d.options)[target]
        if target is not None:
            deployed[d.type_pos] += 1
            qualified[d.type_pos] += d.qualifies
    tail = route_floor(p, masks)
    for ri, r in enumerate(p.requests):
        bounds.append(committed + tail[ri])
        committed += r.traffic * route_cost(p.instance.network, plan.routes[r.id]) - p.credit[ri]
    return bounds, committed


def cheapest_routes(instance, plan, no_reuse) -> list[int]:
    """Per request, traffic x the cost of its cheapest route by brute force
    over names: any candidate content server, and per chain slot any
    instance of the slot's type that ``plan`` deploys, a fresh one for a new
    request under no_reuse. Capacities and delay are ignored."""
    out = []
    for r in instance.requests:
        pools = []
        for k in r.chain:
            pool = [(s, i) for kind, i, s in plan.deployment if kind == k]
            if no_reuse and r.status == "new":
                pool = [(s, i) for s, i in pool if instance.snapshot.server_of(k, i) is None]
            pools.append(pool)
        keys = [(r.id, k) for k in r.chain]
        costs = [
            route_cost(
                instance.network,
                derive_routes(instance, {r.id: cs}, dict(zip(keys, picks)))[r.id],
            )
            for cs in r.candidate_servers
            for picks in itertools.product(*pools)
        ]
        out.append(r.traffic * min(costs))
    return out


class TestAdmissibleBound:
    """Pruning is exact only if no bound exceeds the best leaf below it.
    The oracle's optimum is a leaf below the root and below every node on
    the path to it, so none of those bounds may exceed its total."""

    # three instances of one type each carry one request: one existing and
    # two new, so need is 3 and, under no_reuse, need_qualified is 2
    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @example(instance=snapshot_among_fresh_instances(1, 2), options=SolveOptions())
    @example(instance=snapshot_among_fresh_instances(1, 2), options=SolveOptions(no_reuse=True))
    @settings(max_examples=200, deadline=None)
    def test_bound_never_exceeds_the_optimum(self, instance, options):
        p = _Problem(instance, options)
        search = _Search(p, _Incumbent(p.leaf_key), deadline=math.inf)
        assert search._bound(0) == root_bound(p)
        slow = _brute_force(p)
        if slow.breakdown is None:
            return
        total = slow.breakdown.total
        bounds, committed = path_bounds(p, slow.plan)
        assert committed == total
        assert bounds[0] == root_bound(p)
        assert max(bounds) <= total

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @example(instance=snapshot_beside_fresh_instance(), options=SolveOptions(no_reuse=True))
    @example(instance=snapshot_beside_fresh_instance(), options=SolveOptions())
    @settings(max_examples=200, deadline=None)
    def test_leaf_minimum_is_the_cheapest_route(self, instance, options):
        """At the optimum's placement leaf, each request's share of the
        route floor is its cheapest route less its credit, and that route
        costs no more than the one the optimum takes. The search builds
        each type's masks from its own state, so replaying the optimum's
        placement on it must give the masks read off the plan."""
        p = _Problem(instance, options)
        slow = _brute_force(p)
        if slow.breakdown is None:
            return
        search = _Search(p, _Incumbent(p.leaf_key), deadline=0.0)
        placed = {(k, i): p.instance.network.position(s) for k, i, s in slow.plan.deployment}
        for di, d in enumerate(p.decisions):
            target = placed.get((d.vnf_name, d.instance_id))
            search._commit_tau(di, target, dict(d.options)[target])
        masks = host_masks(p, slow.plan)
        assert tuple(search._type_masks(k) for k in range(len(p.need))) == masks
        tail = route_floor(p, masks)
        cheapest = cheapest_routes(instance, slow.plan, options.no_reuse)
        for ri, r in enumerate(instance.requests):
            assert tail[ri] - tail[ri + 1] == cheapest[ri] - p.credit[ri]
            assert cheapest[ri] <= r.traffic * route_cost(instance.network, slow.plan.routes[r.id])

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_deciding_a_type_never_lowers_the_floor(self, instance, options, data):
        """The search checks a child's bound on its parent's floor before it
        prices the floor of the longer prefix. That check prunes only
        children the longer prefix's floor prunes too, because no entry of
        the floor falls when a type is decided. Each prefix is priced from
        the root, and the prefixes in a drawn order, so the cheapest routes
        a fold reads from the problem's memo were filled by the folds before
        it, of any length."""
        p = _Problem(instance, options)
        every = st.integers(1, 3)  # two servers, at least one deploying
        masks = tuple(
            (mask, data.draw(st.sampled_from([m for m in (1, 2, 3) if m & mask == m])))
            for mask in (data.draw(every) for _k in p.need)
        )
        order = data.draw(st.permutations(range(len(masks) + 1)))
        floors = {decided: route_floor(p, masks[:decided]) for decided in order}
        for decided in range(len(masks)):
            before, after = floors[decided], floors[decided + 1]
            assert all(a <= b for a, b in zip(before, after))

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_carried_floor_is_the_floor_priced_from_the_root(self, instance, options, data):
        """At each type end the search reprices, in place, only the requests
        that use the type, and restores their terms on backtrack. Replaying
        a drawn placement through it, the floor and terms it holds at the
        root and after each type end it descends past are those
        ``route_floor`` prices from the root over the types decided so far,
        also after backtracking, and at each placement leaf the assignment
        tail is the floor's suffix sums. The search ends holding the root's
        terms again."""
        p = _Problem(instance, options)
        search = _Search(p, _Incumbent(p.leaf_key), deadline=math.inf)
        # each decision keeps one or two drawn options, so the tree stays small
        search.options = [
            data.draw(st.lists(st.sampled_from(d.options), min_size=1, max_size=2, unique=True))
            for d in p.decisions
        ]
        seen = []
        descend, assign = search._descend, search._assign

        def record(di, bound):
            every, qualified = search.hosts
            # decisions run type by type: the types before di's are decided
            decided = p.decisions[di].type_pos if di < len(p.decisions) else len(p.need)
            assert every[decided:] == qualified[decided:] == [None] * (len(every) - decided)
            prefix = tuple(zip(every, qualified))[:decided]
            seen.append((prefix, search.floor, list(search.terms)))
            descend(di, bound)

        def leaf(ri, bound):
            if ri == 0:
                assert search.tail == route_floor(p, tuple(zip(*search.hosts)))
            assign(ri, bound)

        search._descend, search._assign = record, leaf
        search.run()
        assert seen or root_bound(p) == math.inf
        for prefix, floor, terms in seen:
            tail = route_floor(p, prefix)
            assert floor == tail[0]
            assert terms == [a - b for a, b in zip(tail, tail[1:])]
        assert search.terms == p.root_terms and search.floor == sum(p.root_terms)

    @staticmethod
    def assert_visits_only_open_nodes(p) -> list[bool]:
        """A node's parent bounds it: every placement and assignment node
        the search visits after the warm-start dive has a bound no higher
        than the incumbent's total as it is visited. A type end stops
        repricing once the floor so far prunes, so it descends exactly when
        the floor repriced over every request that uses the type, by
        ``route_floor``, leaves the bound open. Returns, per type end in
        visiting order, whether it descended."""
        incumbent = _Incumbent(p.leaf_key)
        _Dive(p, incumbent, deadline=math.inf).run()
        search = _Search(p, incumbent, deadline=math.inf)
        visited = []

        def visiting(method):
            def visit(index, bound):
                assert bound != math.inf
                assert incumbent.total is None or bound <= incumbent.total
                visited.append(bound)
                method(index, bound)

            return visit

        search._branch_tau = visiting(search._branch_tau)
        search._assign = visiting(search._assign)
        end_type = search._end_type
        ends = []

        def ending(k, child):
            masks = tuple(search._type_masks(j) for j in range(k + 1))
            floor = route_floor(p, masks)[0]
            opens = search._open(search.committed + p.place_tail[child] + floor)
            before = len(visited)
            end_type(k, child)
            assert (len(visited) > before) == opens
            ends.append(opens)

        search._end_type = ending
        search.run()
        assert bool(visited) == search._open(root_bound(p))
        return ends

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @settings(max_examples=200, deadline=None)
    def test_nodes_are_visited_only_with_an_open_bound(self, instance, options):
        self.assert_visits_only_open_nodes(_Problem(instance, options))

    def test_full_scale_type_ends_prune_as_the_whole_floor(self):
        """Full-scale seed-3 scenario 1 under no_reuse, where the floor
        prunes 48 of the search's 60 type ends."""
        instance = generate(ScenarioSpec.table_row(1, seed=DEFAULT_SEED))
        options = SolveOptions(no_reuse=True, clamp_instantiation=True)
        ends = self.assert_visits_only_open_nodes(_Problem(instance, options))
        assert (len(ends), ends.count(False)) == (60, 48)

    def test_a_link_used_twice_is_priced_once(self):
        """Content on s0, k0 only on s1 and k1 only on s0: the one route is
        s0 -> s1 -> s0 -> u0, whose links are {s0-s1, s0-u0}. Pricing it hop
        by hop would charge s0-s1 twice and overshoot the route's cost."""
        net = mk_network(n_servers=2, link_cost=100_000)
        types = [mk_type(net, name="k0"), mk_type(net, name="k1")]
        inst = mk_instance(
            net,
            types=types,
            requests=[mk_request(net, chain=("k0", "k1"), traffic=2, candidates=("s0",))],
        )
        p = _Problem(inst, SolveOptions())
        assert route_floor(p, ((0b10, 0b10), (0b01, 0b01))) == [2 * 200_000, 0]
        # co-located on the content server, the route pays its user link only
        assert route_floor(p, ((0b01, 0b01), (0b01, 0b01))) == [2 * 100_000, 0]

    def test_undecided_slots_drop_their_links(self):
        """Three servers; links to the user cost 10 from s0, 20 from s1 and
        30 from s2, and every link between servers costs 100. Content is on
        s2. Only the types at positions below the prefix's length are
        decided. An undecided last slot pays the cheapest user link (10),
        not the one from the last decided host; an undecided first slot
        pays no entry link; a link with an undecided end is dropped, also
        when both slots around the undecided one are decided."""
        base = mk_network(n_servers=3, link_cost=100)
        rows = [list(row) for row in base.link_cost]
        user = base.position("u0")
        for s, c in (("s0", 10), ("s1", 20), ("s2", 30)):
            rows[base.position(s)][user] = rows[user][base.position(s)] = c
        net = replace(base, link_cost=rows)
        types = [mk_type(net, name=f"k{i}") for i in range(3)]
        chains = [("k0", "k1"), ("k1", "k0"), ("k2", "k0", "k1"), ("k0", "k2", "k1")]
        inst = mk_instance(
            net,
            types=types,
            requests=[
                mk_request(net, rid=f"r{i}", chain=chain, candidates=("s2",))
                for i, chain in enumerate(chains)
            ],
        )
        p = _Problem(inst, SolveOptions())
        on = {s: (1 << i, 1 << i) for i, s in enumerate(("s0", "s1", "s2"))}

        def routes(prefix):
            tail = route_floor(p, prefix)
            return [a - b for a, b in zip(tail, tail[1:])]

        # no type decided: each request pays the cheapest user link
        assert routes(()) == [10, 10, 10, 10]
        # k0 on s1: r0 pays entry s2-s1 and the cheapest user link, not
        # s1-u0; r1's first slot is open, so no entry, and its user link
        # leaves s1; r2's k0 sits between two open slots, so it pays
        # neither neighbour link, only the cheapest user link; so does r3
        assert routes((on["s1"],)) == [100 + 10, 20, 10, 100 + 10]
        # k0 on s1 and k1 on s0: r0 and r1 pay whole routes; r2's decided
        # k0 -> k1 hop and user link count, but its open k2 slot drops the
        # entry and the k2 -> k0 link; r3 pays its entry and user link, but
        # not the s1-s0 link, which no route of r3 need take
        routed = [100 + 100 + 10, 100 + 100 + 20, 100 + 10, 100 + 10]
        assert routes((on["s1"], on["s0"])) == routed


def shared_entry_link():
    """Content on s0 only, and a server holds one instance. The snapshot's
    k0 on s1 and k1 on s0 stay put, since a migration costs more than any
    route, so the optimum's route is s0 -> s1 -> s0 -> u0: its entry link
    s0-s1 is also its k0 -> k1 hop."""
    net = mk_network(n_servers=2, capacity=RESOURCE)
    return mk_instance(
        net,
        types=[mk_type(net, name="k0"), mk_type(net, name="k1")],
        requests=[mk_request(net, chain=("k0", "k1"), candidates=("s0",))],
        snapshot=[("k0", 0, "s1"), ("k1", 0, "s0")],
    )


def named_columns(p, plan, ri) -> list[tuple]:
    """Request ``ri``'s routes at ``plan``'s placement, by names, in the
    search's order: per chain slot the plan's instances of the slot's type
    in decision order (fresh ones only for a new request under no_reuse),
    the first slot's outermost, then the candidate content servers in server
    order. A route is kept when ``derive_routes`` builds it and it meets the
    delay budget. Each is (content server, instance per slot, link set,
    traffic x the link set's cost less the request's credit)."""
    instance, r = p.instance, p.requests[ri]
    net = instance.network
    at = {(d.vnf_name, d.instance_id): di for di, d in enumerate(p.decisions)}
    pools = []
    for k in r.chain:
        pool = sorted((at[kind, i], i, s) for kind, i, s in plan.deployment if kind == k)
        if p.options.no_reuse and r.status == "new":
            pool = [e for e in pool if instance.snapshot.server_of(k, e[1]) is None]
        pools.append([(k, i, s) for _di, i, s in pool])
    others = [e for e in plan.assignment if e[0] != r.id]
    out = []
    for picks in itertools.product(*pools):
        for cs in (s for s in net.servers if s in r.candidate_servers):
            assignment = {(r.id, k): (s, i) for k, i, s in picks}
            route = derive_routes(instance, {r.id: cs}, assignment)[r.id]
            trial = replace(
                plan,
                content_server=frozenset(e for e in plan.content_server if e[0] != r.id)
                | {(r.id, cs)},
                assignment=frozenset(others + [(r.id, s, k, i) for k, i, s in picks]),
                routes={**plan.routes, r.id: route},
            )
            if service_delay(instance, trial, r.id) > r.delay_budget:
                continue
            cost = r.traffic * route_cost(net, route) - p.credit[ri]
            out.append((cs, tuple((k, i) for k, i, _s in picks), route, cost))
    return out


class TestColumns:
    @given(instance=binding_instances(), no_reuse=st.booleans())
    @example(instance=shared_entry_link(), no_reuse=False)
    @settings(max_examples=200, deadline=None)
    def test_columns_are_the_routes_that_meet_the_budget(self, instance, no_reuse):
        """At the optimum's placement leaf, each request's columns are the
        routes ``named_columns`` lists, in its order, with exactly its
        costs. A column's links are each listed once, and it loads its
        instances and its links of finite capacity."""
        p = _Problem(instance, SolveOptions(no_reuse=no_reuse))
        slow = _brute_force(p)
        if slow.plan is None:
            return
        search = _Search(p, _Incumbent(p.leaf_key), deadline=math.inf)
        placed = {(k, i): instance.network.position(s) for k, i, s in slow.plan.deployment}
        for di, d in enumerate(p.decisions):
            target = placed.get((d.vnf_name, d.instance_id))
            search._commit_tau(di, target, dict(d.options)[target])
        search._descend(len(p.decisions), 0)
        nodes, n, link_at = instance.network.nodes, p.n_nodes, len(p.decisions)
        for ri in range(len(p.requests)):
            got = []
            for cs, picks, links, uses, cost in search.columns[ri]:
                assert len(set(links)) == len(links)
                capped = [link_at + c for c in links if p.link_cap[c] != math.inf]
                assert uses == picks + tuple(capped)
                route = frozenset((nodes[c // n], nodes[c % n]) for c in links)
                named = tuple((p.decisions[di].vnf_name, p.decisions[di].instance_id) for di in picks)
                got.append((p.servers[cs], named, route, cost))
            assert got == named_columns(p, slow.plan, ri)


def demand_rule(deployed, qualified, limit, demand_all, demand_new, fresh_only):
    """The per-type coverage rule written as capacity products: some
    instance deployed, their limits carry all the type's traffic, and under
    no_reuse, for a type that new requests use, some fresh instance deployed
    whose limits carry the new requests' traffic."""
    if not deployed or deployed * limit < demand_all:
        return False
    return not fresh_only or (qualified > 0 and qualified * limit >= demand_new)


class TestTypeCounts:
    """At a type's end no decision is left, so the demand the search bound
    charges there (``_Problem.demand``, the larger of its two entries for
    the deployed and the qualifying counts) is 0 on exactly the states the
    capacity products accept, over the floor of the usage limit (loads are
    sums of int traffic, so no instance carries more than the floor), and
    inf on every other. Existing and new traffic of 0, 1 and 7 (or no new
    request) give every demand the rule tells apart; the type's pool holds
    four instances, so every count tried can be deployed."""

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize(
        "capacity, mu, limit",
        [(0, 1.0, 0), (1, 1.0, 1), (3, 1.0, 3), (5, 0.5, Fraction(5, 2))],
        ids=["limit0", "limit1", "limit3", "limit5/2"],
    )
    def test_counts_match_the_capacity_rule(self, net2, capacity, mu, limit, no_reuse):
        vnf = mk_type(net2, capacity=capacity, instances=4)
        for old_traffic, new_traffic in itertools.product([0, 1, 7], [None, 0, 1, 7]):
            requests = [mk_request(net2, rid="old", traffic=old_traffic, status="existing")]
            if new_traffic is not None:
                requests.append(mk_request(net2, rid="new", traffic=new_traffic))
            inst = mk_instance(net2, types=[vnf], requests=requests, mu=mu)
            assert inst.usage_limit(capacity) == limit
            p = _Problem(inst, SolveOptions(no_reuse=no_reuse))
            every, fresh = p.demand[len(p.decisions)]
            demand_new = new_traffic or 0
            fresh_only = no_reuse and new_traffic is not None
            for deployed in range(5):
                # every deployed instance qualifies unless the type is fresh-only
                for qualified in range(deployed + 1) if fresh_only else [deployed]:
                    expect = demand_rule(deployed, qualified, math.floor(limit),
                                         old_traffic + demand_new, demand_new, fresh_only)
                    got = max(every[deployed], fresh[qualified])
                    assert got == (0 if expect else math.inf), (
                        old_traffic, new_traffic, deployed, qualified
                    )


class TestSearchEffort:
    def test_search_never_calls_plan_vector(self, monkeypatch):
        """The search breaks ties on keys read from its own state and the
        bases of ``ilp.layout``, which makes no alias, so the named
        variables, ``plan_vector`` and ``sanitize_name`` are the oracle's
        and the exports' alone. The reduced scenario-3 solves still make the
        nodes and incumbent updates that ``tests/data/search_digest.json``
        holds for them."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("the search made a variable or an alias")

        monkeypatch.setattr("chainplace.solver.plan_vector", refuse)
        monkeypatch.setattr("chainplace.solver.enumerate_variables", refuse)
        monkeypatch.setattr("chainplace.ilp.sanitize_name", refuse)
        report = run_comparison(ScenarioSpec.table_row(3, seed=DEFAULT_SEED, reduced=True))
        frozen = json.loads((DATA / "search_digest.json").read_text())
        for case in (report.online, report.no_reuse):
            want = frozen[f"reduced/seed{DEFAULT_SEED}/scenario3/{case.label}"]
            effort = (case.stats.nodes, case.stats.incumbent_updates)
            assert effort == (want["nodes"], want["incumbent_updates"])


def offered_leaves(problem) -> list[tuple]:
    """(total, leaf) of every leaf offered to the incumbent: the warm-start
    dive's first, then the search's."""
    offers = []
    offer = _Incumbent.offer

    def record(incumbent, total, leaf):
        offers.append((total, leaf))
        offer(incumbent, total, leaf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Incumbent, "offer", record)
        _solve_exact(problem)
    return offers


def assert_keys_order_as_plan_vector(problem, offers) -> None:
    """Every pair of offered leaves compares by ``leaf_key`` exactly as
    their built plans compare by ``plan_vector``, equality included, and
    each key holds the negated positions of its vector's ones. Each leaf's
    plan checks out at the total it was offered with, so the leaf is a copy
    of the search state and not a view of it."""
    instance = problem.instance
    decision_vars = [v for v in enumerate_variables(instance) if v.family in "gtlp"]
    keys, vectors = [], []
    for total, leaf in offers:
        plan = problem.leaf_plan(leaf)
        assert check_feasibility(instance, plan).feasible
        clamp = problem.options.clamp_instantiation
        assert total_objective(instance, plan, clamp_instantiation=clamp).total == total
        keys.append(problem.leaf_key(leaf))
        vectors.append(plan_vector(instance, plan, decision_vars))
        assert keys[-1] == tuple(-i for i, bit in enumerate(vectors[-1]) if bit)
    for (key_a, vec_a), (key_b, vec_b) in itertools.combinations(zip(keys, vectors), 2):
        assert (key_a < key_b, key_a == key_b) == (vec_a < vec_b, vec_a == vec_b)


class TestTieBreakKey:
    @given(instance=binding_instances(), no_reuse=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_key_orders_leaves_as_plan_vector(self, instance, no_reuse):
        problem = _Problem(instance, SolveOptions(no_reuse=no_reuse))
        assert_keys_order_as_plan_vector(problem, offered_leaves(problem))

    def test_reduced_case_with_ties(self):
        """Reduced seed-3 scenario 3 under no_reuse offers 9 leaves, the
        warm-start dive's first, and 3 of them tie the incumbent's total."""
        instance = generate(ScenarioSpec.table_row(3, seed=DEFAULT_SEED, reduced=True))
        problem = _Problem(instance, SolveOptions(no_reuse=True, clamp_instantiation=True))
        offers = offered_leaves(problem)
        assert len({total for total, _leaf in offers}) < len(offers)
        dive = _Incumbent(problem.leaf_key)
        _Dive(problem, dive, deadline=math.inf).run()
        assert offers[0] == (dive.total, dive.payload)
        assert_keys_order_as_plan_vector(problem, offers)


def dive_budget(problem) -> int:
    """The most nodes the warm-start dive visits on ``problem``."""
    return _Dive(problem, _Incumbent(problem.leaf_key), deadline=math.inf).budget


class TestWarmStart:
    """The dive only seeds the incumbent. The search after it returns what
    a plain search from an empty incumbent returns, down to the winning
    leaf's key, and visits no more nodes."""

    @staticmethod
    def assert_same_as_plain_search(problem):
        warm = _solve_exact(problem)
        incumbent = _Incumbent(problem.leaf_key)
        plain = _Search(problem, incumbent, deadline=math.inf)
        if all(load <= cap for load, cap in zip(problem.base_load, problem.server_cap)):
            plain.run()  # _solve_exact searches no overfilled snapshot
        assert warm.status == ("optimal" if incumbent.payload else "infeasible")
        assert warm.stats.nodes <= plain.nodes
        if incumbent.payload is None:
            assert warm.plan is None
            return
        assert warm.breakdown.total == incumbent.total
        assert warm.plan == problem.leaf_plan(incumbent.payload)
        instance = problem.instance
        decision_vars = [v for v in enumerate_variables(instance) if v.family in "gtlp"]
        vector = plan_vector(instance, warm.plan, decision_vars)
        assert tuple(-i for i, bit in enumerate(vector) if bit) == problem.leaf_key(
            incumbent.payload
        )

    @given(instance=binding_instances(), no_reuse=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_binding_regimes_match_the_plain_search(self, instance, no_reuse):
        self.assert_same_as_plain_search(_Problem(instance, SolveOptions(no_reuse=no_reuse)))

    def test_reduced_case_matches_the_plain_search(self):
        instance = generate(ScenarioSpec.table_row(3, seed=DEFAULT_SEED, reduced=True))
        problem = _Problem(instance, SolveOptions(no_reuse=True, clamp_instantiation=True))
        self.assert_same_as_plain_search(problem)
        assert _solve_exact(problem).stats.dive_nodes <= dive_budget(problem)

    def test_dive_stops_at_its_budget_on_an_infeasible_instance(self):
        """No delay budget can be met, so no leaf exists; the tree of three
        instances on three servers is larger than the dive's budget."""
        net = mk_network(n_servers=3)
        inst = mk_instance(
            net, types=[mk_type(net, instances=3)], requests=[mk_request(net, budget=1)]
        )
        problem = _Problem(inst, SolveOptions())
        budget = dive_budget(problem)
        plain = _Search(problem, _Incumbent(problem.leaf_key), deadline=math.inf)
        plain.run()
        assert plain.nodes > budget
        incumbent = _Incumbent(problem.leaf_key)
        dive = _Dive(problem, incumbent, deadline=math.inf)
        dive.run()
        assert dive.nodes == budget and not dive.aborted
        assert incumbent.payload is None and incumbent.updates == 0
        result = _solve_exact(problem)
        assert result.status == "infeasible"
        assert result.stats.dive_nodes == budget
        assert result.stats.incumbent_updates == 0

    def test_deadline_in_the_dive_still_stops_the_solve(self):
        """A deadline that has passed as the dive starts: the dive (fewer
        than 256 nodes here, so it never reads the clock) offers its leaf,
        and the search stops at its first deadline check, at node 256. The
        gap comes from the bound the search left unexplored. ``SLOW_SPEC``
        under no_reuse takes far more search nodes, so the search reaches
        that check."""
        inst = generate(SLOW_SPEC)
        options = SolveOptions(time_limit=1e-9, no_reuse=True, clamp_instantiation=True)
        problem = _Problem(inst, options)
        assert dive_budget(problem) < 256
        result = _solve_exact(problem)
        assert result.status == "time_limit"
        assert 0 < result.stats.dive_nodes <= dive_budget(problem)
        assert result.stats.nodes == 256
        assert check_feasibility(inst, result.plan).feasible
        assert 0 <= result.stats.gap < result.breakdown.total


class TestFullScaleOracle:
    """The search proves HiGHS's optimum of each full-scale table row; its
    nodes and incumbent updates on these rows are pinned by
    ``tests/test_search_digest.py``."""

    # the default seed keeps its plain scenario ids
    @pytest.mark.parametrize(
        "seed, scenario_id",
        [
            pytest.param(seed, sid, id=str(sid) if seed == DEFAULT_SEED else f"seed{seed}-{sid}")
            for seed in sorted(FULL_ORACLE)
            for sid in (1, 2, 3)
        ],
    )
    def test_table_row_proves_frozen_optimum(self, seed, scenario_id):
        frozen = json.loads(FULL_ORACLE[seed].read_text())
        assert frozen["seed"] == seed and frozen["scale"] == "full"
        expect = frozen["scenarios"][str(scenario_id)]
        report = run_comparison(ScenarioSpec.table_row(scenario_id, seed=seed))
        for case in (report.online, report.no_reuse):
            assert case.status == "optimal"
            assert case.breakdown.total == expect[case.label]["total_micro"]
            assert len(case.delta.migrated) == expect[case.label]["migration_count"]


BINDING_SET = json.loads((DATA / "binding_set.json").read_text())
# the route floor ignores delay budgets, so no placement is pruned for them
STALLS = {("tight_delay/seed4", "online"), ("tight_delay/seed4", "no_reuse")}


class TestBindingSet:
    """The search proves HiGHS's optimum, found at a gap of 0 by
    ``scripts/freeze_binding_set.py``, on 24 generated solves where link
    bandwidth, VNF capacity, the usage threshold, the delay budget or
    server capacity binds. Each that is proven takes well under a second
    of CPU. The two tight-delay seed-4 solves stop without an incumbent,
    at a 20 s limit too, so they get 1 s."""

    @pytest.mark.parametrize(
        "case, mode",
        [
            pytest.param(
                case, mode, id=f"{case}-{mode}",
                marks=[pytest.mark.xfail(
                    strict=True,
                    reason="needs the delay-aware route floor (ROADMAP item 4)",
                )] if (case, mode) in STALLS else [],
            )
            for case in sorted(BINDING_SET["cases"])
            for mode in ("online", "no_reuse")
        ],
    )
    def test_search_proves_the_highs_optimum(self, case, mode):
        entry = BINDING_SET["cases"][case]
        spec = ScenarioSpec(
            seed=entry["seed"],
            overrides=BINDING_SET["overrides"][entry["overrides"]],
            **BINDING_SET["size"],
        )
        options = SolveOptions(
            time_limit=1.0 if (case, mode) in STALLS else 10.0,
            no_reuse=mode == "no_reuse",
            clamp_instantiation=True,
        )
        result = solve_exact(generate(spec), options)
        if entry[mode] is None:
            assert result.status == "infeasible"
        else:
            assert result.status == "optimal"
            assert result.breakdown.total == entry[mode]


class TestFrontier:
    """A case past the paper's table: 6 servers, 6 user groups, 4 existing
    and 6 new requests at seed 5, under no_reuse. HiGHS proves 300 813 746
    on the exported MPS file, in about 50 s of CPU on a 2-vCPU Xeon host;
    the search took 6.3 s and 3 139 225 nodes before the assignment stage
    priced routes over the deployed servers, and takes about 0.01 s and
    452 nodes (after a 20-node warm-start dive) now."""

    NODE_CEILING = 3_139_225

    def test_proves_the_highs_optimum(self):
        spec = ScenarioSpec(
            seed=5, n_servers=6, n_user_groups=6, existing_requests=4, new_requests=6
        )
        result = solve_exact(
            generate(spec), SolveOptions(no_reuse=True, clamp_instantiation=True)
        )
        assert result.status == "optimal"
        assert result.breakdown.total == 300_813_746
        assert result.stats.incumbent_updates == 60
        assert result.stats.nodes < self.NODE_CEILING


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_reuse_never_beats_online(self, seed):
        inst = generate(small_spec(seed=seed, existing=1, new=1))
        online = solve_exact(inst)
        scratch = solve_exact(inst, SolveOptions(no_reuse=True))
        assert scratch.breakdown.total >= online.breakdown.total

    @pytest.mark.parametrize("seed", range(4))
    def test_returned_plans_always_check_out(self, seed):
        inst = generate(small_spec(seed=seed, existing=0, new=2, servers=3))
        result = solve_exact(inst)
        assert result.status == "optimal"
        report = check_feasibility(inst, result.plan)
        assert report.feasible
        from chainplace.costs import service_delay

        for r in inst.requests:
            assert service_delay(inst, result.plan, r.id) <= r.delay_budget

    def test_deterministic_repeat_runs(self):
        inst = generate(small_spec(seed=2))
        first = solve_exact(inst)
        second = solve_exact(inst)
        assert first.plan == second.plan
        assert first.stats.nodes == second.stats.nodes


class TestBruteForce:
    def test_enumeration_cap_is_enforced(self, net2):
        inst = mk_instance(
            net2,
            types=[mk_type(net2, instances=16)],
            requests=[mk_request(net2)],
        )
        with pytest.raises(TooLargeError):
            brute_force(inst)

    def test_no_requests_keeps_the_snapshot_untouched(self, net2):
        inst = mk_instance(net2, requests=[], snapshot=[("k0", 0, "s0")])
        result = brute_force(inst)
        assert result.status == "optimal"
        assert result.breakdown.total == 0
        assert result.plan.deployment == inst.snapshot.deployed
        assert solve_exact(inst).plan == result.plan
