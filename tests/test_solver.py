import itertools
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainplace.costs import total_objective
from chainplace.errors import TooLargeError
from chainplace.ilp import enumerate_variables, plan_vector
from chainplace.model import Network, check_feasibility
from chainplace.scenario import DEFAULT_SEED, ScenarioSpec, generate, run_comparison
from chainplace.solver import (
    SolveOptions,
    _brute_force,
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
        for r in inst.requests:
            assert result.plan.routes[r.id] == r.current_route

    def test_unreachable_delay_budget_is_infeasible(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, budget=1)])
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.plan is None

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
        # the deployment term keeps the lower bound positive on the hardest
        # full-scale case measured; without it the gap exceeds the incumbent.
        # The whole solve takes about 0.1 s of CPU on a 2-vCPU Xeon host, so
        # a 0.01 s limit binds with room to spare; the first leaf comes at
        # node 44, before the first deadline check at node 256, so the run
        # stops with an incumbent
        frozen = json.loads(FULL_ORACLE[7].read_text())
        optimum = frozen["scenarios"]["3"]["no_reuse"]["total_micro"]
        inst = generate(ScenarioSpec.table_row(3, seed=7))
        options = SolveOptions(time_limit=0.01, no_reuse=True, clamp_instantiation=True)
        assert 0 < root_bound(_Problem(inst, options)) <= optimum
        result = solve_exact(inst, options)
        assert result.status == "time_limit"
        assert 0 <= result.stats.gap < result.breakdown.total

    def test_time_limit_returns_incumbent_with_gap(self):
        # full-scale scenario 3 under no_reuse takes about 0.08 s of CPU to
        # prove optimal on a 2-vCPU Xeon host, well above the limit
        inst = generate(ScenarioSpec.table_row(3, seed=3))
        result = solve_exact(inst, SolveOptions(time_limit=0.01, no_reuse=True))
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
    links = [net.link(a, b) for a, b in itertools.combinations_with_replacement(nodes, 2)]
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


def root_bound(p) -> int:
    """The search bound at the root, before any instance is placed."""
    return p.place_tail[0] + (p.deploy_min[0] if p.decisions else 0)


def host_masks(p, plan) -> tuple:
    """Per type position, the bitmasks of the servers that deploy the type
    in ``plan`` and of those that deploy a qualifying instance of it: any
    instance, or a fresh one when the type is fresh-only (no_reuse, and a
    new request uses it). This is the key ``_Problem.leaf_tail`` reads at
    the placement leaf of ``plan``'s path."""
    position = {d.vnf_name: d.type_pos for d in p.decisions}
    fresh_only = {
        k for r in p.requests if p.options.no_reuse and r.status == "new" for k in r.chain
    }
    masks = [[0, 0] for _k in p.need]
    for k, i, s in plan.deployment:
        if k in position:
            bit = 1 << p.net.position(s)
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
    placement bounds count, per type, the qualifying instances the path has
    deployed so far, as the search does. A decision's options are keyed by
    server position. The assignment bounds read the leaf tail of the plan's
    deployment."""
    placed = {(k, i): p.net.position(s) for k, i, s in plan.deployment}
    qualified = [0] * len(p.need)
    committed, bounds = 0, []
    for di, d in enumerate(p.decisions):
        missing = p.deploy_min[di] if not qualified[d.type_pos] else 0
        bounds.append(committed + p.place_tail[di] + missing)
        target = placed.get((d.vnf_name, d.instance_id))
        committed += dict(d.options)[target]
        if target is not None and d.qualifies:
            qualified[d.type_pos] += 1
    tail = p.leaf_tail(host_masks(p, plan))
    for ri, r in enumerate(p.requests):
        bounds.append(committed + tail[ri])
        committed += r.traffic * route_cost(p.net, plan.routes[r.id]) - p.credit[ri]
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

    @given(instance=binding_instances(), options=st.sampled_from(OPTION_SETS))
    @settings(max_examples=200, deadline=None)
    def test_bound_never_exceeds_the_optimum(self, instance, options):
        p = _Problem(instance, options)
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
        """At the optimum's placement leaf, each request's share of the leaf
        tail is its cheapest route less its credit, and that route costs no
        more than the one the optimum takes. The search builds the leaf's
        masks from its own state, so replaying the optimum's placement on
        it must give the masks read off the plan."""
        p = _Problem(instance, options)
        slow = _brute_force(p)
        if slow.breakdown is None:
            return
        search = _Search(p, _Incumbent(), deadline=0.0)
        placed = {(k, i): p.net.position(s) for k, i, s in slow.plan.deployment}
        for di, d in enumerate(p.decisions):
            target = placed.get((d.vnf_name, d.instance_id))
            search._commit_tau(di, target, dict(d.options)[target])
        masks = host_masks(p, slow.plan)
        assert search._host_masks() == masks
        tail = p.leaf_tail(masks)
        cheapest = cheapest_routes(instance, slow.plan, options.no_reuse)
        for ri, r in enumerate(instance.requests):
            assert tail[ri] - tail[ri + 1] == cheapest[ri] - p.credit[ri]
            assert cheapest[ri] <= r.traffic * route_cost(instance.network, slow.plan.routes[r.id])

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
        assert p.leaf_tail(((0b10, 0b10), (0b01, 0b01))) == [2 * 200_000, 0]
        # co-located on the content server, the route pays its user link only
        assert p.leaf_tail(((0b01, 0b01), (0b01, 0b01))) == [2 * 100_000, 0]


def demand_rule(deployed, qualified, limit, demand_all, demand_new, fresh_only):
    """The per-type coverage rule written as capacity products: some
    instance deployed, their limits carry all the type's traffic, and under
    no_reuse, for a type that new requests use, some fresh instance deployed
    whose limits carry the new requests' traffic."""
    if not deployed or deployed * limit < demand_all:
        return False
    return not fresh_only or (qualified > 0 and qualified * limit >= demand_new)


class TestTypeCounts:
    """``_type_demand_covered`` compares counts; it must accept exactly the
    states the capacity products accept. Existing and new traffic of 0, 1
    and 7 (or no new request) give every demand the rule tells apart."""

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize(
        "capacity, mu, limit",
        [(0, 1.0, 0), (1, 1.0, 1), (3, 1.0, 3), (5, 0.5, Fraction(5, 2))],
        ids=["limit0", "limit1", "limit3", "limit5/2"],
    )
    def test_counts_match_the_capacity_rule(self, net2, capacity, mu, limit, no_reuse):
        vnf = mk_type(net2, capacity=capacity)
        for old_traffic, new_traffic in itertools.product([0, 1, 7], [None, 0, 1, 7]):
            requests = [mk_request(net2, rid="old", traffic=old_traffic, status="existing")]
            if new_traffic is not None:
                requests.append(mk_request(net2, rid="new", traffic=new_traffic))
            inst = mk_instance(net2, types=[vnf], requests=requests, mu=mu)
            assert inst.usage_limit(capacity) == limit
            p = _Problem(inst, SolveOptions(no_reuse=no_reuse))
            search = _Search(p, _Incumbent(), deadline=0.0)
            demand_new = new_traffic or 0
            fresh_only = no_reuse and new_traffic is not None
            for deployed in range(5):
                # every deployed instance qualifies unless the type is fresh-only
                for qualified in range(deployed + 1) if fresh_only else [deployed]:
                    search.deployed[0] = [(0, 0)] * deployed
                    search.qualified[0] = qualified
                    expect = demand_rule(deployed, qualified, limit,
                                         old_traffic + demand_new, demand_new, fresh_only)
                    got = search._type_demand_covered(0)
                    assert got == expect, (old_traffic, new_traffic, deployed, qualified)


class TestSearchEffort:
    """(nodes, incumbent_updates, nodes before the assignment stage priced
    routes over the deployed servers) for the reduced seed-3 table. A bound
    term that stays admissible only prunes more, so the count may fall but
    never rise above the count without it, and the incumbent updates do not
    change."""

    PINNED = {
        (1, "online"): (411, 12, 1504),
        (1, "no_reuse"): (1048, 12, 3892),
        (2, "online"): (273, 9, 714),
        (2, "no_reuse"): (1279, 20, 6164),
        (3, "online"): (115, 11, 216),
        (3, "no_reuse"): (2887, 50, 11732),
    }

    @pytest.mark.parametrize("scenario_id", [1, 2, 3])
    def test_reduced_table_counts(self, scenario_id):
        report = run_comparison(
            ScenarioSpec.table_row(scenario_id, seed=DEFAULT_SEED, reduced=True)
        )
        for case in (report.online, report.no_reuse):
            nodes, updates, before = self.PINNED[(scenario_id, case.label)]
            assert nodes <= before
            assert (case.stats.nodes, case.stats.incumbent_updates) == (nodes, updates)

    def test_search_never_calls_plan_vector(self, monkeypatch):
        """The search breaks ties on keys read from its own state, so the
        named variables and ``plan_vector`` are the oracle's alone."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("the search called into the ILP layer")

        monkeypatch.setattr("chainplace.solver.plan_vector", refuse)
        monkeypatch.setattr("chainplace.solver.enumerate_variables", refuse)
        report = run_comparison(ScenarioSpec.table_row(3, seed=DEFAULT_SEED, reduced=True))
        for case in (report.online, report.no_reuse):
            nodes, updates, _before = self.PINNED[(3, case.label)]
            assert (case.stats.nodes, case.stats.incumbent_updates) == (nodes, updates)


def offered_leaves(problem) -> list[tuple]:
    """(total, leaf) of every leaf the search offers its incumbent."""
    offers = []
    offer = _Incumbent.offer

    def record(incumbent, total, leaf, key_of):
        offers.append((total, leaf))
        offer(incumbent, total, leaf, key_of)

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
        """Reduced seed-3 scenario 3 under no_reuse offers 62 leaves, and
        33 of them tie the incumbent's total."""
        instance = generate(ScenarioSpec.table_row(3, seed=DEFAULT_SEED, reduced=True))
        problem = _Problem(instance, SolveOptions(no_reuse=True, clamp_instantiation=True))
        offers = offered_leaves(problem)
        assert len({total for total, _leaf in offers}) < len(offers)
        assert_keys_order_as_plan_vector(problem, offers)


class TestFullScaleOracle:
    # no_reuse nodes on the default seed before the assignment stage priced
    # routes over the deployed servers: the search may only get smaller
    NODE_CEILING = {1: 69_135, 2: 109_405, 3: 133_686}
    # (nodes, incumbent_updates) on the default seed: a change in the order
    # the search explores shows here
    PINNED = {
        (1, "online"): (151, 16),
        (2, "online"): (318, 21),
        (3, "online"): (184, 9),
        (1, "no_reuse"): (8_884, 31),
        (2, "no_reuse"): (9_893, 70),
        (3, "no_reuse"): (10_301, 72),
    }

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
            assert case.migration_count == expect[case.label]["migration_count"]
        if seed == DEFAULT_SEED:
            assert report.no_reuse.stats.nodes <= self.NODE_CEILING[scenario_id]
            for case in (report.online, report.no_reuse):
                stats = case.stats
                effort = (stats.nodes, stats.incumbent_updates)
                assert effort == self.PINNED[(scenario_id, case.label)]


class TestFrontier:
    """A case past the paper's table: 6 servers, 6 user groups, 4 existing
    and 6 new requests at seed 5, under no_reuse. HiGHS proves 300 813 746
    on the exported MPS file, in about 50 s of CPU on a 2-vCPU Xeon host;
    the search took 6.3 s and 3 139 225 nodes before the assignment stage
    priced routes over the deployed servers, and takes about 0.4 s now."""

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
        assert result.stats.incumbent_updates == 439
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
