import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainplace.costs import (
    format_money,
    hosting_delta,
    instantiation_cost,
    migration_cost,
    routing_delta,
    service_delay,
    total_objective,
)
from chainplace.errors import UnassignedChainError

from conftest import MS, mk_instance, mk_network, mk_plan, mk_request, mk_type


def unit_plan(server="s0", route=(("s0", "s0"), ("s0", "u0"))):
    """One request served by one instance on ``server``."""
    return mk_plan(
        content=[("r0", server)],
        deployment=[("k0", 0, server)],
        assignment=[("r0", server, "k0", 0)],
        routes={"r0": route},
    )


class TestHosting:
    def test_unchanged_deployment_costs_nothing(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert hosting_delta(inst, unit_plan()) == 0

    def test_new_instance_charges_resources(self, tiny):
        # 2 resource units at 5 money each: 10 money
        assert hosting_delta(tiny, unit_plan()) == 10_000_000

    def test_removed_instance_refunds_resources(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert hosting_delta(inst, mk_plan()) == -10_000_000


class TestMigration:
    def test_staying_put_is_free(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert migration_cost(inst, unit_plan("s0")) == 0

    def test_move_charges_44_units_of_link_cost(self):
        # 44 traffic units over a 100 000 micro-money link: 4.40 money
        net = mk_network(link_cost=100_000)
        inst = mk_instance(net, snapshot=[("k0", 0, "s0")])
        plan = unit_plan("s1", route=(("s1", "s1"), ("s1", "u0")))
        assert migration_cost(inst, plan) == 4_400_000

    def test_empty_snapshot_never_migrates(self, tiny):
        assert migration_cost(tiny, unit_plan()) == 0


class TestInstantiation:
    def test_new_instance_charges_license(self, tiny):
        assert instantiation_cost(tiny, unit_plan()) == 100_000_000

    def test_pure_migration_telescopes_to_zero(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert instantiation_cost(inst, unit_plan("s1")) == 0

    def test_identity_is_zero(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert instantiation_cost(inst, unit_plan("s0")) == 0

    def test_literal_refunds_a_removal_and_clamp_does_not(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert instantiation_cost(inst, mk_plan()) == -100_000_000
        assert instantiation_cost(inst, mk_plan(), clamp=True) == 0

    def test_clamp_still_charges_fresh_instances(self, tiny):
        assert instantiation_cost(tiny, unit_plan(), clamp=True) == 100_000_000


class TestRouting:
    def test_unchanged_routes_cost_nothing(self, net2):
        route = (("s0", "u0"),)
        inst = mk_instance(
            net2,
            requests=[mk_request(net2, status="existing", route=route)],
            snapshot=[("k0", 0, "s0")],
        )
        assert routing_delta(inst, unit_plan(route=(("s0", "u0"),))) == 0

    def test_new_request_pays_per_link(self):
        # two 100 000 micro-money links at unit traffic: 0.20 money
        net = mk_network(n_servers=2, link_cost=100_000)
        inst = mk_instance(net)
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s1")],
            assignment=[("r0", "s1", "k0", 0)],
            routes={"r0": [("s0", "s1"), ("s1", "u0")]},
        )
        assert routing_delta(inst, plan) == 200_000

    def test_rerouting_to_a_cheaper_link_is_negative(self):
        # swap one 115 000 link for one 90 000 link: -0.025 money
        net = mk_network(n_servers=2, n_users=2, link_cost=115_000)
        rows = [list(r) for r in net.link_cost]
        iu = net.position("u0")
        i0 = net.position("s0")
        rows[i0][iu] = rows[iu][i0] = 90_000
        from chainplace.model import Network

        net = Network(
            servers=net.servers,
            users=net.users,
            bandwidth=net.bandwidth,
            link_cost=rows,
            link_delay=net.link_delay,
            server_capacity=net.server_capacity,
            server_unit_cost=net.server_unit_cost,
        )
        old_route = (("s1", "u0"),)  # 115 000
        inst = mk_instance(
            net,
            requests=[mk_request(net, status="existing", route=old_route)],
            snapshot=[("k0", 0, "s1")],
        )
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "u0")]},  # 90 000, entry link co-located
        )
        assert routing_delta(inst, plan) == -25_000

    def test_self_links_are_free(self, tiny):
        with_self = unit_plan(route=(("s0", "s0"), ("s0", "u0")))
        without = unit_plan(route=(("s0", "u0"),))
        assert routing_delta(tiny, with_self) == routing_delta(tiny, without)

    def test_user_links_are_charged(self, tiny):
        plan = unit_plan(route=(("s0", "u0"),))
        assert routing_delta(tiny, plan) == tiny.network.cost_between("s0", "u0")


class TestTotal:
    def test_identity_plan_costs_nothing(self, net2):
        route = (("s0", "u0"),)
        inst = mk_instance(
            net2,
            requests=[mk_request(net2, status="existing", route=route)],
            snapshot=[("k0", 0, "s0")],
        )
        breakdown = total_objective(inst, unit_plan(route=route))
        assert breakdown.hosting_delta == 0
        assert breakdown.migration == 0
        assert breakdown.instantiation == 0
        assert breakdown.routing_delta == 0
        assert breakdown.total == 0

    def test_fresh_single_instance_totals(self):
        # hosting 10 money + license 100 money + one 0.10 money link
        net = mk_network(link_cost=100_000)
        inst = mk_instance(net)
        plan = unit_plan(route=(("s0", "u0"),))
        breakdown = total_objective(inst, plan)
        assert breakdown.hosting_delta == 10_000_000
        assert breakdown.instantiation == 100_000_000
        assert breakdown.routing_delta == 100_000
        assert breakdown.migration == 0
        assert breakdown.total == 110_100_000

    def test_component_sum_is_exact(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s1")])
        plan = unit_plan()
        breakdown = total_objective(inst, plan)
        parts = (
            hosting_delta(inst, plan)
            + migration_cost(inst, plan)
            + instantiation_cost(inst, plan)
            + routing_delta(inst, plan)
        )
        assert breakdown.total == parts


class TestServiceDelay:
    def test_three_hops_and_two_stages(self):
        # 3 links of 10 ms plus 2 VNFs of 20 ms: 70 ms
        net = mk_network(n_servers=3, link_delay=10 * MS)
        types = [mk_type(net, name="k0"), mk_type(net, name="k1")]
        inst = mk_instance(net, types=types, requests=[mk_request(net, chain=("k0", "k1"))])
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s1"), ("k1", 0, "s2")],
            assignment=[("r0", "s1", "k0", 0), ("r0", "s2", "k1", 0)],
            routes={"r0": [("s0", "s1"), ("s1", "s2"), ("s2", "u0")]},
        )
        assert service_delay(inst, plan, "r0") == 70 * MS

    def test_colocated_chain_only_pays_the_user_link(self):
        # 4 ms user link plus one 20 ms stage: 24 ms
        net = mk_network(link_delay=4 * MS)
        inst = mk_instance(net)
        plan = unit_plan(route=(("s0", "s0"), ("s0", "u0")))
        assert service_delay(inst, plan, "r0") == 24 * MS

    def test_zero_traffic_zeroes_the_delay(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, traffic=0)])
        plan = unit_plan()
        assert service_delay(inst, plan, "r0") == 0

    def test_unassigned_chain_raises(self, tiny):
        plan = mk_plan(content=[("r0", "s0")], deployment=[("k0", 0, "s0")])
        with pytest.raises(UnassignedChainError):
            service_delay(tiny, plan, "r0")


class TestProperties:
    plans = st.builds(
        lambda dep, route: mk_plan(
            content=[("r0", "s0")],
            deployment=dep | {("k0", 0, "s0")},
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": frozenset(route) | {("s0", "u0")}},
        ),
        dep=st.sets(
            st.tuples(st.just("k0"), st.integers(1, 2), st.sampled_from(["s0", "s1"]))
        ),
        route=st.sets(
            st.tuples(st.sampled_from(["s0", "s1"]), st.sampled_from(["s1", "u0"]))
        ),
    )

    @given(plan=plans)
    @settings(max_examples=150, deadline=None)
    def test_decomposition_and_migration_sign(self, plan):
        net = mk_network()
        inst = mk_instance(
            net, types=[mk_type(net, instances=3)], snapshot=[("k0", 1, "s1")]
        )
        dedup = {}
        for k, i, s in sorted(plan.deployment):
            dedup.setdefault((k, i), s)
        plan = mk_plan(
            content=plan.content_server,
            deployment=[(k, i, s) for (k, i), s in dedup.items()],
            assignment=plan.assignment,
            routes=plan.routes,
        )
        breakdown = total_objective(inst, plan)
        assert breakdown.total == (
            breakdown.hosting_delta
            + breakdown.migration
            + breakdown.instantiation
            + breakdown.routing_delta
        )
        assert breakdown.migration >= 0

    def test_relocation_only_plan_has_zero_instantiation(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        assert instantiation_cost(inst, unit_plan("s1")) == 0

    def test_adding_a_link_never_reduces_delay(self, net2):
        inst = mk_instance(net2)
        base = unit_plan(route=(("s0", "u0"),))
        more = unit_plan(route=(("s0", "u0"), ("s0", "s1")))
        assert service_delay(inst, more, "r0") >= service_delay(inst, base, "r0")


class TestMoneyFormat:
    @pytest.mark.parametrize(
        "micro,text",
        [
            (0, "0"),
            (115_000, "0.115"),
            (100_000_000, "100"),
            (-25_000, "-0.025"),
            (110_100_000, "110.1"),
            (1, "0.000001"),
        ],
    )
    def test_exact_decimal(self, micro, text):
        assert format_money(micro) == text
