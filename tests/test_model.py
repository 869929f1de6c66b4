import itertools
import math
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainplace.errors import IndexMismatchError
from chainplace.model import (
    PlacementPlan,
    Report,
    Snapshot,
    VnfCatalog,
    check_feasibility,
    snapshot_diff,
    validate_instance,
)
from chainplace.solver import SolveOptions, _Problem, brute_force, solve_exact

from conftest import mk_instance, mk_network, mk_plan, mk_request, mk_type


def _network(inst, **changes):
    return replace(inst, network=replace(inst.network, **changes))


def _vnf(inst, **changes):
    return replace(inst, catalog=VnfCatalog((replace(inst.catalog.types[0], **changes),)))


def _request(inst, **changes):
    return replace(inst, requests=(replace(inst.requests[0], **changes),))


def _entry(table, key, value):
    """``table`` with ``key`` set to ``value``, or dropped when it is None."""
    table = {k: v for k, v in table.items() if k != key}
    return table if value is None else {**table, key: value}


# (code, subject, mutation of the tiny instance: 2 servers, 1 user, type k0
# with one instance, new request r0 with chain k0)
MUTATIONS = [
    ("DUPLICATE_NODE", ("s0",), lambda i: _network(i, users=("s0",))),
    ("MATRIX_SHAPE", ("bandwidth",),
     lambda i: _network(i, bandwidth=i.network.bandwidth[:-1])),
    ("NEGATIVE_ENTRY", ("link_delay", 0, 1), lambda i: _network(
        i, link_delay=[[0, -1, 5], [-1, 0, 5], [5, 5, 0]])),
    ("MISSING_SERVER_CAPACITY", ("s1",), lambda i: _network(
        i, server_capacity=_entry(i.network.server_capacity, "s1", None))),
    ("NONPOSITIVE_CAPACITY", ("s0",), lambda i: _network(
        i, server_capacity=_entry(i.network.server_capacity, "s0", 0))),
    ("MISSING_SERVER_COST", ("s1",), lambda i: _network(
        i, server_unit_cost=_entry(i.network.server_unit_cost, "s1", None))),
    ("NEGATIVE_COST", ("s0",), lambda i: _network(
        i, server_unit_cost=_entry(i.network.server_unit_cost, "s0", -1))),
    ("DUPLICATE_VNF_TYPE", ("k0",),
     lambda i: replace(i, catalog=VnfCatalog(i.catalog.types * 2))),
    ("EMPTY_INSTANCE_POOL", ("k0",), lambda i: _vnf(i, instances=())),
    ("DUPLICATE_INSTANCE_ID", ("k0",), lambda i: _vnf(i, instances=(0, 0))),
    ("MISSING_PROCESSING_DELAY", ("k0", "s1"), lambda i: _vnf(
        i, processing_delay=_entry(i.catalog.types[0].processing_delay, "s1", None))),
    ("MISSING_MIGRATION_COST", ("k0", "s0", "s1"), lambda i: _vnf(
        i, migration_cost=_entry(i.catalog.types[0].migration_cost, ("s0", "s1"), None))),
    ("DUPLICATE_REQUEST_ID", ("r0",), lambda i: replace(i, requests=i.requests * 2)),
    ("UNKNOWN_USER", ("r0", "u9"), lambda i: _request(i, user="u9")),
    ("EMPTY_CHAIN", ("r0",), lambda i: _request(i, chain=())),
    ("DUPLICATE_CHAIN_TYPE", ("r0",), lambda i: _request(i, chain=("k0", "k0"))),
    ("UNKNOWN_SERVER", ("r0", "s9"), lambda i: _request(i, candidate_servers=("s0", "s9"))),
    ("BAD_STATUS", ("r0", "gone"), lambda i: _request(i, status="gone")),
    ("UNKNOWN_NODE", ("r0", "s0", "x9"),
     lambda i: _request(i, status="existing", current_route={("s0", "x9")})),
    ("UNKNOWN_INSTANCE", ("snapshot", "k0", 5),
     lambda i: replace(i, snapshot=Snapshot({("k0", 5, "s0")}))),
    ("NOT_A_NUMBER", ("usage_threshold",), lambda i: replace(i, usage_threshold="1")),
]


class TestValidation:
    @pytest.mark.parametrize(
        "code, subject, mutate", MUTATIONS, ids=[code for code, _s, _m in MUTATIONS]
    )
    def test_each_code_is_reported_without_raising(self, tiny, code, subject, mutate):
        report = validate_instance(mutate(tiny))
        assert report.has(code, *subject)

    def test_well_formed_instance_has_empty_report(self, tiny):
        assert validate_instance(tiny).ok

    def test_zero_candidate_servers_is_flagged(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, candidates=())])
        report = validate_instance(inst)
        assert report.has("NO_CANDIDATE_SERVER", "r0")

    def test_duplicate_snapshot_deployment_is_flagged(self, net2):
        inst = mk_instance(
            net2,
            types=[mk_type(net2, instances=1)],
            snapshot=[("k0", 0, "s0"), ("k0", 0, "s1")],
        )
        report = validate_instance(inst)
        assert report.has("DUPLICATE_DEPLOYMENT", "k0", 0)

    def test_asymmetric_cost_matrix_is_flagged(self):
        from chainplace.model import Network

        good = mk_network()
        rows = [list(r) for r in good.link_cost]
        rows[0][1] = 1
        bad = Network(
            servers=good.servers,
            users=good.users,
            bandwidth=good.bandwidth,
            link_cost=rows,
            link_delay=good.link_delay,
            server_capacity=good.server_capacity,
            server_unit_cost=good.server_unit_cost,
        )
        inst = mk_instance(bad)
        assert validate_instance(inst).has("MATRIX_NOT_SYMMETRIC", "link_cost", 0, 1)

    def test_nonzero_delay_diagonal_is_flagged(self):
        from chainplace.model import Network

        good = mk_network()
        rows = [list(r) for r in good.link_delay]
        rows[0][0] = 5
        bad = Network(
            servers=good.servers,
            users=good.users,
            bandwidth=good.bandwidth,
            link_cost=good.link_cost,
            link_delay=rows,
            server_capacity=good.server_capacity,
            server_unit_cost=good.server_unit_cost,
        )
        inst = mk_instance(bad)
        assert validate_instance(inst).has("NONZERO_DIAGONAL", "link_delay", 0)

    def test_new_request_with_route_is_flagged(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, route=[("s0", "u0")])])
        assert validate_instance(inst).has("NEW_REQUEST_HAS_ROUTE", "r0")

    def test_unknown_chain_type_is_flagged(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, chain=("k9",))])
        assert validate_instance(inst).has("UNKNOWN_VNF_TYPE", "r0", "k9")

    def test_usage_threshold_out_of_range(self, net2):
        inst = mk_instance(net2, mu=0.0)
        assert validate_instance(inst).has("USAGE_THRESHOLD_RANGE", 0.0)

    @pytest.mark.parametrize(
        "field, subject",
        [
            ("servers", ("servers", 1)),
            ("users", ("users", 0)),
            ("types", ("types", 0)),
            ("requests", ("requests", 0)),
            ("user", ("user", "r0")),
            ("chain", ("chain", "r0", 0)),
            ("candidate_servers", ("candidate_servers", "r0", 1)),
        ],
        ids=["servers", "users", "types", "requests", "user", "chain", "candidate_servers"],
    )
    def test_name_that_is_not_a_string_is_flagged(self, net2, field, subject):
        # node and type names key tables, so an unhashable one cannot even
        # be built; the others stay lists, which no set may hold
        net, types, request = net2, None, {}
        if field == "servers":
            net = replace(net2, servers=("s0", 5))
        elif field == "users":
            net = replace(net2, users=(5,))
        elif field == "types":
            types = [mk_type(net2, name=5)]
        elif field == "requests":
            request = {"rid": ["r0"]}
        elif field == "user":
            request = {"user": ["u0"]}
        elif field == "chain":
            request = {"chain": (["k0"],)}
        else:
            request = {"candidates": ("s0", ["s1"])}
        inst = mk_instance(net, types=types, requests=[mk_request(net, **request)])
        report = validate_instance(inst)
        assert report.has("NOT_A_STRING", *subject)
        assert {v.code for v in report.violations} == {"NOT_A_STRING"}

    def test_nonzero_self_migration_is_flagged(self, net2):
        from dataclasses import replace

        vnf = mk_type(net2)
        costs = dict(vnf.migration_cost)
        costs[("s0", "s0")] = 5
        inst = mk_instance(net2, types=[replace(vnf, migration_cost=costs)])
        assert validate_instance(inst).has("NONZERO_SELF_MIGRATION", "k0", "s0")


class TestFeasibility:
    def test_two_content_servers_violates_single_selection(self, tiny):
        plan = mk_plan(
            content=[("r0", "s0"), ("r0", "s1")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        report = check_feasibility(tiny, plan)
        assert report.has("6", "r0")

    def test_server_overload_violates_capacity(self):
        # five 2-unit VNFs against an 8-unit server at full usage: 10 > 8
        net = mk_network(n_servers=1)
        vnf = mk_type(net, instances=5)
        request = mk_request(net, chain=("k0",))
        inst = mk_instance(net, types=[vnf], requests=[request])
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", i, "s0") for i in range(5)],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        report = check_feasibility(inst, plan)
        assert report.has("12", "s0")
        assert not report.has("6")

    def test_solver_output_is_feasible_on_two_server_instance(self, tiny):
        result = brute_force(tiny)
        assert result.status == "optimal"
        assert check_feasibility(tiny, result.plan).feasible

    def test_unassigned_instance_violates_deployment_link(self, tiny):
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s1")],
            assignment=[("r0", "s0", "k0", 0)],  # assigned where not deployed
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        report = check_feasibility(tiny, plan)
        assert report.has("9", "r0", "s0", "k0", 0)

    def test_missing_user_link_violates_chain_closure(self, tiny):
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0")]},
        )
        report = check_feasibility(tiny, plan)
        assert report.has("17", "r0", "s0")

    def test_delay_budget_violation(self, net2):
        request = mk_request(net2, budget=1)  # one microsecond
        inst = mk_instance(net2, requests=[request])
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        assert check_feasibility(inst, plan).has("18", "r0")

    def test_unknown_request_raises_index_mismatch(self, tiny):
        plan = mk_plan(content=[("nope", "s0")])
        with pytest.raises(IndexMismatchError):
            check_feasibility(tiny, plan)

    @pytest.mark.parametrize("bad_id", [False, 0.0], ids=["false", "float-zero"])
    @pytest.mark.parametrize("field", ["deployment", "assignment"])
    def test_non_integer_instance_id_raises_index_mismatch(self, tiny, field, bad_id):
        # both compare equal to the instance id 0
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", bad_id if field == "deployment" else 0, "s0")],
            assignment=[("r0", "s0", "k0", bad_id if field == "assignment" else 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        with pytest.raises(IndexMismatchError):
            check_feasibility(tiny, plan)

    def test_unneeded_type_need_not_be_deployed(self, net2):
        unused = mk_type(net2, name="k1")
        inst = mk_instance(net2, types=[mk_type(net2), unused])
        plan = mk_plan(
            content=[("r0", "s0")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        assert check_feasibility(inst, plan).feasible


class TestReport:
    def test_validation_and_feasibility_share_one_report(self, tiny):
        good = brute_force(tiny).plan
        bad = mk_plan(
            content=[("r0", "s0"), ("r0", "s1")],
            deployment=[("k0", 0, "s0")],
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": [("s0", "s0"), ("s0", "u0")]},
        )
        reports = [validate_instance(tiny), check_feasibility(tiny, good),
                   check_feasibility(tiny, bad)]
        assert all(type(report) is Report for report in reports)
        assert [(r.ok, r.feasible) for r in reports] == [(True, True), (True, True),
                                                         (False, False)]
        assert str(reports[2].violations[0]) == "6(r0): 2 servers selected"


class TestUsageLimit:
    def test_whole_limit_is_an_int(self, net2):
        limit = mk_instance(net2, mu=0.5).usage_limit(8)
        assert limit == 4 and type(limit) is int

    def test_fractional_limit_is_exact(self, net2):
        assert mk_instance(net2, mu=0.75).usage_limit(10) == Fraction(15, 2)

    @pytest.mark.parametrize("mu", [1.0, 0.5, 0.75, 0.3])
    def test_solver_limits_are_the_instance_limits(self, mu):
        net = mk_network(n_servers=3, n_users=2, capacity=9)
        n = len(net.nodes)
        # a symmetric bandwidth matrix with a distinct value per link
        def bandwidth(a, b):
            return 3 + min(a, b) * n + max(a, b)

        net = replace(net, bandwidth=[[bandwidth(a, b) for b in range(n)] for a in range(n)])
        types = [mk_type(net, capacity=11), mk_type(net, name="k1", capacity=4)]
        requests = [mk_request(net, chain=("k1", "k0"))]
        inst = mk_instance(net, types=types, requests=requests, mu=mu)
        p = _Problem(inst, SolveOptions())
        limit = inst.usage_limit
        assert p.server_cap == [limit(9)] * 3
        # slots name each chain type by its position in catalog order
        assert p.slots == [((1, limit(4)), (0, limit(11)))]
        # a self-link never fills; every other entry, in either orientation,
        # is the link's limit
        for a, b in itertools.product(range(n), repeat=2):
            got = p.link_cap[a * n + b]
            if a == b:
                assert got == math.inf
            else:
                assert got == limit(bandwidth(a, b))
                assert type(got) is type(limit(bandwidth(a, b)))


class TestSharing:
    def test_read_only_tables_are_kept_and_others_copied(self, net2):
        delays = {s: 1 for s in net2.servers}
        shared = MappingProxyType(dict(delays))  # a Mapping, not a MutableMapping
        a = replace(mk_type(net2, name="k0"), processing_delay=shared)
        b = replace(mk_type(net2, name="k1"), processing_delay=delays)
        assert a.processing_delay is shared
        assert b.processing_delay == delays and b.processing_delay is not delays

    def test_frozensets_of_tuples_are_kept(self, net2):
        route = frozenset({("s0", "u0")})
        request = mk_request(net2, status="existing", route=route)
        assert request.current_route is route
        plan = PlacementPlan(
            content_server=frozenset({("r0", "s0")}),
            deployment={("k0", 0, "s0")},
            assignment=[("r0", "s0", "k0", 0)],
            routes={"r0": route},
        )
        assert plan.routes["r0"] is route
        assert Snapshot(plan.deployment).deployed is plan.deployment
        assert plan.assignment == frozenset({("r0", "s0", "k0", 0)})


class TestSnapshotDiff:
    def test_identity_is_all_reused(self):
        snap = Snapshot(frozenset({("k0", 0, "s0"), ("k1", 0, "s1")}))
        plan = mk_plan(deployment=snap.deployed)
        delta = snapshot_diff(snap, plan)
        assert delta.reused == (("k0", 0, "s0"), ("k1", 0, "s1"))
        assert delta.migrated == delta.instantiated == delta.removed == ()

    def test_relocation_is_migration(self):
        snap = Snapshot(frozenset({("k0", 0, "s0")}))
        plan = mk_plan(deployment=[("k0", 0, "s1")])
        delta = snapshot_diff(snap, plan)
        assert delta.migrated == (("k0", 0, "s0", "s1"),)

    def test_fresh_deployment_is_instantiation(self):
        delta = snapshot_diff(Snapshot(), mk_plan(deployment=[("k0", 0, "s0")]))
        assert delta.instantiated == (("k0", 0, "s0"),)
        assert delta.removed == ()

    def test_dropped_deployment_is_removal(self):
        snap = Snapshot(frozenset({("k0", 0, "s0")}))
        delta = snapshot_diff(snap, mk_plan())
        assert delta.removed == (("k0", 0, "s0"),)

    @given(
        snap_entries=st.sets(
            st.tuples(
                st.sampled_from(["k0", "k1"]),
                st.integers(0, 2),
                st.sampled_from(["s0", "s1", "s2"]),
            ),
            max_size=6,
        ),
        plan_entries=st.sets(
            st.tuples(
                st.sampled_from(["k0", "k1"]),
                st.integers(0, 2),
                st.sampled_from(["s0", "s1", "s2"]),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=200)
    def test_partition_property(self, snap_entries, plan_entries):
        # keep one server per (type, instance) so inputs are well-formed
        snap = {}
        for k, i, s in sorted(snap_entries):
            snap.setdefault((k, i), s)
        plan = {}
        for k, i, s in sorted(plan_entries):
            plan.setdefault((k, i), s)
        delta = snapshot_diff(
            Snapshot(frozenset((k, i, s) for (k, i), s in snap.items())),
            mk_plan(deployment=[(k, i, s) for (k, i), s in plan.items()]),
        )
        seen = (
            [(k, i) for k, i, _ in delta.reused]
            + [(k, i) for k, i, _, _ in delta.migrated]
            + [(k, i) for k, i, _ in delta.instantiated]
            + [(k, i) for k, i, _ in delta.removed]
        )
        assert sorted(seen) == sorted(set(snap) | set(plan))
        assert all(s != t for _, _, s, t in delta.migrated)
