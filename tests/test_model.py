import itertools
import math
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainplace.errors import IndexMismatchError
from chainplace import model
from chainplace.model import (
    PlacementPlan,
    Report,
    Snapshot,
    Violation,
    VnfCatalog,
    check_feasibility,
    snapshot_diff,
    validate_instance,
)
from chainplace.solver import SolveOptions, _Problem, brute_force, solve_exact

from conftest import mk_instance, mk_network, mk_plan, mk_request, mk_type, run_under_hash_seed


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
    ("LINK_WITHOUT_SERVER", ("r0", "u0", "u0"),
     lambda i: _request(i, status="existing", current_route={("s0", "u0"), ("u0", "u0")})),
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
        "mu, code",
        [(float("nan"), "USAGE_THRESHOLD_RANGE"), (None, "NOT_A_NUMBER"), ("x", "NOT_A_NUMBER")],
    )
    def test_threshold_with_no_exact_fraction_is_reported(self, net2, mu, code):
        # the instance builds, because usage_limit makes its Fraction on
        # first use; validation then names the threshold
        report = validate_instance(mk_instance(net2, mu=mu))
        assert [v.code for v in report.violations] == [code]

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

def _matrix(inst, name, value):
    rows = [list(row) for row in getattr(inst.network, name)]
    rows[0][1] = value
    return _network(inst, **{name: rows})


def _int_at(table, key):
    return lambda i, v: _network(i, **{table: {**getattr(i.network, table), key: v}})


def _type_table(table, key):
    return lambda i, v: _vnf(i, **{table: {**getattr(i.catalog.types[0], table), key: v}})


# (family, subject, the tiny instance with a value at one entry of the
# family) for every entry validation reads as an int
INT_ENTRIES = [
    ("bandwidth", ("bandwidth", 0, 1), lambda i, v: _matrix(i, "bandwidth", v)),
    ("link_cost", ("link_cost", 0, 1), lambda i, v: _matrix(i, "link_cost", v)),
    ("link_delay", ("link_delay", 0, 1), lambda i, v: _matrix(i, "link_delay", v)),
    ("server_capacity", ("server_capacity", "s1"), _int_at("server_capacity", "s1")),
    ("server_unit_cost", ("server_unit_cost", "s1"), _int_at("server_unit_cost", "s1")),
    ("license_cost", ("license_cost", "k0"), lambda i, v: _vnf(i, license_cost=v)),
    ("capacity", ("capacity", "k0"), lambda i, v: _vnf(i, capacity=v)),
    ("resource_req", ("resource_req", "k0"), lambda i, v: _vnf(i, resource_req=v)),
    ("instances", ("instances", "k0", 0), lambda i, v: _vnf(i, instances=(v,))),
    ("processing_delay", ("processing_delay", "k0", "s1"),
     _type_table("processing_delay", "s1")),
    ("migration_cost", ("migration_cost", "k0", "s0", "s1"),
     _type_table("migration_cost", ("s0", "s1"))),
    ("traffic", ("traffic", "r0"), lambda i, v: _request(i, traffic=v)),
    ("delay_budget", ("delay_budget", "r0"), lambda i, v: _request(i, delay_budget=v)),
    ("snapshot", ("snapshot", "k0", "s0"),
     lambda i, v: replace(i, snapshot=Snapshot({("k0", v, "s0")}))),
]

# (family, subject, the name the tiny instance has there)
NAME_ENTRIES = [
    ("servers", ("servers", 1), "s1"),
    ("users", ("users", 0), "u0"),
    ("types", ("types", 0), "k0"),
    ("requests", ("requests", 0), "r0"),
    ("user", ("user", "r0"), "u0"),
    ("chain", ("chain", "r0", 0), "k0"),
    ("candidate_servers", ("candidate_servers", "r0", 1), "s1"),
]


def _with_name(net, family, value):
    """The tiny instance with ``value`` as its name at ``family``'s entry,
    and at no other."""
    types, request = None, {"user": "u0", "candidates": ("s0", "s1")}
    if family == "servers":
        net = replace(net, servers=("s0", value))
    elif family == "users":
        net = replace(net, users=(value,))
    elif family == "types":
        types = [mk_type(net, name=value)]
    elif family == "requests":
        request["rid"] = value
    elif family == "user":
        request["user"] = value
    elif family == "chain":
        request["chain"] = (value,)
    elif family == "candidate_servers":
        request["candidates"] = ("s0", value)
    return mk_instance(net, types=types, requests=[mk_request(net, **request)])


class _Name(str):
    pass


class TestTypeScan:
    @pytest.mark.parametrize("value", [True, 1.5, None, "1"], ids=["bool", "float", "none", "str"])
    @pytest.mark.parametrize(
        "family, subject, put", INT_ENTRIES, ids=[f for f, _s, _p in INT_ENTRIES]
    )
    def test_entry_that_is_not_an_int_is_flagged(self, tiny, family, subject, put, value):
        inst = put(tiny, value)
        expected = (Violation("NOT_AN_INTEGER", subject, repr(value)),)
        assert validate_instance(inst).violations == expected
        assert model._entry_violations(inst) == list(expected)

    @pytest.mark.parametrize("value", [5, b"x"], ids=["int", "bytes"])
    @pytest.mark.parametrize(
        "family, subject, name", NAME_ENTRIES, ids=[f for f, _s, _n in NAME_ENTRIES]
    )
    def test_name_that_is_not_a_str_is_flagged(self, net2, family, subject, name, value):
        inst = _with_name(net2, family, value)
        expected = (Violation("NOT_A_STRING", subject, repr(value)),)
        assert validate_instance(inst).violations == expected
        assert model._entry_violations(inst) == list(expected)

    @pytest.mark.parametrize(
        "family, subject, name", NAME_ENTRIES, ids=[f for f, _s, _n in NAME_ENTRIES]
    )
    def test_str_subclass_name_is_accepted(self, net2, family, subject, name):
        inst = _with_name(net2, family, _Name(name))
        assert not model._well_typed(inst)  # judged entry by entry
        assert validate_instance(inst).ok

    def test_shared_table_is_flagged_for_each_type(self, net2):
        shared = MappingProxyType({"s0": 1, "s1": 1.5})
        types = [replace(mk_type(net2, name=k), processing_delay=shared) for k in ("k0", "k1")]
        report = validate_instance(mk_instance(net2, types=types))
        assert [v.subject for v in report.violations] == [
            ("processing_delay", "k0", "s1"),
            ("processing_delay", "k1", "s1"),
        ]

    @pytest.mark.parametrize(
        "code, subject, mutate", MUTATIONS, ids=[code for code, _s, _m in MUTATIONS]
    )
    def test_scan_agrees_with_the_entry_path(self, tiny, code, subject, mutate):
        inst = mutate(tiny)
        assert model._well_typed(inst) == (model._entry_violations(inst) == [])
        scanned = [v for v in model._type_violations(inst) if v.code != "NOT_A_NUMBER"]
        assert scanned == model._entry_violations(inst)


class TestValidationMemo:
    def test_repeated_call_returns_the_same_report(self, tiny):
        assert validate_instance(tiny) is validate_instance(tiny)

    def test_invalid_report_is_kept_too(self, tiny):
        inst = _request(tiny, chain=())
        assert validate_instance(inst) is validate_instance(inst)
        assert validate_instance(inst).has("EMPTY_CHAIN", "r0")

    def test_replaced_instance_is_validated_afresh(self, tiny, monkeypatch):
        made = []
        report = model._instance_report
        monkeypatch.setattr(model, "_instance_report", lambda i: made.append(i) or report(i))
        assert validate_instance(tiny).ok
        assert validate_instance(tiny).ok
        broken = _request(tiny, chain=())
        assert validate_instance(broken).has("EMPTY_CHAIN", "r0")
        assert made == [tiny, broken]


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
        """The search's limits are the floors of the instance's, as ints:
        loads are sums of ints, so a load fits under a limit exactly when it
        fits under its floor."""
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

        def limit(capacity):
            return math.floor(inst.usage_limit(capacity))

        assert p.server_cap == [limit(9)] * 3
        # slots name each chain type by its position in catalog order, and
        # the type's usage limit sits at that position
        assert p.slots == [(1, 0)]
        assert p.type_cap == [limit(11), limit(4)]
        # a self-link never fills; every other entry, in either orientation,
        # is the link's limit
        for a, b in itertools.product(range(n), repeat=2):
            got = p.link_cap[a * n + b]
            if a == b:
                assert got == math.inf
            else:
                assert got == limit(bandwidth(a, b))
                assert type(got) is int

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    def test_fractional_limits_search_in_ints(self, no_reuse):
        """At a usage threshold of 0.75 every limit here is a Fraction (15/2
        per server, 3/2 per instance, 9/4 per link); the search's tables
        hold their floors, and it still returns the oracle's plan. Three
        requests of traffic 1 need three instances of the type: an instance
        carries one request under the floor 1, where 3/2 would count two."""
        net = mk_network(capacity=10, bandwidth=3)
        inst = mk_instance(
            net,
            types=[mk_type(net, capacity=2, instances=3)],
            requests=[mk_request(net, rid=f"r{i}") for i in range(3)],
            mu=0.75,
        )
        p = _Problem(inst, SolveOptions(no_reuse=no_reuse))
        tables = [p.server_cap, p.type_cap, p.link_cap, p.need, p.need_qualified]
        assert not any(isinstance(v, Fraction) for table in tables for v in table)
        assert p.need == [3]
        fast = solve_exact(inst, SolveOptions(no_reuse=no_reuse))
        slow = brute_force(inst, SolveOptions(no_reuse=no_reuse))
        assert fast.status == slow.status == "optimal"
        assert fast.plan == slow.plan
        assert fast.breakdown.total == slow.breakdown.total

    def test_each_distinct_capacity_is_read_once_per_call(self, monkeypatch):
        """The solver's set-up and the checker each work out a usage limit
        once per distinct capacity, however many servers, instances and
        links share it: here the 3 servers share one capacity and the 10
        links another."""
        net = mk_network(n_servers=3, n_users=2, capacity=9)
        types = [mk_type(net, capacity=11, instances=2), mk_type(net, name="k1", capacity=4)]
        inst = mk_instance(net, types=types, requests=[mk_request(net, chain=("k1", "k0"))], mu=0.5)
        plan = solve_exact(inst).plan
        reads = []
        original = model.ProblemInstance.usage_limit
        monkeypatch.setattr(
            model.ProblemInstance, "usage_limit", lambda self, c: reads.append(c) or original(self, c)
        )
        _Problem(inst, SolveOptions())
        assert sorted(reads) == [4, 9, 10, 11]
        reads.clear()
        assert check_feasibility(inst, plan).feasible
        assert len(reads) == len(set(reads))


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

    def test_instance_on_several_servers_reads_the_first_under_any_hash_seed(self):
        # the destination once followed set order, which the hash seed moves
        code = (
            "from chainplace.model import Snapshot, snapshot_diff\n"
            "from conftest import mk_plan\n"
            "plan = mk_plan(deployment=[('k0', 0, s) for s in ('s1', 's2', 's3')])\n"
            "print(snapshot_diff(Snapshot([('k0', 0, 's0')]), plan).migrated)\n"
        )
        seen = {run_under_hash_seed(seed, code).stdout for seed in range(1, 7)}
        assert seen == {"(('k0', 0, 's0', 's1'),)\n"}

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
