import pickle

import pytest

from chainplace.costs import service_delay
from chainplace.io import dumps, instance_to_document
from chainplace.model import PlacementPlan, check_feasibility
from chainplace.scenario import (
    FULL_SCENARIOS,
    REDUCED_SCENARIOS,
    ScenarioSpec,
    emit_report,
    generate,
    reports_to_csv,
    run_comparison,
)
from chainplace.solver import SolveOptions, solve_exact


def fast_spec(seed=0, existing=1, new=1):
    return ScenarioSpec(
        seed=seed,
        n_servers=3,
        n_user_groups=2,
        existing_requests=existing,
        new_requests=new,
        overrides={"vnf_types": 2, "chain_length_range": (1, 2)},
    )


class TestGenerate:
    def test_paper_scenario_one_shape(self):
        inst = generate(ScenarioSpec.table_row(1, seed=3))
        assert len(inst.requests) == 6
        existing = [r for r in inst.requests if r.status == "existing"]
        assert len(existing) == 2
        for r in existing:
            assert r.current_route
        for r in inst.requests:
            if r.status == "new":
                assert not r.current_route
        assert len(inst.network.servers) == 6
        assert len(inst.network.users) == 6

    def test_same_seed_is_byte_identical(self):
        a = generate(fast_spec(seed=9))
        b = generate(fast_spec(seed=9))
        assert dumps(instance_to_document(a)) == dumps(instance_to_document(b))

    def test_different_seeds_differ(self):
        a = generate(fast_spec(seed=1))
        b = generate(fast_spec(seed=2))
        assert dumps(instance_to_document(a)) != dumps(instance_to_document(b))

    def test_no_existing_requests_means_empty_snapshot(self):
        inst = generate(fast_spec(existing=0, new=2))
        assert not inst.snapshot.deployed
        assert all(r.status == "new" for r in inst.requests)

    def test_types_share_one_read_only_table_of_each_kind(self):
        inst = generate(fast_spec())
        net = inst.network
        first, *rest = inst.catalog.types
        assert rest
        for t in rest:
            assert t.migration_cost is first.migration_cost
            assert t.processing_delay is first.processing_delay
        prices = first.migration_cost
        assert len(prices) == len(net.servers) ** 2
        assert list(prices) == [(a, b) for a in net.servers for b in net.servers]
        assert prices[("s0", "s0")] == 0
        assert prices.get(("s0", net.users[0])) is None
        assert prices.get(("s0",)) is None
        with pytest.raises(TypeError):
            prices[("s0", "s1")] = 0
        assert dict(first.processing_delay) == {s: 20_000 for s in net.servers}
        assert first.processing_delay.get(net.users[0]) is None
        # the views pickle and compare like the dicts they stand for
        assert pickle.loads(pickle.dumps(inst)) == inst
        assert first.migration_cost == {
            (a, b): 44 * net.cost_between(a, b) for a in net.servers for b in net.servers
        }

    def test_benchmark_parameter_values(self):
        inst = generate(fast_spec())
        net = inst.network
        for i in range(len(net.nodes)):
            for j in range(i + 1, len(net.nodes)):
                assert net.bandwidth[i][j] == 10
                assert 90_000 <= net.link_cost[i][j] <= 115_000
                assert 4_000 <= net.link_delay[i][j] <= 50_000
                assert net.link_delay[i][j] % 1000 == 0
        for t in inst.catalog.types:
            assert t.license_cost == 100_000_000
            assert t.resource_req == 2
            assert all(v == 20_000 for v in t.processing_delay.values())
            for (a, b), phi in t.migration_cost.items():
                assert phi == 44 * net.cost_between(a, b)
        for s in net.servers:
            assert net.server_capacity[s] == 8
            assert net.server_unit_cost[s] == 5_000_000
        for r in inst.requests:
            assert r.traffic == 1
            assert 1_800_000 <= r.delay_budget <= 2_000_000
            assert 1 <= len(r.chain) <= 2
            assert len(r.candidate_servers) == 3
        assert inst.usage_threshold == 1.0

    def test_instance_pools_match_demand(self):
        inst = generate(fast_spec(existing=1, new=1))
        for t in inst.catalog.types:
            demand = sum(1 for r in inst.requests if t.name in r.chain)
            assert len(t.instances) == demand

    def test_overrides_are_applied_and_checked(self):
        inst = generate(fast_spec(seed=1))
        assert inst.catalog.types[0].capacity == 10
        spec = fast_spec(seed=1)
        spec = ScenarioSpec(
            seed=1, n_servers=3, n_user_groups=2, existing_requests=1, new_requests=1,
            overrides={"vnf_types": 2, "chain_length_range": (1, 2), "vnf_capacity": 4},
        )
        assert generate(spec).catalog.types[0].capacity == 4
        with pytest.raises(ValueError):
            generate(ScenarioSpec(seed=1, overrides={"not_a_knob": 1}))

    def test_bootstrap_deployment_serves_existing_requests(self):
        inst = generate(fast_spec(seed=4, existing=2, new=1))
        existing = tuple(r for r in inst.requests if r.status == "existing")
        sub = solve_exact(
            type(inst)(
                network=inst.network,
                catalog=inst.catalog,
                requests=tuple(
                    type(r)(
                        id=r.id, user=r.user, chain=r.chain, traffic=r.traffic,
                        delay_budget=r.delay_budget,
                        candidate_servers=r.candidate_servers,
                    )
                    for r in existing
                ),
                snapshot=type(inst.snapshot)(frozenset()),
                usage_threshold=inst.usage_threshold,
            )
        )
        assert sub.plan.deployment == inst.snapshot.deployed
        assert {
            r.id: r.current_route for r in existing
        } == {f: links for f, links in sub.plan.routes.items()}


@pytest.fixture(scope="module")
def report():
    return run_comparison(fast_spec(seed=0))


class TestComparison:
    def test_reuse_dominance(self, report):
        assert report.no_reuse.breakdown.total >= report.online.breakdown.total
        assert report.gap_micro == (
            report.no_reuse.breakdown.total - report.online.breakdown.total
        )

    def test_every_delay_respects_its_budget(self, report):
        inst = generate(fast_spec(seed=0))
        budgets = {r.id: r.delay_budget for r in inst.requests}
        for case in (report.online, report.no_reuse):
            for rid, delay in case.delays.items():
                assert delay <= budgets[rid]

    def test_migration_counts_match_deltas(self, report):
        for case in (report.online, report.no_reuse):
            assert case.migration_count == len(case.delta.migrated)

    def test_csv_shape_and_determinism(self, report):
        text = emit_report(report, "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header == [
            "format_version", "scenario", "seed", "case", "total_micro",
            "hosting_micro", "instantiation_micro", "routing_micro",
            "migration_micro", "migration_count", "mean_delay_us", "wall_time_s",
        ]
        assert lines[1].split(",")[3] == "online"
        assert lines[2].split(",")[3] == "no_reuse"
        assert lines[1].split(",")[-1] == "0.000"  # timing suppressed
        assert emit_report(report, "csv") == text

    def test_json_report_is_canonical(self, report):
        a = emit_report(report, "json")
        assert a == emit_report(report, "json")
        assert '"gap_micro"' in a

    def test_zero_migration_row_reports_zero_cost(self, report):
        if report.online.migration_count == 0:
            row = reports_to_csv([report]).strip().split("\n")[1].split(",")
            assert row[8] == "0" and row[9] == "0"

    def test_no_reuse_instantiates_at_least_as_much(self, report):
        assert (
            report.no_reuse.breakdown.instantiation
            >= report.online.breakdown.instantiation
        )


class TestScenarioTables:
    def test_table_rows(self):
        assert FULL_SCENARIOS == {1: (2, 4), 2: (3, 3), 3: (4, 2)}
        assert REDUCED_SCENARIOS == {1: (1, 3), 2: (2, 2), 3: (3, 1)}
        spec = ScenarioSpec.table_row(2, seed=1, reduced=True)
        assert (spec.existing_requests, spec.new_requests) == (2, 2)
        assert spec.n_servers == 4 and spec.n_user_groups == 4
        full = ScenarioSpec.table_row(2, seed=1)
        assert (full.existing_requests, full.new_requests) == (3, 3)
        assert full.n_servers == 6
