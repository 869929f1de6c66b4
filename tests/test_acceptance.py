"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavy artifacts (fifty small solved instances, the three reduced-scale
comparisons for the shipped default seed) are computed once per session and
shared across criteria.
"""

import json
import pathlib
import random

import pytest

from chainplace.costs import service_delay, total_objective
from chainplace.ilp import build_ilp, export_mps, import_solution
from chainplace.model import check_feasibility
from chainplace.scenario import (
    DEFAULT_SEED,
    ScenarioSpec,
    generate,
    run_comparison,
)
from chainplace.solver import brute_force, solve_exact

from helpers import full_assignment, solve_mps_with_highs

DATA = pathlib.Path(__file__).parent / "data" / "acceptance_oracle.json"


def oracle_configs(count=50):
    """Deterministic family of small instances: 2-3 servers, 1-2 requests,
    1-2 VNF types, mixed existing/new."""
    mixes = [(0, 1), (1, 1), (1, 0), (0, 2)]
    configs = []
    for idx in range(count):
        existing, new = mixes[(idx // 4) % 4]
        configs.append(
            ScenarioSpec(
                seed=idx,
                n_servers=2 + (idx % 2),
                n_user_groups=1 + ((idx // 8) % 2),
                existing_requests=existing,
                new_requests=new,
                overrides={
                    "vnf_types": 1 + ((idx // 2) % 2),
                    "chain_length_range": (1, min(2, 1 + ((idx // 2) % 2))),
                },
            )
        )
    return configs


@pytest.fixture(scope="session")
def solved_pairs():
    pairs = []
    for spec in oracle_configs():
        instance = generate(spec)
        pairs.append((spec.seed, instance, solve_exact(instance), brute_force(instance)))
    return pairs


@pytest.fixture(scope="session")
def reduced_reports():
    return {
        sid: run_comparison(ScenarioSpec.table_row(sid, seed=DEFAULT_SEED, reduced=True))
        for sid in (1, 2, 3)
    }


def test_criterion_1_oracle_equivalence(solved_pairs):
    assert len(solved_pairs) >= 50
    for seed, _instance, fast, slow in solved_pairs:
        assert fast.status == slow.status == "optimal", f"seed {seed}"
        assert fast.breakdown.total == slow.breakdown.total, f"seed {seed}"
        assert fast.breakdown == slow.breakdown, f"seed {seed}"
        assert fast.plan == slow.plan, f"seed {seed}"
    print(f"\nACCEPTANCE PASS - criterion 1: branch-and-bound equals brute force "
          f"bit-for-bit on {len(solved_pairs)} instances")


def linearization_model():
    net_spec = ScenarioSpec(
        seed=1, n_servers=2, n_user_groups=1, existing_requests=1, new_requests=1,
        overrides={"vnf_types": 2, "chain_length_range": (2, 2)},
    )
    instance = generate(net_spec)
    assert instance.snapshot.deployed  # mixes current-state 0s and 1s
    return instance, build_ilp(instance)


def test_criterion_2_linearization_exactness():
    instance, model = linearization_model()
    by_family: dict[str, dict[tuple, list]] = {"2": {}, "15": {}, "16": {}}
    for row in model.rows:
        family = row.tag.split("-")[0]
        if family in by_family and "-" in row.tag:
            by_family[family].setdefault(row.key, []).append(row)
    assert by_family["2"] and by_family["15"] and by_family["16"]

    names = {v.name: i for i, v in enumerate(model.variables)}
    snap = instance.snapshot.deployed
    rng = random.Random(20240416)
    trials = 10_000
    for _ in range(trials):
        vec = [rng.getrandbits(1) for _ in model.variables]

        for (k, i, s, d), rows in by_family["2"].items():
            rows_hold = all(r.satisfied_by(vec) for r in rows)
            cur = 1 if (k, i, s) in snap else 0
            product = cur * vec[names[f"t[{k}][{i}][{d}]"]]
            assert rows_hold == (vec[names[f"x[{k}][{i}][{s}][{d}]"]] == product)

        for (f, s, d, i), rows in by_family["15"].items():
            rows_hold = all(r.satisfied_by(vec) for r in rows)
            first = instance.request(f).chain[0]
            aux = vec[names[f"m[{f}][{s}][{d}][{i}]"]]
            product = (
                vec[names[f"g[{f}][{s}]"]]
                * vec[names[f"l[{f}][{d}][{first}][{i}]"]]
            )
            link = (s, d) if instance.network.position(s) <= instance.network.position(d) else (d, s)
            p_ok = aux <= vec[names[f"p[{f}][{link[0]}][{link[1]}]"]]
            assert rows_hold == (aux == product and p_ok)

        for (f, pos, s, d, i, j), rows in by_family["16"].items():
            rows_hold = all(r.satisfied_by(vec) for r in rows)
            chain = instance.request(f).chain
            aux = vec[names[f"q[{f}][{s}][{d}][{pos}][{i}][{j}]"]]
            product = (
                vec[names[f"l[{f}][{s}][{chain[pos]}][{i}]"]]
                * vec[names[f"l[{f}][{d}][{chain[pos + 1]}][{j}]"]]
            )
            link = (s, d) if instance.network.position(s) <= instance.network.position(d) else (d, s)
            p_ok = aux <= vec[names[f"p[{f}][{link[0]}][{link[1]}]"]]
            assert rows_hold == (aux == product and p_ok)
    print(f"\nACCEPTANCE PASS - criterion 2: product rows exact on {trials} random "
          f"assignments per family")


def test_criterion_3_objective_agreement(solved_pairs):
    rng = random.Random(7)
    checked = 0
    for _seed, instance, fast, _slow in solved_pairs:
        model = build_ilp(instance)
        plans = [fast.plan]
        nodes = instance.network.nodes
        for _ in range(3):  # feasible variants: pad one route with a spare link
            rid = rng.choice([r.id for r in instance.requests]) if instance.requests else None
            if rid is None:
                break
            extra = instance.network.link(rng.choice(nodes), rng.choice(nodes))
            routes = dict(fast.plan.routes)
            routes[rid] = routes[rid] | {extra}
            padded = type(fast.plan)(
                content_server=fast.plan.content_server,
                deployment=fast.plan.deployment,
                assignment=fast.plan.assignment,
                routes=routes,
            )
            if check_feasibility(instance, padded).feasible:
                plans.append(padded)
        for plan in plans:
            values = full_assignment(model, plan)
            assert model.objective_micro(values) == total_objective(instance, plan).total
            checked += 1
    assert checked >= 50
    print(f"\nACCEPTANCE PASS - criterion 3: model objective equals the cost module "
          f"on {checked} feasible assignments")


def test_criterion_4_reuse_dominance(reduced_reports):
    strict = 0
    for sid, report in sorted(reduced_reports.items()):
        online = report.online.breakdown.total
        scratch = report.no_reuse.breakdown.total
        assert online <= scratch, f"scenario {sid}"
        if online < scratch:
            strict += 1
    assert strict >= 1
    print(f"\nACCEPTANCE PASS - criterion 4: online <= deploy-from-scratch on all "
          f"scenarios, strictly on {strict} of 3")


def test_criterion_5_scenario_trend(reduced_reports):
    s1 = reduced_reports[1].online.breakdown.total
    s3 = reduced_reports[3].online.breakdown.total
    assert s1 > s3
    print(f"\nACCEPTANCE PASS - criterion 5: fewest-existing scenario costs "
          f"{s1} micro > most-existing {s3} micro")


def test_criterion_6_migration_matches_frozen_oracle(reduced_reports):
    frozen = json.loads(DATA.read_text())
    assert frozen["seed"] == DEFAULT_SEED
    for sid, report in sorted(reduced_reports.items()):
        expect = frozen["scenarios"][str(sid)]
        assert len(report.online.delta.migrated) == expect["online"]["migration_count"]
        assert report.online.breakdown.total == expect["online"]["total_micro"]
        assert report.no_reuse.breakdown.total == expect["no_reuse"]["total_micro"]
    counts = [len(reduced_reports[s].online.delta.migrated) for s in (1, 2, 3)]
    print(f"\nACCEPTANCE PASS - criterion 6: migration counts {counts} match the "
          f"independently recorded optimum for seed {DEFAULT_SEED}")


def test_criterion_7_feasibility_closure(solved_pairs, reduced_reports):
    plans = 0
    for _seed, instance, fast, slow in solved_pairs:
        for result in (fast, slow):
            assert check_feasibility(instance, result.plan).feasible
            for r in instance.requests:
                assert service_delay(instance, result.plan, r.id) <= r.delay_budget
            plans += 1
    for sid, report in sorted(reduced_reports.items()):
        instance = generate(ScenarioSpec.table_row(sid, seed=DEFAULT_SEED, reduced=True))
        budgets = {r.id: r.delay_budget for r in instance.requests}
        for case in (report.online, report.no_reuse):
            for rid, delay in case.delays.items():
                assert delay <= budgets[rid]
            plans += 1
    print(f"\nACCEPTANCE PASS - criterion 7: {plans} returned plans pass the "
          f"constraint checker with delays inside budget")


def test_criterion_8_cross_solver_round_trip():
    spec = ScenarioSpec(
        seed=3, n_servers=2, n_user_groups=1, existing_requests=1, new_requests=1,
        overrides={"vnf_types": 2, "chain_length_range": (1, 2)},
    )
    instance = generate(spec)
    model = build_ilp(instance)
    money, values = solve_mps_with_highs(export_mps(model))
    plan = import_solution(model, values)
    assert check_feasibility(instance, plan).feasible
    built_in = solve_exact(instance)
    imported_micro = total_objective(instance, plan).total
    assert imported_micro == built_in.breakdown.total
    assert abs(money - built_in.breakdown.total / 10**6) <= 1e-6
    print(f"\nACCEPTANCE PASS - criterion 8: HiGHS on the exported MPS reproduces "
          f"the built-in optimum ({imported_micro} micro) within 1e-6")


def test_criterion_9_determinism(tmp_path, capsys):
    from chainplace.cli import main

    args = ["compare", "--scenario", "3", "--reduced", "--seed", str(DEFAULT_SEED)]
    assert main(args + ["-o", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["-o", str(tmp_path / "b.csv")]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    print("\nACCEPTANCE PASS - criterion 9: byte-identical comparison reruns")
