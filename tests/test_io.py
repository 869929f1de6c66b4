import json

from chainplace.io import (
    document_to_instance,
    document_to_plan,
    dumps,
    instance_to_document,
    plan_to_document,
    solve_result_to_document,
    stats_to_document,
)
from chainplace.scenario import ScenarioSpec, generate
from chainplace.solver import SolveStats, solve_exact


def spec():
    return ScenarioSpec(
        seed=6, n_servers=3, n_user_groups=2, existing_requests=1, new_requests=1,
        overrides={"vnf_types": 2, "chain_length_range": (1, 2)},
    )


def test_instance_round_trip_is_lossless():
    inst = generate(spec())
    doc = instance_to_document(inst)
    back = document_to_instance(json.loads(dumps(doc)))
    assert instance_to_document(back) == doc
    assert back.network == inst.network
    assert back.requests == inst.requests
    assert back.snapshot == inst.snapshot


def test_matrices_stay_symmetric_with_zero_diagonals():
    inst = generate(spec())
    doc = instance_to_document(inst)
    back = document_to_instance(doc)
    n = len(back.network.nodes)
    for name in ("bandwidth", "link_cost", "link_delay"):
        matrix = getattr(back.network, name)
        for i in range(n):
            for j in range(n):
                assert matrix[i][j] == matrix[j][i]
    for i in range(n):
        assert back.network.link_cost[i][i] == 0
        assert back.network.link_delay[i][i] == 0


def test_current_routes_survive_the_matrix_encoding():
    inst = generate(spec())
    back = document_to_instance(instance_to_document(inst))
    for original, parsed in zip(inst.requests, back.requests):
        assert original.current_route == parsed.current_route


def test_plan_round_trip():
    inst = generate(spec())
    plan = solve_exact(inst).plan
    back = document_to_plan(json.loads(dumps(plan_to_document(plan))))
    assert back == plan


def test_solve_report_document_shape():
    inst = generate(spec())
    result = solve_exact(inst)
    doc = solve_result_to_document(inst, result)
    assert doc["status"] == "optimal"
    assert doc["stats"]["wall_time_s"] == 0.0
    assert set(doc["delta"]) == {"reused", "migrated", "instantiated", "removed"}
    assert set(doc["delays_us"]) == {r.id for r in inst.requests}
    assert dumps(doc) == dumps(solve_result_to_document(inst, result))


def test_stats_document_has_gap_only_on_a_time_limited_run():
    stats = SolveStats(nodes=7, dive_nodes=3, incumbent_updates=2, wall_time=1.23456)
    assert stats_to_document(stats, False) == {
        "nodes": 7, "dive_nodes": 3, "incumbent_updates": 2, "wall_time_s": 0.0,
    }
    assert stats_to_document(stats, True)["wall_time_s"] == 1.235
    stats.gap = 0
    assert stats_to_document(stats, False) == {
        "nodes": 7, "dive_nodes": 3, "incumbent_updates": 2, "wall_time_s": 0.0,
        "gap_micro": 0,
    }
