import json
import tracemalloc

import pytest

from chainplace.cli import _emit, main
from chainplace.io import document_to_instance, dumps, instance_to_document, plan_to_document
from chainplace.model import PlacementPlan
from chainplace.scenario import ScenarioSpec, generate
from chainplace.solver import solve_exact

from conftest import colliding_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY = [
    "--servers", "2", "--users", "1", "--existing", "1", "--new", "1",
    "--set", "vnf_types=2", "--set", "chain_length_range=[1,2]",
]


@pytest.fixture
def tiny_file(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    code, _, _ = run(capsys, "generate", *TINY, "--seed", "5", "-o", str(path))
    assert code == 0
    return path


class TestGenerate:
    def test_scenario_row_has_six_requests(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        code, _, _ = run(capsys, "generate", "--scenario", "1", "--seed", "3", "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["requests"]) == 6
        assert doc["format_version"] == "1"

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "generate", *TINY, "--seed", "5", "-o", str(a))
        run(capsys, "generate", *TINY, "--seed", "5", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_single_new_request_offline_instance(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--servers", "2", "--users", "1",
            "--existing", "0", "--new", "1", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["requests"]) == 1
        assert doc["snapshot"]["deployed"] == []

    def test_env_seed_is_used(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("CHAINPLACE_SEED", "5")
        run(capsys, "generate", *TINY, "-o", str(a))
        monkeypatch.delenv("CHAINPLACE_SEED")
        run(capsys, "generate", *TINY, "--seed", "5", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_solve_writes_report_and_exits_zero(self, tiny_file, capsys):
        code, out, _ = run(capsys, "solve", str(tiny_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["stats"]["wall_time_s"] == 0.0
        assert set(doc["breakdown"]["micro"]) == {
            "hosting_delta", "migration", "instantiation", "routing_delta", "total",
        }

    def test_oracle_flag_verifies_agreement(self, tiny_file, capsys, monkeypatch):
        from chainplace import solver

        # the search and the oracle share one validated problem
        calls = []
        validate = solver.validate_instance

        def counting(instance):
            calls.append(instance)
            return validate(instance)

        monkeypatch.setattr(solver, "validate_instance", counting)
        code, out, _ = run(capsys, "solve", str(tiny_file), "--oracle")
        assert code == 0
        assert json.loads(out)["oracle_match"] is True
        assert len(calls) == 1

    def test_export_mps_writes_model_not_solution(self, tiny_file, tmp_path, capsys):
        target = tmp_path / "model.mps"
        code, _, _ = run(capsys, "solve", str(tiny_file), "--export", "mps", "-o", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("* chainplace MPS export")
        assert "ENDATA" in text

    def test_export_lp(self, tiny_file, capsys):
        code, out, _ = run(capsys, "solve", str(tiny_file), "--export", "lp")
        assert code == 0
        assert out.startswith("\\ chainplace LP export") and out.rstrip().endswith("End")

    def test_infeasible_instance_exits_two(self, tmp_path, capsys):
        inst = generate(
            ScenarioSpec(seed=5, n_servers=2, n_user_groups=1,
                         existing_requests=0, new_requests=1,
                         overrides={"vnf_types": 1, "chain_length_range": [1, 1],
                                    "delay_budget_ms_range": [0, 0]})
        )
        path = tmp_path / "doomed.json"
        path.write_text(dumps(instance_to_document(inst)))
        code, _, _ = run(capsys, "solve", str(path))
        assert code == 2

    def test_unreadable_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{}")
        code, _, _ = run(capsys, "solve", str(path))
        assert code == 1


class TestCompare:
    def test_range_produces_rows_per_scenario_and_case(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--scenario", "1..3", "--reduced", "--seed", "3",
            "--set", "vnf_types=2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] in ("online", "no_reuse")

    def test_dominance_in_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "--scenario", "3", "--reduced", "--seed", "3")
        assert code == 0
        header, online, scratch = out.strip().split("\n")
        assert int(online.split(",")[4]) <= int(scratch.split(",")[4])

    def test_reruns_are_byte_identical(self, capsys):
        args = ("compare", "--scenario", "3", "--reduced", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--scenario", "2", "--reduced", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["scenario"] == 2
        assert doc["reports"][0]["gap_micro"] >= 0


class TestCheck:
    def test_solver_plan_checks_out(self, tiny_file, tmp_path, capsys):
        instance = document_to_instance(json.loads(tiny_file.read_text()))
        result = solve_exact(instance)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(dumps(plan_to_document(result.plan)))
        code, out, _ = run(capsys, "check", str(tiny_file), str(plan_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["breakdown"]["micro"]["total"] == result.breakdown.total

    def test_doubled_content_server_is_reported(self, tiny_file, tmp_path, capsys):
        instance = document_to_instance(json.loads(tiny_file.read_text()))
        plan = solve_exact(instance).plan
        rid = instance.requests[0].id
        other = next(s for s in instance.network.servers
                     if (rid, s) not in plan.content_server)
        doubled = PlacementPlan(
            content_server=plan.content_server | {(rid, other)},
            deployment=plan.deployment,
            assignment=plan.assignment,
            routes=plan.routes,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(dumps(plan_to_document(doubled)))
        code, out, _ = run(capsys, "check", str(tiny_file), str(plan_path))
        assert code == 2
        doc = json.loads(out)
        assert any(v["constraint"] == "6" for v in doc["violations"])


class TestEmit:
    def test_output_file_holds_no_second_copy(self, tmp_path):
        # 4.4 MB, about the MPS text of a full-scale case
        text = "x" * 999 + "\n"
        text *= 4400
        path = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            _emit(text, str(path))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert path.read_bytes() == text.encode()


class TestUsage:
    @pytest.mark.parametrize(
        "flags, env, message",
        [
            (["--time-limit", "0"], None, "time_limit must be positive"),
            (["--time-limit", "nan"], None, "time_limit must be positive"),
            ([], "abc", "CHAINPLACE_TIME_LIMIT: cannot read 'abc' as float"),
            ([], "0", "time_limit must be positive"),
            ([], "nan", "time_limit must be positive"),
        ],
        ids=["time-limit-flag-zero", "time-limit-flag-nan", "time-limit-env-text",
             "time-limit-env-zero", "time-limit-env-nan"],
    )
    def test_bad_solver_setting_is_one_line_error(
        self, tiny_file, capsys, monkeypatch, flags, env, message
    ):
        if env is not None:
            monkeypatch.setenv("CHAINPLACE_TIME_LIMIT", env)
        code, out, err = run(capsys, "solve", str(tiny_file), *flags)
        assert code == 1
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--scenario", "0"], "unknown scenario id 0; valid ids are 1, 2, 3"),
            (["generate", "--scenario", "7"], "unknown scenario id 7; valid ids are 1, 2, 3"),
            (["compare", "--scenario", "7", "--reduced"],
             "unknown scenario id 7; valid ids are 1, 2, 3"),
            (["compare", "--scenario", "abc"],
             "--scenario expects an id, a range such as 1..3 or a list such as 1,3; "
             "got 'abc'"),
            (["generate", "--set", "vnf_types=abc"],
             "vnf_types must be an integer of at least 1, got 'abc'"),
            (["generate", "--set", "vnf_types=0"],
             "vnf_types must be an integer of at least 1, got 0"),
            (["generate", "--new", "-1"],
             "new_requests must be an integer of at least 0, got -1"),
            (["generate", "--reduced", "--servers", "0"],
             "n_servers must be an integer of at least 1, got 0"),
            (["generate", "--scenario", "1..2"], "generate expects a single scenario id"),
            (["compare", "--scenario", "3..1", "--reduced"], "--scenario range '3..1' is empty"),
            (["compare", "--scenario", "3..1", "--reduced", "--format", "json"],
             "--scenario range '3..1' is empty"),
            (["generate", "--scenario", "3..1"], "--scenario range '3..1' is empty"),
            (["compare", "--scenario", "1,1", "--reduced"],
             "--scenario lists id 1 more than once; got '1,1'"),
            (["compare", "--scenario", "2,1,2", "--reduced", "--format", "json"],
             "--scenario lists id 2 more than once; got '2,1,2'"),
            (["generate", "--scenario", "3,3"],
             "--scenario lists id 3 more than once; got '3,3'"),
        ],
        ids=["generate-scenario-0", "generate-scenario-7", "compare-scenario-7",
             "compare-scenario-text", "vnf-types-text", "vnf-types-zero",
             "new-negative", "reduced-servers-zero", "generate-scenario-range",
             "compare-empty-range-csv", "compare-empty-range-json", "generate-empty-range",
             "compare-repeated-id-csv", "compare-repeated-id-json", "generate-repeated-id"],
    )
    def test_bad_generator_argument_is_one_line_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("value", ["abc", True, 1.5], ids=["text", "bool", "float"])
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_non_integer_entry_is_one_line_per_violation(
        self, tiny_file, tmp_path, capsys, command, value
    ):
        document = json.loads(tiny_file.read_text())
        document["network"]["link_cost"][0][1] = value
        document["network"]["link_cost"][1][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        plan = [str(tmp_path / "never-read.json")] if command == "check" else []
        code, out, err = run(capsys, command, str(path), *plan)
        assert code == 1
        assert out == ""
        assert err == (
            f"invalid instance: NOT_AN_INTEGER(link_cost,0,1): {value!r}\n"
            f"invalid instance: NOT_AN_INTEGER(link_cost,1,0): {value!r}\n"
        )

    @pytest.mark.parametrize("value", [False, 0.0], ids=["false", "float-zero"])
    @pytest.mark.parametrize("field, at", [("deployment", 1), ("assignment", 3)])
    def test_non_integer_plan_instance_id_is_one_line_error(
        self, tiny_file, tmp_path, capsys, field, at, value
    ):
        instance = document_to_instance(json.loads(tiny_file.read_text()))
        document = plan_to_document(solve_exact(instance).plan)
        entry = document[field][0]
        entry[at] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "check", str(tiny_file), str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"cannot read plan {path}: {field} entry {json.dumps(entry)}: "
            f"instance id {json.dumps(value)} is not an integer\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "cannot read instance {path}: instance document is not a JSON object"),
            (lambda doc: doc["requests"][0]["current_route"][1].append(1),
             "cannot read instance {path}: request r0: current_route is not a 3x3 matrix"),
            (lambda doc: doc["requests"][0]["current_route"].extend([[0, 1, 0]] * 9),
             "cannot read instance {path}: request r0: current_route is not a 3x3 matrix"),
            (lambda doc: doc["requests"][0].update(id=["x"]),
             "invalid instance: NOT_A_STRING(requests,0): ['x']"),
            (lambda doc: doc["requests"][0]["chain"].__setitem__(0, ["x"]),
             "invalid instance: NOT_A_STRING(chain,r0,0): ['x']"),
            (lambda doc: doc["network"]["server_capacity"].__setitem__(0, 0),
             "invalid instance: NONPOSITIVE_CAPACITY(s0): G=0"),
            (lambda doc: doc["requests"][0].update(status="gone"),
             "invalid instance: BAD_STATUS(r0,gone)"),
        ],
        ids=["array", "long-route-row", "extra-route-rows", "request-id", "chain-entry",
             "zero-capacity", "bad-status"],
    )
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_malformed_instance_is_one_line_error(
        self, tiny_file, tmp_path, capsys, command, edit, message
    ):
        document = json.loads(tiny_file.read_text())
        document = edit(document) or document
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        plan = [str(tmp_path / "never-read.json")] if command == "check" else []
        code, out, err = run(capsys, command, str(path), *plan)
        assert code == 1
        assert out == ""
        assert err == message.format(path=path) + "\n"

    @pytest.mark.parametrize(
        "table, field",
        [
            (lambda doc: doc["network"]["server_capacity"], "server_capacity"),
            (lambda doc: doc["network"]["server_unit_cost"], "server_unit_cost"),
            (lambda doc: doc["catalog"]["types"][0]["processing_delay"],
             "type k0: processing_delay"),
            (lambda doc: doc["catalog"]["types"][0]["migration_cost"], "type k0: migration_cost"),
            (lambda doc: doc["catalog"]["types"][0]["migration_cost"][0],
             "type k0: migration_cost row s0"),
        ],
        ids=["server-capacity", "server-unit-cost", "processing-delay", "migration-rows",
             "migration-row"],
    )
    @pytest.mark.parametrize("length", [1, 3], ids=["short", "long"])
    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_per_server_table_needs_one_entry_per_server(
        self, tiny_file, tmp_path, capsys, command, table, field, length
    ):
        document = json.loads(tiny_file.read_text())
        entries = table(document)
        entries[:] = (entries * 2)[:length]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        plan = [str(tmp_path / "never-read.json")] if command == "check" else []
        code, out, err = run(capsys, command, str(path), *plan)
        assert code == 1
        assert out == ""
        assert err == (
            f"cannot read instance {path}: {field} needs one entry per server: "
            f"got {length} for 2\n"
        )

    def test_missing_instance_file_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err == f"[Errno 2] No such file or directory: {str(path)!r}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["content_server"].append(["r9", "s0"]),
             "plan selects content server for unknown request 'r9'"),
            (lambda doc: doc["deployment"].append(["k0", 0, "s9"]),
             "plan deploys on unknown server 's9'"),
            (lambda doc: doc["deployment"].append(["k0", 99, "s0"]),
             "plan deploys unknown instance ('k0', 99)"),
            (lambda doc: doc["routes"]["r0"].append(["s0", "x9"]),
             "plan routes over unknown link ('s0', 'x9')"),
        ],
        ids=["request", "server", "instance", "link"],
    )
    def test_plan_naming_what_the_instance_lacks_is_one_line_error(
        self, tiny_file, tmp_path, capsys, edit, message
    ):
        instance = document_to_instance(json.loads(tiny_file.read_text()))
        document = plan_to_document(solve_exact(instance).plan)
        edit(document)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "check", str(tiny_file), str(path))
        assert code == 1
        assert out == ""
        assert err == f"plan does not match the instance: {message}\n"

    def test_deeply_nested_instance_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            f"cannot read instance {path}: maximum recursion depth exceeded "
            "while decoding a JSON array from a unicode string\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "plan document is not a JSON object"),
            (lambda doc: doc.update(routes=list(doc["routes"].items())),
             "plan routes is not a JSON object"),
        ],
        ids=["array", "routes-array"],
    )
    def test_malformed_plan_is_one_line_error(self, tiny_file, tmp_path, capsys, edit, message):
        instance = document_to_instance(json.loads(tiny_file.read_text()))
        document = plan_to_document(solve_exact(instance).plan)
        document = edit(document) or document
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "check", str(tiny_file), str(path))
        assert code == 1
        assert out == ""
        assert err == f"cannot read plan {path}: {message}\n"

    @pytest.mark.parametrize("fmt", ["mps", "lp"])
    def test_colliding_aliases_are_one_line_error(self, tmp_path, capsys, fmt):
        path = tmp_path / "collide.json"
        path.write_text(dumps(instance_to_document(colliding_instance())))
        code, out, err = run(capsys, "solve", str(path), "--export", fmt)
        assert code == 1
        assert out == ""
        assert err == (
            "variables l[r0][s0][s0_k0][0] and l[r0_s0][s0][k0][0] share the MPS/LP "
            "alias l_r0_s0_s0_k0_0; choose ids that keep the aliases apart\n"
        )

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--bogus"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--timing"],
            ["generate", "--time-limit", "5"],
            ["solve", "--seed", "3"],
            ["check", "--seed", "3"],
            ["check", "--time-limit", "5"],
            ["check", "--timing"],
        ],
        ids=["generate-timing", "generate-time-limit", "solve-seed", "check-seed",
             "check-time-limit", "check-timing"],
    )
    def test_flag_the_subcommand_does_not_read_exits_one(self, tiny_file, capsys, argv):
        command, *flags = argv
        files = {"generate": [], "solve": [str(tiny_file)], "check": [str(tiny_file)] * 2}
        with pytest.raises(SystemExit) as err:
            main([command, *files[command], *flags])
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
