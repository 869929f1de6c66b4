import gc
import hashlib
import itertools
import json
import pathlib
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainplace.costs import total_objective
from chainplace.errors import (
    AliasCollisionError,
    AuxiliaryInconsistentError,
    MissingVariableError,
    ValidationFailedError,
)
from chainplace.ilp import (
    BuildOptions,
    build_ilp,
    enumerate_variables,
    export_lp,
    export_mps,
    import_solution,
    parse_solution_text,
    sanitize_name,
)
from chainplace.model import check_feasibility
from chainplace.scenario import ScenarioSpec, generate
from chainplace.solver import brute_force, solve_exact

from conftest import (
    colliding_instance,
    export_case_instance,
    frozen_load_instance,
    mk_instance,
    mk_network,
    mk_request,
    mk_type,
)
from helpers import full_assignment, solve_mps_with_highs

EXPORT_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "export_digests.json").read_text()
)


def family_counts(model):
    counts = {}
    for var in model.variables:
        counts[var.family] = counts.get(var.family, 0) + 1
    return counts


class TestBuild:
    def test_variable_count_on_minimal_instance(self, tiny):
        # 2 servers, 1 user, 1 type, 1 instance, chain length 1:
        # g:2, t:2, l:2, p: 3 node pairs + 2 server self-links, x:4, m:4, q:0
        model = build_ilp(tiny)
        counts = family_counts(model)
        assert counts == {"g": 2, "t": 2, "l": 2, "p": 5, "x": 4, "m": 4}
        assert len(model.variables) == 19

    def test_single_stage_chain_has_no_pair_products(self, tiny):
        model = build_ilp(tiny)
        assert "q" not in family_counts(model)

    def test_two_stage_chain_has_pair_products(self, net2):
        types = [mk_type(net2, name="k0"), mk_type(net2, name="k1")]
        inst = mk_instance(net2, types=types, requests=[mk_request(net2, chain=("k0", "k1"))])
        model = build_ilp(inst)
        assert family_counts(model)["q"] == 4  # 2x2 server pairs, 1 instance each

    def test_migration_rows_exist_once_per_index(self, tiny):
        model = build_ilp(tiny)
        for tag in ("2-2", "2-3", "2-4"):
            keys = [row.key for row in model.rows if row.tag == tag]
            assert len(keys) == len(set(keys)) == 4  # 1 type, 1 instance, 2x2 servers

    def test_every_tag_is_known(self, net2):
        types = [mk_type(net2, name="k0"), mk_type(net2, name="k1")]
        requests = [mk_request(net2, chain=("k0", "k1"), status="new")]
        inst = mk_instance(net2, types=types, requests=requests, snapshot=[("k0", 0, "s0")])
        model = build_ilp(inst, BuildOptions(no_reuse=True))
        allowed = {
            "2-2", "2-3", "2-4", "6", "7", "8", "9", "10", "11", "12", "13",
            "14", "15-2", "15-3", "15-4", "15-5", "16-2", "16-3", "16-4",
            "16-5", "17", "18", "NOREUSE",
        }
        assert {row.tag for row in model.rows} <= allowed
        assert any(row.tag == "NOREUSE" for row in model.rows)

    def test_invalid_instance_is_rejected(self, net2):
        inst = mk_instance(net2, requests=[mk_request(net2, chain=("k9",))])
        with pytest.raises(ValidationFailedError):
            build_ilp(inst)

    def test_deterministic_build(self, tiny):
        a, b = build_ilp(tiny), build_ilp(tiny)
        assert [v.name for v in a.variables] == [v.name for v in b.variables]
        assert a.rows == b.rows
        assert a.objective == b.objective and a.constant == b.constant

    def test_aliases_are_the_sanitized_names(self, net2):
        types = [mk_type(net2, name="k0"), mk_type(net2, name="k1")]
        requests = [mk_request(net2, chain=("k0", "k1"))]
        inst = mk_instance(net2, types=types, requests=requests, snapshot=[("k0", 0, "s0")])
        model = build_ilp(inst)
        assert set(family_counts(model)) == set("gtlpxmq")
        assert len(model.aliases) == len(model.variables)
        for i, var in enumerate(model.variables):
            assert model.aliases[i] == sanitize_name(var.name)
            assert model.variable_index(var.name) == i
            assert model.variable_index(model.aliases[i]) == i


ROW_CASES = {
    "reduced-sc1": lambda: generate(ScenarioSpec.table_row(1, seed=3, reduced=True)),
    "reduced-sc3": lambda: generate(ScenarioSpec.table_row(3, seed=3, reduced=True)),
    "full-sc1": lambda: generate(ScenarioSpec.table_row(1, seed=3)),
    "frozen-load-no-requests": lambda: replace(frozen_load_instance(0.5), requests=()),
}


class TestEnumerate:
    @pytest.mark.parametrize("case", ["tiny", "full-s3-sc1"])
    def test_gtlp_variables_are_a_prefix(self, tiny, case):
        """``plan_vector`` reads the g, t, l, p variables alone, so its
        vectors order plans as the full vector does only if those come
        first."""
        instance = tiny if case == "tiny" else generate(ScenarioSpec.table_row(1, seed=3))
        every = enumerate_variables(instance)
        decisions = tuple(v for v in every if v.family in "gtlp")
        assert decisions and len(decisions) < len(every)
        assert every[: len(decisions)] == decisions


BRACKETED_IDS = st.text(alphabet="a[]_", min_size=1, max_size=4)


class TestAliases:
    def test_colliding_aliases_are_refused(self):
        with pytest.raises(AliasCollisionError, match="l_r0_s0_s0_k0_0"):
            build_ilp(colliding_instance())

    @given(
        nodes=st.lists(BRACKETED_IDS, min_size=3, max_size=3, unique=True),
        types=st.lists(BRACKETED_IDS, min_size=2, max_size=2, unique=True),
        rids=st.lists(BRACKETED_IDS, min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_aliases_are_the_sanitized_names_for_any_ids(self, nodes, types, rids):
        net = replace(
            mk_network(),
            servers=tuple(nodes[:2]),
            users=(nodes[2],),
            server_capacity=dict.fromkeys(nodes[:2], 8),
            server_unit_cost=dict.fromkeys(nodes[:2], 1),
        )
        inst = mk_instance(
            net,
            types=[mk_type(net, name=types[0], instances=2), mk_type(net, name=types[1])],
            requests=[
                mk_request(net, rid=rids[0], chain=(types[0], types[1])),
                mk_request(net, rid=rids[1], chain=(types[1],)),
            ],
        )
        want = [sanitize_name(var.name) for var in enumerate_variables(inst)]
        if len(set(want)) != len(want):
            with pytest.raises(AliasCollisionError):
                build_ilp(inst)
            return
        model = build_ilp(inst)
        assert list(model.aliases) == want
        for i, var in enumerate(model.variables):
            assert model.variable_index(var.name) == i
            assert model.variable_index(want[i]) == i


    @pytest.mark.parametrize("length", range(8))
    def test_two_passes_match_the_bracket_pair_rule(self, length):
        """``][`` first becoming one ``_`` gives the text of ``[`` becoming
        ``_`` and ``]`` going, on every string over the bracket alphabet."""
        for chars in itertools.product("a[]_", repeat=length):
            name = "".join(chars)
            old = name.replace("][", "_").replace("[", "_").replace("]", "")
            assert sanitize_name(name) == old, name


class TestCollector:
    """Compiling and exporting pause the cyclic collector and leave it as
    they found it, also when the compile is refused."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(self, tiny, net2, enabled):
        invalid = mk_instance(net2, requests=[mk_request(net2, chain=("k9",))])
        before = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            model = build_ilp(tiny)
            assert gc.isenabled() is enabled
            export_mps(model)
            assert gc.isenabled() is enabled
            export_lp(model)
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationFailedError):
                build_ilp(invalid)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if before else gc.disable()


class TestRowInvariants:
    """The contract every row keeps, whether ``build_ilp`` builds it through
    its generic path or directly: non-zero integer coefficients on strictly
    increasing variable indices, and no row without coefficients unless 0
    violates it."""

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_are_sorted_nonzero_and_empty_only_when_violated(self, case, no_reuse):
        model = build_ilp(ROW_CASES[case](), BuildOptions(no_reuse=no_reuse))
        n_vars = len(model.variables)
        for row in model.rows:
            indices = [idx for idx, _coef in row.coeffs]
            assert all(type(coef) is int and coef != 0 for _idx, coef in row.coeffs), row
            assert indices == sorted(set(indices)), row
            assert all(0 <= idx < n_vars for idx in indices), row
            if not row.coeffs:
                assert not row.satisfied_by(()), row
        if case == "frozen-load-no-requests":
            assert [row.tag for row in model.rows] == ["12"]


class TestExport:
    def test_mps_is_deterministic(self, tiny):
        model = build_ilp(tiny)
        assert export_mps(model) == export_mps(model)

    def test_lp_is_deterministic(self, tiny):
        model = build_ilp(tiny)
        assert export_lp(model) == export_lp(model)

    def test_mps_skeleton_for_degenerate_instance(self, net2):
        inst = mk_instance(net2, types=[], requests=[])
        model = build_ilp(inst)
        assert len(model.variables) == 0
        text = export_mps(model)
        for section in ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text

    def test_mps_counts_column_entries(self, tiny):
        model = build_ilp(tiny)
        text = export_mps(model)
        columns = text.split("COLUMNS")[1].split("RHS")[0]
        names = {
            line.split()[0]
            for line in columns.splitlines()
            if line.strip() and "'MARKER'" not in line
        }
        assert names == {sanitize_name(v.name) for v in model.variables}
        assert len(names) == 19

    def test_lp_mentions_every_variable_as_binary(self, tiny):
        model = build_ilp(tiny)
        text = export_lp(model)
        binaries = text.split("Binaries")[1]
        for var in model.variables:
            assert sanitize_name(var.name) in binaries


class TestExportBytes:
    """Exports keep the exact bytes frozen by scripts/freeze_export_digests.py:
    reduced scenario 1 at seed 3 under three build options, a fractional
    usage threshold, chains of length 1, the frozen-load instances, and
    full-scale scenario 1 at seed 3 online and no_reuse."""

    @pytest.mark.parametrize("case", sorted(EXPORT_DIGESTS["cases"]))
    def test_exports_match_frozen_digests(self, case):
        want = EXPORT_DIGESTS["cases"][case]
        instance = export_case_instance(want["instance"])
        model = build_ilp(instance, BuildOptions(**want["options"]))
        assert (len(model.variables), len(model.rows)) == (want["vars"], want["rows"])
        for fmt, export in (("mps", export_mps), ("lp", export_lp)):
            digest = hashlib.sha256(export(model).encode()).hexdigest()
            assert digest == want[f"{fmt}_sha256"], fmt


class TestImport:
    def test_round_trip_from_oracle(self, tiny):
        result = brute_force(tiny)
        model = build_ilp(tiny)
        values = full_assignment(model, result.plan)
        plan = import_solution(model, values)
        assert plan == result.plan
        assert check_feasibility(tiny, plan).feasible

    def test_inconsistent_auxiliary_is_rejected(self, net2):
        inst = mk_instance(net2, snapshot=[("k0", 0, "s0")])
        result = brute_force(inst)
        model = build_ilp(inst)
        values = full_assignment(model, result.plan)
        xnames = [v.name for v in model.variables if v.family == "x"]
        values[xnames[0]] = 1 - values[xnames[0]]
        with pytest.raises(AuxiliaryInconsistentError):
            import_solution(model, values)

    def test_each_inconsistent_auxiliary_is_named(self, net2):
        # two-slot chain, two instances per type, one of each in the
        # snapshot: every x, m and q product has factors at distinct offsets
        types = [mk_type(net2, name=k, instances=2) for k in ("k0", "k1")]
        inst = mk_instance(
            net2,
            types=types,
            requests=[mk_request(net2, chain=("k0", "k1"))],
            snapshot=[("k0", 0, "s0"), ("k1", 1, "s1")],
        )
        model = build_ilp(inst)
        values = full_assignment(model, brute_force(inst).plan)
        aux = [v.name for v in model.variables if v.family in "xmq"]
        assert {name[0] for name in aux} == {"x", "m", "q"}
        for name in aux:
            flipped = {**values, name: 1 - values[name]}
            with pytest.raises(AuxiliaryInconsistentError, match=re.escape(f"{name} = ")):
                import_solution(model, flipped)

    def test_missing_decision_variable_is_rejected(self, tiny):
        model = build_ilp(tiny)
        values = {v.name: 0 for v in model.variables if v.family != "g"}
        with pytest.raises(MissingVariableError):
            import_solution(model, values)

    def test_all_zero_import_succeeds_but_is_infeasible(self, tiny):
        model = build_ilp(tiny)
        values = {v.name: 0 for v in model.variables}
        plan = import_solution(model, values)
        report = check_feasibility(tiny, plan)
        assert report.has("6", "r0")

    def test_sanitized_names_import_equally(self, tiny):
        result = brute_force(tiny)
        model = build_ilp(tiny)
        values = {
            sanitize_name(name): val
            for name, val in full_assignment(model, result.plan).items()
        }
        assert import_solution(model, values) == result.plan

    def test_solution_text_formats(self):
        text = "# comment\ng_r0_s0 1\nt_k0_0_s0=0\n\n"
        assert parse_solution_text(text) == {"g_r0_s0": 1.0, "t_k0_0_s0": 0.0}
        as_json = '{"variables": {"g_r0_s0": 1}}'
        assert parse_solution_text(as_json) == {"g_r0_s0": 1.0}


class TestFrozenDeployments:
    """Instances of types no request needs keep their servers: HiGHS on the
    exported model agrees with both solvers, also when their load alone
    overfills a server."""

    @pytest.mark.parametrize("mu, expect", [(1.0, 102_090_000), (0.5, None)])
    def test_highs_agrees_with_both_solvers(self, mu, expect):
        inst = frozen_load_instance(mu)
        fast, slow = solve_exact(inst), brute_force(inst)
        model = build_ilp(inst)
        solved = solve_mps_with_highs(export_mps(model))
        if expect is None:
            assert fast.status == slow.status == "infeasible"
            assert solved is None
            return
        assert fast.breakdown.total == slow.breakdown.total == expect
        money, values = solved
        assert round(money * 10**6) == expect
        plan = import_solution(model, values)
        assert plan.deployment >= inst.snapshot.deployed
        assert check_feasibility(inst, plan).feasible
        assert total_objective(inst, plan).total == expect

    @pytest.mark.parametrize("mu, kept", [(0.5, True), (1.0, False)])
    def test_empty_row_is_kept_when_zero_violates_it(self, mu, kept):
        # with no requests there are no variables; the frozen load alone
        # must still make the model infeasible at threshold 0.5
        inst = replace(frozen_load_instance(mu), requests=())
        model = build_ilp(inst)
        assert model.variables == ()
        rows = [row for row in model.rows if row.tag == "12"]
        if not kept:
            assert rows == []
            assert solve_exact(inst).status == "optimal"
            return
        [row] = rows
        assert (row.key, row.coeffs, row.sense, row.rhs) == (("s0",), (), "L", -2)
        assert not row.satisfied_by([])
        assert solve_exact(inst).status == brute_force(inst).status == "infeasible"
        text = export_mps(model)
        assert " L  c12_0\n" in text.split("COLUMNS")[0]
        assert "    RHS  c12_0         -2\n" in text
        assert " c12_0: 0 <= -2\n" in export_lp(model)


def snapshot_instance():
    net = mk_network(n_servers=2, n_users=1)
    vnf = mk_type(net, instances=2)
    request = mk_request(net, status="existing", route=[("s0", "u0")])
    return mk_instance(net, types=[vnf], requests=[request], snapshot=[("k0", 0, "s0")])


class TestLinearization:
    """McCormick rows on binaries pin each auxiliary to its product."""

    def eval_rows(self, model, tags, values):
        vec = [values.get(v.name, 0) for v in model.variables]
        return all(row.satisfied_by(vec) for row in model.rows if row.tag in tags)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_migration_products(self, data):
        inst = snapshot_instance()
        model = build_ilp(inst)
        values = {}
        for var in model.variables:
            if var.family in ("t", "x"):
                values[var.name] = data.draw(st.integers(0, 1), label=var.name)
        rows_hold = self.eval_rows(model, {"2-2", "2-3", "2-4"}, values)
        products_hold = True
        for var in model.variables:
            if var.family != "x":
                continue
            k, i, s, d = var.key
            cur = 1 if (k, i, s) in inst.snapshot.deployed else 0
            if values[var.name] != cur * values[f"t[{k}][{i}][{d}]"]:
                products_hold = False
        assert rows_hold == products_hold

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_entry_link_products(self, data):
        inst = snapshot_instance()
        model = build_ilp(inst)
        values = {}
        for var in model.variables:
            if var.family in ("g", "l", "m"):
                values[var.name] = data.draw(st.integers(0, 1), label=var.name)
            elif var.family == "p":
                values[var.name] = 1  # free upper side of the entry-link rows
        rows_hold = self.eval_rows(model, {"15-3", "15-4", "15-5"}, values)
        products_hold = True
        for var in model.variables:
            if var.family != "m":
                continue
            f, s, d, i = var.key
            first = inst.request(f).chain[0]
            expect = values[f"g[{f}][{s}]"] * values[f"l[{f}][{d}][{first}][{i}]"]
            if values[var.name] != expect:
                products_hold = False
        assert rows_hold == products_hold
        if products_hold:
            assert self.eval_rows(model, {"15-2"}, values)


class TestObjectiveAgreement:
    @pytest.mark.parametrize("clamp", [False, True])
    def test_model_objective_matches_cost_module(self, clamp):
        inst = snapshot_instance()
        model = build_ilp(inst, BuildOptions(clamp_instantiation=clamp))
        rng = random.Random(11)
        seen = 0
        for _ in range(200):
            deployment = set()
            for vnf in inst.catalog.types:
                for i in vnf.instances:
                    choice = rng.choice([None, "s0", "s1"])
                    if choice:
                        deployment.add((vnf.name, i, choice))
            if not deployment:
                continue
            host = sorted(deployment)[0]
            plan_routes = {"r0": frozenset({("s0", host[2]), (host[2], "u0")})}
            from conftest import mk_plan

            plan = mk_plan(
                content=[("r0", "s0")],
                deployment=deployment,
                assignment=[("r0", host[2], host[0], host[1])],
                routes=plan_routes,
            )
            values = full_assignment(model, plan)
            micro = model.objective_micro(values)
            breakdown = total_objective(inst, plan, clamp_instantiation=clamp)
            assert micro == breakdown.total
            seen += 1
        assert seen > 100
