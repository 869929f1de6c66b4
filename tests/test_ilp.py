import gc
import hashlib
import itertools
import json
import pathlib
import random
import re
import tracemalloc
import weakref
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
    Row,
    _enumerate,
    build_ilp,
    enumerate_variables,
    export_lp,
    export_mps,
    import_solution,
    layout,
    lp_chunks,
    mps_chunks,
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
        assert a.blocks == b.blocks
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
    "chain-length-1": lambda: generate(
        ScenarioSpec.table_row(1, seed=3, reduced=True, overrides={"chain_length_range": [1, 1]})
    ),
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

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_offsets_point_at_their_variables(self, case, no_reuse):
        """Each offset ``_enumerate`` gives ``build_ilp`` (a block's base plus
        the position its docstring gives) lands on the variable whose key it
        stands for, and together they reach every variable once. The g, t,
        l, p bases and ``pair`` are read through ``layout``, as the search
        reads them, and equal the ones the full walk gives."""
        model = build_ilp(ROW_CASES[case](), BuildOptions(no_reuse=no_reuse))
        instance, variables = model.instance, model.variables
        bases = _enumerate(instance)[1]
        g_at, t_at, l_at, p_at, pair = layout(instance)
        assert (g_at, t_at, l_at, p_at, pair) == bases[:5]
        x_at, m_at, q_at = bases[5:]
        nodes, servers = instance.network.nodes, instance.network.servers
        n_s, pools = len(servers), {vnf.name: vnf.instances for vnf in instance.catalog.types}
        seen = set()

        def points(idx, family, *key):
            assert idx not in seen and (variables[idx].family, variables[idx].key) == (family, key)
            seen.add(idx)

        for ri, r in enumerate(instance.requests):
            first = pools[r.chain[0]]
            for si, s in enumerate(servers):
                points(g_at[ri] + si, "g", r.id, s)
                for k in r.chain:
                    for ii, i in enumerate(pools[k]):
                        points(l_at[ri][k][si] + ii, "l", r.id, s, k, i)
                for di, d in enumerate(servers):
                    for ii, i in enumerate(first):
                        points(m_at[ri] + (si * n_s + di) * len(first) + ii, "m", r.id, s, d, i)
                    for pos, (ka, kb) in enumerate(zip(r.chain, r.chain[1:])):
                        n_a, n_b = len(pools[ka]), len(pools[kb])
                        pairs = itertools.product(enumerate(pools[ka]), enumerate(pools[kb]))
                        for (ii, i), (jj, j) in pairs:
                            at = q_at[ri][pos] + ((si * n_s + di) * n_a + ii) * n_b + jj
                            points(at, "q", r.id, pos, s, d, i, j)
            for ai, bi in itertools.combinations_with_replacement(range(len(nodes)), 2):
                if ai < bi or ai < n_s:  # only servers have self-links
                    assert pair[ai][bi] == pair[bi][ai]
                    points(p_at[ri] + pair[ai][bi], "p", r.id, nodes[ai], nodes[bi])
        for k, t_bases in t_at.items():
            assert len(t_bases) == len(x_at[k]) == len(pools[k])
            for ii, i in enumerate(pools[k]):
                for si, s in enumerate(servers):
                    points(t_at[k][ii] + si, "t", k, i, s)
                    for di, d in enumerate(servers):
                        points(x_at[k][ii] + si * n_s + di, "x", k, i, s, d)
        assert seen == set(range(len(variables)))


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

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_aliases_agree_with_the_variables_made_on_first_read(self, case, no_reuse):
        """``build_ilp`` walks the variables for their aliases, and the first
        read of ``variables`` walks them again for their names and keys."""
        model = build_ilp(ROW_CASES[case](), BuildOptions(no_reuse=no_reuse))
        assert "variables" not in vars(model)
        assert len(model.variables) == len(model.aliases)
        for i, (var, alias) in enumerate(zip(model.variables, model.aliases)):
            assert alias == sanitize_name(var.name), var
            assert model.variable_index(var.name) == model.variable_index(alias) == i


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
            assert model.variables and gc.isenabled() is enabled
            with pytest.raises(ValidationFailedError):
                build_ilp(invalid)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if before else gc.disable()

    def test_model_is_freed_without_the_collector(self, net2):
        """``cli`` exports with the collector paused and relies on reference
        counting alone to free the model, so the model, its rows and what
        reading them leaves behind must form no cycle."""
        types = [mk_type(net2, name="k0"), mk_type(net2, name="k1")]
        requests = [mk_request(net2, chain=("k0", "k1"))]
        inst = mk_instance(net2, types=types, requests=requests, snapshot=[("k0", 0, "s0")])
        before = gc.isenabled()
        gc.disable()
        try:
            model = build_ilp(inst)
            export_mps(model)
            export_lp(model)
            assert len(model.rows) == len(list(model.rows)) > 0
            product = next(row for row in model.rows if row.tag == "16-5")
            assert product.key == model.variables[product.coeffs[-1][0]].key
            model.variable_index(model.variables[0].name)
            import_solution(model, full_assignment(model, brute_force(inst).plan))
            ref = weakref.ref(model)
            del model
            assert ref() is None
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


class TestRowColumns:
    """``IlpModel.blocks`` keeps the rows in blocks of one shape, and
    ``model.rows`` reads them, block by block, as ``Row``s."""

    def test_rows_read_as_a_sequence_of_row(self, tiny):
        model = build_ilp(tiny)
        rows = model.rows
        listed = list(rows)
        assert len(rows) == len(listed) > 1
        assert list(rows) == listed
        assert all(type(row) is Row for row in listed)

    @pytest.mark.parametrize("no_reuse", [False, True], ids=["online", "no_reuse"])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_read_across_block_boundaries(self, case, no_reuse):
        """Each block's rows follow the previous block's, also where a family
        has no keys (chains of length 1, no requests) and where rows that
        ``build_ilp`` adds one at a time share a block."""
        model = build_ilp(ROW_CASES[case](), BuildOptions(no_reuse=no_reuse))
        blocks, listed = model.blocks, list(model.rows)
        firsts = list(itertools.accumulate((len(block.rhs) for block in blocks), initial=0))
        assert len(model.rows) == len(listed) == firsts[-1] > 0
        assert all(type(row) is Row for row in listed)
        # every block starts where the previous one ends, with a new shape
        for before, block, first in zip(blocks, blocks[1:], firsts[1:]):
            assert before[:4] != block[:4]
            assert listed[first].tag == block.tags[0] and listed[first - 1].tag == before.tags[-1]
        for block, first in zip(blocks, firsts):
            own = listed[first : first + len(block.rhs)]
            assert len(block.rhs) == len(block.tags) * block.n_keys > 0
            assert len(block.values) == sum(block.sizes)
            assert len(block.cols) == len(block.values) * block.n_keys
            assert block.keys is None or len(block.keys) == block.n_keys
            assert [row.tag for row in own] == list(block.tags) * block.n_keys
            assert [row.sense for row in own] == list(block.senses) * block.n_keys
            assert [row.rhs for row in own] == block.rhs
        if case != "frozen-load-no-requests":
            assert any(len(block.tags) == 1 and len(block.keys) > 1 for block in blocks)

    @staticmethod
    def full_scale_model_and_size(read_variables):
        """The full-scale scenario 1 model at seed 3 (clamped, online), and
        the memory ``tracemalloc`` traces to it once built and, with
        ``read_variables``, once its variables are read."""
        instance = generate(ScenarioSpec.table_row(1, seed=3, reduced=False))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = build_ilp(instance, BuildOptions(clamp_instantiation=True))
            if read_variables:
                assert len(model.variables) == 10_920
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(model.rows) == 39_801
        return model, size

    def test_full_scale_model_is_small(self):
        """With its variables read, the model takes about 4.4 MB: 2.0 MB as
        built and 2.4 MB of ``IlpVar``s, names and keys. When the build made
        the variables and stored the product rows' keys it took 5.3 MB, 6.9
        MB with the rows in flat columns, and about 11.6 MB with a tuple per
        row. The bound leaves room for other Python versions."""
        _model, size = self.full_scale_model_and_size(read_variables=True)
        assert size < 8 * 2**20, size

    def test_full_scale_model_makes_no_variables(self):
        """As built, the model holds aliases, blocks and the objective, and
        no ``IlpVar``, name or product key: about 2.0 MB."""
        model, size = self.full_scale_model_and_size(read_variables=False)
        assert "variables" not in vars(model)
        assert size < 2.5 * 2**20, size

    def test_coefficient_beyond_64_bits(self, net2):
        """A link delay of 10**20 makes row-18 coefficients that no 64-bit
        integer holds; they build, export and import exactly."""
        net = replace(net2, link_delay=[[0 if a == b else 10**20 for b in range(3)] for a in range(3)])
        inst = mk_instance(net, requests=[mk_request(net, budget=10**30)])
        model = build_ilp(inst)
        [row] = [row for row in model.rows if row.tag == "18"]
        assert max(coef for _idx, coef in row.coeffs) == 10**20
        assert "  100000000000000000000\n" in export_mps(model)
        assert " + 100000000000000000000 p_r0_s0_u0 " in export_lp(model)
        plan = brute_force(inst).plan
        assert import_solution(model, full_assignment(model, plan)) == plan


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

    def test_writers_leave_the_variables_unmade(self, monkeypatch):
        """The writers read the aliases, rows and objective alone, so a
        model whose variables cannot be made still exports."""

        def refuse(instance):
            raise AssertionError("the variables were made")

        monkeypatch.setattr("chainplace.ilp.enumerate_variables", refuse)
        model = build_ilp(ROW_CASES["reduced-sc1"](), BuildOptions(no_reuse=True))
        for chunks in (mps_chunks, lp_chunks):
            assert "".join(chunks(model)).endswith("\n")
        assert "variables" not in vars(model)

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
    full-scale scenario 1 at seed 3 online and no_reuse. ``rows_sha256``
    also pins every row's key, which the texts do not carry."""

    @pytest.mark.parametrize("case", sorted(EXPORT_DIGESTS["cases"]))
    def test_exports_match_frozen_digests(self, case):
        want = EXPORT_DIGESTS["cases"][case]
        instance = export_case_instance(want["instance"])
        model = build_ilp(instance, BuildOptions(**want["options"]))
        assert (len(model.variables), len(model.rows)) == (want["vars"], want["rows"])
        texts = {
            "mps": export_mps(model),
            "lp": export_lp(model),
            "rows": json.dumps(list(model.rows)),
        }
        for what, text in texts.items():
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == want[f"{what}_sha256"], what


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

    @staticmethod
    def two_slot_instance(net):
        # two-slot chain, two instances per type, one of each in the
        # snapshot: every x, m and q product has factors at distinct offsets
        types = [mk_type(net, name=k, instances=2) for k in ("k0", "k1")]
        return mk_instance(
            net,
            types=types,
            requests=[mk_request(net, chain=("k0", "k1"))],
            snapshot=[("k0", 0, "s0"), ("k1", 1, "s1")],
        )

    def test_each_inconsistent_auxiliary_is_named(self, net2):
        inst = self.two_slot_instance(net2)
        model = build_ilp(inst)
        values = full_assignment(model, brute_force(inst).plan)
        aux = [v.name for v in model.variables if v.family in "xmq"]
        assert {name[0] for name in aux} == {"x", "m", "q"}
        for name in aux:
            flipped = {**values, name: 1 - values[name]}
            with pytest.raises(AuxiliaryInconsistentError, match=re.escape(f"{name} = ")):
                import_solution(model, flipped)

    @pytest.mark.parametrize("families", ["mm", "xq"])
    def test_first_wrong_auxiliary_in_row_order_is_named(self, net2, families):
        """With two auxiliaries wrong, the one whose defining row (2-4, 15-5
        or 16-5, with the auxiliary last) comes first in ``model.rows`` is
        named. For two ``m``, pick a pair whose rows run against their
        variable order."""
        inst = self.two_slot_instance(net2)
        model = build_ilp(inst)
        values = full_assignment(model, brute_force(inst).plan)
        defined = [row.coeffs[-1][0] for row in model.rows if row.tag in ("2-4", "15-5", "16-5")]
        row_of = {idx: r for r, idx in enumerate(defined)}
        family = {idx: model.variables[idx].family for idx in defined}
        if families == "mm":
            m = [idx for idx in defined if family[idx] == "m"]
            first, second = next(
                (a, b) for a, b in itertools.combinations(m, 2) if a > b  # a row first, b variable first
            )
        else:
            first = [idx for idx in defined if family[idx] == "x"][-1]
            second = [idx for idx in defined if family[idx] == "q"][0]
        assert row_of[first] < row_of[second]
        names = [model.variables[idx].name for idx in (first, second)]
        wrong = {**values, **{name: 1 - values[name] for name in names}}
        with pytest.raises(AuxiliaryInconsistentError, match=re.escape(f"{names[0]} = ")):
            import_solution(model, wrong)

    def test_omitted_auxiliaries_are_skipped(self, net2):
        inst = self.two_slot_instance(net2)
        model = build_ilp(inst)
        values = full_assignment(model, brute_force(inst).plan)
        decisions = {v.name: values[v.name] for v in model.variables if v.family in "gtlp"}
        assert import_solution(model, decisions) == import_solution(model, values)
        # one wrong auxiliary among omitted ones is still named
        for family in "xmq":
            name = [v.name for v in model.variables if v.family == family][-1]
            wrong = {**decisions, name: 1 - values[name]}
            with pytest.raises(AuxiliaryInconsistentError, match=re.escape(f"{name} = ")):
                import_solution(model, wrong)

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
