"""SMV generation templates, rendering and bundling, with round-trips
through the test reference reader in smv_reference.py."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_valid_model
from containcheck.ingest import parse_dsl
from containcheck.ltl import generate_properties, parse_ltl
from containcheck.model import NodeKind
from containcheck.smv import (
    AtomMismatchError,
    ConstTrue,
    GuardEq,
    Keep,
    Literal,
    OrCond,
    SmvGenerationError,
    VarTrue,
    bundle_check_file,
    check_atoms,
    generate_smv,
    render_smv,
)
from smv_reference import parse_smv, var_decl

MINIMAL = "model M { initial I; final F; I -> F }"


def block_of(text: str, var: str) -> str:
    """The init/next lines of one variable, as rendered."""
    lines = text.splitlines()
    start = lines.index(f"init({var}) := " + _init_of(lines, var))
    end = start
    while lines[end] != "esac;":
        end += 1
    return "\n".join(lines[start : end + 1])


def _init_of(lines, var):
    prefix = f"init({var}) := "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix) :]
    raise AssertionError(f"no init for {var}")


class TestGenerate:
    def test_initial_block(self):
        text = render_smv(generate_smv(parse_dsl(MINIMAL)))
        assert block_of(text, "I") == (
            "init(I) := TRUE;\n"
            "next(I) := case\n"
            "    I : FALSE;\n"
            "    TRUE : I;\n"
            "esac;"
        )

    def test_low_decision_block(self, low_unsat_model):
        text = render_smv(generate_smv(low_unsat_model))
        assert block_of(text, "DecisionNode2") == (
            "init(DecisionNode2) := undetermined;\n"
            "next(DecisionNode2) := case\n"
            "    (DecisionNode1 = guard_DecisionNode1_DecisionNode2) :"
            " {guard_DecisionNode2_ConfirmOrderCancelation,"
            " guard_DecisionNode2_CreateOrderBusinessObject};\n"
            "    DecisionNode2 != undetermined : undetermined;\n"
            "    TRUE : DecisionNode2;\n"
            "esac;"
        )

    def test_merge_disjunction_in_edge_order(self, low_unsat_model):
        module = generate_smv(low_unsat_model)
        assign = next(a for a in module.assigns if a.var == "MergeNode2")
        fire = assign.cases[0][0]
        assert fire == OrCond(
            (GuardEq("DecisionNode4", "guard_DecisionNode4_MergeNode2"), VarTrue("ForkNode1"))
        )

    def test_guard_equality_trigger(self, low_unsat_model):
        text = render_smv(generate_smv(low_unsat_model))
        assert (
            "    (DecisionNode1 = guard_DecisionNode1_ReplyCreditCardNotOK) : TRUE;"
            in text.splitlines()
        )

    def test_decision_scalar_declaration(self, low_unsat_model):
        text = render_smv(generate_smv(low_unsat_model))
        assert (
            "    DecisionNode1 : {undetermined,"
            " guard_DecisionNode1_ReplyCreditCardNotOK,"
            " guard_DecisionNode1_DecisionNode2};" in text.splitlines()
        )

    def test_implicit_join_conjoins_triggers(self):
        model = parse_dsl(
            "model M { initial I; fork K; action A; action B; final E;"
            " I -> K; K -> A; K -> B; A -> E; B -> E }"
        )
        module = generate_smv(model)
        fire = next(a for a in module.assigns if a.var == "E").cases[0][0]
        assert render_smv(module)  # renders fine
        from containcheck.smv import AndCond

        assert fire == AndCond((VarTrue("A"), VarTrue("B")))

    def test_every_node_declared_and_assigned_once(self, low_unsat_model):
        module = generate_smv(low_unsat_model)
        ids = [n.id for n in low_unsat_model.nodes]
        assert [d.name for d in module.vars] == ids
        assert [a.var for a in module.assigns] == ids

    def test_guard_value_bijection(self, low_unsat_model):
        module = generate_smv(low_unsat_model)
        for node in low_unsat_model.nodes:
            if node.kind is not NodeKind.DECISION:
                continue
            decl = var_decl(module, node.id)
            expected = tuple(
                f"guard_{node.id}_{e.target}" for e in low_unsat_model.outgoing(node.id)
            )
            assert decl.scalar_values == ("undetermined",) + expected

    def test_pulse_shape(self, low_unsat_model):
        module = generate_smv(low_unsat_model)
        for assign in module.assigns:
            decl = var_decl(module, assign.var)
            if not decl.is_boolean:
                continue
            cases = assign.cases
            assert cases[-1] == (ConstTrue(), Keep(assign.var))
            if assign.init == Literal("TRUE"):  # initial node
                assert cases[0] == (VarTrue(assign.var), Literal("FALSE"))
            else:
                assert cases[0][1] == Literal("TRUE")
                assert cases[1] == (VarTrue(assign.var), Literal("FALSE"))

    def test_invalid_model_rejected(self):
        model = parse_dsl("model M { initial I; final F; I -> F }")
        broken = type(model)("M", model.nodes[:1], [])
        with pytest.raises(SmvGenerationError):
            generate_smv(broken)

    def test_reserved_word_id_rejected(self):
        model = parse_dsl("model M { initial I; final esac; I -> esac }")
        with pytest.raises(SmvGenerationError, match="reserved"):
            generate_smv(model)


class TestRender:
    def test_header_and_sections(self, low_unsat_model):
        text = render_smv(generate_smv(low_unsat_model))
        lines = text.splitlines()
        assert lines[0] == "MODULE main"
        assert lines[1] == "VAR"
        assert "ASSIGN" in lines
        assert text.endswith("\n")
        assert "\r" not in text

    def test_no_specs_no_ltlspec_section(self, low_unsat_model):
        assert "LTLSPEC" not in render_smv(generate_smv(low_unsat_model))

    def test_render_deterministic(self, low_unsat_model):
        module = generate_smv(low_unsat_model)
        assert render_smv(module) == render_smv(module)


class TestBundle:
    def test_bundle_combines_module_and_specs(self, high_model, low_unsat_model):
        props = generate_properties(high_model)
        text = bundle_check_file(generate_smv(low_unsat_model), props)
        lines = text.splitlines()
        specs = [ln for ln in lines if ln.startswith("LTLSPEC")]
        assert len(specs) == 6
        assert lines.index("ASSIGN") < lines.index(specs[0])
        assert text.startswith(render_smv(generate_smv(low_unsat_model)).rstrip("\n"))

    def test_bundle_on_satisfied_pair(self, high_model, low_sat_model):
        props = generate_properties(high_model)
        assert "LTLSPEC" in bundle_check_file(generate_smv(low_sat_model), props)

    def test_atom_mismatch_lists_missing_names(self, high_model):
        tiny = parse_dsl("model M { initial InitialNode1; final Done; InitialNode1 -> Done }")
        with pytest.raises(AtomMismatchError) as info:
            bundle_check_file(generate_smv(tiny), generate_properties(high_model))
        assert "VerifyCreditCard" in info.value.missing
        assert "ShipOrder" in info.value.missing

    def test_atom_check_is_the_bundles(self, high_model, low_sat_model):
        tiny = generate_smv(parse_dsl("model M { initial InitialNode1; final Done; InitialNode1 -> Done }"))
        props = generate_properties(high_model)
        with pytest.raises(AtomMismatchError) as checked:
            check_atoms(tiny, props)
        with pytest.raises(AtomMismatchError) as bundled:
            bundle_check_file(tiny, props)
        assert str(checked.value) == str(bundled.value)
        assert checked.value.missing == bundled.value.missing
        assert check_atoms(generate_smv(low_sat_model), props) is None

    def test_decision_scalar_is_not_an_atom(self, low_unsat_model):
        with pytest.raises(AtomMismatchError):
            bundle_check_file(generate_smv(low_unsat_model), [parse_ltl("G (DecisionNode1 -> F ShipOrder)")])


class TestReader:
    def test_fixture_module_round_trips(self, high_model, low_unsat_model, low_sat_model):
        for model in (high_model, low_unsat_model, low_sat_model):
            module = generate_smv(model)
            assert parse_smv(render_smv(module)) == (module, ())

    def test_bundle_round_trips(self, high_model, low_sat_model):
        props = generate_properties(high_model)
        module = generate_smv(low_sat_model)
        text = bundle_check_file(module, props)
        parsed, specs = parse_smv(text)
        assert parsed == module
        assert len(specs) == 6
        assert render_smv(parsed) + "".join(f"{spec}\n" for spec in specs) == text

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_random_module_round_trips(self, seed):
        module = generate_smv(random_valid_model(seed))
        assert parse_smv(render_smv(module)) == (module, ())
