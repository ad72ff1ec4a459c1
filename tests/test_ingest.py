"""DSL and JSON parsing, error locations, and print/parse round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOW_UNSAT, LOW_UNSAT_JSON, random_valid_model
from containcheck.ingest import (
    IngestError,
    ParseError,
    load_model,
    parse_dsl,
    parse_json,
    print_dsl,
)
from containcheck.model import NodeKind

MINIMAL_DSL = "model M { initial I; final F; I -> F }"


def ok(result):
    assert not isinstance(result, list), [str(e) for e in result]
    return result


def errors_of(result) -> list[ParseError]:
    assert isinstance(result, list)
    return result


class TestParseDsl:
    def test_minimal_model(self):
        model = ok(parse_dsl(MINIMAL_DSL))
        assert [n.id for n in model.nodes] == ["I", "F"]
        assert [(e.source, e.target) for e in model.edges] == [("I", "F")]

    def test_trailing_semicolon_optional(self):
        with_semi = ok(parse_dsl("model M { initial I; final F; I -> F; }"))
        without = ok(parse_dsl(MINIMAL_DSL))
        assert with_semi == without

    def test_comments_ignored(self):
        text = "// header\nmodel M { // nodes\n initial I; final F;\n I -> F // edge\n }"
        assert ok(parse_dsl(text)) == ok(parse_dsl(MINIMAL_DSL))

    def test_unknown_node_reference_with_span(self):
        text = "model M {\n    initial I;\n    final F;\n    I -> Unknown;\n    I -> F;\n}"
        errs = errors_of(parse_dsl(text, "m.behavior"))
        err = next(e for e in errs if "unknown node reference 'Unknown'" in e.message)
        assert err.span.file == "m.behavior"
        assert err.span.line == 4

    def test_duplicate_id_error(self):
        errs = errors_of(parse_dsl("model M { initial I; action I; }"))
        assert any("duplicate node id" in e.message for e in errs)

    def test_lexical_error(self):
        errs = errors_of(parse_dsl("model M { initial I; final F; I -> F; % }"))
        assert any("unexpected character" in e.message for e in errs)

    def test_missing_arrow(self):
        errs = errors_of(parse_dsl("model M { initial I; final F; I F; }"))
        assert any("expected '->'" in e.message for e in errs)

    def test_guard_parsing(self):
        text = "model M { initial I; decision D; final A; final B; I -> D; D -> A [x > 3]; D -> B [otherwise]; }"
        model = ok(parse_dsl(text))
        assert [e.guard for e in model.outgoing("D")] == ["x > 3", "otherwise"]

    def test_validation_violations_carry_spans(self):
        text = "model M {\n    initial I;\n    decision D;\n    final F;\n    I -> D;\n    D -> F;\n}"
        errs = errors_of(parse_dsl(text, "v.behavior"))
        err = next(e for e in errs if ">=2 outgoing" in e.message)
        assert err.span.line == 3

    def test_duplicated_edge_violations_report_its_first_span(self):
        text = "model M {\n    initial I;\n    action A;\n    final F;\n    I -> A;\n    A -> F [g];\n    A -> F [g];\n}"
        errs = errors_of(parse_dsl(text, "d.behavior"))
        guards = [e for e in errs if "guard is only allowed" in e.message]
        assert [str(e.span) for e in guards] == ["d.behavior:6:5", "d.behavior:6:5"]
        assert any("exactly 1 outgoing" in e.message and e.span.line == 3 for e in errs)

    def test_every_error_has_location(self):
        for text in (
            "model M { initial I; final F; I -> Missing; }",
            "model",
            "model M { bogus!! }",
            "model M { initial I; }",
        ):
            for err in errors_of(parse_dsl(text, "x")):
                assert err.span is not None

    def test_fixture_parses(self):
        assert ok(parse_dsl(LOW_UNSAT.read_text(), str(LOW_UNSAT))).name == (
            "OrderProcessingLowUnsat"
        )


class TestParseJson:
    def test_equivalent_to_dsl(self):
        doc = {
            "name": "M",
            "nodes": [{"id": "I", "kind": "initial"}, {"id": "F", "kind": "final"}],
            "edges": [{"source": "I", "target": "F"}],
        }
        assert ok(parse_json(json.dumps(doc))) == ok(parse_dsl(MINIMAL_DSL))

    def test_unknown_kind_rejected(self):
        doc = {
            "name": "M",
            "nodes": [{"id": "I", "kind": "loop"}],
            "edges": [],
        }
        errs = errors_of(parse_json(json.dumps(doc)))
        err = next(e for e in errs if "unknown node kind 'loop'" in e.message)
        assert err.pointer == "/nodes/0/kind"

    def test_fixture_decisions_present(self):
        model = ok(parse_json(LOW_UNSAT_JSON.read_text()))
        decisions = [n.id for n in model.nodes if n.kind is NodeKind.DECISION]
        assert "DecisionNode1" in decisions and "DecisionNode2" in decisions

    def test_json_and_dsl_fixture_equal(self):
        assert ok(parse_json(LOW_UNSAT_JSON.read_text())) == ok(
            parse_dsl(LOW_UNSAT.read_text(), str(LOW_UNSAT))
        )

    def test_unknown_field_rejected(self):
        doc = {
            "name": "M",
            "nodes": [{"id": "I", "kind": "initial", "color": "red"}],
            "edges": [],
        }
        errs = errors_of(parse_json(json.dumps(doc)))
        assert any(e.pointer == "/nodes/0/color" for e in errs)

    def test_missing_fields_rejected(self):
        errs = errors_of(parse_json(json.dumps({"name": "M"})))
        assert any("missing field" in e.message for e in errs)

    def test_invalid_json(self):
        errs = errors_of(parse_json("{not json"))
        assert errs and errs[0].pointer

    def test_display_name_is_cosmetic(self):
        doc = {
            "name": "M",
            "nodes": [
                {"id": "I", "kind": "initial", "name": "Start here"},
                {"id": "F", "kind": "final"},
            ],
            "edges": [{"source": "I", "target": "F"}],
        }
        model = ok(parse_json(json.dumps(doc)))
        assert model.node("I").name == "Start here"
        # Structural equality and the DSL round-trip ignore display names.
        assert model == ok(parse_dsl(MINIMAL_DSL))
        assert ok(parse_dsl(print_dsl(model))) == model

    def test_unknown_edge_reference(self):
        doc = {
            "name": "M",
            "nodes": [{"id": "I", "kind": "initial"}, {"id": "F", "kind": "final"}],
            "edges": [{"source": "I", "target": "Ghost"}],
        }
        errs = errors_of(parse_json(json.dumps(doc)))
        err = next(e for e in errs if "unknown node reference" in e.message)
        assert err.pointer == "/edges/0/target"


class TestPrintDsl:
    def test_stable_canonical_text(self, high_model):
        assert print_dsl(high_model) == print_dsl(high_model)

    def test_minimal_round_trip(self):
        model = ok(parse_dsl(MINIMAL_DSL))
        assert ok(parse_dsl(print_dsl(model))) == model

    def test_fixture_round_trips(self, high_model, low_unsat_model, low_sat_model):
        for model in (high_model, low_unsat_model, low_sat_model):
            assert ok(parse_dsl(print_dsl(model))) == model

    def test_guards_preserved_verbatim(self, low_unsat_model):
        text = print_dsl(low_unsat_model)
        assert "[cancelation requested]" in text
        assert ok(parse_dsl(text)).outgoing("DecisionNode2")[0].guard == (
            "cancelation requested"
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_random_model_round_trip(self, seed):
        model = random_valid_model(seed)
        assert ok(parse_dsl(print_dsl(model))) == model


class TestLoadModel:
    def test_load_behavior(self):
        assert load_model(str(LOW_UNSAT)).name == "OrderProcessingLowUnsat"

    def test_load_json(self):
        assert load_model(str(LOW_UNSAT_JSON)).name == "OrderProcessingLowUnsat"

    def test_bad_content_raises_ingest_error(self, tmp_path):
        bad = tmp_path / "bad.behavior"
        bad.write_text("model M { initial I; }")
        with pytest.raises(IngestError):
            load_model(str(bad))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "absent.behavior"))
