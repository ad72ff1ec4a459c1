"""DSL and JSON parsing, error locations, and print/parse round-trips;
the DSL lexer also against a reference copy of the character loop it
replaced."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOW_UNSAT, LOW_UNSAT_JSON, random_valid_model
from containcheck.ingest import (
    IngestError,
    ParseError,
    SourceSpan,
    _tokenize,
    _Token,
    load_model,
    parse_dsl,
    parse_json,
    print_dsl,
)
from containcheck.model import NodeKind

MINIMAL_DSL = "model M { initial I; final F; I -> F }"
NODES = [{"id": "I", "kind": "initial"}, {"id": "F", "kind": "final"}]
EDGES = [{"source": "I", "target": "F"}]


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

    def test_duplicate_edge_located_where_it_repeats(self):
        text = (
            "model Dup3 {\n  initial S; decision D; action A; action B; merge M; final F;\n"
            "  S -> D;\n  D -> A;\n  D -> B;\n  D -> A;\n  A -> M; B -> M; M -> F;\n}"
        )
        errs = errors_of(parse_dsl(text, "d.behavior"))
        assert [str(e) for e in errs] == ["d.behavior:6:3: D -> A: duplicate edge"]

    def test_every_error_has_location(self):
        for text in (
            "model M { initial I; final F; I -> Missing; }",
            "model",
            "model M { bogus!! }",
            "model M { initial I; }",
        ):
            for err in errors_of(parse_dsl(text, "x")):
                assert err.span is not None

    @pytest.mark.parametrize(
        "tail, expected",
        [
            (
                "// trailing comment",
                [
                    "c.behavior:2:49: expected ';', got 'end of input'",
                    "c.behavior:2:49: expected '}' before end of input",
                ],
            ),
            (
                "[open guard",
                [
                    "c.behavior:2:30: unterminated guard label",
                    "c.behavior:2:41: expected ';', got 'end of input'",
                    "c.behavior:2:41: expected '}' before end of input",
                ],
            ),
        ],
        ids=["comment", "unclosed-guard"],
    )
    def test_end_of_input_errors_point_at_the_end(self, tail, expected):
        # Text that makes no token still moves the end of the input.
        text = "model M {\n  initial I; final F; I -> F " + tail
        assert [str(e) for e in errors_of(parse_dsl(text, "c.behavior"))] == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("graph M { }", "1:1: expected 'model'"),
            ("model M ;", "1:9: expected '{', got ';'"),
            ("model M { initial I; final F; I -> F; -> ; }", "1:39: expected a declaration, got '->'"),
            ("model M { initial I; final F; I -> F } extra", "1:40: unexpected input after '}': 'extra'"),
            ("model M { initial I; action ; final F; I -> F }", "1:29: expected node id, got ';'"),
            ("model M { initial I; action _x; final F; I -> F }", "1:29: id '_x' is not a legal identifier"),
        ],
        ids=["no-model", "no-brace", "no-declaration", "after-brace", "no-node-id", "illegal-id"],
    )
    def test_input_errors_located(self, text, expected):
        assert [str(e) for e in errors_of(parse_dsl(text, "m.behavior"))] == [f"m.behavior:{expected}"]

    def test_stray_semicolons_accepted(self):
        assert ok(parse_dsl("model M { ; initial I; ; final F; ; I -> F ; ; }")) == ok(parse_dsl(MINIMAL_DSL))

    def test_illegal_id_counts_as_declared(self):
        # The node was declared, so its edges add no unknown references.
        text = "model M { initial I; action _x; final F; I -> _x; _x -> F }"
        assert [str(e) for e in errors_of(parse_dsl(text, "m.behavior"))] == [
            "m.behavior:1:29: id '_x' is not a legal identifier"
        ]

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


    def test_duplicate_edge_pointed_at_the_repeat(self):
        nodes = {"S": "initial", "D": "decision", "A": "action", "B": "action", "M": "merge", "F": "final"}
        pairs = [("S", "D"), ("D", "A"), ("D", "B"), ("D", "A"), ("A", "M"), ("B", "M"), ("M", "F")]
        doc = {
            "name": "Dup3",
            "nodes": [{"id": i, "kind": k} for i, k in nodes.items()],
            "edges": [{"source": a, "target": b} for a, b in pairs],
        }
        errs = errors_of(parse_json(json.dumps(doc)))
        assert [(e.pointer, e.message) for e in errs] == [("/edges/3", "D -> A: duplicate edge")]

    @staticmethod
    def violations(nodes: str, edges: list) -> list[tuple[str, str]]:
        """(pointer, message) of each error of a model whose nodes are
        `id:kind` words and whose edges are (source, target, guard)."""
        doc = {
            "name": "M",
            "nodes": [dict(zip(("id", "kind"), word.split(":"))) for word in nodes.split()],
            "edges": [
                {"source": a, "target": b, **({"guard": g} if g else {})} for a, b, g in edges
            ],
        }
        return [(e.pointer, e.message) for e in errors_of(parse_json(json.dumps(doc)))]

    def test_node_violation_pointed_at_its_entry(self):
        assert self.violations("S:initial A:action B:action F:final", [
            ("S", "A", None), ("A", "F", None), ("B", "F", None),
        ]) == [
            ("/nodes/2", "B: action requires at least 1 incoming edge"),
            ("/nodes/2", "B: unreachable from the initial node"),
        ]

    def test_edge_violation_pointed_at_the_first_edge_of_its_pair(self):
        # As the DSL locates it: a guarded repeat of A -> F is reported at
        # the first A -> F, and only the duplicate at the repeat.
        assert self.violations("S:initial A:action F:final", [
            ("S", "A", None), ("A", "F", None), ("A", "F", "ok"),
        ]) == [
            ("/edges/2", "A -> F: duplicate edge"),
            ("/nodes/1", "A: action requires exactly 1 outgoing edge"),
            ("/edges/1", "A -> F: guard is only allowed on decision branches"),
        ]

    def test_model_violation_pointed_at_the_root(self):
        assert self.violations("A:action F:final", [("A", "F", None)]) == [
            ("/", "model has no initial node"),
            ("/nodes/0", "A: action requires at least 1 incoming edge"),
        ]

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ([], "/: top-level value must be an object"),
            ({"name": 5, "nodes": NODES, "edges": EDGES}, "/name: 'name' must be a string"),
            ({"name": "M", "nodes": [5] + NODES, "edges": EDGES}, "/nodes/0: node must be an object"),
            (
                {"name": "M", "nodes": [{"id": "1x", "kind": "action"}] + NODES, "edges": EDGES},
                "/nodes/0/id: illegal node id '1x'",
            ),
            (
                {"name": "M", "nodes": [{"id": "A", "kind": "action"}] * 2 + NODES, "edges": EDGES},
                "/nodes/1/id: duplicate node id 'A'",
            ),
            (
                {"name": "M", "nodes": [{**NODES[0], "name": 3}, NODES[1]], "edges": EDGES},
                "/nodes/0/name: 'name' must be a string",
            ),
            ({"name": "M", "nodes": NODES, "edges": {}}, "/edges: 'edges' must be an array"),
            ({"name": "M", "nodes": NODES, "edges": [5]}, "/edges/0: edge must be an object"),
            (
                {"name": "M", "nodes": NODES, "edges": [{"source": 5, "target": "F"}]},
                "/edges/0/source: 'source' must be a string",
            ),
            (
                {"name": "M", "nodes": NODES, "edges": [{**EDGES[0], "guard": 5}]},
                "/edges/0/guard: 'guard' must be a string",
            ),
        ],
        ids=[
            "not-an-object", "name", "node", "illegal-id", "duplicate-id", "display-name",
            "edges", "edge", "source", "guard",
        ],
    )
    def test_input_errors_located(self, doc, expected):
        assert [str(e) for e in errors_of(parse_json(json.dumps(doc), "m.json"))] == [
            f"m.json: {expected}"
        ]

    def test_illegal_string_id_counts_as_declared(self):
        # As in the DSL, a refused string id adds no unknown references;
        # an id that is no string names nothing an edge could reference.
        nodes = [NODES[0], {"id": "1x", "kind": "action"}, {"id": 5, "kind": "action"}, NODES[1]]
        edges = [{"source": "I", "target": "1x"}, {"source": "1x", "target": "5"}]
        errs = errors_of(parse_json(json.dumps({"name": "M", "nodes": nodes, "edges": edges})))
        assert [(e.pointer, e.message) for e in errs] == [
            ("/nodes/1/id", "illegal node id '1x'"),
            ("/nodes/2/id", "illegal node id 5"),
            ("/edges/1/target", "unknown node reference '5'"),
        ]

    def test_nesting_too_deep_is_an_input_error(self):
        errs = errors_of(parse_json("[" * 100_000, "deep.json"))
        assert [str(e) for e in errs] == ["deep.json: /: invalid JSON: nested too deeply"]


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


def json_model(name="M", guard=None):
    """A valid JSON model with one decision, whose first branch carries
    `guard` when one is given."""
    branches = [{"source": "D", "target": "A"}, {"source": "D", "target": "F"}]
    if guard is not None:
        branches[0]["guard"] = guard
        branches[1]["guard"] = "other"
    doc = {
        "name": name,
        "nodes": [
            {"id": "I", "kind": "initial"},
            {"id": "D", "kind": "decision"},
            {"id": "A", "kind": "action"},
            {"id": "F", "kind": "final"},
        ],
        "edges": [{"source": "I", "target": "D"}, *branches, {"source": "A", "target": "F"}],
    }
    return ok(parse_json(json.dumps(doc)))


class TestPrintDslRefuses:
    """JSON models whose model name or guard the DSL cannot write: print_dsl
    names the value instead of printing text that does not reparse to an
    equal model."""

    def test_json_model_round_trips(self):
        model = json_model("Model_2", guard="card ok")
        assert ok(parse_dsl(print_dsl(model))) == model

    def test_empty_model_name(self):
        with pytest.raises(ValueError, match="model name ''"):
            print_dsl(json_model(""))

    def test_model_name_with_a_blank(self):
        with pytest.raises(ValueError, match="model name 'My Model'"):
            print_dsl(json_model("My Model"))

    def test_guard_with_a_closing_bracket(self):
        with pytest.raises(ValueError, match=r"guard 'x\]' on D -> A"):
            print_dsl(json_model(guard="x]"))

    def test_guard_with_a_line_break(self):
        with pytest.raises(ValueError, match=r"guard 'a\\nb' on D -> A"):
            print_dsl(json_model(guard="a\nb"))

    def test_guard_with_outer_blanks(self):
        with pytest.raises(ValueError, match="guard ' ok ' on D -> A"):
            print_dsl(json_model(guard=" ok "))


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


# --- reference lexer --------------------------------------------------------
# The character loop the regex lexer replaced, as it was, except for the
# end-of-input column: this copy leaves it where a trailing comment or an
# unclosed guard label starts.


def reference_tokenize(text: str, origin: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if text.startswith("->", i):
            tokens.append(_Token("arrow", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "{};":
            tokens.append(_Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "[":
            j = text.find("]", i)
            if j == -1 or "\n" in text[i:j]:
                errors.append(
                    ParseError("unterminated guard label", SourceSpan(origin, start_line, start_col))
                )
                while i < n and text[i] != "\n":
                    i += 1
                continue
            tokens.append(_Token("guard", text[i + 1 : j].strip(), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("word", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        errors.append(
            ParseError(f"unexpected character {ch!r}", SourceSpan(origin, start_line, start_col))
        )
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col))
    return tokens, errors


#: Pieces of random lexer input: the DSL's own words and punctuation, and
#: characters on the edges of its classes (blanks it does not skip,
#: letters and digits outside ASCII).
LEXER_PIECES = [
    "model", "M", "initial", "I", "final", "F_1", "a", "_", "7", "{", "}", ";",
    "->", "-", ">", "//", "/", "[", "]", "[x > 3]", " ", "  ", "\t", "\n", "\r",
    "\f", "\v", "\xa0", "\u00e9", "\u00df", "\u00b2", "\u0663", "%", "!",
]


def random_lexer_input(rng: random.Random) -> str:
    return "".join(rng.choice(LEXER_PIECES) for _ in range(rng.randint(0, 24)))


class TestLexerAgainstReference:
    def test_random_inputs(self):
        for seed in range(20_000):
            text = random_lexer_input(random.Random(seed))
            tokens, errors = _tokenize(text, "r.behavior")
            expected_tokens, expected_errors = reference_tokenize(text, "r.behavior")
            assert (tokens[:-1], errors) == (expected_tokens[:-1], expected_errors), repr(text)
            # The end of the input is located where the text ends.
            last_line = text.rsplit("\n", 1)[-1]
            assert tokens[-1] == _Token("eof", "", text.count("\n") + 1, len(last_line) + 1)
            assert tokens[-1].line == expected_tokens[-1].line
