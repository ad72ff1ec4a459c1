"""Property generation from the five templates, rendering, and parsing;
generation, rendering and parsing also against reference copies of the
recursive versions."""

from __future__ import annotations

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HIGH,
    LOW_SAT,
    decision_model,
    fork_model,
    fork_of_decisions_model,
    random_formula,
    random_valid_model,
)
from containcheck.ingest import load_model
from containcheck.ingest import parse_dsl
from containcheck.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    FalseConst,
    GenerationError,
    Implies,
    RESERVED_ATOMS,
    LtlSyntaxError,
    Next,
    Not,
    Or,
    GeneratedProperty,
    Primitive,
    TrueConst,
    Xor,
    atoms,
    conjoin,
    disjoin,
    generate_properties,
    parse_ltl,
    render_formula,
    render_ltlspec,
    xor_chain,
)
from containcheck.model import STRUCTURAL_KINDS, NodeKind

EXPECTED_HIGH_LINES = [
    "LTLSPEC G (InitialNode1 -> F VerifyCreditCard)",
    "LTLSPEC G (VerifyCreditCard -> F ReplyCreditCardNotOK xor F CreateOrderBusinessObject)",
    "LTLSPEC G (ReplyCreditCardNotOK -> F ActivityFinalNode1)",
    "LTLSPEC G (CreateOrderBusinessObject -> F ShipOrder & F ChargeOrder)",
    "LTLSPEC (G (ShipOrder & ChargeOrder) -> F ReplyOrderStatus)",
    "LTLSPEC G (ReplyOrderStatus -> F ActivityFinalNode2)",
]


class TestGeneration:
    def test_high_fixture_exact_lines(self, high_model):
        rendered = render_ltlspec(generate_properties(high_model))
        assert rendered.splitlines() == EXPECTED_HIGH_LINES

    def test_high_fixture_primitives_in_order(self, high_model):
        primitives = [p.primitive for p in generate_properties(high_model)]
        assert primitives == [
            Primitive.SEQUENCE,
            Primitive.DECISION,
            Primitive.SEQUENCE,
            Primitive.FORK,
            Primitive.JOIN,
            Primitive.SEQUENCE,
        ]

    def test_minimal_sequence(self):
        model = parse_dsl("model M { initial I; final F_node; I -> F_node }")
        props = generate_properties(model)
        assert len(props) == 1
        assert render_formula(props[0].formula) == "G (I -> F F_node)"

    def test_three_way_fork(self):
        model = parse_dsl(
            "model M { initial I; action A; fork K; final B1; final B2; final B3;"
            " I -> A; A -> K; K -> B1; K -> B2; K -> B3 }"
        )
        props = generate_properties(model)
        fork = next(p for p in props if p.primitive is Primitive.FORK)
        assert render_formula(fork.formula) == "G (A -> F B1 & F B2 & F B3)"

    def test_merge_template(self):
        model = parse_dsl(
            "model M { initial I; fork K; action A1; action A2; merge G_node; final E;"
            " I -> K; K -> A1; K -> A2; A1 -> G_node; A2 -> G_node; G_node -> E }"
        )
        props = generate_properties(model)
        merge = next(p for p in props if p.primitive is Primitive.MERGE)
        assert render_formula(merge.formula) == "G (A1 | A2 -> F E)"

    def test_decision_endpoints_resolve_through_structure(self):
        model = parse_dsl(
            "model M { initial I; action A; decision D1; action B; decision D2;"
            " final E1; final E2; final E3;"
            " I -> A; A -> D1; D1 -> B; D1 -> D2; B -> E1; D2 -> E2; D2 -> E3 }"
        )
        props = generate_properties(model)
        d1 = next(p for p in props if p.origin == "D1")
        assert render_formula(d1.formula) == "G (A -> F B xor F E2 xor F E3)"

    def test_property_count_matches_shape(self, high_model):
        def expected_count(model):
            structural = sum(1 for n in model.nodes if n.kind in STRUCTURAL_KINDS)
            kind = {n.id: n.kind for n in model.nodes}
            sequences = sum(
                1
                for e in model.edges
                if kind[e.source] not in STRUCTURAL_KINDS
                and kind[e.target] not in STRUCTURAL_KINDS
            )
            return structural + sequences

        assert len(generate_properties(high_model)) == 6 == expected_count(high_model)
        for seed in range(40):
            model = random_valid_model(seed)
            assert len(generate_properties(model)) == expected_count(model), seed

    def test_atoms_name_model_nodes(self, high_model):
        ids = {n.id for n in high_model.nodes}
        for prop in generate_properties(high_model):
            assert atoms(prop.formula) <= ids

    def test_no_structural_atoms(self, high_model):
        structural = {n.id for n in high_model.nodes if n.kind in STRUCTURAL_KINDS}
        for prop in generate_properties(high_model):
            assert not (atoms(prop.formula) & structural)

    def test_deterministic(self, high_model):
        assert generate_properties(high_model) == generate_properties(high_model)

    def test_cyclic_model_rejected(self, low_unsat_model):
        with pytest.raises(GenerationError, match="loops unsupported"):
            generate_properties(low_unsat_model)

    def test_reserved_id_rejected(self):
        model = parse_dsl("model M { initial I; final F; I -> F }")
        with pytest.raises(GenerationError, match="reserved"):
            generate_properties(model)

    def test_join_mode_simultaneous(self, high_model):
        props = generate_properties(high_model, join_mode="simultaneous")
        join = next(p for p in props if p.primitive is Primitive.JOIN)
        assert render_formula(join.formula) == (
            "G (ShipOrder & ChargeOrder -> F ReplyOrderStatus)"
        )

    def test_unknown_join_mode(self, high_model):
        with pytest.raises(ValueError):
            generate_properties(high_model, join_mode="bogus")


class TestRender:
    def test_join_line_has_outer_parens(self, high_model):
        lines = render_ltlspec(generate_properties(high_model)).splitlines()
        assert lines[4].startswith("LTLSPEC (G (")

    def test_empty_set_renders_empty(self):
        assert render_ltlspec([]) == ""

    def test_accepts_bare_formulas(self):
        text = render_ltlspec([Always(Atom("a"))])
        assert text == "LTLSPEC G a\n"


class TestParse:
    def test_implication_under_always(self):
        assert parse_ltl("G (a -> F b)") == Always(Implies(Atom("a"), Eventually(Atom("b"))))

    def test_xor_left_associative(self):
        assert parse_ltl("F a xor F b xor F c") == Xor(
            Xor(Eventually(Atom("a")), Eventually(Atom("b"))), Eventually(Atom("c"))
        )

    def test_precedence_stack(self):
        # unary > & > | > xor > ->
        formula = parse_ltl("a -> b | c & !d xor e")
        assert formula == Implies(
            Atom("a"),
            Xor(Or(Atom("b"), And(Atom("c"), Not(Atom("d")))), Atom("e")),
        )

    def test_implies_right_associative(self):
        assert parse_ltl("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_constants_and_next(self):
        assert parse_ltl("X TRUE & FALSE") == And(Next(TrueConst()), FalseConst())

    def test_syntax_error_carries_position(self):
        with pytest.raises(LtlSyntaxError) as info:
            parse_ltl("G (a ->")
        assert info.value.column == 8

    def test_unbalanced_paren(self):
        with pytest.raises(LtlSyntaxError):
            parse_ltl("(a -> b")

    def test_generated_lines_reparse(self, high_model):
        for prop in generate_properties(high_model):
            line = render_formula(prop.formula)
            assert parse_ltl(line) == prop.formula


ATOMS = st.sampled_from(["a", "b", "c", "p", "q1", "flag_x"])
FORMULAS = st.recursive(
    st.builds(Atom, ATOMS) | st.just(TrueConst()) | st.just(FalseConst()),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Always, sub),
        st.builds(Eventually, sub),
        st.builds(Next, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Xor, sub, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(FORMULAS)
    @settings(max_examples=300, deadline=None)
    def test_render_parse_round_trip(self, formula):
        assert parse_ltl(render_formula(formula)) == formula

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_generated_properties_round_trip(self, seed):
        model = random_valid_model(seed)
        for prop in generate_properties(model):
            assert parse_ltl(render_formula(prop.formula)) == prop.formula


# --- reference generation and rendering ----------------------------------
# The recursive generator and renderer as they were before both walks moved
# to explicit stacks: edges rescanned from model.edges on every step,
# endpoints resolved by recursion. Stack-bound, but each step reads like
# the templates. Inputs are valid acyclic models only.


def reference_generate(model, join_mode: str = "always") -> list[GeneratedProperty]:
    nodes = {n.id: n for n in model.nodes}

    def outgoing(node_id):
        return [e for e in model.edges if e.source == node_id]

    def incoming(node_id):
        return [e for e in model.edges if e.target == node_id]

    def resolve_forward(node_id):
        if not nodes[node_id].structural:
            return [node_id]
        out = []
        for e in outgoing(node_id):
            for r in resolve_forward(e.target):
                if r not in out:
                    out.append(r)
        return out

    def resolve_backward(node_id):
        if not nodes[node_id].structural:
            return [node_id]
        out = []
        for e in incoming(node_id):
            for r in resolve_backward(e.source):
                if r not in out:
                    out.append(r)
        return out

    def structural_property(node_id):
        kind = nodes[node_id].kind
        sources = [Atom(s) for s in resolve_backward(node_id)]
        follow = [Eventually(Atom(b)) for b in resolve_forward(node_id)]
        if kind is NodeKind.FORK:
            f = Always(Implies(conjoin(sources), conjoin(follow)))
            return GeneratedProperty(f, node_id, Primitive.FORK)
        if kind is NodeKind.DECISION:
            f = Always(Implies(conjoin(sources), xor_chain(follow)))
            return GeneratedProperty(f, node_id, Primitive.DECISION)
        if kind is NodeKind.JOIN:
            if join_mode == "always":
                f = Implies(Always(conjoin(sources)), conjoin(follow))
            else:
                f = Always(Implies(conjoin(sources), conjoin(follow)))
            return GeneratedProperty(f, node_id, Primitive.JOIN)
        f = Always(Implies(disjoin(sources), conjoin(follow)))
        return GeneratedProperty(f, node_id, Primitive.MERGE)

    properties = []
    emitted = set()
    visited = set()

    def visit(node_id):
        visited.add(node_id)
        for e in outgoing(node_id):
            if nodes[e.target].structural:
                if e.target not in emitted:
                    emitted.add(e.target)
                    properties.append(structural_property(e.target))
            elif not nodes[node_id].structural:
                sequence = Always(Implies(Atom(e.source), Eventually(Atom(e.target))))
                properties.append(GeneratedProperty(sequence, e.source, Primitive.SEQUENCE))
            if e.target not in visited:
                visit(e.target)

    initial = next(n for n in model.nodes if n.kind is NodeKind.INITIAL)
    visit(initial.id)
    return properties


_REFERENCE_OPS = {And: "&", Or: "|", Xor: "xor", Implies: "->"}
_REFERENCE_LEVELS = {And: 4, Or: 3, Xor: 2, Implies: 1}
_REFERENCE_UNARY = {Not: "!", Always: "G", Eventually: "F", Next: "X"}


def reference_render(formula) -> str:
    def render(f, parent_level=0):
        if isinstance(f, Atom):
            return f.name
        if isinstance(f, TrueConst):
            return "TRUE"
        if isinstance(f, FalseConst):
            return "FALSE"
        if type(f) in _REFERENCE_UNARY:
            op = _REFERENCE_UNARY[type(f)]
            if isinstance(f.operand, (And, Or, Xor, Implies)):
                return f"{op} ({render(f.operand)})"
            sep = "" if isinstance(f, Not) else " "
            return f"{op}{sep}{render(f.operand, 5)}"
        level = _REFERENCE_LEVELS[type(f)]
        if isinstance(f, Implies):
            left, right = render(f.left, level + 1), render(f.right, level)
        else:
            left, right = render(f.left, level), render(f.right, level + 1)
        text = f"{left} {_REFERENCE_OPS[type(f)]} {right}"
        return f"({text})" if level < parent_level else text

    text = render(formula)
    return f"({text})" if isinstance(formula, Implies) else text


def listed(properties) -> list[tuple]:
    return [(render_formula(p.formula), p.origin, p.primitive) for p in properties]


def assert_generation_matches_reference(model) -> None:
    for mode in ("always", "simultaneous"):
        expected = listed(reference_generate(model, mode))
        assert listed(generate_properties(model, join_mode=mode)) == expected, (model.name, mode)


class TestAgainstReference:
    @pytest.mark.parametrize("path", [HIGH, LOW_SAT], ids=lambda path: path.name)
    def test_fixtures(self, path):
        assert_generation_matches_reference(load_model(str(path)))

    @pytest.mark.parametrize(
        "model",
        [fork_model(w) for w in range(2, 9)]
        + [decision_model(k) for k in range(2, 7)]
        + [fork_of_decisions_model(k) for k in range(2, 5)],
        ids=lambda model: model.name,
    )
    def test_model_families(self, model):
        assert_generation_matches_reference(model)

    def test_random_models(self):
        for seed in range(200):
            assert_generation_matches_reference(random_valid_model(seed))

    def test_random_formulas_render_alike(self):
        for seed in range(400):
            rng = random.Random(seed)
            formula = random_formula(rng, ["a", "b", "c"], rng.randint(1, 6))
            assert render_formula(formula) == reference_render(formula)
            assert render_formula(Not(formula)) == reference_render(Not(formula))


class TestDeepFormulas:
    """Conjunction chains deeper than the recursion limit. Results are
    compared as strings and sets: dataclass equality still recurses."""

    DEPTH = sys.getrecursionlimit() + 100
    NAMES = [f"a{i}" for i in range(DEPTH + 1)]

    def test_left_nested_chain(self):
        formula = conjoin([Atom(name) for name in self.NAMES])
        assert render_formula(formula) == " & ".join(self.NAMES)
        assert atoms(formula) == set(self.NAMES)

    def test_right_nested_chain(self):
        formula = Atom(self.NAMES[-1])
        for name in reversed(self.NAMES[:-1]):
            formula = And(Atom(name), formula)
        expected = " & (".join(self.NAMES[:-1]) + f" & {self.NAMES[-1]}" + ")" * (self.DEPTH - 1)
        assert render_formula(formula) == expected
        assert atoms(formula) == set(self.NAMES)


# --- reference parser -------------------------------------------------------
# The recursive-descent parser the operator-precedence parser replaced, as
# it was: one method per binding level, and a character-loop lexer.


class ReferenceParser:
    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[tuple[str, int, int]]:
        tokens = []
        line, col, i = 1, 1, 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line, col = line + 1, 1
                i += 1
                continue
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if text.startswith("->", i):
                tokens.append(("->", line, col))
                i += 2
                col += 2
                continue
            if ch in "()!&|":
                tokens.append((ch, line, col))
                i += 1
                col += 1
                continue
            if ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append((text[i:j], line, col))
                col += j - i
                i = j
                continue
            raise LtlSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(("", line, col))
        return tokens

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok[0]:
            self.pos += 1
        return tok[0]

    def error(self, message: str):
        _, line, col = self.tokens[self.pos]
        raise LtlSyntaxError(message, line, col)

    def parse(self):
        f = self.parse_implies()
        if self.peek():
            self.error(f"unexpected token {self.peek()!r}")
        return f

    def parse_implies(self):
        left = self.parse_xor()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.parse_implies())
        return left

    def parse_xor(self):
        out = self.parse_or()
        while self.peek() == "xor":
            self.take()
            out = Xor(out, self.parse_or())
        return out

    def parse_or(self):
        out = self.parse_and()
        while self.peek() == "|":
            self.take()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self):
        out = self.parse_unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.parse_unary())
        if tok in ("G", "F", "X"):
            self.take()
            cls = {"G": Always, "F": Eventually, "X": Next}[tok]
            return cls(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            f = self.parse_implies()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return f
        if tok == "TRUE":
            self.take()
            return TrueConst()
        if tok == "FALSE":
            self.take()
            return FalseConst()
        if tok and (tok[0].isalpha() or tok[0] == "_") and tok not in RESERVED_ATOMS:
            self.take()
            return Atom(tok)
        self.error(f"expected a formula, got {tok or 'end of input'!r}")


def parse_outcome(parse, text: str) -> tuple:
    """The rendered formula, or the error's text and location."""
    try:
        return ("formula", render_formula(parse(text)))
    except LtlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


#: Pieces of random parser input: every token of the formula language,
#: reserved words that are not operators, and characters on the edges of
#: the lexer's classes.
PARSER_PIECES = [
    "a", "b", "c_1", "_x", "7", "G", "F", "X", "U", "R", "xor", "TRUE", "FALSE",
    "!", "&", "|", "->", "-", ">", "(", ")", "(", ")", "//", "[", "]", " ", " ",
    "\t", "\n", "\r", "\f", "\v", "\xa0", "\u00e9", "\u00df", "\u00b2", "\u0663",
]


def random_parser_input(rng: random.Random) -> str:
    """Half the time a random run of pieces, half the time a rendered
    random formula with one piece inserted, deleted or replaced."""
    if rng.random() < 0.5:
        count = rng.randint(0, 16)
        return "".join(rng.choice(PARSER_PIECES) + rng.choice(["", " "]) for _ in range(count))
    text = render_formula(random_formula(rng, ["a", "b", "c"], rng.randint(0, 5)))
    at = rng.randint(0, len(text))
    edit = rng.randrange(3)
    if edit == 0:
        return text[:at] + rng.choice(PARSER_PIECES) + text[at:]
    if edit == 1:
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(PARSER_PIECES) + text[at + 1 :]


class TestParserAgainstReference:
    def test_random_inputs(self):
        parsed = 0
        for seed in range(20_000):
            text = random_parser_input(random.Random(seed))
            outcome = parse_outcome(parse_ltl, text)
            assert outcome == parse_outcome(lambda t: ReferenceParser(t).parse(), text), repr(text)
            parsed += outcome[0] == "formula"
        # Both outcomes are well represented.
        assert 4_000 < parsed < 16_000


class TestDeepParse:
    """Inputs ten times deeper than the default recursion limit parse and
    render back."""

    DEPTH = 10_000
    NAMES = [f"a{i}" for i in range(DEPTH + 1)]

    @pytest.mark.parametrize("op", ["!", "G ", "F ", "X "])
    def test_unary_chain(self, op):
        assert sys.getrecursionlimit() < self.DEPTH
        text = op * self.DEPTH + "a"
        assert render_formula(parse_ltl(text)) == text

    def test_nested_parentheses(self):
        text = " & (".join(self.NAMES[:-1]) + f" & {self.NAMES[-1]}" + ")" * (self.DEPTH - 1)
        assert render_formula(parse_ltl(text)) == text
        assert render_formula(parse_ltl("(" * self.DEPTH + "a" + ")" * self.DEPTH)) == "a"

    def test_implication_chain(self):
        text = " -> ".join(self.NAMES)
        formula = parse_ltl(text)
        assert render_formula(formula) == f"({text})"
        # Right-associative: the chain nests to the right.
        assert formula.left == Atom("a0") and formula.right.left == Atom("a1")


class TestDeepRecords:
    """Formulas ten times deeper than the default recursion limit compare,
    hash and print, with the results shallow formulas give."""

    DEPTH = 10_000

    @pytest.mark.parametrize(
        "op, cls", [("!", Not), ("G ", Always), ("X ", Next)], ids=["not", "always", "next"]
    )
    def test_unary_chain(self, op, cls):
        assert sys.getrecursionlimit() < self.DEPTH
        text = op * self.DEPTH + "a"
        one, two = parse_ltl(text), parse_ltl(text)
        assert one == two and not one != two
        assert one != parse_ltl(op * self.DEPTH + "b")
        assert one != parse_ltl(op * (self.DEPTH - 1) + "a")
        assert hash(one) == hash(two) == hash((one.operand,))
        name = cls.__name__
        assert repr(one) == f"{name}(operand=" * self.DEPTH + "Atom(name='a')" + ")" * self.DEPTH

    def test_implication_chain(self):
        names = [f"a{i}" for i in range(self.DEPTH + 1)]
        one, two = (parse_ltl(" -> ".join(names)) for _ in range(2))
        assert one == two
        assert one != parse_ltl(" -> ".join(names[:-1] + ["b"]))
        assert hash(one) == hash(two) == hash((one.left, one.right))
        expected = "".join(f"Implies(left=Atom(name={n!r}), right=" for n in names[:-1])
        assert repr(one) == expected + f"Atom(name={names[-1]!r})" + ")" * self.DEPTH

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle(self, clone):
        assert sys.getrecursionlimit() < self.DEPTH
        # An atom named G does not parse, so the copy cannot go through text.
        negations = Atom("G")
        for _ in range(self.DEPTH):
            negations = Not(negations)
        conjunction = conjoin([Atom(f"a{i}") for i in range(self.DEPTH + 1)])
        implications = parse_ltl(" -> ".join(f"a{i}" for i in range(self.DEPTH + 1)))
        for deep in (negations, conjunction, implications):
            assert clone(deep) == deep
        rng = random.Random(19)
        for _ in range(200):
            f = random_formula(rng, ["a", "b", "X"], 4)
            assert clone(f) == f and repr(clone(f)) == repr(f)

    def test_wide_fork_properties_compare(self):
        # The fork property nests 1,500 conjuncts, and the join property's
        # antecedent as many.
        model = fork_model(1500)
        assert generate_properties(model) == generate_properties(model)
        assert hash(tuple(generate_properties(model))) == hash(tuple(generate_properties(model)))

    def test_shallow_formulas_keep_the_record_contract(self):
        rng = random.Random(77)
        atoms_ = ["a", "b", "c"]
        for _ in range(300):
            f = random_formula(rng, atoms_, 4)
            g = parse_ltl(render_formula(f))
            assert (f == g) and hash(f) == hash(g) == hash(tuple(getattr(f, n) for n in f._fields))
            fields = ", ".join(f"{n}={getattr(f, n)!r}" for n in f._fields)
            assert repr(f) == f"{type(f).__name__}({fields})"
