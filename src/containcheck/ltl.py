"""Temporal formulas over node-name atoms: AST, parser, renderer, and the
compilation of an acyclic behavior model into its property set.

Five templates drive generation, one per control-flow construct:

    sequence   G (A1 -> F A2)
    fork       G (A -> F B1 & F B2 & ... & F Bn)
    join       (G (A1 & A2 & ... & An) -> F B)
    decision   G (A -> F B1 xor F B2 xor ... xor F Bn)
    merge      G (A1 | A2 | ... | An -> F B)
"""

from __future__ import annotations

from enum import Enum

from .model import ActivityModel, NodeKind, is_acyclic, validate
from .record import Record, setfield


class Formula(Record):
    """Base class for formula nodes; all subclasses are frozen and hashable."""

    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        setfield(self, "name", name)


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula) -> None:
        setfield(self, "operand", operand)


class Not(_Unary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        setfield(self, "left", left)
        setfield(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


_UNARY = {Not: "!", Always: "G", Eventually: "F", Next: "X"}
_BINARY = {And: "&", Or: "|", Xor: "xor", Implies: "->"}

#: Binding strength, tightest first: unary, &, |, xor, ->.
_PRECEDENCE = {And: 4, Or: 3, Xor: 2, Implies: 1}

#: Reserved words that cannot double as atoms in rendered formulas.
RESERVED_ATOMS = frozenset({"G", "F", "X", "U", "R", "xor", "TRUE", "FALSE"})


def atoms(formula: Formula) -> set[str]:
    """All atom names occurring in the formula."""
    out: set[str] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, (Not, Always, Eventually, Next)):
            stack.append(f.operand)
        elif isinstance(f, (And, Or, Xor, Implies)):
            stack += (f.left, f.right)
    return out


def conjoin(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disjoin(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def xor_chain(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Xor(out, p)
    return out


def render_formula(formula: Formula) -> str:
    """Render with minimal parenthesization under the parser's precedence.

    A top-level implication is wrapped in parentheses, matching the join
    template's surface shape.
    """
    text = _render(formula)
    if isinstance(formula, Implies):
        return f"({text})"
    return text


def _render(formula: Formula) -> str:
    pieces: list[str] = []
    # Pending work, last first: literal text, or (formula, parent_level).
    stack: list = [(formula, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        f, parent_level = item
        if isinstance(f, Atom):
            pieces.append(f.name)
        elif isinstance(f, TrueConst):
            pieces.append("TRUE")
        elif isinstance(f, FalseConst):
            pieces.append("FALSE")
        elif type(f) in _UNARY:
            op = _UNARY[type(f)]
            inner = f.operand
            if isinstance(inner, (And, Or, Xor, Implies)):
                pieces.append(f"{op} (")
                stack += (")", (inner, 0))
            else:
                pieces.append(op if isinstance(f, Not) else f"{op} ")
                stack.append((inner, 5))
        else:
            level = _PRECEDENCE[type(f)]
            # Left child of a left-associative chain keeps the same level
            # bare; the right child needs parens at equal level.
            # Implication associates right.
            if isinstance(f, Implies):
                left_level, right_level = level + 1, level
            else:
                left_level, right_level = level, level + 1
            wrap = level < parent_level
            if wrap:
                pieces.append("(")
                stack.append(")")
            stack += ((f.right, right_level), f" {_BINARY[type(f)]} ", (f.left, left_level))
    return "".join(pieces)


class LtlSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def parse_ltl(text: str) -> Formula:
    """Parse a formula with precedence unary > & > | > xor > -> and a
    right-associative implication."""
    return _LtlParser(text).parse()


class _LtlParser:
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

    def parse(self) -> Formula:
        f = self.parse_implies()
        if self.peek():
            self.error(f"unexpected token {self.peek()!r}")
        return f

    def parse_implies(self) -> Formula:
        left = self.parse_xor()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.parse_implies())
        return left

    def parse_xor(self) -> Formula:
        out = self.parse_or()
        while self.peek() == "xor":
            self.take()
            out = Xor(out, self.parse_or())
        return out

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek() == "|":
            self.take()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.parse_unary())
        if tok in ("G", "F", "X"):
            self.take()
            cls = {"G": Always, "F": Eventually, "X": Next}[tok]
            return cls(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Formula:
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


class Primitive(Enum):
    SEQUENCE = "sequence"
    FORK = "fork"
    JOIN = "join"
    DECISION = "decision"
    MERGE = "merge"


class GeneratedProperty(Record):
    __slots__ = ("formula", "origin", "primitive")

    def __init__(self, formula: Formula, origin: str, primitive: Primitive) -> None:
        setfield(self, "formula", formula)
        setfield(self, "origin", origin)  # node id that induced the property
        setfield(self, "primitive", primitive)


class GenerationError(Exception):
    pass


def generate_properties(
    model: ActivityModel, join_mode: str = "always"
) -> list[GeneratedProperty]:
    """Compile a valid acyclic model into its ordered property list.

    One property is emitted per direct edge between non-structural nodes
    (sequence) and one per structural node (its template). Structural nodes
    are transparent: template endpoints resolve through chained structural
    nodes to the nearest non-structural ones. Emission order follows a
    depth-first walk from the initial node along declaration-ordered edges,
    so identical input text always yields the identical property list. The
    walk and the endpoint resolution both run from explicit stacks over the
    model's edge index, so no model is too deep for them.

    join_mode selects the join template: "always" keeps the whole antecedent
    conjunction under G, which is unsatisfiable under pulse semantics and
    renders such properties vacuously true; "simultaneous" moves G outward,
    G ((A1 & ... & An) -> F B), demanding the inputs pulse together.
    """
    if join_mode not in ("always", "simultaneous"):
        raise ValueError(f"unknown join mode {join_mode!r}")
    problems = validate(model)
    if problems:
        raise GenerationError(
            "model is not well formed: " + "; ".join(str(p) for p in problems)
        )
    if not is_acyclic(model):
        raise GenerationError("loops unsupported in high-level models")
    bad = sorted(n.id for n in model.nodes if n.id in RESERVED_ATOMS)
    if bad:
        raise GenerationError(
            "node ids collide with reserved formula tokens: " + ", ".join(bad)
        )

    def resolve(node_id: str, forward: bool) -> list[str]:
        """The nearest non-structural nodes past a structural node, along its
        edges or against them, in the order a depth-first walk over
        declaration-ordered edges first meets them."""
        step = model.outgoing if forward else model.incoming
        out: list[str] = []
        seen = {node_id}
        stack = [iter(step(node_id))]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                continue
            other = e.target if forward else e.source
            if other in seen:
                continue
            seen.add(other)
            if model.node(other).structural:
                stack.append(iter(step(other)))
            else:
                out.append(other)
        return out

    def structural_property(node_id: str) -> GeneratedProperty:
        kind = model.node(node_id).kind
        sources = [Atom(s) for s in resolve(node_id, forward=False)]
        follow = [Eventually(Atom(b)) for b in resolve(node_id, forward=True)]
        trigger = disjoin(sources) if kind is NodeKind.MERGE else conjoin(sources)
        outcome = xor_chain(follow) if kind is NodeKind.DECISION else conjoin(follow)
        if kind is NodeKind.JOIN and join_mode == "always":
            f: Formula = Implies(Always(trigger), outcome)
        else:
            f = Always(Implies(trigger, outcome))
        return GeneratedProperty(f, node_id, Primitive(kind.value))

    properties: list[GeneratedProperty] = []
    initial = next(n for n in model.nodes if n.kind is NodeKind.INITIAL)
    visited = {initial.id}
    stack = [iter(model.outgoing(initial.id))]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        first_visit = e.target not in visited
        if model.node(e.target).structural:
            if first_visit:
                properties.append(structural_property(e.target))
        elif not model.node(e.source).structural:
            properties.append(
                GeneratedProperty(
                    Always(Implies(Atom(e.source), Eventually(Atom(e.target)))),
                    e.source,
                    Primitive.SEQUENCE,
                )
            )
        if first_visit:
            visited.add(e.target)
            stack.append(iter(model.outgoing(e.target)))
    return properties


def render_ltlspec(properties) -> str:
    """One LTLSPEC line per property, LF separated; empty input renders as
    the empty string."""
    lines = []
    for prop in properties:
        formula = prop.formula if isinstance(prop, GeneratedProperty) else prop
        lines.append(f"LTLSPEC {render_formula(formula)}\n")
    return "".join(lines)
