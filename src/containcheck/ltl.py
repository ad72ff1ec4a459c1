"""Temporal formulas over node-name atoms: AST, parser, renderer, and the
compilation of an acyclic behavior model into its property set.

One operator table gives each operator's spelling and binding strength;
the renderer prints by it and the parser reads by it. Both walk explicit
stacks (the parser is an iterative operator-precedence parser), so
formulas of any depth parse and render.

Five templates drive generation, one per control-flow construct:

    sequence   G (A1 -> F A2)
    fork       G (A -> F B1 & F B2 & ... & F Bn)
    join       (G (A1 & A2 & ... & An) -> F B)
    decision   G (A -> F B1 xor F B2 xor ... xor F Bn)
    merge      G (A1 | A2 | ... | An -> F B)
"""

from __future__ import annotations

import functools
import re
from enum import Enum

from .model import ActivityModel, NodeKind, is_acyclic, validate
from .record import OperationalError, Record, setfield


class Formula(Record):
    """Base class for formula nodes; all subclasses are frozen and hashable.

    Copying and pickling go through the flat preorder() listing, so
    formulas of any depth copy and pickle.
    """

    __slots__ = ()

    def __reduce__(self):
        return _from_preorder, (tuple(preorder(self)),)


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

#: Binding strength, tightest first: unary, &, |, xor, ->. Implication
#: associates right, the other binary operators left.
_PRECEDENCE = {Not: 5, Always: 5, Eventually: 5, Next: 5, And: 4, Or: 3, Xor: 2, Implies: 1}

#: Reserved words that cannot double as atoms in rendered formulas.
RESERVED_ATOMS = frozenset({"G", "F", "X", "U", "R", "xor", "TRUE", "FALSE"})


def operands(f: Formula) -> tuple[Formula, ...]:
    """The formula's direct operands, left to right."""
    if f.__class__ in _UNARY:
        return (f.operand,)
    if f.__class__ in _BINARY:
        return (f.left, f.right)
    return ()


def preorder(formula: Formula) -> list:
    """The formula in prefix order: each atom as its name, every other
    node as its class."""
    items: list = []
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            items.append(f.name)
        else:
            items.append(f.__class__)
            stack += reversed(operands(f))
    return items


def _from_preorder(items) -> Formula:
    """The formula that preorder() listed as `items`."""
    stack: list[Formula] = []
    for item in reversed(items):
        if isinstance(item, str):
            stack.append(Atom(item))
        elif item in _UNARY:
            stack.append(item(stack.pop()))
        elif item in _BINARY:
            stack.append(item(stack.pop(), stack.pop()))
        else:
            stack.append(item())
    return stack[0]


def atoms(formula: Formula) -> set[str]:
    """All atom names occurring in the formula."""
    return {item for item in preorder(formula) if isinstance(item, str)}


def conjoin(parts: list[Formula]) -> Formula:
    return functools.reduce(And, parts)


def disjoin(parts: list[Formula]) -> Formula:
    return functools.reduce(Or, parts)


def xor_chain(parts: list[Formula]) -> Formula:
    return functools.reduce(Xor, parts)


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
            # A binary operand is parenthesized, since unary binds tighter,
            # and then spaced off even from !.
            op = _UNARY[type(f)]
            bare = isinstance(f, Not) and type(f.operand) not in _BINARY
            pieces.append(op if bare else f"{op} ")
            stack.append((f.operand, _PRECEDENCE[type(f)]))
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
    """Parse a formula by the renderer's operator table: unary operators
    bind tightest, then &, |, xor and ->; implication associates right,
    the others left.

    An operator-precedence ("shunting-yard") parser, after Dijkstra
    (1961): operands and pending operators wait on two explicit stacks, so
    no nesting is too deep for it.
    """
    tokens = _lex_ltl(text)
    prefix = {op: cls for cls, op in _UNARY.items()}
    infix = {op: cls for cls, op in _BINARY.items()}
    operands: list[Formula] = []
    # Operators waiting for their operands, innermost last; None marks an
    # open parenthesis.
    pending: list[type[Formula] | None] = []

    def reduce(level: int) -> None:
        """Apply the pending operators, up to the innermost open
        parenthesis, that bind tighter than `level`, or as tightly and
        associate left."""
        while pending and pending[-1] is not None:
            cls = pending[-1]
            top = _PRECEDENCE[cls]
            if top < level or (top == level and cls is Implies):
                return
            pending.pop()
            if cls in _UNARY:
                operands.append(cls(operands.pop()))
            else:
                right = operands.pop()
                operands.append(cls(operands.pop(), right))

    expect_operand = True
    # The last token, the end of the input, either ends the parse or fails it.
    for tok, line, column in tokens:
        if expect_operand:
            if tok in prefix or tok == "(":
                pending.append(prefix.get(tok))  # None for "("
                continue
            if tok == "TRUE":
                operands.append(TrueConst())
            elif tok == "FALSE":
                operands.append(FalseConst())
            elif tok and (tok[0].isalpha() or tok[0] == "_") and tok not in RESERVED_ATOMS:
                operands.append(Atom(tok))
            else:
                got = tok or "end of input"
                raise LtlSyntaxError(f"expected a formula, got {got!r}", line, column)
            expect_operand = False
        elif tok in infix:
            cls = infix[tok]
            reduce(_PRECEDENCE[cls])
            pending.append(cls)
            expect_operand = True
        else:
            reduce(0)
            if tok == ")" and pending:
                pending.pop()
            elif pending:
                raise LtlSyntaxError("expected ')'", line, column)
            elif tok:
                raise LtlSyntaxError(f"unexpected token {tok!r}", line, column)
            else:
                return operands[0]


#: LTL tokens: blanks, line breaks, operators, parentheses and words; any
#: other character is an error. `re` compiles it on first use.
_LTL_TOKENS = r"(?P<blank>[ \t\r]+)|(?P<newline>\n)|(?P<token>->|[()!&|]|\w+)|(?P<bad>.)"


def _lex_ltl(text: str) -> list[tuple[str, int, int]]:
    """(token, line, column) for each token, then ("", line, column) at
    the end of the input."""
    tokens = []
    line, line_start = 1, 0
    for match in re.finditer(_LTL_TOKENS, text):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind != "blank":
            column = match.start() - line_start + 1
            if kind == "bad":
                raise LtlSyntaxError(f"unexpected character {match[0]!r}", line, column)
            tokens.append((match[0], line, column))
    tokens.append(("", line, len(text) - line_start + 1))
    return tokens


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


class GenerationError(OperationalError):
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
