"""Parsers for the textual model DSL and the JSON interchange format.

DSL grammar (line oriented, // comments):

    model <Name> { (node-decl | edge-decl)* }
    node-decl := (initial|final|action|fork|join|decision|merge) <Id> ;
    edge-decl := <Id> -> <Id> ('[' guard-text ']')? ;

Semicolons separate declarations; the one before the closing brace may be
omitted.
"""

from __future__ import annotations

import json
import re

from .model import (
    DUPLICATE_EDGE, ActivityModel, Edge, ID_PATTERN, Node, NodeKind, repeated_edges, validate,
)
from .record import OperationalError, Record, setfield

NODE_KEYWORDS = {k.value for k in NodeKind}


class SourceSpan(Record):
    __slots__ = ("file", "line", "column")

    def __init__(self, file: str, line: int, column: int) -> None:
        setfield(self, "file", file)
        setfield(self, "line", line)
        setfield(self, "column", column)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Record):
    """One parse or validation failure, located by source span (DSL input)
    or by file and JSON pointer (JSON input, or a file that is not text)."""

    __slots__ = ("message", "span", "pointer", "file")

    def __init__(
        self,
        message: str,
        span: SourceSpan | None = None,
        pointer: str | None = None,
        file: str | None = None,
    ) -> None:
        setfield(self, "message", message)
        setfield(self, "span", span)
        setfield(self, "pointer", pointer)
        setfield(self, "file", file)

    def __str__(self) -> str:
        where = str(self.span) if self.span else (self.pointer or "?")
        if self.file:
            where = f"{self.file}: {where}"
        return f"{where}: {self.message}"


class IngestError(OperationalError):
    """Raised by the convenience loaders when a parse produced errors."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


class _Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        setfield(self, "kind", kind)  # 'word', 'arrow', 'punct', 'guard', 'eof'
        setfield(self, "text", text)
        setfield(self, "line", line)
        setfield(self, "column", column)


#: DSL tokens, one named group per kind. A comment runs to the end of
#: its line, and so does a guard label with no `]` before the line ends.
#: `re` compiles the pattern on first use.
_DSL_TOKENS = (
    r"(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<newline>\n)|(?P<arrow>->)"
    r"|(?P<punct>[{};])|\[(?P<guard>[^\]\n]*)\]|(?P<unterminated>\[[^\n]*)"
    r"|(?P<word>\w+)|(?P<bad>.)"
)


def _tokenize(text: str, origin: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, line_start = 1, 0
    for match in re.finditer(_DSL_TOKENS, text):
        kind = match.lastgroup
        if kind == "newline":
            line, line_start = line + 1, match.end()
            continue
        if kind in ("blank", "comment"):
            continue
        column = match.start() - line_start + 1
        if kind == "guard":
            tokens.append(_Token(kind, match[kind].strip(), line, column))
        elif kind == "unterminated":
            errors.append(ParseError("unterminated guard label", SourceSpan(origin, line, column)))
        elif kind == "bad":
            message = f"unexpected character {match[0]!r}"
            errors.append(ParseError(message, SourceSpan(origin, line, column)))
        else:
            tokens.append(_Token(kind, match[0], line, column))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens, errors


class _DslParser:
    def __init__(self, tokens: list[_Token], origin: str):
        self.tokens = tokens
        self.origin = origin
        self.pos = 0
        self.errors: list[ParseError] = []
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self.edge_spans: list[SourceSpan] = []
        self.node_spans: dict[str, SourceSpan] = {}
        self.model_name = ""

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def span(self, tok: _Token) -> SourceSpan:
        return SourceSpan(self.origin, tok.line, tok.column)

    def fail(self, tok: _Token, message: str) -> None:
        self.errors.append(ParseError(message, self.span(tok)))

    def expect_word(self, what: str) -> _Token | None:
        tok = self.take()
        if tok.kind != "word":
            self.fail(tok, f"expected {what}, got {tok.text or 'end of input'!r}")
            return None
        return tok

    def expect_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.take()
            return True
        self.fail(tok, f"expected {text!r}, got {tok.text or 'end of input'!r}")
        return False

    def parse(self) -> None:
        tok = self.take()
        if tok.kind != "word" or tok.text != "model":
            self.fail(tok, "expected 'model'")
            return
        name = self.expect_word("model name")
        if name is None:
            return
        self.model_name = name.text
        if not self.expect_punct("{"):
            return
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(tok, "expected '}' before end of input")
                return
            if tok.kind == "punct" and tok.text == "}":
                self.take()
                break
            if tok.kind == "punct" and tok.text == ";":
                self.take()  # stray separator
                continue
            if tok.kind == "word" and tok.text in NODE_KEYWORDS:
                self.parse_node_decl()
            elif tok.kind == "word":
                self.parse_edge_decl()
            else:
                self.fail(tok, f"expected a declaration, got {tok.text!r}")
                self.take()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(tok, f"unexpected input after '}}': {tok.text!r}")

    def end_decl(self) -> None:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ";":
            self.take()
        elif not (tok.kind == "punct" and tok.text == "}"):
            self.fail(tok, f"expected ';', got {tok.text or 'end of input'!r}")

    def parse_node_decl(self) -> None:
        kind_tok = self.take()
        kind = NodeKind(kind_tok.text)
        id_tok = self.expect_word("node id")
        if id_tok is None:
            return
        if not ID_PATTERN.match(id_tok.text):
            self.fail(id_tok, f"id {id_tok.text!r} is not a legal identifier")
            # Declared all the same, so its edges report nothing more.
            self.node_spans[id_tok.text] = self.span(id_tok)
        elif id_tok.text in self.node_spans:
            self.fail(id_tok, f"duplicate node id {id_tok.text!r}")
        else:
            self.node_spans[id_tok.text] = self.span(id_tok)
            self.nodes.append(Node(id_tok.text, kind))
        self.end_decl()

    def parse_edge_decl(self) -> None:
        src_tok = self.take()
        tok = self.peek()
        if not (tok.kind == "arrow"):
            self.fail(tok, f"expected '->', got {tok.text or 'end of input'!r}")
            self.end_decl()
            return
        self.take()
        dst_tok = self.expect_word("target node id")
        if dst_tok is None:
            return
        guard: str | None = None
        if self.peek().kind == "guard":
            guard = self.take().text
        for tok_ in (src_tok, dst_tok):
            if tok_.text not in self.node_spans:
                self.fail(tok_, f"unknown node reference {tok_.text!r}")
        self.edges.append(Edge(src_tok.text, dst_tok.text, guard))
        self.edge_spans.append(self.span(src_tok))
        self.end_decl()


def parse_dsl(text: str, origin: str = "<string>") -> ActivityModel | list[ParseError]:
    """Parse DSL text into a validated model, or return every error found.

    Both syntax errors and well-formedness violations are reported, each
    carrying a source span.
    """
    tokens, errors = _tokenize(text, origin)
    parser = _DslParser(tokens, origin)
    parser.parse()
    errors.extend(parser.errors)
    if errors:
        return errors
    model = ActivityModel(parser.model_name, parser.nodes, parser.edges)
    problems = validate(model)
    if problems:
        whole = SourceSpan(origin, 1, 1)
        located = _locate(problems, parser.edges, parser.node_spans, parser.edge_spans, whole)
        return [ParseError(str(v), span) for v, span in located]
    return model


def _locate(problems, edges: list[Edge], node_at: dict, edge_at: list, whole) -> list[tuple]:
    """Each violation paired with where it is: its node's location, else
    the location of the first edge between its two nodes (a duplicate
    edge at the edge that repeats it), else `whole`, the model's.
    node_at maps node ids and edge_at lists edges' locations in order."""
    first_at: dict[tuple[str, str], object] = {}
    for e, at in zip(edges, edge_at):
        first_at.setdefault((e.source, e.target), at)
    repeats = iter([edge_at[i] for i in repeated_edges(edges)])
    return [
        (v, next(repeats) if v.message == DUPLICATE_EDGE
         else node_at.get(v.node_id) or first_at.get(v.edge, whole))
        for v in problems
    ]


def parse_json(text: str, origin: str = "<string>") -> ActivityModel | list[ParseError]:
    """Parse the JSON interchange format.

    Schema: {"name", "nodes": [{"id", "kind", "name"?}],
    "edges": [{"source", "target", "guard"?}]}. Unknown fields are
    rejected; errors carry `origin` and JSON-pointer locations.
    """
    errors: list[ParseError] = []

    def located(message: str, pointer: str) -> ParseError:
        return ParseError(message, pointer=pointer, file=origin)

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [located(f"invalid JSON: {exc.msg}", f"line {exc.lineno}")]
    except RecursionError:
        return [located("invalid JSON: nested too deeply", "/")]
    if not isinstance(doc, dict):
        return [located("top-level value must be an object", "/")]

    def check_fields(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
        for key in obj:
            if key not in allowed:
                errors.append(located(f"unknown field {key!r}", f"{where}/{key}"))
        for key in required:
            if key not in obj:
                errors.append(located(f"missing field {key!r}", where or "/"))

    check_fields(doc, {"name", "nodes", "edges"}, {"name", "nodes", "edges"}, "")
    name = doc.get("name")
    if "name" in doc and not isinstance(name, str):
        errors.append(located("'name' must be a string", "/name"))

    nodes: list[Node] = []
    raw_nodes = doc.get("nodes", [])
    if not isinstance(raw_nodes, list):
        errors.append(located("'nodes' must be an array", "/nodes"))
        raw_nodes = []
    seen_ids: set[str] = set()
    for i, item in enumerate(raw_nodes):
        where = f"/nodes/{i}"
        if not isinstance(item, dict):
            errors.append(located("node must be an object", where))
            continue
        check_fields(item, {"id", "kind", "name"}, {"id", "kind"}, where)
        node_id = item.get("id")
        kind_text = item.get("kind")
        if not isinstance(node_id, str) or not ID_PATTERN.match(node_id):
            errors.append(located(f"illegal node id {node_id!r}", f"{where}/id"))
            if isinstance(node_id, str):
                seen_ids.add(node_id)  # declared, as in the DSL
            continue
        if node_id in seen_ids:
            errors.append(located(f"duplicate node id {node_id!r}", f"{where}/id"))
            continue
        seen_ids.add(node_id)
        try:
            kind = NodeKind(kind_text)
        except ValueError:
            errors.append(located(f"unknown node kind {kind_text!r}", f"{where}/kind"))
            continue
        display = item.get("name", "")
        if "name" in item and not isinstance(display, str):
            errors.append(located("'name' must be a string", f"{where}/name"))
            display = ""
        nodes.append(Node(node_id, kind, display))

    edges: list[Edge] = []
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        errors.append(located("'edges' must be an array", "/edges"))
        raw_edges = []
    for i, item in enumerate(raw_edges):
        where = f"/edges/{i}"
        if not isinstance(item, dict):
            errors.append(located("edge must be an object", where))
            continue
        check_fields(item, {"source", "target", "guard"}, {"source", "target"}, where)
        src, dst = item.get("source"), item.get("target")
        ok = True
        for key, val in (("source", src), ("target", dst)):
            if not isinstance(val, str):
                errors.append(located(f"'{key}' must be a string", f"{where}/{key}"))
                ok = False
            elif val not in seen_ids:
                errors.append(located(f"unknown node reference {val!r}", f"{where}/{key}"))
                ok = False
        guard = item.get("guard")
        if "guard" in item and not isinstance(guard, str):
            errors.append(located("'guard' must be a string", f"{where}/guard"))
            ok = False
        if ok:
            edges.append(Edge(src, dst, guard))

    if errors:
        return errors
    model = ActivityModel(name or "", nodes, edges)
    problems = validate(model)
    if problems:
        node_at = {n.id: f"/nodes/{i}" for i, n in enumerate(nodes)}
        edge_at = [f"/edges/{i}" for i in range(len(edges))]
        return [located(str(v), at) for v, at in _locate(problems, edges, node_at, edge_at, "/")]
    return model


def print_dsl(model: ActivityModel) -> str:
    """Render a well-formed model as canonical DSL text; reparsing yields an
    equal model. Raises ValueError for a model name that is not one word
    token, and for a guard with `]`, a line break, or blanks at either end
    (the lexer strips them): the DSL cannot write those."""
    if not re.fullmatch(r"\w+", model.name):
        raise ValueError(f"the DSL cannot write model name {model.name!r}: it must be one word")
    for e in model.edges:
        if e.guard is not None and (re.search(r"[\]\r\n]", e.guard) or e.guard != e.guard.strip()):
            raise ValueError(
                f"the DSL cannot write guard {e.guard!r} on {e.source} -> {e.target}"
            )
    lines = [f"model {model.name} {{"]
    for n in model.nodes:
        lines.append(f"    {n.kind.value} {n.id};")
    if model.edges:
        lines.append("")
    for e in model.edges:
        guard = f" [{e.guard}]" if e.guard is not None else ""
        lines.append(f"    {e.source} -> {e.target}{guard};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_model(path: str) -> ActivityModel:
    """Read a model from a .behavior (DSL) or .json file, skipping a UTF-8
    byte-order mark; raise IngestError with located messages when the
    content is not UTF-8 text or does not parse or validate."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # Decoded as "utf-8" and the mark dropped after, rather than as
            # "utf-8-sig", whose errors count offsets from past the mark.
            text = handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.start is its offset.
        bad = exc.object[exc.start]
        error = ParseError(
            f"not UTF-8 text: byte 0x{bad:02x} ({exc.reason})",
            pointer=f"offset {exc.start}",
            file=path,
        )
        raise IngestError([error]) from None
    if path.endswith(".json"):
        result = parse_json(text, origin=path)
    else:
        result = parse_dsl(text, origin=path)
    if isinstance(result, list):
        raise IngestError(result)
    return result
