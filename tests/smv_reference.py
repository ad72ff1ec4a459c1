"""Test references for the SMV layer: a reader for the generator's own
output, so tests can pin `render_smv` and `bundle_check_file` as
lossless, and an evaluator of case-arm conditions and of successors over
a state's printed values, so pulse-invariant and successor tests do not
check the transition system against itself.

None of them is a general SMV front end; the runtime only generates and
renders SMV.
"""

from __future__ import annotations

from itertools import product

from containcheck.smv import (
    AndCond,
    Choice,
    CondExpr,
    ConstTrue,
    GuardEq,
    Keep,
    Literal,
    NotUndetermined,
    OrCond,
    SmvAssign,
    SmvModule,
    SmvVarDecl,
    ValueExpr,
    VarTrue,
)


class SmvParseError(Exception):
    pass


def var_decl(module: SmvModule, name: str) -> SmvVarDecl:
    for decl in module.vars:
        if decl.name == name:
            return decl
    raise ValueError(f"unknown variable {name!r}")


def eval_cond(cond: CondExpr, items: dict[str, str]) -> bool:
    """Truth of a case-arm condition in a state, given as the dict of its
    `state_items` (booleans print as TRUE and FALSE)."""
    if isinstance(cond, VarTrue):
        return items[cond.name] == "TRUE"
    if isinstance(cond, GuardEq):
        return items[cond.var] == cond.value
    if isinstance(cond, NotUndetermined):
        return items[cond.var] != "undetermined"
    if isinstance(cond, ConstTrue):
        return True
    if isinstance(cond, AndCond):
        return all(eval_cond(p, items) for p in cond.parts)
    if isinstance(cond, OrCond):
        return any(eval_cond(p, items) for p in cond.parts)
    raise TypeError(f"unevaluable condition {cond!r}")


def reference_successors(module: SmvModule, items: dict[str, str]) -> list[dict[str, str]]:
    """The successors of a state, given as the dict of its `state_items`,
    as such dicts: every variable takes the value of its first case arm
    that holds, and choices expand in itertools.product order over the
    variables in declaration order. Literals are not checked against
    their variable's values."""
    per_var = []
    for decl in module.vars:
        assign = next(a for a in module.assigns if a.var == decl.name)
        for cond, value in assign.cases:
            if eval_cond(cond, items):
                break
        else:
            raise ValueError(f"no case arm matched for {decl.name!r}")
        if isinstance(value, Literal):
            per_var.append((value.text,))
        elif isinstance(value, Keep):
            per_var.append((items[value.var],))
        else:
            per_var.append(value.values)
    names = [decl.name for decl in module.vars]
    return [dict(zip(names, values)) for values in product(*per_var)]


def parse_smv(text: str) -> tuple[SmvModule, tuple[str, ...]]:
    """Read text that `render_smv` or `bundle_check_file` produced back into
    its module and the LTLSPEC lines that follow it."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    pos = 0

    def current() -> str:
        return lines[pos].strip() if pos < len(lines) else ""

    if current() != "MODULE main":
        raise SmvParseError(f"expected 'MODULE main', got {current()!r}")
    pos += 1
    if current() != "VAR":
        raise SmvParseError(f"expected 'VAR', got {current()!r}")
    pos += 1

    var_decls: list[SmvVarDecl] = []
    while pos < len(lines) and current() != "ASSIGN":
        line = current()
        pos += 1
        if not line:
            continue
        if not line.endswith(";") or " : " not in line:
            raise SmvParseError(f"bad variable declaration {line!r}")
        name, _, sort = line[:-1].partition(" : ")
        if sort == "boolean":
            var_decls.append(SmvVarDecl(name.strip()))
        elif sort.startswith("{") and sort.endswith("}"):
            values = tuple(v.strip() for v in sort[1:-1].split(","))
            var_decls.append(SmvVarDecl(name.strip(), values))
        else:
            raise SmvParseError(f"bad variable sort {sort!r}")
    if current() != "ASSIGN":
        raise SmvParseError("missing ASSIGN section")
    pos += 1

    assigns: list[SmvAssign] = []
    specs: list[str] = []
    while pos < len(lines):
        line = current()
        if not line:
            pos += 1
            continue
        if line.startswith("LTLSPEC"):
            specs.append(line)
            pos += 1
            continue
        if not line.startswith("init("):
            raise SmvParseError(f"expected init(...), got {line!r}")
        var, _, init_text = line[len("init(") :].partition(") := ")
        init_value = _parse_value(init_text.rstrip(";"), var)
        pos += 1
        header = current()
        if header != f"next({var}) := case":
            raise SmvParseError(f"expected next({var}) case block, got {header!r}")
        pos += 1
        cases: list[tuple[CondExpr, ValueExpr]] = []
        while current() != "esac;":
            if pos >= len(lines):
                raise SmvParseError(f"unterminated case block for {var!r}")
            arm = current().rstrip(";")
            cond_text, _, value_text = arm.rpartition(" : ")
            cases.append((_parse_cond(cond_text.strip()), _parse_value(value_text.strip(), var)))
            pos += 1
        pos += 1
        assigns.append(SmvAssign(var, init_value, tuple(cases)))
    return SmvModule(tuple(var_decls), tuple(assigns)), tuple(specs)


def _parse_value(text: str, var: str) -> ValueExpr:
    if text.startswith("{") and text.endswith("}"):
        return Choice(tuple(v.strip() for v in text[1:-1].split(",")))
    if text == var:
        return Keep(var)
    return Literal(text)


def _parse_cond(text: str) -> CondExpr:
    if " | " in text:
        return OrCond(tuple(_parse_cond(p) for p in text.split(" | ")))
    if " & " in text:
        return AndCond(tuple(_parse_cond(p) for p in text.split(" & ")))
    if text.startswith("(") and text.endswith(")") and " = " in text:
        var, _, value = text[1:-1].partition(" = ")
        return GuardEq(var.strip(), value.strip())
    if text.endswith(" != undetermined"):
        return NotUndetermined(text[: -len(" != undetermined")].strip())
    if text == "TRUE":
        return ConstTrue()
    return VarTrue(text)
