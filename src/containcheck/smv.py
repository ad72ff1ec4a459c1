"""SMV description generation: one symbolic variable per node, init/next
assignment blocks encoding pulse token semantics, and canonical text
rendering.

Templates by node kind (i1..in are the incoming triggers):

    initial a     init(a) := TRUE;  next(a) := case a : FALSE; TRUE : a; esac;
    other a       init(a) := FALSE; next(a) := case i1 & ... & in : TRUE;
                  a : FALSE; TRUE : a; esac;
    decision a    init(a) := undetermined; next(a) := case
                  i1 & ... & in : {guard_a_t1, ..., guard_a_tn};
                  a != undetermined : undetermined; TRUE : a; esac;
    merge a       as "other" but with incoming triggers joined by |.

A trigger is the predecessor's variable, or an equality test
(d = guard_d_a) when the predecessor is a decision d. The trailing
TRUE : a arm totalizes every case; the earlier arms make it reachable only
when the variable is idle, so behavior matches the per-kind templates.
"""

from __future__ import annotations

from . import ltl
from .model import ActivityModel, NodeKind, synthetic_guard, validate
from .record import OperationalError, Record, setfield

SMV_RESERVED = frozenset(
    {
        "MODULE", "VAR", "ASSIGN", "LTLSPEC", "init", "next", "case", "esac",
        "boolean", "undetermined", "TRUE", "FALSE",
    }
)


# --- condition and value expressions -----------------------------------

class CondExpr(Record):
    __slots__ = ()


class VarTrue(CondExpr):
    """A boolean variable used as its own trigger."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        setfield(self, "name", name)


class GuardEq(CondExpr):
    __slots__ = ("var", "value")

    def __init__(self, var: str, value: str) -> None:
        setfield(self, "var", var)
        setfield(self, "value", value)


class NotUndetermined(CondExpr):
    __slots__ = ("var",)

    def __init__(self, var: str) -> None:
        setfield(self, "var", var)


class ConstTrue(CondExpr):
    __slots__ = ()


class _Junction(CondExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[CondExpr, ...]) -> None:
        setfield(self, "parts", parts)


class AndCond(_Junction):
    __slots__ = ()


class OrCond(_Junction):
    __slots__ = ()


class ValueExpr(Record):
    __slots__ = ()


class Literal(ValueExpr):
    """TRUE, FALSE, undetermined, or a guard value."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        setfield(self, "text", text)


class Keep(ValueExpr):
    """The variable's current value (the totalizing default)."""

    __slots__ = ("var",)

    def __init__(self, var: str) -> None:
        setfield(self, "var", var)


class Choice(ValueExpr):
    """Nondeterministic pick from a value set."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[str, ...]) -> None:
        setfield(self, "values", values)


def render_cond(cond: CondExpr) -> str:
    if isinstance(cond, VarTrue):
        return cond.name
    if isinstance(cond, GuardEq):
        return f"({cond.var} = {cond.value})"
    if isinstance(cond, NotUndetermined):
        return f"{cond.var} != undetermined"
    if isinstance(cond, ConstTrue):
        return "TRUE"
    if isinstance(cond, AndCond):
        return " & ".join(render_cond(p) for p in cond.parts)
    if isinstance(cond, OrCond):
        return " | ".join(render_cond(p) for p in cond.parts)
    raise TypeError(f"unrenderable condition {cond!r}")


def render_value(value: ValueExpr) -> str:
    if isinstance(value, Literal):
        return value.text
    if isinstance(value, Keep):
        return value.var
    if isinstance(value, Choice):
        return "{" + ", ".join(value.values) + "}"
    raise TypeError(f"unrenderable value {value!r}")


# --- module structure ---------------------------------------------------

class SmvVarDecl(Record):
    __slots__ = ("name", "scalar_values")

    def __init__(self, name: str, scalar_values: tuple[str, ...] | None = None) -> None:
        setfield(self, "name", name)
        setfield(self, "scalar_values", scalar_values)  # None means boolean

    @property
    def is_boolean(self) -> bool:
        return self.scalar_values is None


class SmvAssign(Record):
    __slots__ = ("var", "init", "cases")

    def __init__(
        self, var: str, init: ValueExpr, cases: tuple[tuple[CondExpr, ValueExpr], ...]
    ) -> None:
        setfield(self, "var", var)
        setfield(self, "init", init)
        setfield(self, "cases", cases)


class SmvModule(Record):
    __slots__ = ("vars", "assigns", "_boolean_vars")

    def __init__(self, vars: tuple[SmvVarDecl, ...], assigns: tuple[SmvAssign, ...]) -> None:
        setfield(self, "vars", vars)
        setfield(self, "assigns", assigns)
        # The atoms: computed once, for check_atoms and the transition system.
        setfield(self, "_boolean_vars", frozenset(d.name for d in vars if d.is_boolean))


class SmvGenerationError(OperationalError):
    pass


class AtomMismatchError(OperationalError):
    """A property names atoms that are not boolean variables of the model."""

    def __init__(self, missing: list[str]):
        super().__init__("atoms missing from the model: " + ", ".join(missing))
        self.missing = missing


def generate_smv(model: ActivityModel) -> SmvModule:
    """Compile a valid model (cycles allowed) into its SMV module."""
    problems = validate(model)
    if problems:
        raise SmvGenerationError(
            "model is not well formed: " + "; ".join(str(p) for p in problems)
        )
    bad = sorted(n.id for n in model.nodes if n.id in SMV_RESERVED)
    if bad:
        raise SmvGenerationError(
            "node ids collide with reserved SMV words: " + ", ".join(bad)
        )

    kinds = {n.id: n.kind for n in model.nodes}

    def guard_values(decision_id: str) -> tuple[str, ...]:
        return tuple(
            synthetic_guard(decision_id, e.target) for e in model.outgoing(decision_id)
        )

    def trigger(edge) -> CondExpr:
        if kinds[edge.source] is NodeKind.DECISION:
            return GuardEq(edge.source, synthetic_guard(edge.source, edge.target))
        return VarTrue(edge.source)

    decls: list[SmvVarDecl] = []
    assigns: list[SmvAssign] = []
    for node in model.nodes:
        incoming = model.incoming(node.id)
        triggers = [trigger(e) for e in incoming]
        if node.kind is NodeKind.INITIAL:
            decls.append(SmvVarDecl(node.id))
            assigns.append(
                SmvAssign(
                    node.id,
                    Literal("TRUE"),
                    (
                        (VarTrue(node.id), Literal("FALSE")),
                        (ConstTrue(), Keep(node.id)),
                    ),
                )
            )
        elif node.kind is NodeKind.DECISION:
            values = ("undetermined",) + guard_values(node.id)
            decls.append(SmvVarDecl(node.id, values))
            fire = triggers[0] if len(triggers) == 1 else AndCond(tuple(triggers))
            assigns.append(
                SmvAssign(
                    node.id,
                    Literal("undetermined"),
                    (
                        (fire, Choice(guard_values(node.id))),
                        (NotUndetermined(node.id), Literal("undetermined")),
                        (ConstTrue(), Keep(node.id)),
                    ),
                )
            )
        else:
            decls.append(SmvVarDecl(node.id))
            if node.kind is NodeKind.MERGE:
                fire = triggers[0] if len(triggers) == 1 else OrCond(tuple(triggers))
            else:
                fire = triggers[0] if len(triggers) == 1 else AndCond(tuple(triggers))
            assigns.append(
                SmvAssign(
                    node.id,
                    Literal("FALSE"),
                    (
                        (fire, Literal("TRUE")),
                        (VarTrue(node.id), Literal("FALSE")),
                        (ConstTrue(), Keep(node.id)),
                    ),
                )
            )
    return SmvModule(tuple(decls), tuple(assigns))


def render_smv(module: SmvModule) -> str:
    """Byte-deterministic rendering of the module alone: MODULE main, VAR,
    ASSIGN. LF endings throughout; bundle_check_file appends the LTLSPEC
    lines."""
    lines = ["MODULE main", "VAR"]
    for decl in module.vars:
        if decl.is_boolean:
            lines.append(f"    {decl.name} : boolean;")
        else:
            lines.append(f"    {decl.name} : {{{', '.join(decl.scalar_values)}}};")
    lines.append("ASSIGN")
    for assign in module.assigns:
        lines.append(f"init({assign.var}) := {render_value(assign.init)};")
        lines.append(f"next({assign.var}) := case")
        for cond, value in assign.cases:
            lines.append(f"    {render_cond(cond)} : {render_value(value)};")
        lines.append("esac;")
    return "\n".join(lines) + "\n"


def check_atoms(module: SmvModule, high_properties) -> None:
    """Raise AtomMismatchError if a property atom names no boolean variable.
    The one atom rule: the CLI and every checker entry point call it, and
    the transition system's atom readers refuse names outside the same
    `_boolean_vars` set with the same error."""
    booleans = module._boolean_vars
    missing: list[str] = []
    for prop in high_properties:
        formula = prop.formula if isinstance(prop, ltl.GeneratedProperty) else prop
        for atom in sorted(ltl.atoms(formula)):
            if atom not in booleans and atom not in missing:
                missing.append(atom)
    if missing:
        raise AtomMismatchError(missing)


def bundle_check_file(module: SmvModule, high_properties) -> str:
    """The NuSMV check file: the low-level model's rendered module followed
    by the high-level model's LTLSPEC lines (ltl.render_ltlspec); raises
    AtomMismatchError as check_atoms does."""
    check_atoms(module, high_properties)
    return render_smv(module) + ltl.render_ltlspec(high_properties)
