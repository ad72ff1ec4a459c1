"""Containment checking for behavior models.

A high-level behavior model compiles into temporal properties; its
low-level counterpart compiles into an SMV description and an equivalent
in-memory transition system; the checker decides every property and
explains violations with lasso counterexamples.

The checking engine (`checker`, `automaton` and `semantics`) loads on
first use of one of its names, so commands that only read or compile
models never import it.
"""

from .ingest import IngestError, ParseError, SourceSpan, load_model, parse_dsl, parse_json, print_dsl
from .ltl import (
    GeneratedProperty,
    GenerationError,
    Primitive,
    generate_properties,
    parse_ltl,
    render_formula,
    render_ltlspec,
)
from .model import (
    ActivityModel,
    Edge,
    Node,
    NodeKind,
    Violation,
    is_acyclic,
    validate,
)
from .smv import AtomMismatchError, SmvModule, bundle_check_file, generate_smv, render_smv

__version__ = "0.1.0"

# Engine names, exported through __getattr__ (PEP 562), and their modules.
_LAZY = dict.fromkeys(
    ("Lasso", "Verdict", "check", "check_all", "evaluate_on_lasso", "oracle_check", "render_report"),
    "checker",
) | dict.fromkeys(
    ("StateCapExceeded", "TransitionSystem", "build_system", "reachable_states", "simulate"),
    "semantics",
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ActivityModel",
    "AtomMismatchError",
    "Edge",
    "GeneratedProperty",
    "GenerationError",
    "IngestError",
    "Lasso",
    "Node",
    "NodeKind",
    "ParseError",
    "Primitive",
    "SmvModule",
    "SourceSpan",
    "StateCapExceeded",
    "TransitionSystem",
    "Verdict",
    "Violation",
    "build_system",
    "bundle_check_file",
    "check",
    "check_all",
    "evaluate_on_lasso",
    "generate_properties",
    "generate_smv",
    "is_acyclic",
    "load_model",
    "oracle_check",
    "parse_dsl",
    "parse_json",
    "parse_ltl",
    "print_dsl",
    "reachable_states",
    "render_formula",
    "render_ltlspec",
    "render_report",
    "render_smv",
    "simulate",
    "validate",
]
