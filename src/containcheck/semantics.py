"""Finite transition system induced by a generated SMV module.

A state assigns one value per variable (Python bools for node variables,
value strings for decision scalars: "undetermined" or a guard value), as a
tuple in the module's declaration order. The system numbers each distinct
tuple once, when first reached, and callers hold states by that int: only
this module sees the tuples. Successors evaluate every variable's first
matching case arm against the current state simultaneously; nondeterministic
decision arms expand into one successor per chosen value.
"""

from __future__ import annotations

from itertools import product

from .model import synthetic_guard
from .record import Record, setfield
from .smv import (
    AndCond,
    Choice,
    CondExpr,
    ConstTrue,
    GuardEq,
    Keep,
    Literal,
    NotUndetermined,
    OrCond,
    SmvModule,
    VarTrue,
    ValueExpr,
)

State = int  # position in the system's table of value tuples

DEFAULT_STATE_CAP = 1_000_000


class StateCapExceeded(Exception):
    def __init__(self, cap: int, frontier: int):
        super().__init__(
            f"state-space cap of {cap} states exceeded (frontier size {frontier})"
        )
        self.cap = cap
        self.frontier = frontier


class ChoicesExhausted(Exception):
    """Raised by simulate when a branching state has no remaining choice."""


class TransitionSystem:
    """Computing successors numbers the states they reach, so a system is
    not thread-safe (nothing here uses threads); only id equality matters."""

    def __init__(self, module: SmvModule):
        self.module = module
        self.var_names: tuple[str, ...] = tuple(d.name for d in module.vars)
        self._index = {name: i for i, name in enumerate(self.var_names)}
        self._scalars = {
            d.name: d.scalar_values for d in module.vars if not d.is_boolean
        }
        self._assigns = tuple(sorted(module.assigns, key=lambda a: self._index[a.var]))
        if tuple(a.var for a in self._assigns) != self.var_names:
            raise ValueError("module must assign every declared variable exactly once")
        self._values: list[tuple] = []
        self._ids: dict[tuple, State] = {}
        self.initial = self._intern(
            tuple(self._init_value(a.init, a.var) for a in self._assigns)
        )
        # One entry per state whose successors were computed; bench/tracer.py counts them.
        self._successor_cache: dict[State, tuple[State, ...]] = {}

    def _intern(self, values: tuple) -> State:
        state = self._ids.setdefault(values, len(self._values))
        if state == len(self._values):
            self._values.append(values)
        return state

    def _init_value(self, value: ValueExpr, var: str):
        if isinstance(value, Literal):
            return self._decode(var, value.text)
        raise ValueError(f"init({var}) must be a concrete value")

    def _decode(self, var: str, text: str):
        if var in self._scalars:
            if text not in self._scalars[var]:
                raise ValueError(f"{text!r} is not a value of {var!r}")
            return text
        if text in ("TRUE", "FALSE"):
            return text == "TRUE"
        raise ValueError(f"{text!r} is not a boolean value")

    def is_boolean_var(self, name: str) -> bool:
        return name in self._index and name not in self._scalars

    def atom_value(self, state: State, atom: str) -> bool:
        """Atoms name boolean node variables only."""
        if not self.is_boolean_var(atom):
            raise ValueError(f"atom {atom!r} is not a boolean variable")
        return self._values[state][self._index[atom]]

    def value_of(self, state: State, name: str):
        return self._values[state][self._index[name]]

    def state_items(self, state: State) -> list[tuple[str, str]]:
        """(name, printable value) pairs in variable order."""
        out = []
        for name, value in zip(self.var_names, self._values[state]):
            if isinstance(value, bool):
                out.append((name, "TRUE" if value else "FALSE"))
            else:
                out.append((name, value))
        return out

    def _eval_cond(self, cond: CondExpr, values: tuple) -> bool:
        if isinstance(cond, VarTrue):
            return bool(values[self._index[cond.name]])
        if isinstance(cond, GuardEq):
            return values[self._index[cond.var]] == cond.value
        if isinstance(cond, NotUndetermined):
            return values[self._index[cond.var]] != "undetermined"
        if isinstance(cond, ConstTrue):
            return True
        if isinstance(cond, AndCond):
            return all(self._eval_cond(p, values) for p in cond.parts)
        if isinstance(cond, OrCond):
            return any(self._eval_cond(p, values) for p in cond.parts)
        raise TypeError(f"unevaluable condition {cond!r}")

    def successors(self, state: State) -> tuple[State, ...]:
        """All next states under simultaneous update; never empty for
        states of generated modules (the default arms totalize)."""
        cached = self._successor_cache.get(state)
        if cached is not None:
            return cached
        values = self._values[state]
        per_var: list[tuple] = []
        for assign in self._assigns:
            for cond, value in assign.cases:
                if self._eval_cond(cond, values):
                    break
            else:
                raise ValueError(f"no case arm matched for {assign.var!r}")
            if isinstance(value, Literal):
                per_var.append((self._decode(assign.var, value.text),))
            elif isinstance(value, Keep):
                per_var.append((values[self._index[value.var]],))
            elif isinstance(value, Choice):
                per_var.append(tuple(value.values))
            else:
                raise TypeError(f"unevaluable value {value!r}")
        result = tuple(map(self._intern, product(*per_var)))
        self._successor_cache[state] = result
        return result


def build_system(module: SmvModule) -> TransitionSystem:
    """Construct the transition system for a generated (or structurally
    equivalent) module."""
    return TransitionSystem(module)


class ReachableSet(Record):
    __slots__ = ("states", "transition_count", "order")

    def __init__(self, states: frozenset, transition_count: int, order: tuple) -> None:
        setfield(self, "states", states)
        setfield(self, "transition_count", transition_count)
        setfield(self, "order", order)  # BFS discovery order


def reachable_states(sys: TransitionSystem, cap: int = DEFAULT_STATE_CAP) -> ReachableSet:
    """BFS closure from the initial state; raises StateCapExceeded when more
    than cap states are discovered."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    seen = {sys.initial}
    order = [sys.initial]
    frontier = [sys.initial]
    transitions = 0
    while frontier:
        next_frontier = []
        for state in frontier:
            for succ in sys.successors(state):
                transitions += 1
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
                    next_frontier.append(succ)
                    if len(seen) > cap:
                        raise StateCapExceeded(cap, len(next_frontier))
        frontier = next_frontier
    return ReachableSet(frozenset(seen), transitions, tuple(order))


def simulate(sys: TransitionSystem, choices) -> list[State]:
    """Deterministic run resolving decision branches from `choices`, a
    sequence of (decision_id, target_id) pairs consumed in the order the
    branchings occur. The trace ends when a state repeats (every generated
    system eventually cycles; acyclic models settle into the idle sink).

    Raises ChoicesExhausted when a branching state has no remaining choice,
    and ValueError when the next choice does not name the triggered branch.
    """
    pending = list(choices)
    trace = [sys.initial]
    seen = {sys.initial}
    scalars = sys._scalars
    while True:
        current = trace[-1]
        succs = sys.successors(current)
        if len(succs) == 1:
            chosen = succs[0]
        else:
            triggered = [
                name
                for name in sys.var_names
                if name in scalars
                and len({sys.value_of(s, name) for s in succs}) > 1
            ]
            wanted: dict[str, str] = {}
            for decision in triggered:
                if not pending:
                    raise ChoicesExhausted(
                        f"no choice left for decision {decision!r} at step {len(trace)}"
                    )
                chosen_decision, target = pending.pop(0)
                if chosen_decision != decision:
                    raise ValueError(
                        f"expected a choice for {decision!r}, got {chosen_decision!r}"
                    )
                value = synthetic_guard(decision, target)
                if value not in scalars[decision]:
                    raise ValueError(f"{target!r} is not a branch of {decision!r}")
                wanted[decision] = value
            matching = [
                s
                for s in succs
                if all(sys.value_of(s, d) == v for d, v in wanted.items())
            ]
            if not matching:
                raise ValueError("choices did not select a successor")
            chosen = matching[0]
        if chosen in seen:
            return trace
        trace.append(chosen)
        seen.add(chosen)
