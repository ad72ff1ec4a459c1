"""Finite transition system induced by an SMV module.

A state assigns one value per variable (Python bools for node variables,
value strings for decision scalars: "undetermined" or a guard value), as a
tuple in the module's declaration order. The system numbers each distinct
tuple once, when first reached, and callers hold states by that int: only
this module sees the tuples.

The module is compiled once. Each variable's case arms become tests over
column indexes with their values decoded, and a reader index maps each
variable to the variables whose conditions read it. A variable is idle
when it holds its idle value (FALSE for a node, undetermined for a
scalar) and active otherwise. A successor evaluates, by first matching
arm against the current state, the readers of the active variables and
the variables that are always evaluated; every other variable keeps its
value. A variable is always evaluated when its last arm is not
`TRUE : <itself>`, or when one of its other arms holds with every
variable it reads idle. So a variable that is not evaluated reads only
idle variables, matches none of its earlier arms, and falls through to
the arm that keeps it: the rule holds for any module, not only generated
ones. In a generated module a step pulses a few nodes, so a successor
costs what those pulses can move, not the module's size.

Nondeterministic arms expand into one successor per chosen value, in
itertools.product order over the choosing variables in declaration order.
A module's errors (no arm matches, a literal that is not a value of its
variable) are raised by the successors call that meets them.
"""

from __future__ import annotations

from itertools import compress, product
from operator import itemgetter, ne

from .model import synthetic_guard
from .record import OperationalError, Record, setfield
from .smv import (
    AndCond,
    AtomMismatchError,
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
    render_cond,
    render_value,
)

State = int  # position in the system's table of value tuples

DEFAULT_STATE_CAP = 1_000_000


class StateCapExceeded(OperationalError):
    def __init__(self, cap: int, frontier: int):
        super().__init__(
            f"state-space cap of {cap} states exceeded (frontier size {frontier})"
        )
        self.cap = cap
        self.frontier = frontier


class ChoicesExhausted(Exception):
    """Raised by simulate when a branching state has no remaining choice."""


# What a compiled arm yields: a decoded literal, a copy of a column, a
# choice of values, or the error its literal raises when the arm fires.
_LITERAL, _KEEP, _CHOICE, _BAD = range(4)


class TransitionSystem:
    """Computing successors numbers the states they reach, so a system is
    not thread-safe (nothing here uses threads); only id equality matters."""

    def __init__(self, module: SmvModule):
        self.module = module
        self.var_names: tuple[str, ...] = tuple(d.name for d in module.vars)
        self._index = {name: i for i, name in enumerate(self.var_names)}
        self._atom_columns = {name: self._index[name] for name in module._boolean_vars}
        self._scalars = {
            d.name: d.scalar_values for d in module.vars if not d.is_boolean
        }
        assigns = tuple(sorted(module.assigns, key=lambda a: self._index[a.var]))
        if tuple(a.var for a in assigns) != self.var_names:
            raise ValueError("module must assign every declared variable exactly once")
        self._columns = range(len(self.var_names))
        self._idle = tuple(
            False if d.is_boolean else "undetermined" for d in module.vars
        )
        readers: list[set[int]] = [set() for _ in self._columns]
        always: list[int] = []
        arms_by_column = []
        for col, assign in enumerate(assigns):
            reads: set[int] = set()
            arms = tuple(
                (self._test(cond, reads, (assign.var, cond, value)),)
                + self._arm_value(assign.var, value)
                for cond, value in assign.cases
            )
            arms_by_column.append(arms)
            for read in reads:
                readers[read].add(col)
            keeps_itself = assign.cases[-1:] == ((ConstTrue(), Keep(assign.var)),)
            if not keeps_itself or any(test(self._idle) for test, _, _ in arms[:-1]):
                always.append(col)
        self._arms = tuple(arms_by_column)
        self._readers = tuple(tuple(r) for r in readers)
        self._always = tuple(always)
        self._values: list[tuple] = []
        self._ids: dict[tuple, State] = {}
        self.initial = self._intern(
            tuple(self._init_value(a.init, a.var) for a in assigns)
        )
        # One entry per state whose successors were computed; bench/tracer.py counts them.
        self._successor_cache: dict[State, tuple[State, ...]] = {}

    def _test(self, cond: CondExpr, reads: set[int], arm: tuple):
        """The condition as a predicate over a value tuple; adds the
        columns it reads to `reads`. `arm` is the (variable, condition,
        value) arm the condition belongs to, for the error a scalar read
        as a boolean raises."""
        if isinstance(cond, VarTrue):
            if cond.name in self._scalars:
                var, whole, value = arm
                raise ValueError(
                    f"scalar {cond.name!r} is read as a boolean in the arm "
                    f"'{render_cond(whole)} : {render_value(value)}' of next({var})"
                )
            col = self._index[cond.name]
            reads.add(col)
            return itemgetter(col)
        if isinstance(cond, GuardEq):
            col, value = self._index[cond.var], cond.value
            reads.add(col)
            return lambda values: values[col] == value
        if isinstance(cond, NotUndetermined):
            col = self._index[cond.var]
            reads.add(col)
            return lambda values: values[col] != "undetermined"
        if isinstance(cond, ConstTrue):
            return lambda values: True
        if isinstance(cond, (AndCond, OrCond)):
            tests = tuple(self._test(part, reads, arm) for part in cond.parts)
            fold = all if isinstance(cond, AndCond) else any
            return lambda values: fold(test(values) for test in tests)
        raise TypeError(f"unevaluable condition {cond!r}")

    def _arm_value(self, var: str, value: ValueExpr) -> tuple:
        if isinstance(value, Literal):
            try:
                return _LITERAL, self._decode(var, value.text)
            except ValueError as exc:
                return _BAD, str(exc)
        if isinstance(value, Keep):
            return _KEEP, self._index[value.var]
        if isinstance(value, Choice):
            return _CHOICE, tuple(value.values)
        raise TypeError(f"unevaluable value {value!r}")

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

    def _atom_column(self, atom: str) -> int:
        """Atoms name the module's boolean variables only; any other name
        is refused as smv.check_atoms refuses it."""
        try:
            return self._atom_columns[atom]
        except KeyError:
            raise AtomMismatchError([atom]) from None

    def atom_value(self, state: State, atom: str) -> bool:
        return self._values[state][self._atom_column(atom)]

    def atom_bits(self, states, atom: str) -> int:
        """The atom's truth along a sequence of states, as an int whose
        bit i is its value in states[i]."""
        column = self._atom_column(atom)
        return truth_bits([self._values[s][column] for s in states])

    def atom_mask(self, atoms):
        """The function that gives a state's true atoms as an int whose
        bit i is the value of atoms[i] in that state."""
        columns = [self._atom_column(atom) for atom in atoms]
        weights = [1 << i for i in range(len(atoms))]
        values = self._values
        return lambda state: sum(compress(weights, map(values[state].__getitem__, columns)))

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

    def successors(self, state: State) -> tuple[State, ...]:
        """All next states under simultaneous update; never empty for
        states of generated modules (the default arms totalize)."""
        cached = self._successor_cache.get(state)
        if cached is not None:
            return cached
        values = self._values[state]
        evaluated = set(self._always)
        for col in compress(self._columns, map(ne, values, self._idle)):
            evaluated.update(self._readers[col])
        after = list(values)
        choosing: list[int] = []
        choices: list[tuple] = []
        for col in sorted(evaluated):
            for test, kind, payload in self._arms[col]:
                if test(values):
                    break
            else:
                raise ValueError(f"no case arm matched for {self.var_names[col]!r}")
            if kind == _LITERAL:
                after[col] = payload
            elif kind == _KEEP:
                after[col] = values[payload]
            elif kind == _CHOICE:
                choosing.append(col)
                choices.append(payload)
            else:
                raise ValueError(payload)
        succs = []
        for picked in product(*choices):  # once, with nothing picked, if no choices
            for col, value in zip(choosing, picked):
                after[col] = value
            succs.append(self._intern(tuple(after)))
        result = tuple(succs)
        self._successor_cache[state] = result
        return result


def truth_bits(flags) -> int:
    """The int whose bit i is the truth of flags[i], for a sequence."""
    return int("".join(["1" if flag else "0" for flag in reversed(flags)]) or "0", 2)


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
