"""Property checking against the transition system, with lasso
counterexamples and an independent brute-force oracle.

check() is the one decision procedure, and check_all() is a loop over it.
Unless the system's single run decides the property (below), check()
negates the property, builds its tableau automaton, explores the product
with the system, and searches for a reachable fair cycle: a
strongly connected component touching every acceptance set. A violation is
reported as a lasso (finite prefix plus repeating loop), re-verified by
direct evaluation on the induced ultimately-periodic word before being
returned. Product nodes are numbered in BFS discovery order. The prefix is
the shortest BFS path into the fair SCC whose first-discovered member
comes first, ending at that member; the loop starts there and visits the
acceptance sets in order, each by a shortest path inside the SCC, before
a shortest path back closes it.

A product edge is tested on bitmasks over the automaton's `atoms`: a
system state's mask holds its true atoms, built when the product first
reaches the state, and the automaton labels each of its states with a
(pos, care) pair, the atoms its literals want true and every atom they
name. The edge into a state is taken when mask & care == pos.

check() builds a product only where one can change the answer. A
system whose walk from the initial state meets only states with exactly
one successor, and closes within the cap, has one run, a lasso; every
low-level model without a decision node is such a system. A property then
holds exactly when it holds on that lasso (Markey and Schnoebelen, "Model
checking a path", CONCUR 2003). evaluate_on_lasso decides it with each
subformula's truth along the run held as an int, bit i at position i, so
each operator costs one or two operations on ints as wide as the run; the
system gives each atom's column once. Such a property is reported holding
with no automaton and no product. Every other property, each violated one
and each property of a branching system, goes to the product.

The cap has one rule. It bounds the states that the path deciding a
property explores: on a single-run system, the run for a property that
holds on it; otherwise the product. The tableau is the one structure it
does not bound: it is built whole before the product is explored.

oracle_check() never builds an automaton: it enumerates lassos of the
system directly and evaluates the property on each word by unrolling. On a
system whose paths all settle into a sink within the depth bound (every
acyclic model does) the enumeration is exhaustive, so the verdicts of the
two routes must agree; on cyclic systems the oracle is sound for
violations found within the bound.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache, partial

from . import ltl, smv
from .automaton import BuchiAutomaton, automaton_for_negation
from .record import OperationalError, Record, setfield
from .semantics import (
    DEFAULT_STATE_CAP,
    StateCapExceeded,
    TransitionSystem,
    reachable_states,
    truth_bits,
)

ORACLE_STATE_LIMIT = 4096


class CounterexampleUnsound(Exception):
    """Internal consistency failure: an emitted lasso did not violate its
    property under direct re-evaluation."""


class Lasso(Record):
    """A violating infinite word: prefix once, then the loop forever.

    States are stored as printable value tuples aligned with var_names
    (TRUE/FALSE for node variables, value names for decision scalars), so a
    lasso renders without the system at hand. A value may be None when the
    state was reconstructed from partial external output.
    """

    __slots__ = ("var_names", "prefix", "loop")

    def __init__(
        self, var_names: tuple[str, ...], prefix: tuple[tuple, ...], loop: tuple[tuple, ...]
    ) -> None:
        setfield(self, "var_names", var_names)
        setfield(self, "prefix", prefix)
        setfield(self, "loop", loop)

    def _to_dict(self, row) -> dict:
        return {
            name: value
            for name, value in zip(self.var_names, row)
            if value is not None
        }

    def prefix_dicts(self) -> list[dict]:
        return [self._to_dict(row) for row in self.prefix]

    def loop_dicts(self) -> list[dict]:
        return [self._to_dict(row) for row in self.loop]


class Verdict(Record):
    __slots__ = ("formula", "holds", "counterexample", "primitive", "origin")

    def __init__(
        self,
        formula: ltl.Formula,
        holds: bool,
        counterexample: Lasso | None = None,
        primitive: ltl.Primitive | None = None,
        origin: str | None = None,
    ) -> None:
        if holds == (counterexample is not None):
            raise ValueError("a counterexample is present exactly when the property fails")
        setfield(self, "formula", formula)
        setfield(self, "holds", holds)
        setfield(self, "counterexample", counterexample)
        setfield(self, "primitive", primitive)
        setfield(self, "origin", origin)


def _printable(sys: TransitionSystem, state) -> tuple:
    return tuple(value for _, value in sys.state_items(state))


def _lasso(sys: TransitionSystem, prefix, loop) -> Lasso:
    return Lasso(
        sys.var_names,
        tuple(_printable(sys, s) for s in prefix),
        tuple(_printable(sys, s) for s in loop),
    )


def _path_to(parent, node) -> list:
    """The parent-pointer path from a root (parent None) to node, root first."""
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


def check(
    sys: TransitionSystem,
    prop: ltl.Formula,
    cap: int = DEFAULT_STATE_CAP,
    primitive: ltl.Primitive | None = None,
    origin: str | None = None,
) -> Verdict:
    """Decide whether every infinite path from the initial state satisfies
    the property; on failure return a verified lasso counterexample.

    A property that holds on the system's single run of at most `cap`
    states holds; every other one is decided on the product, which may
    hold at most `cap` states.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    smv.check_atoms(sys.module, [prop])
    run = _single_run(sys, cap)
    if run is not None and _holds_on_lasso(prop, *run):
        return Verdict(prop, True, None, primitive, origin)
    auto = automaton_for_negation(prop)
    labels, transitions = auto.states, auto.transitions
    mask_of = sys.atom_mask(auto.atoms)
    masks: dict[int, int] = {}

    # Reachable product graph, breadth first for shortest prefixes. Product
    # node i is (states[i], qs[i]); i is its BFS discovery position, so each
    # BFS level is a contiguous run of ids.
    ids: dict[tuple, int] = {}
    states: list = []
    qs: list[int] = []
    parent: list[int | None] = []
    mask = masks[sys.initial] = mask_of(sys.initial)
    for q in auto.initial:
        pos, care = labels[q]
        if mask & care == pos:
            ids[(sys.initial, q)] = len(states)
            states.append(sys.initial)
            qs.append(q)
            parent.append(None)
    # A dict rather than a list: bench/tracer.py sums adjacency.values().
    adjacency: dict[int, tuple[int, ...]] = {}
    level = 0
    while level < len(states):
        level_end = len(states)
        for node in range(level, level_end):
            succs = []
            for next_state in sys.successors(states[node]):
                mask = masks.get(next_state)
                if mask is None:
                    mask = masks[next_state] = mask_of(next_state)
                for q2 in transitions[qs[node]]:
                    pos, care = labels[q2]
                    if mask & care == pos:
                        succ = ids.setdefault((next_state, q2), len(states))
                        if succ == len(states):
                            states.append(next_state)
                            qs.append(q2)
                            parent.append(node)
                            if len(states) > cap:
                                raise StateCapExceeded(cap, len(states) - level_end)
                        succs.append(succ)
            adjacency[node] = tuple(succs)
        level = level_end

    target = _find_fair_scc(adjacency, qs, auto)
    if target is None:
        return Verdict(prop, True, None, primitive, origin)
    scc, entry = target
    prefix = [states[i] for i in _path_to(parent, entry)[:-1]]
    loop = [states[i] for i in _fair_cycle(adjacency, scc, entry, qs, auto)]
    if evaluate_on_lasso(prop, prefix, loop, sys.atom_value):
        raise CounterexampleUnsound(ltl.render_formula(prop))
    return Verdict(prop, False, _lasso(sys, prefix, loop), primitive, origin)


def _find_fair_scc(adjacency, qs, auto: BuchiAutomaton):
    """Among the SCCs that are nontrivial and meet every acceptance set,
    the one whose first-discovered member comes first; returns
    (members, entry) with entry that member, or None.

    Product nodes are ints 0..len(qs)-1 in BFS discovery order, and qs[i]
    is node i's automaton state. Tarjan's algorithm from an explicit
    stack; each SCC is tested as it pops."""
    n = len(qs)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    best = None
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adjacency[root]))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if index[succ] < 0:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    break
                if on_stack[succ] and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            else:
                work.pop()
                if work:
                    up = work[-1][0]
                    lowlink[up] = min(lowlink[up], lowlink[node])
                if lowlink[node] != index[node]:
                    continue
                members = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    members.add(member)
                    if member == node:
                        break
                if len(members) == 1 and node not in adjacency[node]:
                    continue
                automaton_ids = {qs[m] for m in members}
                if all(automaton_ids & acc for acc in auto.acceptance):
                    entry = min(members)
                    if best is None or entry < best[1]:
                        best = (members, entry)
    return best


def _fair_cycle(adjacency, scc: set, entry: int, qs, auto: BuchiAutomaton) -> list[int]:
    """A cycle inside the SCC through `entry` visiting the acceptance sets
    in order, returned as the loop's node list starting at `entry`."""

    def bfs_path(start: int, goal_test) -> list[int]:
        # Shortest path of at least one step inside the SCC.
        parents: dict[int, int | None] = {start: None}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for succ in adjacency[node]:
                    if succ not in scc:
                        continue
                    fresh = succ not in parents
                    # start is seen from the outset; reaching it closes a cycle.
                    if (fresh or succ == start) and goal_test(succ):
                        return _path_to(parents, node) + [succ]
                    if fresh:
                        parents[succ] = node
                        next_frontier.append(succ)
            frontier = next_frontier
        raise RuntimeError("strongly connected component is not connected")

    walk = [entry]
    for acceptance in auto.acceptance:
        if any(qs[i] in acceptance for i in walk):
            continue
        walk.extend(bfs_path(walk[-1], lambda i: qs[i] in acceptance)[1:])
    walk.extend(bfs_path(walk[-1], lambda i: i == entry)[1:])
    return walk[:-1]


def check_all(sys: TransitionSystem, properties, cap: int = DEFAULT_STATE_CAP) -> list[Verdict]:
    """check() on each property in input order; the first exception
    propagates."""
    out = []
    for prop in properties:
        if isinstance(prop, ltl.GeneratedProperty):
            out.append(check(sys, prop.formula, cap, prop.primitive, prop.origin))
        else:
            out.append(check(sys, prop, cap))
    return out


@lru_cache(maxsize=1)
def _single_run(sys: TransitionSystem, cap: int):
    """The system's one run as (loop start, length, bits) when the walk
    from the initial state meets only states with exactly one successor
    and repeats a state within `cap` states; otherwise None. bits(atom)
    is the atom's truth along the run as an int, computed once per atom.

    Memoised for the last (system, cap) asked, so check_all walks each
    system once; that system stays alive until another is asked."""
    position: dict[int, int] = {}
    states: list[int] = []
    state = sys.initial
    while state not in position:
        if len(states) == cap:
            return None
        position[state] = len(states)
        states.append(state)
        succs = sys.successors(state)
        if len(succs) != 1:
            return None
        state = succs[0]
    return position[state], len(states), cache(partial(sys.atom_bits, states))


def evaluate_on_lasso(formula: ltl.Formula, prefix, loop, atom_value) -> bool:
    """Truth of the formula at position 0 of the word prefix . loop^omega,
    by direct evaluation over the lasso's positions (no automaton involved).

    Each subformula object is labeled once, operands first, in an explicit
    post-order, with an int whose bit i is its truth at position i: each
    operator is one or two operations on ints as wide as the lasso, and
    depth is bounded by memory only.

    atom_value(state, name) supplies atom truth per state.
    """
    states = list(prefix) + list(loop)
    if len(prefix) == len(states):
        raise ValueError("lasso loop must contain at least one state")
    return _holds_on_lasso(
        formula,
        len(prefix),
        len(states),
        lambda name: truth_bits([atom_value(s, name) for s in states]),
    )


def _holds_on_lasso(formula: ltl.Formula, loop_start: int, n: int, atom_bits) -> bool:
    """evaluate_on_lasso on a lasso of n positions whose loop starts at
    loop_start; atom_bits(name) gives the atom's truth along the lasso as
    an int, bit i at position i."""
    full = (1 << n) - 1
    loop = full >> loop_start << loop_start

    def eventually(x: int) -> int:
        # A loop position reaches the whole loop; a prefix position reaches
        # itself and every later one.
        return full if x & loop else (1 << x.bit_length()) - 1

    labels: dict[int, int] = {}  # id(subformula) -> truth per position, as bits
    stack = [formula]
    while stack:
        f = stack[-1]
        if id(f) in labels:
            stack.pop()
            continue
        operands = ltl.operands(f)
        pending = [o for o in operands if id(o) not in labels]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        args = [labels[id(o)] for o in operands]
        if isinstance(f, ltl.Atom):
            label = atom_bits(f.name)
        elif isinstance(f, ltl.TrueConst):
            label = full
        elif isinstance(f, ltl.FalseConst):
            label = 0
        elif isinstance(f, ltl.Not):
            label = full ^ args[0]
        elif isinstance(f, ltl.Next):
            # The last position's next is the loop's first.
            label = args[0] >> 1 | (args[0] >> loop_start & 1) << (n - 1)
        elif isinstance(f, ltl.Eventually):
            label = eventually(args[0])
        elif isinstance(f, ltl.Always):
            # G f = !F !f
            label = full ^ eventually(full ^ args[0])
        elif isinstance(f, ltl.And):
            label = args[0] & args[1]
        elif isinstance(f, ltl.Or):
            label = args[0] | args[1]
        elif isinstance(f, ltl.Xor):
            label = args[0] ^ args[1]
        elif isinstance(f, ltl.Implies):
            label = (full ^ args[0]) | args[1]
        else:
            raise TypeError(f"unevaluable formula {f!r}")
        labels[id(f)] = label
    return bool(labels[id(formula)] & 1)


class OracleError(OperationalError):
    pass


def oracle_check(sys: TransitionSystem, prop: ltl.Formula, depth: int) -> Verdict:
    """Brute-force verdict: enumerate every lasso with |prefix| + |loop|
    below `depth` and evaluate the property on each by direct unrolling.

    Exhaustive (hence in agreement with check) whenever every distinct
    behavior of the system closes a lasso within the bound; for systems
    whose paths all reach a self-looping sink that holds once depth exceeds
    the longest simple path plus one. Violations found are always genuine.
    """
    if depth < 1:
        raise OracleError("depth must be positive")
    smv.check_atoms(sys.module, [prop])
    try:
        reachable_states(sys, cap=ORACLE_STATE_LIMIT)
    except StateCapExceeded as exc:
        raise OracleError(
            f"system too large for the oracle (more than {ORACLE_STATE_LIMIT} states)"
        ) from exc

    failing = _first_violating_lasso(sys, prop, depth)
    if failing is None:
        return Verdict(prop, True)
    return Verdict(prop, False, _lasso(sys, *failing))


def _first_violating_lasso(sys: TransitionSystem, prop: ltl.Formula, depth: int):
    """Depth first over paths of fewer than `depth` states, successors in
    order: a successor already on the path closes a lasso at each of its
    occurrences, earliest first. Returns the first lasso that violates
    the property as (prefix, loop), or None.

    A word already seen to hold is not evaluated again: past a
    self-looping sink, every lasso the path closes spells the same word."""
    path = [sys.initial]
    holding: set[tuple] = set()
    pending = [iter(sys.successors(sys.initial))] if depth > 1 else []
    while pending:
        succ = next(pending[-1], None)  # states are ints, never None
        if succ is None:
            pending.pop()
            path.pop()
            continue
        for j, earlier in enumerate(path):
            if earlier != succ:
                continue
            word = _shortest_lasso(path, j)
            if word in holding:
                continue
            if not evaluate_on_lasso(prop, path[:j], path[j:], sys.atom_value):
                return path[:j], path[j:]
            holding.add(word)
        if len(path) + 1 < depth:
            path.append(succ)
            pending.append(iter(sys.successors(succ)))
    return None


def _shortest_lasso(path: list[int], j: int) -> tuple[tuple, tuple]:
    """The word path[:j] . path[j:]^omega as its shortest lasso: the loop
    cut to its shortest repeating unit, then turned back over the end of
    the prefix while the prefix ends with the loop's last state. Two
    lassos spell the same word exactly when these agree."""
    loop = path[j:]
    n = len(loop)
    p = next(p for p in range(1, n + 1) if n % p == 0 and loop[p:] == loop[:-p])
    r = 0
    while r < j and path[j - 1 - r] == loop[-1 - r % p]:
        r += 1
    cut = p - r % p
    return tuple(path[: j - r]), tuple(loop[cut:p] + loop[:cut])


# --- reporting -----------------------------------------------------------

def render_report(verdicts: list[Verdict], format: str = "text") -> str:
    if format == "text":
        return _render_text(verdicts)
    if format == "json":
        return _render_json(verdicts)
    raise ValueError(f"unknown report format {format!r}")


def _render_text(verdicts: list[Verdict]) -> str:
    lines: list[str] = []
    trace_number = 0
    for verdict in verdicts:
        word = "true" if verdict.holds else "false"
        lines.append(f"-- specification {ltl.render_formula(verdict.formula)} is {word}")
        if verdict.holds:
            continue
        trace_number += 1
        lines.append("-- as demonstrated by the following execution sequence")
        lines.append("Trace Description: LTL Counterexample")
        lines.append("Trace Type: Counterexample")
        lasso = verdict.counterexample
        rows = list(lasso.prefix) + list(lasso.loop) + [lasso.loop[0]]
        loop_index = len(lasso.prefix)
        previous = None
        for i, row in enumerate(rows):
            if i == loop_index:
                lines.append("-- Loop starts here")
            lines.append(f"-> State: {trace_number}.{i + 1} <-")
            for pos, (name, value) in enumerate(zip(lasso.var_names, row)):
                if value is None:
                    continue
                if previous is None or previous[pos] != value:
                    lines.append(f"  {name} = {value}")
            previous = row
    return "\n".join(lines) + ("\n" if lines else "")


def _json_value(value):
    if value == "TRUE":
        return True
    if value == "FALSE":
        return False
    return value


def _render_json(verdicts: list[Verdict]) -> str:
    properties = []
    for verdict in verdicts:
        entry: dict = {
            "formula": ltl.render_formula(verdict.formula),
            "primitive": verdict.primitive.value if verdict.primitive else None,
            "holds": verdict.holds,
        }
        if verdict.counterexample is not None:
            lasso = verdict.counterexample
            entry["counterexample"] = {
                "prefix": [
                    {k: _json_value(v) for k, v in row.items()}
                    for row in lasso.prefix_dicts()
                ],
                "loop": [
                    {k: _json_value(v) for k, v in row.items()}
                    for row in lasso.loop_dicts()
                ],
            }
        properties.append(entry)
    return json.dumps({"properties": properties}, indent=2) + "\n"
