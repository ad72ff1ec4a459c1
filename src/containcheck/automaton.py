"""Translation of temporal formulas into generalized Buchi automata via the
classic on-the-fly tableau construction (Gerth, Peled, Vardi, Wolper).

One pass rewrites the negated formula into negation normal form over
literals, X, U (until) and R (release): G and F become R/U over TRUE and
FALSE, xor and implication expand into and/or. The pass writes the normal
form straight into a table of ints, one entry per distinct subformula,
with no intermediate formula objects. Tableau nodes split disjunctions and
unwind U/R one step at a time; fully expanded nodes with identical
obligations merge. The result is a state-labeled automaton: entering a
state requires its literals to hold, and one acceptance set per U-formula
keeps postponed eventualities honest.

Cost tracks the automaton, not the formula's printed size:
- the pass translates each (subformula object, polarity) once, so an xor
  chain's normal form is a graph linear in the chain, not a tree
  exponential in it;
- the tableau's sets hold ints, and complete nodes merge through a dict
  keyed on their (old, next) sets;
- no walk recurses, so formula depth is bounded by memory only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import ltl


# --- translation ---------------------------------------------------------

# The tableau seeds each successor with its next obligations in repr
# order: the order of their reprs as frozen dataclasses NAnd, NFalse, NLit,
# NNext, NOr, NRelease, NTrue and NUntil, with fields (left, right), (atom,
# negated) or (operand). State ids, and so every counterexample, depend on
# that order. Kind codes follow those class names, so they compare as the
# reprs' heads do.
_AND, _FALSE, _LIT, _NEXT, _OR, _RELEASE, _TRUE, _UNTIL = range(8)
_BINARY = (_AND, _OR, _RELEASE, _UNTIL)


def _rule(f: ltl.Formula, negate: bool) -> tuple[tuple, object]:
    """One rewriting step into NNF: the (operand, polarity) parts the
    NNF of `f` (negated if `negate`) is built from, and a template that
    builds it. In a template, an int n stands for the n-th part's NNF
    and a tuple (kind, *operands) for a node of that kind; a literal's
    operands are its atom and whether it is negated."""
    if isinstance(f, ltl.Atom):
        return (), (_LIT, f.name, negate)
    if isinstance(f, ltl.TrueConst):
        return (), (_FALSE if negate else _TRUE,)
    if isinstance(f, ltl.FalseConst):
        return (), (_TRUE if negate else _FALSE,)
    if isinstance(f, ltl.Not):
        return ((f.operand, not negate),), 0
    if isinstance(f, ltl.Next):
        return ((f.operand, negate),), (_NEXT, 0)
    if isinstance(f, (ltl.Always, ltl.Eventually)):
        # G f = false R f, !G f = true U !f; F f = true U f, !F f = false R !f.
        if isinstance(f, ltl.Always) == negate:
            return ((f.operand, negate),), (_UNTIL, (_TRUE,), 0)
        return ((f.operand, negate),), (_RELEASE, (_FALSE,), 0)
    if isinstance(f, ltl.And):
        return ((f.left, negate), (f.right, negate)), (_OR if negate else _AND, 0, 1)
    if isinstance(f, ltl.Or):
        return ((f.left, negate), (f.right, negate)), (_AND if negate else _OR, 0, 1)
    if isinstance(f, ltl.Implies):
        return ((f.left, not negate), (f.right, negate)), (_AND if negate else _OR, 0, 1)
    if isinstance(f, ltl.Xor):
        # a xor b = (a & !b) | (!a & b); the negation is the biconditional.
        a, b = f.left, f.right
        parts = ((a, False), (b, not negate), (a, True), (b, negate))
        return parts, (_OR, (_AND, 0, 1), (_AND, 2, 3))
    raise TypeError(f"untranslatable formula {f!r}")


class _Interned:
    """The NNF of a formula as ints, children before parents, each
    distinct subformula once.

    For subformula i: kind[i] is its kind code; left[i]/right[i] are the
    ids of its operands (X keeps its operand in left), -1 if absent;
    literal[i] is (atom, negated) for literals.
    """

    def __init__(self, formula: ltl.Formula):
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.literal: dict[int, tuple[str, bool]] = {}
        ids: dict[tuple, int] = {}

        def intern(template, parts: list[int]) -> int:
            if isinstance(template, int):
                return parts[template]
            kind = template[0]
            if kind == _LIT:
                key, operands = template, []
            else:
                operands = [intern(o, parts) for o in template[1:]]
                key = (kind, *operands)
            index = ids.get(key)
            if index is None:
                index = ids[key] = len(self.kind)
                self.kind.append(kind)
                operands += [-1, -1]
                self.left.append(operands[0])
                self.right.append(operands[1])
                if kind == _LIT:
                    self.literal[index] = template[1:]
            return index

        # Each distinct (subformula object, polarity) is translated once,
        # so a DAG of shared subformulas stays a DAG.
        done: dict[tuple[int, bool], int] = {}
        stack = [(formula, False)]
        while stack:
            f, neg = stack[-1]
            if (id(f), neg) in done:
                stack.pop()
                continue
            parts, template = _rule(f, neg)
            pending = [p for p in parts if (id(p[0]), p[1]) not in done]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            done[id(f), neg] = intern(template, [done[id(p), n] for p, n in parts])
        self.root = done[id(formula), False]
        self.complement = {
            i: ids.get((_LIT, atom, not negated), -1)
            for i, (atom, negated) in self.literal.items()
        }

    def repr_ranks(self) -> list[int]:
        """rank[i] < rank[j] exactly when the repr of subformula i sorts
        before that of j, computed without building a repr.

        Reprs are prefix-free, so two of the same kind compare as their
        operands do, left first, and a literal by repr(atom), then
        negated. Subformulas are placed one height at a time: the operands
        of every key compared at height h are already ranked, below h.
        """
        kind, left, right, literal = self.kind, self.left, self.right, self.literal
        height = [0] * len(kind)
        for i, k in enumerate(kind):
            if k in _BINARY:
                height[i] = 1 + max(height[left[i]], height[right[i]])
            elif k == _NEXT:
                height[i] = 1 + height[left[i]]
        levels: list[list[int]] = [[] for _ in range(max(height) + 1)]
        for i, h in enumerate(height):
            levels[h].append(i)

        rank: dict[int, int] = {}

        def key(i: int) -> tuple:
            k = kind[i]
            if k == _LIT:
                atom, negated = literal[i]
                return (k, repr(atom), negated)
            if k == _NEXT:
                return (k, rank[left[i]])
            if k in _BINARY:
                return (k, rank[left[i]], rank[right[i]])
            return (k,)

        order: list[int] = []
        for level in levels:
            merged: list[int] = []
            lo = 0
            for i in sorted(level, key=key):
                at = bisect_left(order, key(i), lo, key=key)
                merged += order[lo:at]
                merged.append(i)
                lo = at
            merged += order[lo:]
            order = merged
            rank = dict(zip(order, range(len(order))))
        return [rank[i] for i in range(len(kind))]

    def until_subformulas(self) -> list[int]:
        """The U-subformulas in order of first occurrence, pre-order and
        left to right."""
        kind, left, right = self.kind, self.left, self.right
        out: list[int] = []
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if kind[i] == _UNTIL:
                out.append(i)
            if kind[i] in _BINARY:
                stack.append(right[i])
            if kind[i] in _BINARY or kind[i] == _NEXT:
                stack.append(left[i])
        return out


# --- tableau construction ------------------------------------------------

_INIT = -1  # synthetic incoming marker for initial automaton states


@dataclass(frozen=True)
class BuchiState:
    id: int
    literals: tuple[tuple[str, bool], ...]  # (atom, negated), sorted


class BuchiAutomaton:
    """State-labeled generalized Buchi automaton.

    A run q0 q1 ... matches a word x0 x1 ... when every xi satisfies the
    literals of qi; it accepts when it visits each acceptance set
    infinitely often (no sets means every infinite run accepts).
    """

    def __init__(
        self,
        states: list[BuchiState],
        initial: list[int],
        transitions: dict[int, tuple[int, ...]],
        acceptance: list[frozenset[int]],
    ):
        self.states = {s.id: s for s in states}
        self.initial = tuple(initial)
        self.transitions = transitions
        self.acceptance = acceptance

    def successors(self, state_id: int) -> tuple[int, ...]:
        return self.transitions.get(state_id, ())

    def literals(self, state_id: int) -> tuple[tuple[str, bool], ...]:
        return self.states[state_id].literals


def automaton_for_negation(formula: ltl.Formula) -> BuchiAutomaton:
    """Automaton accepting exactly the words that violate the formula:
    the tableau expansion of the NNF of its negation.

    A pending node is (id, source, new, old, next): the one node it was
    created from (every node has a single source until merged), the
    obligations still to process in order, and the processed and
    next-step obligations. A split pushes its second half before its
    first, so nodes get the ids a depth-first expansion gives them. A
    complete node's next obligations seed its successor in repr order.
    """
    table = _Interned(ltl.Not(formula))
    kind, left, right = table.kind, table.left, table.right
    complement, rank = table.complement, table.repr_ranks()

    nodes: list[tuple[int, set[int], frozenset[int], frozenset[int]]] = []
    complete: dict[tuple[frozenset[int], frozenset[int]], set[int]] = {}
    counter = 1
    stack = [(counter, _INIT, [table.root], set(), set())]
    while stack:
        node_id, source, new, old, nxt = stack.pop()
        # `new` may grow while it is walked; the walk then reaches the
        # added obligations too.
        for i, f in enumerate(new, 1):
            if f in old:
                continue
            k = kind[f]
            if k == _TRUE:
                continue
            if k == _FALSE:
                break
            if k == _LIT:
                if complement[f] in old:
                    break
                old.add(f)
                continue
            if k == _AND:
                old.add(f)
                for part in (left[f], right[f]):
                    if part not in old and part not in new[i:]:
                        new.append(part)
                continue
            if k == _NEXT:
                old.add(f)
                nxt.add(left[f])
                continue
            # Disjunctive: U is right | (left & X U), R is right & (left | X R).
            # This node ends here, so one half may take over its sets.
            rest = new[i:]
            old.add(f)
            if k == _OR:
                first = (rest + [left[f]], nxt)
                second = (rest + [right[f]], set(nxt))
            elif k == _UNTIL:
                first = (rest + [left[f]], nxt | {f})
                second = (rest + [right[f]], nxt)
            else:
                first = (rest + [right[f]], nxt | {f})
                second = (rest + [left[f], right[f]], nxt)
            stack.append((counter + 2, source, second[0], set(old), second[1]))
            stack.append((counter + 1, source, first[0], old, first[1]))
            counter += 2
            break
        else:
            key = (frozenset(old), frozenset(nxt))
            incoming = complete.get(key)
            if incoming is not None:
                incoming.add(source)
                continue
            incoming = complete[key] = {source}
            nodes.append((node_id, incoming, *key))
            counter += 1
            stack.append((counter, node_id, sorted(nxt, key=rank.__getitem__), set(), set()))

    states = [
        BuchiState(
            node_id,
            tuple(sorted(table.literal[f] for f in old if f in table.literal)),
        )
        for node_id, _, old, _ in nodes
    ]
    initial = [node_id for node_id, incoming, _, _ in nodes if _INIT in incoming]
    transitions: dict[int, list[int]] = {node_id: [] for node_id, _, _, _ in nodes}
    for node_id, incoming, _, _ in nodes:
        for source in incoming:
            if source != _INIT:
                transitions[source].append(node_id)
    acceptance = [
        frozenset(
            node_id
            for node_id, _, old, _ in nodes
            if until not in old or right[until] in old
        )
        for until in table.until_subformulas()
    ]
    return BuchiAutomaton(
        states,
        initial,
        {k: tuple(sorted(v)) for k, v in transitions.items()},
        acceptance,
    )

