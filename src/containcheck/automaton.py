"""Translation of temporal formulas into generalized Buchi automata via the
classic on-the-fly tableau construction (Gerth, Peled, Vardi, Wolper).

One pass rewrites the negated formula into negation normal form over
literals, X, U (until) and R (release): G and F become R/U over TRUE and
FALSE, xor and implication expand into and/or. The pass writes the normal
form straight into a table of ints, one entry per distinct subformula,
with no intermediate formula objects. Tableau nodes split disjunctions and
unwind U/R one step at a time; fully expanded nodes with identical
obligations merge. The result is a state-labeled automaton over states
0..n-1: entering a state requires its literals, held as masks over the
formula's atoms, and one acceptance set per U-formula keeps postponed
eventualities honest.

Cost tracks the automaton, not the formula's printed size:
- the pass translates each (subformula object, polarity) once, so an xor
  chain's normal form is a graph linear in the chain, not a tree
  exponential in it;
- the tableau's sets are int bitmasks, and complete nodes merge through a
  dict keyed on their (old, next) masks;
- a node's successors depend only on its Next set, so each distinct Next
  set is expanded once per build (366 for a 6-way decision's 2,446
  states) and the depth-first numbering is replayed over the expansions;
- `G f` is `FALSE R f`, whose second half would walk the rest of its
  node and die at FALSE. It is never pushed: a state is numbered by the
  creation time of the pending node that becomes it, and only the order
  of those times is kept, so nodes that never become states go uncounted
  (5,534 pending nodes for a 6-way decision instead of 16,718);
- no walk recurses, so formula depth is bounded by memory only.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from . import ltl


# --- translation ---------------------------------------------------------

# The tableau seeds each successor with its next obligations in one fixed
# order, and state ids, so every counterexample, depend on it: by kind
# code, then by the ranks of the operands, left first; a literal by its
# atom in `atom_order`, then by negated (see `_Interned.repr_ranks`). The
# kind codes follow the alphabetical order of the kinds' names; reordering
# them would renumber every automaton.
_AND, _FALSE, _LIT, _NEXT, _OR, _RELEASE, _TRUE, _UNTIL = range(8)
_BINARY = (_AND, _OR, _RELEASE, _UNTIL)


def atom_order(atoms) -> list[str]:
    """The atoms as the tableau ranks them: by repr. State labels number
    atoms in this order, and formulas whose atoms rank alike have equal
    automata."""
    return sorted(atoms, key=repr)


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
    literal[i] is (atom, negated) for literals. `atoms` are the atoms in
    `atom_order`.
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
        self.atoms = tuple(atom_order({atom for atom, _ in self.literal.values()}))

    def repr_ranks(self) -> list[int]:
        """rank[i] < rank[j] exactly when the repr of subformula i sorts
        before that of j, computed without building a repr.

        Reprs are prefix-free, so two of the same kind compare as their
        operands do, left first, and a literal by its atom's place in
        `atoms`, then negated. Subformulas are placed one height at a
        time: the operands of every key compared at height h are already
        ranked, below h.
        """
        kind, left, right, literal = self.kind, self.left, self.right, self.literal
        atom_rank = {atom: i for i, atom in enumerate(self.atoms)}
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
                return (k, atom_rank[atom], negated)
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

class BuchiAutomaton:
    """State-labeled generalized Buchi automaton over states 0..n-1.

    states[q] is q's label, a (pos, care) pair of masks over `atoms`
    (bit i for atoms[i]): care holds the atoms q's literals name, pos
    those they want true. A letter, the mask of its true atoms, satisfies
    q when mask & care == pos. transitions[q] lists q's successors in
    increasing order. A run q0 q1 ... matches a word x0 x1 ... when every
    xi satisfies qi; it accepts when it visits each acceptance set
    infinitely often (no sets means every infinite run accepts).
    """

    def __init__(
        self,
        atoms: tuple[str, ...],
        states: list[tuple[int, int]],
        initial: list[int],
        transitions: list[tuple[int, ...]],
        acceptance: list[frozenset[int]],
    ):
        self.atoms = atoms
        self.states = states
        self.initial = tuple(initial)
        self.transitions = transitions
        self.acceptance = acceptance


def automaton_for_negation(formula: ltl.Formula) -> BuchiAutomaton:
    """Automaton accepting exactly the words that violate the formula:
    the tableau expansion of the NNF of its negation.

    Sets of subformulas are int bitmasks over their ids. A node's
    successors depend only on its Next set: its obligations, in repr
    order, seed a depth-first expansion whose complete (old, next) leaves
    are the successors. `expand` runs that split loop once per Next set. A
    split pushes its second half before its first, and each leaf records
    the number of splits made before it, the split that pushed it (0 for
    the seed itself) and which half it is. The second half of a G split
    would die at FALSE, so it is not pushed.

    A state's id is the creation time of the pending node that becomes
    it, in one depth-first walk over the pending nodes: a split takes two
    ticks of a counter, its halves the first and second; a leaf with a new
    key takes one more for its successors' seed, which is expanded at
    once, before the rest of the current expansion. Only the order of the
    ids is kept, so a node that never becomes a state need not be counted.
    The numbering pass replays the walk over the cached leaves from a
    stack of frames. A frame's `at` holds its seed's id, then the counter
    at each of its splits replayed so far. Once a Next set has been
    replayed to its end, every leaf of it has an id, so it is not replayed
    again.

    States are numbered 0..n-1 in the order of their ids, and each
    distinct set of literals is turned into a label once.
    """
    table = _Interned(ltl.Not(formula))
    kind, left, right = table.kind, table.left, table.right
    by_rank = sorted(range(len(kind)), key=table.repr_ranks().__getitem__)
    complement = {f: 1 << c if c >= 0 else 0 for f, c in table.complement.items()}

    @cache
    def expand(seed: int) -> list[tuple]:
        leaves: list[tuple] = []
        splits = 0
        stack = [(0, 0, [f for f in by_rank if seed >> f & 1], 0, 0)]
        while stack:
            split, half, new, old, nxt = stack.pop()
            # `new` may grow while it is walked; the walk then reaches the
            # added obligations too.
            for i, f in enumerate(new, 1):
                bit = 1 << f
                if old & bit:
                    continue
                k = kind[f]
                if k == _TRUE:
                    continue
                if k == _FALSE:
                    break
                if k == _LIT:
                    if old & complement[f]:
                        break
                    old |= bit
                    continue
                old |= bit
                if k == _AND:
                    for part in (left[f], right[f]):
                        if not old >> part & 1 and part not in new[i:]:
                            new.append(part)
                    continue
                if k == _NEXT:
                    nxt |= 1 << left[f]
                    continue
                # Disjunctive: U is right | (left & X U), R is right & (left | X R).
                rest = new[i:]
                if k == _OR:
                    first = (rest + [left[f]], nxt)
                    second = (rest + [right[f]], nxt)
                elif k == _UNTIL:
                    first = (rest + [left[f]], nxt | bit)
                    second = (rest + [right[f]], nxt)
                else:
                    first = (rest + [right[f]], nxt | bit)
                    # G f = FALSE R f: the second half would die at FALSE.
                    second = None if kind[left[f]] == _FALSE else (rest + [left[f], right[f]], nxt)
                splits += 1
                if second is not None:
                    stack.append((splits, 2, second[0], old, second[1]))
                stack.append((splits, 1, first[0], old, first[1]))
                break
            else:
                leaves.append(((old, nxt), splits, split, half))
        return leaves

    def frame(seed: int, node_id: int) -> tuple:
        return seed, iter(expand(seed)), [node_id]

    root = 1 << table.root
    ids: dict[tuple[int, int], int] = {}  # (old, next) -> creation time
    nodes: list[tuple[int, int]] = []  # keys in creation order
    replayed: set[int] = set()
    counter = 1
    stack = [frame(root, counter)]
    while stack:
        seed, leaves, at = stack[-1]
        for key, before, split, half in leaves:
            while len(at) <= before:
                at.append(counter)
                counter += 2
            if key in ids:
                continue
            ids[key] = at[split] + half
            nodes.append(key)
            counter += 1
            if key[1] not in replayed:
                stack.append(frame(key[1], counter))
                break
        else:
            stack.pop()
            replayed.add(seed)

    keys = sorted(ids, key=ids.__getitem__)
    ids = {key: q for q, key in enumerate(keys)}
    bits = {atom: 1 << i for i, atom in enumerate(table.atoms)}
    literal_mask = sum(1 << f for f in table.literal)
    labels: dict[int, tuple[int, int]] = {}  # literal set -> (pos, care)
    successors: dict[int, tuple[int, ...]] = {}
    states, transitions = [], []
    for old, nxt in keys:
        lits = old & literal_mask
        if lits not in labels:
            named = [table.literal[f] for f in table.literal if lits >> f & 1]
            pos = sum(bits[atom] for atom, negated in named if not negated)
            care = sum(bits[atom] for atom, _ in named)
            labels[lits] = pos, care
        states.append(labels[lits])
        if nxt not in successors:
            successors[nxt] = tuple(sorted({ids[leaf[0]] for leaf in expand(nxt)}))
        transitions.append(successors[nxt])
    roots = {leaf[0] for leaf in expand(root)}
    initial = [ids[key] for key in nodes if key in roots]
    acceptance = [
        frozenset(
            q for q, (old, _) in enumerate(keys) if not old >> until & 1 or old >> right[until] & 1
        )
        for until in table.until_subformulas()
    ]
    return BuchiAutomaton(table.atoms, states, initial, transitions, acceptance)
