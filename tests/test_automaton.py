"""Tableau construction: every automaton field against two reference
copies, the straightforward recursive construction and the iterative one
that expands every pending node anew, plus size, depth, and equal
automata for formulas of one shape."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from conftest import (
    HIGH,
    LOW_SAT,
    ROOT,
    decision_model,
    fork_model,
    fork_of_decisions_model,
    load_bench,
    random_formula,
)
from containcheck import ltl
from containcheck.automaton import (
    _AND,
    _FALSE,
    _LIT,
    _NEXT,
    _OR,
    _TRUE,
    _UNTIL,
    BuchiAutomaton,
    _Interned,
    atom_order,
    automaton_for_negation,
)
from containcheck.ingest import load_model

# --- reference construction ----------------------------------------------
# Recursive NNF translation and tableau expansion, formulas as frozen
# dataclasses compared by value, complete nodes merged by a linear scan,
# next obligations ordered by repr. Slow and stack-bound, but each step
# reads like the textbook construction. The class names and fields set the
# repr order, which numbers the states, so they must stay as they are.


class NnfFormula:
    __slots__ = ()


@dataclass(frozen=True)
class NTrue(NnfFormula):
    pass


@dataclass(frozen=True)
class NFalse(NnfFormula):
    pass


@dataclass(frozen=True)
class NLit(NnfFormula):
    atom: str
    negated: bool


@dataclass(frozen=True)
class NAnd(NnfFormula):
    left: NnfFormula
    right: NnfFormula


@dataclass(frozen=True)
class NOr(NnfFormula):
    left: NnfFormula
    right: NnfFormula


@dataclass(frozen=True)
class NNext(NnfFormula):
    operand: NnfFormula


@dataclass(frozen=True)
class NUntil(NnfFormula):
    left: NnfFormula
    right: NnfFormula


@dataclass(frozen=True)
class NRelease(NnfFormula):
    left: NnfFormula
    right: NnfFormula


def reference_to_nnf(formula: ltl.Formula, negate: bool = False) -> NnfFormula:
    if isinstance(formula, ltl.Atom):
        return NLit(formula.name, negate)
    if isinstance(formula, ltl.TrueConst):
        return NFalse() if negate else NTrue()
    if isinstance(formula, ltl.FalseConst):
        return NTrue() if negate else NFalse()
    if isinstance(formula, ltl.Not):
        return reference_to_nnf(formula.operand, not negate)
    if isinstance(formula, ltl.Next):
        return NNext(reference_to_nnf(formula.operand, negate))
    if isinstance(formula, ltl.Always):
        if negate:
            return NUntil(NTrue(), reference_to_nnf(formula.operand, True))
        return NRelease(NFalse(), reference_to_nnf(formula.operand, False))
    if isinstance(formula, ltl.Eventually):
        if negate:
            return NRelease(NFalse(), reference_to_nnf(formula.operand, True))
        return NUntil(NTrue(), reference_to_nnf(formula.operand, False))
    if isinstance(formula, ltl.And):
        cls = NOr if negate else NAnd
        return cls(reference_to_nnf(formula.left, negate), reference_to_nnf(formula.right, negate))
    if isinstance(formula, ltl.Or):
        cls = NAnd if negate else NOr
        return cls(reference_to_nnf(formula.left, negate), reference_to_nnf(formula.right, negate))
    if isinstance(formula, ltl.Implies):
        cls = NAnd if negate else NOr
        return cls(reference_to_nnf(formula.left, not negate), reference_to_nnf(formula.right, negate))
    if isinstance(formula, ltl.Xor):
        a, b = formula.left, formula.right
        if negate:
            return NOr(
                NAnd(reference_to_nnf(a, False), reference_to_nnf(b, False)),
                NAnd(reference_to_nnf(a, True), reference_to_nnf(b, True)),
            )
        return NOr(
            NAnd(reference_to_nnf(a, False), reference_to_nnf(b, True)),
            NAnd(reference_to_nnf(a, True), reference_to_nnf(b, False)),
        )
    raise TypeError(f"untranslatable formula {formula!r}")


def _reference_untils(formula: NnfFormula) -> list[NUntil]:
    out: list[NUntil] = []

    def walk(f: NnfFormula) -> None:
        if isinstance(f, NUntil):
            if f not in out:
                out.append(f)
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (NAnd, NOr, NRelease)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, NNext):
            walk(f.operand)

    walk(formula)
    return out


_INIT = -1


class Reference(NamedTuple):
    """A reference automaton under its builder's own ids. `states` maps
    each id, in creation order, to its literals as sorted (atom, negated)
    pairs."""

    states: dict[int, tuple[tuple[str, bool], ...]]
    initial: list[int]
    transitions: dict[int, tuple[int, ...]]
    acceptance: list[frozenset[int]]

    def fields(self) -> tuple:
        """Every field with the ids relabelled 0..n-1 in increasing order,
        as automaton_for_negation numbers its states."""
        ids = sorted(self.states)
        dense = {node_id: q for q, node_id in enumerate(ids)}
        return (
            [self.states[node_id] for node_id in ids],
            tuple(dense[node_id] for node_id in self.initial),
            [tuple(dense[s] for s in self.transitions[node_id]) for node_id in ids],
            [frozenset(dense[node_id] for node_id in acc) for acc in self.acceptance],
        )


@dataclass
class _Node:
    id: int
    incoming: set[int]
    new: list[NnfFormula]
    old: set[NnfFormula]
    nxt: set[NnfFormula]


def reference_build(formula: NnfFormula) -> Reference:
    counter = [0]
    nodes: list[_Node] = []

    def fresh(incoming, new, old, nxt) -> _Node:
        counter[0] += 1
        return _Node(counter[0], set(incoming), list(new), set(old), set(nxt))

    def expand(node: _Node) -> None:
        if not node.new:
            for existing in nodes:
                if existing.old == node.old and existing.nxt == node.nxt:
                    existing.incoming |= node.incoming
                    return
            nodes.append(node)
            expand(fresh({node.id}, sorted(node.nxt, key=repr), set(), set()))
            return
        f = node.new.pop(0)
        if f in node.old or isinstance(f, NTrue):
            expand(node)
            return
        if isinstance(f, NFalse):
            return
        if isinstance(f, NLit):
            if NLit(f.atom, not f.negated) in node.old:
                return
            node.old.add(f)
            expand(node)
            return
        if isinstance(f, NAnd):
            node.old.add(f)
            for part in (f.left, f.right):
                if part not in node.old and part not in node.new:
                    node.new.append(part)
            expand(node)
            return
        if isinstance(f, NNext):
            node.old.add(f)
            node.nxt.add(f.operand)
            expand(node)
            return
        if isinstance(f, NOr):
            first = fresh(node.incoming, node.new + [f.left], node.old | {f}, node.nxt)
            second = fresh(node.incoming, node.new + [f.right], node.old | {f}, node.nxt)
        elif isinstance(f, NUntil):
            first = fresh(node.incoming, node.new + [f.left], node.old | {f}, node.nxt | {f})
            second = fresh(node.incoming, node.new + [f.right], node.old | {f}, node.nxt)
        else:
            first = fresh(node.incoming, node.new + [f.right], node.old | {f}, node.nxt | {f})
            second = fresh(node.incoming, node.new + [f.left, f.right], node.old | {f}, node.nxt)
        expand(first)
        expand(second)

    expand(fresh({_INIT}, [formula], set(), set()))

    states = {
        n.id: tuple(sorted((f.atom, f.negated) for f in n.old if isinstance(f, NLit)))
        for n in nodes
    }
    initial = [n.id for n in nodes if _INIT in n.incoming]
    transitions: dict[int, list[int]] = {n.id: [] for n in nodes}
    for node in nodes:
        for source in sorted(node.incoming):
            if source != _INIT:
                transitions[source].append(node.id)
    acceptance = [
        frozenset(n.id for n in nodes if until not in n.old or until.right in n.old)
        for until in _reference_untils(formula)
    ]
    return Reference(
        states, initial, {k: tuple(sorted(v)) for k, v in transitions.items()}, acceptance
    )


def iterative_reference(formula: ltl.Formula) -> Reference:
    """The interned tableau with one explicit stack of pending nodes, each
    expanded anew, complete nodes merged through a dict and their sources
    collected as incoming sets. Fast enough for the decision template's
    big automata, which the recursive reference cannot reach.

    A pending node is (id, source, new, old, next). A split pushes its
    second half before its first, so nodes get the ids a depth-first
    expansion gives them.
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

    states = {
        node_id: tuple(sorted(table.literal[f] for f in old if f in table.literal))
        for node_id, _, old, _ in nodes
    }
    initial = [node_id for node_id, incoming, _, _ in nodes if _INIT in incoming]
    transitions: dict[int, list[int]] = {node_id: [] for node_id, _, _, _ in nodes}
    for node_id, incoming, _, _ in nodes:
        for source in incoming:
            if source != _INIT:
                transitions[source].append(node_id)
    acceptance = [
        frozenset(
            node_id for node_id, _, old, _ in nodes if until not in old or right[until] in old
        )
        for until in table.until_subformulas()
    ]
    return Reference(
        states, initial, {k: tuple(sorted(v)) for k, v in transitions.items()}, acceptance
    )


# --- comparison ----------------------------------------------------------


def literals(auto: BuchiAutomaton, q: int) -> tuple[tuple[str, bool], ...]:
    """State q's literals as sorted (atom, negated) pairs, read back from
    its (pos, care) label."""
    pos, care = auto.states[q]
    return tuple(
        sorted((atom, not pos >> i & 1) for i, atom in enumerate(auto.atoms) if care >> i & 1)
    )


def fields(auto: BuchiAutomaton) -> tuple:
    """Every field, comparable with Reference.fields."""
    return (
        [literals(auto, q) for q in range(len(auto.states))],
        auto.initial,
        auto.transitions,
        auto.acceptance,
    )


def assert_matches(formula: ltl.Formula, expected: Reference) -> None:
    auto = automaton_for_negation(formula)
    assert auto.atoms == tuple(sorted(ltl.atoms(formula), key=repr))
    assert fields(auto) == expected.fields(), ltl.render_formula(formula)


def assert_matches_reference(formula: ltl.Formula) -> None:
    assert_matches(formula, reference_build(reference_to_nnf(formula, negate=True)))


def assert_matches_iterative(formula: ltl.Formula) -> None:
    assert_matches(formula, iterative_reference(formula))


def property_formulas(model) -> list[ltl.Formula]:
    return [
        prop.formula
        for mode in ("always", "simultaneous")
        for prop in ltl.generate_properties(model, join_mode=mode)
    ]


@pytest.mark.parametrize("path", [HIGH, LOW_SAT], ids=lambda path: path.name)
def test_fixture_properties_match_reference(path):
    # The low-level unsat fixture loops, so it yields no properties.
    for formula in property_formulas(load_model(str(path))):
        assert_matches_reference(formula)


@pytest.mark.parametrize(
    "model",
    [decision_model(k) for k in range(2, 6)]
    + [fork_model(w) for w in range(2, 9)]
    + [fork_of_decisions_model(k) for k in range(2, 4)],
    ids=lambda model: model.name,
)
def test_high_model_properties_match_reference(model):
    for formula in property_formulas(model):
        assert_matches_reference(formula)


def test_random_formulas_match_reference():
    for seed in range(400):
        rng = random.Random(seed)
        formula = random_formula(rng, ["a", "b", "c"], rng.randint(1, 5))
        assert_matches_reference(formula)
        assert_matches_reference(ltl.Not(formula))


@pytest.mark.parametrize(
    "model",
    [decision_model(6), decision_model(7), fork_of_decisions_model(4)],
    ids=lambda model: model.name,
)
def test_big_automata_match_iterative_reference(model):
    for formula in property_formulas(model):
        assert_matches_iterative(formula)


def test_random_formulas_match_iterative_reference():
    for seed in range(300):
        rng = random.Random(seed)
        formula = random_formula(rng, ["a", "b", "c", "d"], rng.randint(1, 7))
        assert_matches_iterative(formula)
        assert_matches_iterative(ltl.Not(formula))


def test_shared_subformula_objects_match_reference():
    # One object reached along several paths, under one polarity or both:
    # the translation memoizes on (object identity, polarity).
    a = ltl.Atom("a")
    x = ltl.Or(a, ltl.Eventually(ltl.Next(a)))
    for formula in [
        ltl.And(x, x),
        ltl.Not(ltl.Not(x)),
        ltl.And(a, ltl.Not(a)),
        ltl.Xor(x, ltl.Not(x)),
        ltl.Implies(ltl.Always(x), ltl.Xor(x, ltl.Eventually(x))),
    ]:
        assert_matches_reference(formula)
        assert_matches_reference(ltl.Not(formula))


def test_seven_way_decision_size():
    # The reference needs about 48 s here, so only the size is pinned.
    (decision,) = [
        prop.formula
        for prop in ltl.generate_properties(decision_model(7))
        if prop.primitive is ltl.Primitive.DECISION
    ]
    assert len(automaton_for_negation(decision).states) == 9222


def test_eight_way_decision_size():
    (decision,) = [
        prop.formula
        for prop in ltl.generate_properties(decision_model(8))
        if prop.primitive is ltl.Primitive.DECISION
    ]
    assert len(automaton_for_negation(decision).states) == 36178


def test_formula_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    nested: ltl.Formula = ltl.Atom("b")
    for _ in range(depth):
        nested = ltl.Next(nested)
    auto = automaton_for_negation(ltl.Always(ltl.Implies(ltl.Atom("a"), nested)))
    # One state per pending X step, plus the initial and the accepting sink.
    assert len(auto.states) == depth + 3


# --- one automaton per shape -----------------------------------------------
# The tableau orders literals by atom rank and its structure by the
# formula's, so formulas that differ only in atoms of equal rank must have
# equal automata: one automaton could then serve every formula of a shape.


def shape(formula: ltl.Formula) -> tuple:
    """The formula in prefix order, each operator as its class and each
    atom as its rank in `atom_order`."""
    items = ltl.preorder(formula)
    names = atom_order({item for item in items if isinstance(item, str)})
    rank = {name: i for i, name in enumerate(names)}
    return tuple(rank[item] if isinstance(item, str) else item for item in items)


def test_atoms_rank_in_repr_order():
    # The tableau sorts literals by repr(atom), so a shape ranks atoms in
    # that order: `G (b -> F a)` is not `G (a -> F b)`.
    assert shape(ltl.parse_ltl("G (a -> F b)")) == shape(ltl.parse_ltl("G (A0 -> F A1)"))
    assert shape(ltl.parse_ltl("G (b -> F a)")) != shape(ltl.parse_ltl("G (a -> F b)"))
    assert shape(ltl.parse_ltl("G (a -> F a)")) != shape(ltl.parse_ltl("G (a -> F b)"))
    # repr order, not first occurrence: "Z" sorts before "a".
    assert shape(ltl.parse_ltl("G (a -> F Z)")) == shape(ltl.parse_ltl("G (b -> F a)"))


def assert_one_automaton_per_shape(formulas) -> dict:
    """The formulas grouped by shape, each group's automata equal."""
    groups: dict[tuple, list] = {}
    for formula in formulas:
        groups.setdefault(shape(formula), []).append(formula)
    for group in groups.values():
        first = automaton_for_negation(group[0])
        for formula in group[1:]:
            auto = automaton_for_negation(formula)
            assert (auto.states, auto.initial, auto.transitions, auto.acceptance) == (
                first.states, first.initial, first.transitions, first.acceptance,
            ), (ltl.render_formula(group[0]), ltl.render_formula(formula))
    return groups


def test_workload_properties_of_one_shape_share_an_automaton():
    families = load_bench("families")
    formulas = {
        text: ltl.parse_ltl(text)
        for workload in families.WORKLOADS
        for pair in families.workload_pairs(workload, 0, ROOT)
        for text, _ in pair.expected
    }
    groups = assert_one_automaton_per_shape(formulas.values())
    assert sum(len(group) > 1 for group in groups.values()) >= 8


def test_renamed_formulas_of_one_shape_share_an_automaton():
    # Each formula is drawn three times from one seed: over a, b, c, d;
    # over four other names in the same repr order, which keeps its shape;
    # and over those names shuffled, which may not. repr order is not
    # plain string order: repr("it's") is double-quoted, so it comes first.
    pool = ["p0", "p1", "q7", "Z", "_x", "it's", "zz", "a9"]
    formulas = []
    for seed in range(300):
        depth = 1 + seed % 7
        rng = random.Random(f"rename {seed}")
        renamed = sorted(rng.sample(pool, 4), key=repr)
        shuffled = rng.sample(renamed, 4)
        original, same, other = (
            random_formula(random.Random(seed), atoms, depth)
            for atoms in (["a", "b", "c", "d"], renamed, shuffled)
        )
        assert shape(same) == shape(original), ltl.render_formula(original)
        formulas += [original, same, other]
    assert_one_automaton_per_shape(formulas)
