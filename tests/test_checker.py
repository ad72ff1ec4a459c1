"""Verdicts, counterexamples, the brute-force oracle, and report output."""

from __future__ import annotations

import json
import random
from collections import Counter
from functools import cache
from unittest import mock

import pytest

from conftest import (
    FULFILMENT_HIGH,
    FULFILMENT_LOW,
    HIGH,
    LOW_SAT,
    LOW_UNSAT,
    chain_model,
    decision_model,
    fork_model,
    fork_of_decisions_model,
    functional_low,
    lasso_violates,
    number_backwards,
    random_formula,
    random_valid_model,
)
from test_automaton import iterative_reference

from containcheck import checker, ltl
from containcheck.checker import (
    Lasso,
    Verdict,
    _shortest_lasso,
    _single_run,
    check,
    check_all,
    evaluate_on_lasso,
    oracle_check,
    render_report,
)
from containcheck.automaton import automaton_for_negation
from containcheck.cli import main
from containcheck.ingest import load_model, parse_dsl, print_dsl
from containcheck.ltl import generate_properties, parse_ltl, render_formula
from containcheck.model import ActivityModel, Edge, Node, NodeKind
from containcheck.semantics import StateCapExceeded, build_system, reachable_states
from containcheck.smv import AtomMismatchError, generate_smv

MINIMAL = "model M { initial I; final F_node; I -> F_node }"
TWO_LOOPS = """model L { initial I; merge M; action A; decision D; action B; action C;
    merge N; final F_end; I -> M; M -> A; A -> D; D -> B [left]; D -> C [right];
    D -> F_end [done]; B -> N; C -> N; N -> M }"""


def system_of(text: str):
    return build_system(generate_smv(parse_dsl(text)))


def raw_state(sys, lasso, row):
    """The reachable system state whose printable values are the lasso's row."""
    items = list(zip(lasso.var_names, row))
    return next(s for s in reachable_states(sys).order if sys.state_items(s) == items)


# --- reference evaluator and oracle --------------------------------------
# The straightforward recursive evaluation, cached by formula value, and the
# recursive path search. Stack-bound and quadratic in the lasso, but each
# step reads like the semantics.


def reference_evaluate(formula, prefix, loop, atom_value) -> bool:
    states = list(prefix) + list(loop)
    n = len(states)
    loop_start = len(prefix)
    cache: dict = {}

    def nxt(i: int) -> int:
        return i + 1 if i < n - 1 else loop_start

    def reachable(i: int) -> range:
        return range(min(i, loop_start), n) if i >= loop_start else range(i, n)

    def table(f) -> list[bool]:
        hit = cache.get(f)
        if hit is not None:
            return hit
        if isinstance(f, ltl.Atom):
            vals = [bool(atom_value(s, f.name)) for s in states]
        elif isinstance(f, ltl.TrueConst):
            vals = [True] * n
        elif isinstance(f, ltl.FalseConst):
            vals = [False] * n
        elif isinstance(f, ltl.Not):
            vals = [not v for v in table(f.operand)]
        elif isinstance(f, ltl.Next):
            inner = table(f.operand)
            vals = [inner[nxt(i)] for i in range(n)]
        elif isinstance(f, ltl.Eventually):
            inner = table(f.operand)
            vals = [any(inner[j] for j in reachable(i)) for i in range(n)]
        elif isinstance(f, ltl.Always):
            inner = table(f.operand)
            vals = [all(inner[j] for j in reachable(i)) for i in range(n)]
        else:
            left, right = table(f.left), table(f.right)
            if isinstance(f, ltl.And):
                vals = [a and b for a, b in zip(left, right)]
            elif isinstance(f, ltl.Or):
                vals = [a or b for a, b in zip(left, right)]
            elif isinstance(f, ltl.Xor):
                vals = [a != b for a, b in zip(left, right)]
            else:
                vals = [(not a) or b for a, b in zip(left, right)]
        cache[f] = vals
        return vals

    return table(formula)[0]


def reference_oracle(sys, prop, depth: int) -> Verdict:
    failing = []

    def explore(path: list) -> bool:
        if len(path) >= depth:
            return False
        for succ in sys.successors(path[-1]):
            for j, earlier in enumerate(path):
                if earlier == succ:
                    prefix, loop = path[:j], path[j:]
                    if reference_evaluate(prop, prefix, loop, sys.atom_value) is False:
                        failing.append((prefix, loop))
                        return True
            path.append(succ)
            if explore(path):
                return True
            path.pop()
        return False

    explore([sys.initial])
    if not failing:
        return Verdict(prop, True)
    prefix, loop = failing[0]

    def printable(states):
        return tuple(tuple(value for _, value in sys.state_items(s)) for s in states)

    return Verdict(prop, False, Lasso(sys.var_names, printable(prefix), printable(loop)))


@pytest.fixture(scope="module")
def high_properties(high_model):
    return generate_properties(high_model)


class TestCheckFixtures:
    def test_unsat_pair_vector(self, low_unsat_system, high_properties):
        verdicts = check_all(low_unsat_system, high_properties)
        assert [v.holds for v in verdicts] == [True, False, True, True, True, True]

    def test_sat_pair_all_hold(self, low_sat_system, high_properties):
        verdicts = check_all(low_sat_system, high_properties)
        assert [v.holds for v in verdicts] == [True] * 6

    def test_counterexample_shape(self, low_unsat_system, high_properties):
        verdict = check_all(low_unsat_system, high_properties)[1]
        lasso = verdict.counterexample
        loop_rows = lasso.loop_dicts()
        assert all(row["ReplyCreditCardNotOK"] == "FALSE" for row in loop_rows)
        assert any(
            row["ConfirmOrderCancelation"] == "TRUE" for row in lasso.prefix_dicts()
        )

    def test_counterexample_is_a_real_lasso(self, low_unsat_system, high_properties):
        sys = low_unsat_system
        lasso = check_all(sys, high_properties)[1].counterexample
        prefix = [raw_state(sys, lasso, row) for row in lasso.prefix]
        loop = [raw_state(sys, lasso, row) for row in lasso.loop]
        assert loop[0] in sys.successors(loop[-1])
        if prefix:
            assert loop[0] in sys.successors(prefix[-1])
            assert prefix[0] == sys.initial
        for a, b in zip(prefix + loop, (prefix + loop)[1:]):
            assert b in sys.successors(a)

    def test_vacuous_implication_holds(self, low_unsat_system):
        # ReplyOrderStatus never pulses in this refinement, so anything
        # it implies is vacuously satisfied.
        verdict = check(low_unsat_system, parse_ltl("G (ReplyOrderStatus -> F InitialNode1)"))
        assert verdict.holds

    def test_verdicts_keep_property_metadata(self, low_unsat_system, high_properties):
        verdicts = check_all(low_unsat_system, high_properties)
        assert [v.primitive for v in verdicts] == [p.primitive for p in high_properties]
        assert [v.formula for v in verdicts] == [p.formula for p in high_properties]

    def test_check_keeps_property_metadata(self, low_unsat_system, high_properties):
        # check takes a GeneratedProperty whole, as check_all does, and its
        # verdict carries the property's construct and node.
        verdicts = [check(low_unsat_system, p) for p in high_properties]
        assert not all(v.holds for v in verdicts)
        for verdict, prop in zip(verdicts, high_properties):
            assert (verdict.formula, verdict.primitive, verdict.origin) == (
                prop.formula, prop.primitive, prop.origin
            )
            assert verdict == check_all(low_unsat_system, [prop])[0]
        bare = check(low_unsat_system, high_properties[0].formula)
        assert (bare.primitive, bare.origin) == (None, None)

    def test_order_invariance(self, low_unsat_system, high_properties):
        forward = [v.holds for v in check_all(low_unsat_system, high_properties)]
        backward = [v.holds for v in check_all(low_unsat_system, high_properties[::-1])]
        assert backward == forward[::-1]

    def test_empty_property_list(self, low_unsat_system):
        assert check_all(low_unsat_system, []) == []


class TestCheckSmall:
    def test_hand_verdicts_on_minimal_chain(self):
        sys = system_of(MINIMAL)
        cases = [
            ("G (I -> F F_node)", True),
            ("F F_node", True),
            ("X F_node", True),
            ("X X F_node", False),
            ("G F F_node", False),  # the sink keeps F_node low forever
            ("F G !F_node", True),
            ("G !I | F F_node", True),
        ]
        for text, expected in cases:
            assert check(sys, parse_ltl(text)).holds is expected, text

    def test_unknown_atom(self, low_unsat_system):
        with pytest.raises(AtomMismatchError):
            check(low_unsat_system, parse_ltl("G Nope"))

    def test_decision_scalar_atom_rejected(self, low_unsat_system):
        with pytest.raises(AtomMismatchError, match="DecisionNode1"):
            check(low_unsat_system, parse_ltl("F DecisionNode1"))

    def test_every_entry_point_gives_one_unknown_atom_message(self, tmp_path, capsys):
        # Nope and Zap are in neither low model, and only G (Nope -> F Zap)
        # names both, so the CLI's message over every property is the
        # library's for that formula.
        high = tmp_path / "high.behavior"
        high.write_text(
            "model H { initial I; action Nope; action Zap; final F_end;"
            " I -> Nope; Nope -> Zap; Zap -> F_end }"
        )
        formula = parse_ltl("G (Nope -> F Zap)")
        assert formula in [p.formula for p in generate_properties(load_model(str(high)))]
        message = "atoms missing from the model: Nope, Zap"
        for low, single_run in ((chain_model(1), True), (decision_model(2), False)):
            path = tmp_path / f"{low.name}.behavior"
            path.write_text(print_dsl(low))
            assert main(["check", str(high), str(path)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            sys = build_system(generate_smv(low))
            assert (_single_run(sys, 100) is not None) is single_run
            for run in (
                lambda: check(sys, formula),
                lambda: check_all(sys, [formula]),
                lambda: oracle_check(sys, formula, 10),
            ):
                with pytest.raises(AtomMismatchError) as raised:
                    run()
                assert str(raised.value) == message

    def test_product_cap(self, low_unsat_system, high_properties):
        with pytest.raises(StateCapExceeded) as raised:
            check(low_unsat_system, high_properties[1].formula, cap=2)
        assert (raised.value.cap, raised.value.frontier) == (2, 1)
        # The frontier counts the nodes found so far in the current BFS level.
        with pytest.raises(StateCapExceeded) as raised:
            check(low_unsat_system, high_properties[1].formula, cap=10)
        assert (raised.value.cap, raised.value.frontier) == (10, 6)

    def test_nonpositive_cap_refused(self):
        # As reachable_states refuses it, so that no cap below 1 reads as a
        # bound, not even on a single run whose properties all hold.
        sys = build_system(generate_smv(load_model(str(FULFILMENT_LOW))))
        holding = generate_properties(load_model(str(FULFILMENT_HIGH)))[0]
        for cap in (0, -1):
            for run in (lambda: check(sys, holding.formula, cap), lambda: check_all(sys, [holding], cap)):
                with pytest.raises(ValueError, match="^cap must be positive$"):
                    run()

    def test_cap_bounds_the_product_not_the_automaton(self, searched):
        # The automaton is built whole whatever the cap: for a 6-way
        # decision it has 2,446 states, over twice the cap, yet its product
        # with the decision's own system has 942 states, so the check fits.
        model = decision_model(6)
        (decision,) = [
            p.formula for p in generate_properties(model) if p.primitive is ltl.Primitive.DECISION
        ]
        sys = build_system(generate_smv(model))
        assert check(sys, decision, cap=1000).holds
        ((qs, _),) = searched
        assert (len(automaton_for_negation(decision).states), len(qs)) == (2446, 942)

    def test_decision_template_is_xor_parity(self):
        # The decision template chains binary xor, so with k branches it
        # means "an odd number of them happen". A refinement that runs all
        # k branches, a fork and a join in place of the decision and the
        # merge, keeps every property exactly when k is odd.
        swap = {NodeKind.DECISION: NodeKind.FORK, NodeKind.MERGE: NodeKind.JOIN}
        for k in range(2, 6):
            high = decision_model(k)
            low = ActivityModel(
                f"ForkJoin{k}",
                [Node(n.id, swap.get(n.kind, n.kind)) for n in high.nodes],
                [Edge(e.source, e.target) for e in high.edges],
            )
            verdicts = check_all(build_system(generate_smv(low)), generate_properties(high))
            assert [v.holds for v in verdicts] == [True, k % 2 == 1, True, True], k
            assert verdicts[1].primitive is ltl.Primitive.DECISION

    @pytest.mark.parametrize("branches", [("P1 [deep]", "MB [shallow]"), ("MB [shallow]", "P1 [deep]")])
    def test_lasso_enters_the_fair_scc_discovered_first(self, branches):
        # Two loops that avoid both finals, so two fair SCCs: loop A three
        # steps deeper than loop B. Whichever branch the search takes
        # first, the prefix is the shortest path into loop B.
        sys = system_of(
            "model Two { initial I; decision D; action P1; action P2; action P3;"
            " merge MA; action A; decision DA; merge MB; action B; decision DB;"
            " final F1; final F2; I -> D; D -> %s; D -> %s; P1 -> P2; P2 -> P3;"
            " P3 -> MA; MA -> A; A -> DA; DA -> MA [again]; DA -> F1 [done];"
            " MB -> B; B -> DB; DB -> MB [again]; DB -> F2 [done] }" % branches
        )
        lasso = check(sys, parse_ltl("F (F1 | F2)")).counterexample

        def active(rows):
            # Pulsing nodes, and decisions holding a branch value.
            return [[name for name, value in row.items() if value not in ("FALSE", "undetermined")] for row in rows]

        assert active(lasso.prefix_dicts()) == [["I"], ["D"]]
        assert lasso.prefix_dicts()[1]["D"] == "guard_D_MB"
        assert active(lasso.loop_dicts()) == [["MB"], ["B"], ["DB"]]

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            Verdict(parse_ltl("G a"), holds=False, counterexample=None)


# --- product graph ---------------------------------------------------------
# check tests each product edge on bitmasks. The reference below is the
# per-edge test it replaced, each literal read through value_of, over the
# reference tableau of test_automaton with its literals computed there;
# both must hand _find_fair_scc the same qs and adjacency.


def reference_product(sys, prop):
    """(qs, adjacency) of the product, built breadth first with product
    nodes numbered in discovery order. The reference tableau's ids are
    relabelled in increasing order, as check's automaton numbers them."""
    literals, initial, transitions, _ = iterative_reference(prop).fields()

    def satisfies(state, q):
        return all(sys.value_of(state, atom) != negated for atom, negated in literals[q])

    ids: dict = {}
    states, qs = [], []
    for q in initial:
        if satisfies(sys.initial, q):
            ids[sys.initial, q] = len(states)
            states.append(sys.initial)
            qs.append(q)
    adjacency = {}
    node = 0
    while node < len(states):  # ids in order are breadth first
        succs = []
        for next_state in sys.successors(states[node]):
            for q2 in transitions[qs[node]]:
                if satisfies(next_state, q2):
                    succ = ids.setdefault((next_state, q2), len(states))
                    if succ == len(states):
                        states.append(next_state)
                        qs.append(q2)
                    succs.append(succ)
        adjacency[node] = tuple(succs)
        node += 1
    return qs, adjacency


@pytest.fixture()
def searched(monkeypatch):
    """The (qs, adjacency) of each product check passes to _find_fair_scc."""
    out = []
    search = checker._find_fair_scc

    def recorded(adjacency, qs, auto):
        out.append((list(qs), dict(adjacency)))
        return search(adjacency, qs, auto)

    monkeypatch.setattr(checker, "_find_fair_scc", recorded)
    return out


def by_product(sys, prop, cap=10**6):
    """check's product search alone, with no single-run decision, so a
    property that holds on a single run reaches the product too."""
    with mock.patch.object(checker, "_single_run", lambda sys, cap: None):
        return check(sys, prop, cap)


def assert_products_match(sys, formulas, searched) -> list[Verdict]:
    verdicts = []
    for formula in formulas:
        searched.clear()
        verdicts.append(by_product(sys, formula))
        assert searched == [reference_product(sys, formula)], render_formula(formula)
    return verdicts


class TestProductGraph:
    def test_fixtures(self, searched):
        for high, low in ((HIGH, LOW_UNSAT), (HIGH, LOW_SAT), (FULFILMENT_HIGH, FULFILMENT_LOW)):
            sys = build_system(generate_smv(load_model(str(low))))
            formulas = [p.formula for p in generate_properties(load_model(str(high)))]
            assert_products_match(sys, formulas, searched)

    @pytest.mark.parametrize(
        "model",
        [fork_of_decisions_model(3), decision_model(5), fork_model(4)],
        ids=lambda model: model.name,
    )
    def test_families(self, model, searched):
        sys = build_system(generate_smv(model))
        atoms = [d.name for d in sys.module.vars if d.is_boolean]
        rng = random.Random(len(atoms))
        formulas = [p.formula for p in generate_properties(model)]
        formulas += [random_formula(rng, atoms, 4) for _ in range(10)]
        assert_products_match(sys, formulas, searched)

    def test_random_models(self, searched):
        rng = random.Random(2110)
        violated = 0
        for seed in range(200):
            model = random_valid_model(seed)
            sys = build_system(generate_smv(model))
            atoms = [d.name for d in sys.module.vars if d.is_boolean]
            formulas = [random_formula(rng, atoms, 3) for _ in range(3)]
            verdicts = assert_products_match(sys, formulas, searched)
            violated += sum(not v.holds for v in verdicts)
        assert violated >= 100


class TestEvaluateOnLasso:
    # One pulse of a then forever b; hand-derived expectations.
    PREFIX = [{"a": True, "b": False}]
    LOOP = [{"a": False, "b": True}]

    @staticmethod
    def atom(state, name):
        return state[name]

    def eval(self, text, prefix=None, loop=None):
        return evaluate_on_lasso(
            parse_ltl(text),
            self.PREFIX if prefix is None else prefix,
            self.LOOP if loop is None else loop,
            self.atom,
        )

    def test_eventually(self):
        assert self.eval("F b") is True

    def test_always_fails_on_loop(self):
        assert self.eval("G a") is False

    def test_next(self):
        assert self.eval("X a") is False
        assert self.eval("X b") is True

    def test_response(self):
        assert self.eval("G (a -> F b)") is True

    def test_xor_of_two_truths(self):
        assert self.eval("F a xor F b") is False

    def test_next_wraps_around_loop(self):
        loop = [{"p": True}, {"p": False}]
        assert evaluate_on_lasso(parse_ltl("X p"), [], loop, self.atom) is False
        assert evaluate_on_lasso(parse_ltl("X X p"), [], loop, self.atom) is True
        # From the last state, X reads the loop's first state, not the word's.
        assert self.eval("G X b") is True

    def test_infinitely_often_on_two_state_loop(self):
        loop = [{"p": True}, {"p": False}]
        assert evaluate_on_lasso(parse_ltl("G F p"), [], loop, self.atom) is True
        assert evaluate_on_lasso(parse_ltl("F G p"), [], loop, self.atom) is False

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            evaluate_on_lasso(parse_ltl("G a"), [], [], self.atom)

    def test_formula_deeper_than_the_recursion_limit(self):
        conjunction = ltl.conjoin([ltl.Atom(f"a{i}") for i in range(1500)])
        state = {f"a{i}": i != 700 for i in range(1500)}
        formula = ltl.Always(conjunction)
        assert evaluate_on_lasso(formula, [], [state], self.atom) is False
        assert evaluate_on_lasso(ltl.Not(formula), [], [state], self.atom) is True

    def test_random_formulas_match_reference(self):
        atoms = ["a", "b", "c"]
        for seed in range(400):
            rng = random.Random(seed)
            formula = random_formula(rng, atoms, rng.randint(2, 6))
            for _ in range(8):
                prefix, loop = (
                    [{a: rng.random() < 0.5 for a in atoms} for _ in range(size)]
                    for size in (rng.randint(0, 4), rng.randint(1, 5))
                )
                for f in (formula, ltl.Not(formula)):
                    expected = reference_evaluate(f, prefix, loop, self.atom)
                    assert evaluate_on_lasso(f, prefix, loop, self.atom) is expected, (
                        render_formula(f), prefix, loop
                    )


class TestOracle:
    def test_minimal_agreement(self):
        sys = system_of(MINIMAL)
        prop = parse_ltl("G (I -> F F_node)")
        assert oracle_check(sys, prop, depth=8).holds is check(sys, prop).holds is True

    def test_unsat_fixture_violation(self, low_unsat_system, high_properties):
        reach = len(reachable_states(low_unsat_system).states)
        verdict = oracle_check(low_unsat_system, high_properties[1].formula, depth=reach)
        assert verdict.holds is False
        assert lasso_violates(verdict.formula, verdict.counterexample)

    def test_random_agreement(self):
        disagreements = []
        for seed in range(60):
            model = random_valid_model(seed)
            sys = build_system(generate_smv(model))
            depth = len(reachable_states(sys).states) + 2
            for prop in generate_properties(model):
                internal = check(sys, prop.formula)
                brute = oracle_check(sys, prop.formula, depth)
                if internal.holds != brute.holds:
                    disagreements.append((seed, render_formula(prop.formula)))
        assert disagreements == []

    def test_arbitrary_formula_agreement(self):
        """Agreement is not limited to generated property shapes."""
        for seed in range(80):
            rng = random.Random(seed * 7919)
            sys = build_system(generate_smv(random_valid_model(seed)))
            atoms = [d.name for d in sys.module.vars if d.is_boolean]
            depth = len(reachable_states(sys).states) + 2
            for _ in range(3):
                formula = random_formula(rng, atoms, rng.randint(1, 4))
                assert (
                    check(sys, formula).holds
                    == oracle_check(sys, formula, depth).holds
                ), render_formula(formula)

    def test_first_violation_matches_reference(self):
        """Same visiting order as the recursive search: the same verdict
        and, on a violation, the same first lasso, also where the depth
        cuts paths short."""
        # The cyclic systems close lassos whose loops span several states.
        systems = [
            build_system(generate_smv(parse_dsl(TWO_LOOPS))),
            build_system(generate_smv(load_model(str(LOW_UNSAT)))),
        ]
        systems += [build_system(generate_smv(random_valid_model(seed))) for seed in range(30)]
        # Every loop passes N. At depth 16, I M A D B N M A D B N M A D C
        # reaches N again with N twice on the path: both lassos violate
        # "F G !C", and the earlier occurrence must be reported.
        for text in ("F G !C", "G !C", "F G !B", "G F C", "G (B -> X X !C)"):
            for depth in range(1, 19):
                expected = reference_oracle(systems[0], parse_ltl(text), depth)
                assert oracle_check(systems[0], parse_ltl(text), depth) == expected, (text, depth)
        rng = random.Random(4051)
        loops = []
        for sys in systems:
            atoms = [d.name for d in sys.module.vars if d.is_boolean]
            reach = len(reachable_states(sys).states)
            for _ in range(8):
                formula = random_formula(rng, atoms, rng.randint(1, 4))
                depth = rng.randint(1, min(reach + 3, 13))
                expected = reference_oracle(sys, formula, depth)
                got = oracle_check(sys, formula, depth)
                assert got == expected, (render_formula(formula), depth)
                if not expected.holds:
                    loops.append(len(expected.counterexample.loop))
        assert len(loops) > 50 and max(loops) > 1

    def test_shortest_lasso_spells_the_same_word(self):
        """The oracle skips a lasso whose shortest form it has seen hold,
        so that form must spell the lasso's word; and each word has one."""

        def word(prefix, loop):
            # Two lassos of at most 7 + 7 states spell one word exactly
            # when their first 7 + 7 * 7 letters agree.
            return tuple((list(prefix) + list(loop) * 56)[:56])

        rng = random.Random(17)
        words: dict[tuple, tuple] = {}
        for _ in range(3000):
            path = [rng.randint(0, 2) for _ in range(rng.randint(1, 7))]
            j = rng.randrange(len(path))
            shortest = _shortest_lasso(path, j)
            assert word(*shortest) == word(path[:j], path[j:]), (path, j, shortest)
            assert words.setdefault(word(*shortest), shortest) == shortest

    def test_oracle_takes_a_generated_property(self, low_unsat_system, high_properties):
        # The same verdict and lasso as for the bare formula, labelled as
        # check labels it.
        depth = len(reachable_states(low_unsat_system).states)
        for prop in high_properties:
            whole = oracle_check(low_unsat_system, prop, depth)
            bare = oracle_check(low_unsat_system, prop.formula, depth)
            assert (whole.holds, whole.counterexample) == (bare.holds, bare.counterexample)
            assert (whole.primitive, whole.origin) == (prop.primitive, prop.origin)
            assert (bare.primitive, bare.origin) == (None, None)
        assert not oracle_check(low_unsat_system, high_properties[1], depth).holds

    def test_oracle_refuses_a_nonpositive_depth(self):
        from containcheck.checker import OracleError

        with pytest.raises(OracleError, match="^depth must be positive$"):
            oracle_check(system_of(MINIMAL), parse_ltl("F F_node"), 0)

    def test_oracle_counterexamples_are_sound(self, low_unsat_system, high_properties):
        verdict = oracle_check(low_unsat_system, high_properties[1].formula, depth=30)
        assert lasso_violates(verdict.formula, verdict.counterexample)

    def test_oracle_rejects_oversized_systems(self):
        # A fork into eight 3-way decisions makes the scalars take values
        # simultaneously: 3^8 combinations exceed the oracle's state limit.
        from containcheck.checker import OracleError
        from containcheck.model import ActivityModel, Edge, Node, NodeKind

        nodes = [Node("I", NodeKind.INITIAL), Node("K", NodeKind.FORK)]
        edges = [Edge("I", "K")]
        for i in range(8):
            nodes.append(Node(f"D{i}", NodeKind.DECISION))
            edges.append(Edge("K", f"D{i}"))
            for j in range(3):
                nodes.append(Node(f"E{i}_{j}", NodeKind.FINAL))
                edges.append(Edge(f"D{i}", f"E{i}_{j}"))
        sys = build_system(generate_smv(ActivityModel("Wide", nodes, edges)))
        with pytest.raises(OracleError, match="too large"):
            oracle_check(sys, parse_ltl("F E0_0"), depth=4)


class TestSoundness:
    def test_fixture_lassos_violate(self, low_unsat_system, high_properties):
        for verdict in check_all(low_unsat_system, high_properties):
            if not verdict.holds:
                assert lasso_violates(verdict.formula, verdict.counterexample)

    def test_random_lassos_violate(self):
        for seed in range(40):
            model = random_valid_model(seed)
            sys = build_system(generate_smv(model))
            for verdict in check_all(sys, generate_properties(model)):
                if not verdict.holds:
                    assert lasso_violates(verdict.formula, verdict.counterexample)


# --- one run, decided on its lasso ----------------------------------------
# check decides a holding property of a single-run system without a
# product, and check_all is check on each property in input order: the
# same verdicts and lassos, or the same first exception.

def outcome(run):
    try:
        return run()
    except (StateCapExceeded, AtomMismatchError) as exc:
        return type(exc), str(exc)


def per_property(sys, properties, cap, decide=check):
    """decide on each property in turn."""
    return outcome(lambda: [decide(sys, prop, cap) for prop in properties])


def decided_on_the_run(sys, properties, cap):
    """What check and check_all must return at `cap` on a single-run
    system: a property that holds on a run of at most `cap` states holds,
    and every other property gets what the product search gives at `cap`."""
    n = single_run_length(sys)

    def decide(sys, prop, cap):
        verdict = by_product(sys, prop, 10**6)
        if n <= cap and verdict.holds:
            return verdict
        return by_product(sys, prop, cap)

    return per_property(sys, properties, cap, decide)


def cap_sweep(sys, properties):
    """Caps around each product bound (run length, or reachable states on
    a branching system, times automaton states) and up to twice that
    length."""
    n = single_run_length(sys) or len(reachable_states(sys).states)
    sizes = {len(automaton_for_negation(ltl.parts(p)[0]).states) for p in properties}
    caps = set(range(1, 2 * n + 2)) | {n * q + d for q in sizes for d in (-1, 0, 1)}
    return sorted(c for c in caps if c > 0)


def single_run_length(sys):
    """The number of states on the system's run if it never branches."""
    seen, state = set(), sys.initial
    while state not in seen:
        seen.add(state)
        succs = sys.successors(state)
        if len(succs) != 1:
            return None
        state = succs[0]
    return len(seen)


def agreement_cases():
    """(name, low model, properties): single-run lows from the chain and
    fork families, decision-free random models and deterministic cyclic
    digraphs, under generated and random properties; and branching lows,
    whose properties must all go to check."""
    rng = random.Random(1814)

    def mixed(model, high=None):
        # Decision nodes are scalars, not atoms.
        atoms = [n.id for n in model.nodes if n.kind is not NodeKind.DECISION]
        props = list(generate_properties(high)) if high is not None else []
        props += [random_formula(rng, atoms, 3) for _ in range(3)]
        a, b = rng.sample(atoms, 2) if len(atoms) > 1 else (atoms[0], atoms[0])
        props.append(parse_ltl(f"G ({a} -> F {b})"))
        # Persistence is where a loop read as a finite word goes wrong.
        props += [parse_ltl(f"F G {c}") for c in rng.sample(atoms, min(3, len(atoms)))]
        return props

    cases = []
    for n in range(1, 13):
        low = chain_model(n)
        cases.append((f"chain{n}", low, mixed(low, chain_model(rng.randint(1, n)))))
    for w in range(2, 9):
        low = fork_model(w)
        cases.append((f"fork{w}", low, mixed(low, fork_model(rng.randint(2, w)))))
    decision_free, branching = [], []
    for seed in range(600):
        model = random_valid_model(seed)
        kinds = {n.kind for n in model.nodes}
        (branching if NodeKind.DECISION in kinds else decision_free).append(model)
    for i, low in enumerate(decision_free[:200]):
        highs = [m for m in decision_free if len(m.nodes) <= len(low.nodes)]
        cases.append((f"valid{i}", low, mixed(low, rng.choice(highs))))
    for seed in range(200):
        low = functional_low(seed)
        cases.append((f"functional{seed}", low, mixed(low)))
    for i, low in enumerate(branching[:80]):
        cases.append((f"branching{i}", low, mixed(low, low)))
    for k in (2, 3):
        low = decision_model(k)
        cases.append((f"decision{k}", low, mixed(low, low)))
    return cases


@pytest.fixture(scope="module")
def agreement():
    return agreement_cases()


class TestSingleRun:
    def test_cases_cover_single_runs_and_branching(self, agreement):
        lengths = [single_run_length(build_system(generate_smv(low))) for _, low, _ in agreement]
        single = [n for n in lengths if n is not None]
        assert len(agreement) >= 500
        assert len(single) >= 400 and len(agreement) - len(single) >= 80
        # Deterministic digraphs with a loop, not only runs into the sink.
        assert sum(1 for name, low, _ in agreement if name.startswith("functional")
                   and NodeKind.MERGE in {n.kind for n in low.nodes}) >= 50

    def test_verdicts_equal_check_at_the_default_cap(self, agreement):
        violated = held = 0
        for name, low, props in agreement:
            sys = build_system(generate_smv(low))
            expected = per_property(sys, props, 10**6)
            assert outcome(lambda: check_all(sys, props)) == expected, name
            if isinstance(expected, list):
                violated += sum(not v.holds for v in expected)
                held += sum(v.holds for v in expected)
        assert violated >= 300 and held >= 1000

    def test_cap_errors_equal_check(self, agreement):
        # A property that holds on the run needs only the run to fit the
        # cap; every other one raises where the product search raises.
        raised = decided_where_the_product_raises = 0
        for name, low, props in agreement[:19] + agreement[19::25]:
            sys = build_system(generate_smv(low))
            if single_run_length(sys) is None:
                continue
            for cap in cap_sweep(sys, props):
                expected = decided_on_the_run(sys, props, cap)
                assert per_property(sys, props, cap) == expected, (name, cap)
                assert outcome(lambda: check_all(sys, props, cap)) == expected, (name, cap)
                raised += isinstance(expected, tuple)
                decided_where_the_product_raises += isinstance(expected, list) and isinstance(
                    per_property(sys, props, cap, by_product), tuple
                )
        assert raised >= 300 and decided_where_the_product_raises >= 10

    def test_check_equals_check_all_on_one_property(self, agreement, monkeypatch):
        # One decision procedure: check_all of one property is check of it,
        # verdict and lasso or exception, at every cap of the sweep. Each
        # formula's automaton is built once, as every build gives the same.
        monkeypatch.setattr(checker, "automaton_for_negation", cache(automaton_for_negation))
        for name, low, props in agreement:
            sys = build_system(generate_smv(low))
            for cap in cap_sweep(sys, props):
                for prop in props:
                    assert per_property(sys, [prop], cap) == outcome(
                        lambda: check_all(sys, [prop], cap)
                    ), (name, cap, prop)

    @pytest.fixture()
    def fulfilment(self):
        sys = build_system(generate_smv(load_model(str(FULFILMENT_LOW))))
        return sys, generate_properties(load_model(str(FULFILMENT_HIGH)))

    def test_unknown_atom_before_and_after_a_capped_property(self, fulfilment):
        # G (Start -> F ReceiveOrder) holds on the run, which fits a cap of
        # 11, but its product needs 12 states: at cap 11 check and
        # check_all both decide it on the run.
        sys, props = fulfilment
        holding, bad = props[0], parse_ltl("G Nowhere")
        assert by_product(sys, holding.formula, 12).holds
        with pytest.raises(StateCapExceeded, match=r"cap of 11 states exceeded \(frontier size 1\)"):
            by_product(sys, holding.formula, 11)
        expected = decided_on_the_run(sys, [holding], 11)
        assert [v.holds for v in expected] == [True]
        assert per_property(sys, [holding], 11) == expected
        assert outcome(lambda: check_all(sys, [holding], cap=11)) == expected
        for cap in (11, 12):
            for order in ([bad, holding], [holding, bad]):
                expected = decided_on_the_run(sys, order, cap)
                assert expected[0] is AtomMismatchError
                assert per_property(sys, order, cap) == expected
                assert outcome(lambda: check_all(sys, order, cap=cap)) == expected

    def test_the_walk_stops_at_the_cap(self):
        # A run longer than the cap is left to check, which stops at the
        # cap too; neither computes the successors of the whole run.
        sys = build_system(generate_smv(chain_model(200)))
        with pytest.raises(StateCapExceeded):
            check_all(sys, [parse_ltl("G (I -> F A0)")], cap=20)
        assert len(sys._successor_cache) <= 20

    def test_an_unknown_atom_is_refused_on_a_single_run(self):
        sys = build_system(generate_smv(chain_model(2)))
        with pytest.raises(AtomMismatchError, match="Nope"):
            check_all(sys, [parse_ltl("G (I -> F A0)"), parse_ltl("F Nope")])

    def test_holding_properties_build_no_product(self, fulfilment, monkeypatch):
        # Only the violated property builds an automaton and reaches the
        # fair-SCC search; the four holding ones are decided on the run.
        sys, props = fulfilment
        calls = Counter()
        search, build = checker._find_fair_scc, checker.automaton_for_negation

        def counted_search(*args):
            calls["search"] += 1
            return search(*args)

        def counted_build(formula):
            calls["build"] += 1
            return build(formula)

        monkeypatch.setattr(checker, "_find_fair_scc", counted_search)
        monkeypatch.setattr(checker, "automaton_for_negation", counted_build)
        verdicts = check_all(sys, props)
        assert [v.holds for v in verdicts] == [True, False, True, True, True]
        assert calls == {"search": 1, "build": 1}


@pytest.fixture(scope="module")
def numbering_cases():
    """(module, formulas) per system: the fixtures under the high model's
    properties, and a fork of decisions under its own properties plus
    random formulas (most of them violated)."""
    high = generate_properties(load_model(str(HIGH)))
    cases = {
        low.stem: (generate_smv(load_model(str(low))), [p.formula for p in high])
        for low in (LOW_UNSAT, LOW_SAT)
    }
    model = fork_of_decisions_model(3)
    module = generate_smv(model)
    sys = build_system(module)
    atoms = [d.name for d in sys.module.vars if d.is_boolean]
    rng = random.Random(2024)
    formulas = [p.formula for p in generate_properties(model)]
    formulas += [random_formula(rng, atoms, 4) for _ in range(25)]
    cases["fork_of_decisions3"] = (module, formulas)
    return cases


class TestStateNumbering:
    """A system numbers its states as callers first reach them. No verdict,
    lasso or report byte may depend on which caller that was."""

    @pytest.mark.parametrize(
        "case", ["fork_of_decisions3", "order_processing_low_sat", "order_processing_low_unsat"]
    )
    def test_reports_do_not_depend_on_who_numbered_first(self, numbering_cases, case):
        module, formulas = numbering_cases[case]
        outputs = []
        for number_first in (None, reachable_states, number_backwards):
            sys = build_system(module)
            if number_first is not None:
                number_first(sys)
            verdicts = check_all(sys, formulas)
            depth = len(reachable_states(sys).states) + 2
            oracle = [oracle_check(sys, f, depth) for f in formulas]
            outputs.append(
                (render_report(verdicts, "text"), render_report(verdicts, "json"), oracle)
            )
        # Lassos are where a numbering could leak into the output.
        assert any(not v.holds for v in verdicts) == (case != "order_processing_low_sat")
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestReport:
    @pytest.fixture()
    def verdicts(self, low_unsat_system, high_properties):
        return check_all(low_unsat_system, high_properties)

    def test_text_verdict_lines(self, verdicts):
        lines = render_report(verdicts).splitlines()
        spec_lines = [ln for ln in lines if ln.startswith("-- specification")]
        assert len(spec_lines) == 6
        assert spec_lines[1].endswith("is false")
        assert all(ln.endswith("is true") for ln in spec_lines[:1] + spec_lines[2:])

    def test_text_first_state_full_then_deltas(self, verdicts, low_unsat_system):
        lines = render_report(verdicts).splitlines()
        start = lines.index("-> State: 1.1 <-")
        block = []
        for line in lines[start + 1 :]:
            if line.startswith("->") or line.startswith("--"):
                break
            block.append(line.strip())
        assert len(block) == len(low_unsat_system.var_names)
        second = lines.index("-> State: 1.2 <-")
        deltas = lines[second + 1 : second + 3]
        assert deltas == ["  InitialNode1 = FALSE", "  ReceiveNewOrder = TRUE"]
        assert not lines[second + 3].startswith("  ")

    def test_text_loop_marker_and_closing_state(self, verdicts):
        lines = render_report(verdicts).splitlines()
        marker = lines.index("-- Loop starts here")
        assert lines[marker + 1] == "-> State: 1.8 <-"
        assert lines[marker + 2] == "  ActivityFinalNode2 = FALSE"
        assert lines[marker + 3] == "-> State: 1.9 <-"
        # The closing state repeats the loop start, so no variables change.
        assert lines[marker + 4].startswith("--")

    def test_all_true_report_has_no_traces(self, low_sat_system, high_properties):
        text = render_report(check_all(low_sat_system, high_properties))
        assert "Counterexample" not in text
        assert text.count("is true") == 6

    def test_json_schema(self, verdicts):
        doc = json.loads(render_report(verdicts, format="json"))
        assert set(doc) == {"properties"}
        assert len(doc["properties"]) == 6
        entry = doc["properties"][1]
        assert set(entry) == {"formula", "primitive", "holds", "counterexample"}
        assert entry["holds"] is False
        assert entry["primitive"] == "decision"
        cex = entry["counterexample"]
        assert set(cex) == {"prefix", "loop"}
        assert len(cex["prefix"]) == 7 and len(cex["loop"]) == 1
        assert cex["prefix"][0]["InitialNode1"] is True
        assert cex["loop"][0]["DecisionNode1"] == "undetermined"

    def test_json_true_entries_lack_counterexample(self, verdicts):
        doc = json.loads(render_report(verdicts, format="json"))
        for entry in doc["properties"]:
            assert entry["holds"] == ("counterexample" not in entry)

    def test_unknown_format(self, verdicts):
        with pytest.raises(ValueError):
            render_report(verdicts, format="xml")
