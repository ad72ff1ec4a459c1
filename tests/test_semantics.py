"""Transition-system construction, reachability, simulation, the pulse
invariants of the generated encoding, and successors against a reference
that evaluates every variable."""

from __future__ import annotations

import pytest

from conftest import (
    FULFILMENT_LOW,
    HIGH,
    LOW_SAT,
    LOW_UNSAT,
    chain_model,
    decision_model,
    fork_model,
    fork_of_decisions_model,
    functional_low,
    number_backwards,
    random_valid_model,
)
from containcheck.checker import check_all
from containcheck.ingest import load_model, parse_dsl
from containcheck.ltl import generate_properties, parse_ltl
from containcheck.semantics import (
    ChoicesExhausted,
    StateCapExceeded,
    build_system,
    reachable_states,
    simulate,
)
from containcheck.smv import (
    AtomMismatchError,
    ConstTrue,
    Keep,
    Literal,
    SmvAssign,
    SmvModule,
    SmvVarDecl,
    VarTrue,
    check_atoms,
    generate_smv,
)
from smv_reference import eval_cond, parse_smv, reference_successors

MINIMAL = "model M { initial I; final F; I -> F }"
LOOP = """model Loop {
    initial I; merge M; action A; decision D; final F_end;
    I -> M; M -> A; A -> D; D -> M [again]; D -> F_end [done];
}"""


def system_of(text: str):
    return build_system(generate_smv(parse_dsl(text)))


def as_dict(sys, state):
    return dict(sys.state_items(state))


class TestBuild:
    def test_initial_state(self, low_unsat_system):
        state = as_dict(low_unsat_system, low_unsat_system.initial)
        assert state["InitialNode1"] == "TRUE"
        assert state["DecisionNode1"] == "undetermined"
        others = {k: v for k, v in state.items() if k != "InitialNode1"}
        assert set(others.values()) <= {"FALSE", "undetermined"}

    def test_first_step_unique(self, low_unsat_system):
        succs = low_unsat_system.successors(low_unsat_system.initial)
        assert len(succs) == 1
        state = as_dict(low_unsat_system, succs[0])
        assert state["InitialNode1"] == "FALSE"
        assert state["ReceiveNewOrder"] == "TRUE"

    def test_decision_branches_to_two_successors(self, low_unsat_system):
        state = low_unsat_system.initial
        for _ in range(2):  # reach the state where VerifyCreditCard pulses
            state = low_unsat_system.successors(state)[0]
        assert as_dict(low_unsat_system, state)["VerifyCreditCard"] == "TRUE"
        succs = low_unsat_system.successors(state)
        values = sorted(as_dict(low_unsat_system, s)["DecisionNode1"] for s in succs)
        assert values == [
            "guard_DecisionNode1_DecisionNode2",
            "guard_DecisionNode1_ReplyCreditCardNotOK",
        ]

    def test_atom_values(self, low_unsat_system):
        assert low_unsat_system.atom_value(low_unsat_system.initial, "InitialNode1")
        with pytest.raises(AtomMismatchError):
            low_unsat_system.atom_value(low_unsat_system.initial, "DecisionNode1")
        with pytest.raises(AtomMismatchError):
            low_unsat_system.atom_value(low_unsat_system.initial, "Nope")

    @pytest.mark.parametrize("name", ["DecisionNode1", "Nope"])
    def test_atom_readers_refuse_as_check_atoms(self, low_unsat_system, name):
        """A decision scalar or an unknown name is refused by every atom
        reader with check_atoms' error and text."""
        sys = low_unsat_system
        with pytest.raises(AtomMismatchError) as checked:
            check_atoms(sys.module, [parse_ltl(f"F {name}")])
        readers = (
            lambda: sys.atom_value(sys.initial, name),
            lambda: sys.atom_bits([sys.initial], name),
            lambda: sys.atom_mask(["InitialNode1", name]),
        )
        for read in readers:
            with pytest.raises(AtomMismatchError) as refused:
                read()
            assert str(refused.value) == str(checked.value) == f"atoms missing from the model: {name}"
            assert refused.value.missing == [name]


class TestReachability:
    def test_minimal_model_three_states(self):
        sys = system_of(MINIMAL)
        reach = reachable_states(sys)
        # Hand simulation: pulse on I, pulse on F, then the idle sink loops.
        assert len(reach.states) == 3
        assert reach.transition_count == 3

    def test_low_unsat_regression_count(self, low_unsat_system):
        reach = reachable_states(low_unsat_system)
        assert len(reach.states) == 30
        assert len(reach.states) < 10**4

    def test_low_sat_regression_count(self, low_sat_system):
        assert len(reachable_states(low_sat_system).states) == 14

    def test_cap_exceeded(self, low_unsat_system):
        with pytest.raises(StateCapExceeded) as info:
            reachable_states(low_unsat_system, cap=1)
        assert info.value.cap == 1

    def test_cap_must_be_positive(self, low_unsat_system):
        with pytest.raises(ValueError):
            reachable_states(low_unsat_system, cap=0)


class TestSimulate:
    def test_cancelation_path_flips(self, low_unsat_system):
        trace = simulate(
            low_unsat_system,
            [("DecisionNode1", "DecisionNode2"), ("DecisionNode2", "ConfirmOrderCancelation")],
        )
        flips = []
        previous = None
        for state in trace:
            items = dict(low_unsat_system.state_items(state))
            if previous is None:
                flips.append(("InitialNode1", items["InitialNode1"]))
            else:
                changed = {k: v for k, v in items.items() if previous[k] != v}
                flips.append(tuple(sorted(changed)))
            previous = items
        assert flips[0] == ("InitialNode1", "TRUE")
        assert flips[1] == ("InitialNode1", "ReceiveNewOrder")
        assert flips[2] == ("ReceiveNewOrder", "VerifyCreditCard")
        assert flips[3] == ("DecisionNode1", "VerifyCreditCard")
        assert flips[4] == ("DecisionNode1", "DecisionNode2")
        assert flips[5] == ("ConfirmOrderCancelation", "DecisionNode2")
        assert flips[6] == ("ActivityFinalNode2", "ConfirmOrderCancelation")
        assert flips[7] == ("ActivityFinalNode2",)
        assert len(trace) == 8

    def test_decision_free_model_runs_to_sink(self):
        sys = system_of(MINIMAL)
        trace = simulate(sys, [])
        assert len(trace) == 3
        assert all(v == "FALSE" for _, v in sys.state_items(trace[-1]))

    def test_fork_pulses_both_branches_together(self, low_sat_system):
        trace = simulate(low_sat_system, [("DecisionNode1", "CreateOrderBusinessObject")])
        both = [
            dict(low_sat_system.state_items(s))
            for s in trace
            if dict(low_sat_system.state_items(s))["ShipOrder"] == "TRUE"
        ]
        assert both and all(s["ChargeOrder"] == "TRUE" for s in both)

    def test_choices_exhausted(self, low_unsat_system):
        with pytest.raises(ChoicesExhausted):
            simulate(low_unsat_system, [])

    def test_wrong_decision_name(self, low_unsat_system):
        with pytest.raises(ValueError, match="expected a choice for"):
            simulate(low_unsat_system, [("DecisionNode2", "ConfirmOrderCancelation")])

    def test_unknown_branch_target(self, low_unsat_system):
        with pytest.raises(ValueError, match="is not a branch"):
            simulate(low_unsat_system, [("DecisionNode1", "ShipOrder")])


class TestPulseInvariants:
    def zip_edges(self, sys, cap=5000):
        reach = reachable_states(sys, cap=cap)
        for state in reach.order:
            for succ in sys.successors(state):
                yield state, succ

    def fired(self, sys, var, state):
        """Whether the variable's trigger arm, its first case arm, holds
        in the state, by the reference evaluator."""
        assign = next(a for a in sys.module.assigns if a.var == var)
        return eval_cond(assign.cases[0][0], dict(sys.state_items(state)))

    @pytest.mark.parametrize("fixture", ["low_unsat_system", "low_sat_system"])
    def test_boolean_pulse_equals_trigger(self, fixture, request):
        """A node variable is TRUE in the next state exactly when its
        trigger condition held in the current one (for initial nodes the
        trigger is their own clearing arm, so they are TRUE only once)."""
        from containcheck.smv import Literal

        sys = request.getfixturevalue(fixture)
        booleans = [d.name for d in sys.module.vars if d.is_boolean]
        initial_vars = {a.var for a in sys.module.assigns if a.init == Literal("TRUE")}
        for state, succ in self.zip_edges(sys):
            for var in booleans:
                if var in initial_vars:
                    assert not sys.atom_value(succ, var)
                    continue
                assert sys.atom_value(succ, var) == self.fired(sys, var, state)

    @pytest.mark.parametrize("fixture", ["low_unsat_system", "low_sat_system"])
    def test_decision_exclusivity(self, fixture, request):
        """A decision scalar leaves `undetermined` for one step per trigger
        and returns unless retriggered."""
        sys = request.getfixturevalue(fixture)
        decisions = [d.name for d in sys.module.vars if not d.is_boolean]
        for state, succ in self.zip_edges(sys):
            for var in decisions:
                fired = self.fired(sys, var, state)
                now = sys.value_of(state, var)
                nxt = sys.value_of(succ, var)
                if fired:
                    assert nxt != "undetermined"
                elif now != "undetermined":
                    assert nxt == "undetermined"
                else:
                    assert nxt == "undetermined"

    @pytest.mark.parametrize("fixture", ["low_unsat_system", "low_sat_system"])
    def test_successor_count_is_decision_product(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        decisions = {d.name: len(d.scalar_values) - 1 for d in sys.module.vars if not d.is_boolean}
        for state in reachable_states(sys).order:
            expected = 1
            for var, branches in decisions.items():
                if self.fired(sys, var, state):
                    expected *= branches
            assert len(sys.successors(state)) == expected

    def test_sink_self_loops_and_is_reached(self, low_sat_system):
        sys = low_sat_system
        # States are ints; find the all-FALSE, all-undetermined one by its values.
        sinks = [
            s
            for s in reachable_states(sys).order
            if {v for _, v in sys.state_items(s)} <= {"FALSE", "undetermined"}
        ]
        assert len(sinks) == 1
        sink = sinks[0]
        assert sys.successors(sink) == (sink,)
        # Acyclic model: the sink is reachable from every reachable state.
        for state in reachable_states(sys).order:
            frontier, seen = [state], {state}
            while frontier and sink not in seen:
                frontier = [
                    s for f in frontier for s in sys.successors(f) if s not in seen
                ]
                seen.update(frontier)
            assert sink in seen

    def test_random_models_keep_pulse_invariant(self):
        for seed in range(25):
            sys = build_system(generate_smv(random_valid_model(seed)))
            initial_vars = {sys.var_names[0]}
            for state, succ in self.zip_edges(sys, cap=2000):
                for decl in sys.module.vars:
                    if not decl.is_boolean or decl.name in initial_vars:
                        continue
                    assert sys.atom_value(succ, decl.name) == self.fired(sys, decl.name, state)


class TestStateIds:
    """States are ints: the system numbers each distinct value tuple once,
    in the order callers first reach it."""

    def assert_contract(self, sys):
        assert sys.initial == 0
        reach = reachable_states(sys)
        n = len(reach.states)
        assert sorted(reach.order) == list(range(n))
        assert len({tuple(sys.state_items(s)) for s in reach.order}) == n
        for state in reach.order:
            assert sys.successors(state) == sys.successors(state)

    @pytest.mark.parametrize("fixture", ["low_unsat_system", "low_sat_system"])
    def test_contract_on_fixtures(self, fixture, request):
        self.assert_contract(request.getfixturevalue(fixture))

    def test_contract_after_other_callers_numbered_first(self, high_model, low_unsat_model):
        checked = build_system(generate_smv(low_unsat_model))
        check_all(checked, generate_properties(high_model))
        self.assert_contract(checked)
        backwards = build_system(generate_smv(fork_of_decisions_model(3)))
        number_backwards(backwards)
        self.assert_contract(backwards)

    def test_numbering_follows_the_first_caller(self):
        # Pins that the numbering tests elsewhere compare distinct numberings.
        module = generate_smv(fork_of_decisions_model(3))
        by_breadth, by_depth = build_system(module), build_system(module)
        n = len(reachable_states(by_breadth).states)
        number_backwards(by_depth)
        assert n == len(reachable_states(by_depth).states)
        as_values = [
            [sys.state_items(i) for i in range(n)] for sys in (by_breadth, by_depth)
        ]
        assert as_values[0] != as_values[1]
        assert sorted(as_values[0]) == sorted(as_values[1])


def reference_graph_matches(module) -> int:
    """Walk the system breadth first and check every successors call
    against reference_successors: the same states in the same order,
    numbered as first met. Returns the number of states."""
    sys = build_system(module)
    names = [decl.name for decl in module.vars]
    initial = {a.var: a.init.text for a in module.assigns}
    ids = {tuple(initial[n] for n in names): 0}
    order = [initial]
    for state, items in enumerate(order):
        expected = []
        for succ in reference_successors(module, items):
            key = tuple(succ[n] for n in names)
            if key not in ids:
                ids[key] = len(order)
                order.append(succ)
            expected.append(ids[key])
        assert sys.successors(state) == tuple(expected), (state, items)
    for key, state in ids.items():
        assert tuple(v for _, v in sys.state_items(state)) == key
    return len(order)


# Hand-written modules whose variables change while every variable they
# read is idle, so only the always-evaluated set moves them.
EARLY_TRUE_ARM = """\
MODULE main
VAR
    x : boolean;
    y : boolean;
    light : {red, green};
    seen : boolean;
ASSIGN
init(x) := TRUE;
next(x) := case
    TRUE : FALSE;
    y : TRUE;
    TRUE : x;
esac;
init(y) := FALSE;
next(y) := case
    y : FALSE;
    TRUE : y;
esac;
init(light) := red;
next(light) := case
    (light = red) : green;
    (light = green) : red;
    TRUE : light;
esac;
init(seen) := FALSE;
next(seen) := case
    (light = green) : TRUE;
    seen : FALSE;
    TRUE : seen;
esac;
"""

FALSE_DEFAULT = """\
MODULE main
VAR
    p : boolean;
    q : boolean;
ASSIGN
init(p) := TRUE;
next(p) := case
    q : TRUE;
    TRUE : FALSE;
esac;
init(q) := FALSE;
next(q) := case
    q : FALSE;
    TRUE : q;
esac;
"""


SCALAR_READ_AS_BOOLEAN = """\
MODULE main
VAR
    b : boolean;
    d : {undetermined, left};
ASSIGN
init(b) := FALSE;
next(b) := case
    d : TRUE;
    TRUE : b;
esac;
init(d) := undetermined;
next(d) := case
    TRUE : d;
esac;
"""


def copying_module() -> SmvModule:
    """`a` blinks, and `b` copies it through a last arm that keeps `a`;
    `b` reads no variable at all."""
    return SmvModule(
        (SmvVarDecl("a"), SmvVarDecl("b")),
        (
            SmvAssign("a", Literal("TRUE"), (
                (VarTrue("a"), Literal("FALSE")),
                (ConstTrue(), Literal("TRUE")),
            )),
            SmvAssign("b", Literal("FALSE"), ((ConstTrue(), Keep("a")),)),
        ),
    )


def malformed_module(arm_value: str, scalar: bool = False) -> SmvModule:
    """`go` pulses once, then `mid`; `x` takes `arm_value` when `mid`
    pulses, one step after the initial state."""
    def node(name, init, *trigger):
        fire = tuple((cond, Literal("TRUE")) for cond in trigger)
        return SmvAssign(name, Literal(init), fire + (
            (VarTrue(name), Literal("FALSE")),
            (ConstTrue(), Keep(name)),
        ))

    x_decl = SmvVarDecl("x", ("undetermined", "left")) if scalar else SmvVarDecl("x")
    x_init = "undetermined" if scalar else "FALSE"
    return SmvModule(
        (SmvVarDecl("go"), SmvVarDecl("mid"), x_decl),
        (
            node("go", "TRUE"),
            node("mid", "FALSE", VarTrue("go")),
            SmvAssign("x", Literal(x_init), (
                (VarTrue("mid"), Literal(arm_value)),
                (ConstTrue(), Keep("x")),
            )),
        ),
    )


class TestCompiledSuccessors:
    """Successors evaluate only the readers of active variables and the
    variables that are always evaluated; every graph equals the one that
    evaluating every variable's first matching arm gives."""

    def test_random_valid_models(self):
        for seed in range(200):
            reference_graph_matches(generate_smv(random_valid_model(seed)))

    def test_cyclic_models_from_random_digraphs(self):
        for seed in range(100):
            reference_graph_matches(generate_smv(functional_low(seed)))

    @pytest.mark.parametrize(
        "model",
        [chain_model(n) for n in (1, 2, 7, 40)]
        + [fork_model(w) for w in (2, 3, 6)]
        + [decision_model(k) for k in (2, 3, 5)]
        + [fork_of_decisions_model(k) for k in (2, 3, 4)]
        + [parse_dsl(LOOP)],
        ids=lambda model: model.name,
    )
    def test_families(self, model):
        reference_graph_matches(generate_smv(model))

    @pytest.mark.parametrize("path", [HIGH, LOW_SAT, LOW_UNSAT, FULFILMENT_LOW], ids=lambda p: p.stem)
    def test_fixtures(self, path):
        reference_graph_matches(generate_smv(load_model(str(path))))

    def test_true_arm_before_the_last(self):
        # x turns FALSE with y idle; light never takes its idle value.
        assert reference_graph_matches(parse_smv(EARLY_TRUE_ARM)[0]) == 3

    def test_last_arm_that_does_not_keep_the_variable(self):
        assert reference_graph_matches(parse_smv(FALSE_DEFAULT)[0]) == 2
        assert reference_graph_matches(copying_module()) == 2

    @pytest.mark.parametrize(
        "arm_value, scalar, message",
        [
            ("maybe", False, "'maybe' is not a boolean value"),
            ("right", True, "'right' is not a value of 'x'"),
        ],
    )
    def test_malformed_literal_raises_when_its_arm_fires(self, arm_value, scalar, message):
        sys = build_system(malformed_module(arm_value, scalar))
        (after_go,) = sys.successors(sys.initial)
        with pytest.raises(ValueError, match=message):
            sys.successors(after_go)

    def test_scalar_read_as_a_boolean_is_refused(self):
        # A bare scalar has no truth value (NuSMV rejects the module), so
        # no reading of `d : TRUE` is right: the system is not built.
        module, _ = parse_smv(SCALAR_READ_AS_BOOLEAN)
        message = r"scalar 'd' is read as a boolean in the arm 'd : TRUE' of next\(b\)"
        with pytest.raises(ValueError, match=message):
            build_system(module)

    def test_no_matching_arm_raises_when_met(self):
        module, _ = parse_smv(FALSE_DEFAULT.replace("    TRUE : FALSE;\n", ""))
        sys = build_system(module)
        with pytest.raises(ValueError, match="no case arm matched for 'p'"):
            sys.successors(sys.initial)
