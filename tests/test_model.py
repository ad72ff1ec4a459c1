"""Graph core: validation rules, cycle detection, adjacency queries."""

from __future__ import annotations

import copy
import inspect
import pickle
import sys

import pytest

from conftest import random_digraph
from containcheck import ltl
from containcheck.checker import Lasso, Verdict, check_all
from containcheck.ingest import _tokenize, parse_dsl
from containcheck.ltl import And, Atom, GeneratedProperty, Next, Not, Or, Primitive, TrueConst
from containcheck.model import (
    ActivityModel,
    Edge,
    Node,
    NodeKind,
    is_acyclic,
    synthetic_guard,
    validate,
)
from containcheck.record import Record
from containcheck.semantics import build_system, reachable_states
from containcheck.smv import SmvModule, generate_smv


def model_of(nodes, edges, name="M"):
    return ActivityModel(
        name,
        [Node(i, k) for i, k in nodes],
        [Edge(*e) if len(e) == 3 else Edge(e[0], e[1]) for e in edges],
    )


MINIMAL = model_of([("I", NodeKind.INITIAL), ("F_node", NodeKind.FINAL)], [("I", "F_node")])


class TestValidate:
    def test_fixtures_are_valid(self, high_model, low_unsat_model, low_sat_model):
        assert validate(high_model) == []
        assert validate(low_unsat_model) == []
        assert validate(low_sat_model) == []

    def test_minimal_chain_valid(self):
        assert validate(MINIMAL) == []

    def test_lone_initial(self):
        model = model_of([("I", NodeKind.INITIAL)], [])
        messages = [v.message for v in validate(model)]
        assert any("outgoing" in m for m in messages)
        assert any("no final node" in m for m in messages)

    def test_decision_with_single_branch(self):
        model = model_of(
            [
                ("I", NodeKind.INITIAL),
                ("D", NodeKind.DECISION),
                ("E", NodeKind.FINAL),
            ],
            [("I", "D"), ("D", "E")],
        )
        assert any(
            v.node_id == "D" and ">=2 outgoing" in v.message for v in validate(model)
        )

    def test_two_initials(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("J", NodeKind.INITIAL), ("E", NodeKind.FINAL)],
            [("I", "E"), ("J", "E")],
        )
        assert any("more than one initial" in v.message for v in validate(model))

    def test_no_initial(self):
        model = model_of([("A", NodeKind.ACTION), ("E", NodeKind.FINAL)], [("A", "E")])
        assert any("no initial node" in v.message for v in validate(model))

    def test_final_with_outgoing(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("E", NodeKind.FINAL), ("E2", NodeKind.FINAL)],
            [("I", "E"), ("E", "E2")],
        )
        assert any(
            v.node_id == "E" and "no outgoing" in v.message for v in validate(model)
        )

    def test_action_needs_one_outgoing(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("A", NodeKind.ACTION), ("E", NodeKind.FINAL)],
            [("I", "A"), ("I", "E")],
        )
        problems = validate(model)
        assert any(v.node_id == "A" and "exactly 1 outgoing" in v.message for v in problems)
        assert any(v.node_id == "I" for v in problems)  # initial fan-out too

    def test_join_needs_two_incoming(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("J", NodeKind.JOIN), ("E", NodeKind.FINAL)],
            [("I", "J"), ("J", "E")],
        )
        assert any(
            v.node_id == "J" and ">=2 incoming" in v.message for v in validate(model)
        )

    def test_unreachable_node(self):
        model = model_of(
            [
                ("I", NodeKind.INITIAL),
                ("E", NodeKind.FINAL),
                ("A", NodeKind.ACTION),
                ("E2", NodeKind.FINAL),
            ],
            [("I", "E"), ("A", "E2")],
        )
        unreachable = {v.node_id for v in validate(model) if "unreachable" in v.message}
        assert unreachable == {"A", "E2"}

    def test_dangling_edge_reported(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("E", NodeKind.FINAL)],
            [("I", "E"), ("I", "Ghost")],
        )
        assert any(
            v.edge == ("I", "Ghost") and "unknown target" in v.message
            for v in validate(model)
        )

    def test_duplicate_id(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("X", NodeKind.ACTION), ("X", NodeKind.FINAL)],
            [],
        )
        assert any("duplicate node id" in v.message for v in validate(model))

    def test_parallel_edge_reported(self):
        # A second D -> A would declare guard_D_A twice in the SMV scalar
        # and list A twice among the system's successors.
        model = model_of(
            [
                ("S", NodeKind.INITIAL),
                ("D", NodeKind.DECISION),
                ("A", NodeKind.ACTION),
                ("B", NodeKind.ACTION),
                ("M", NodeKind.MERGE),
                ("F", NodeKind.FINAL),
            ],
            [("S", "D"), ("D", "A"), ("D", "A"), ("D", "B"), ("A", "M"), ("B", "M"), ("M", "F")],
        )
        assert [str(v) for v in validate(model)] == ["D -> A: duplicate edge"]

    def test_illegal_id(self):
        model = model_of(
            [("1bad", NodeKind.INITIAL), ("E", NodeKind.FINAL)], [("1bad", "E")]
        )
        assert any("not a legal identifier" in v.message for v in validate(model))

    def test_keyword_id_rejected(self):
        # The textual format could not reproduce a node literally named
        # after a declaration keyword.
        model = model_of(
            [("I", NodeKind.INITIAL), ("merge", NodeKind.FINAL)], [("I", "merge")]
        )
        assert any("reserved word" in v.message for v in validate(model))

    def test_guard_on_non_decision_edge(self):
        model = model_of(
            [("I", NodeKind.INITIAL), ("E", NodeKind.FINAL)],
            [("I", "E", "oops")],
        )
        assert any("only allowed on decision branches" in v.message for v in validate(model))

    def test_mixed_decision_guards(self):
        model = model_of(
            [
                ("I", NodeKind.INITIAL),
                ("D", NodeKind.DECISION),
                ("E", NodeKind.FINAL),
                ("E2", NodeKind.FINAL),
            ],
            [("I", "D"), ("D", "E", "yes"), ("D", "E2")],
        )
        assert any("all guarded or all unguarded" in v.message for v in validate(model))

    @pytest.mark.parametrize(
        "nodes, edges, expected",
        [
            (
                "I:initial A:action D:decision F:final",
                ["I A", "A D", "D I", "D F"],
                ["I: initial node must have no incoming edges"],
            ),
            (
                "I:initial F:final G:final",
                ["I F"],
                ["G: final node requires at least 1 incoming edge", "G: unreachable from the initial node"],
            ),
            (
                "I:initial F:final K:fork A:action B:action",
                ["I F", "K A", "K B", "A F", "B F"],
                [
                    "K: fork requires at least 1 incoming edge",
                    "K: unreachable from the initial node",
                    "A: unreachable from the initial node",
                    "B: unreachable from the initial node",
                ],
            ),
            (
                "I:initial D:decision A:action B:action M:merge F:final G:final",
                ["I D", "D A", "D B", "A M", "B M", "M F", "M G"],
                ["M: merge requires exactly 1 outgoing edge"],
            ),
        ],
        ids=["initial-incoming", "final-incoming", "fork-incoming", "merge-outgoing"],
    )
    def test_kind_rules_name_their_node(self, nodes, edges, expected):
        model = model_of(
            [(i, NodeKind(k)) for i, k in (word.split(":") for word in nodes.split())],
            [tuple(pair.split()) for pair in edges],
        )
        assert [str(v) for v in validate(model)] == expected

    def test_validate_is_total_on_garbage(self):
        model = model_of([], [("A", "B")])
        assert isinstance(validate(model), list)


class TestGuardLabeling:
    def test_unguarded_branches_get_synthetic_labels(self):
        model = model_of(
            [
                ("I", NodeKind.INITIAL),
                ("D", NodeKind.DECISION),
                ("E", NodeKind.FINAL),
                ("E2", NodeKind.FINAL),
            ],
            [("I", "D"), ("D", "E"), ("D", "E2")],
        )
        guards = [e.guard for e in model.outgoing("D")]
        assert guards == ["guard_D_E", "guard_D_E2"]

    def test_user_guards_kept_verbatim(self, high_model):
        guards = [e.guard for e in high_model.outgoing("DecisionNode1")]
        assert guards == ["card not ok", "card ok"]

    def test_synthetic_guard_shape(self):
        assert synthetic_guard("DecisionNode5", "Reship") == "guard_DecisionNode5_Reship"


class TestAcyclicity:
    def test_high_model_acyclic(self, high_model):
        assert is_acyclic(high_model)

    def test_low_unsat_model_cyclic(self, low_unsat_model):
        assert not is_acyclic(low_unsat_model)

    def test_two_node_chain(self):
        assert is_acyclic(MINIMAL)

    def test_self_loop(self):
        model = model_of([("A", NodeKind.ACTION)], [("A", "A")])
        assert not is_acyclic(model)

    def test_cycle_through_a_merge(self):
        model = model_of(
            [
                ("I", NodeKind.INITIAL),
                ("M", NodeKind.MERGE),
                ("A", NodeKind.ACTION),
                ("D", NodeKind.DECISION),
                ("F_node", NodeKind.FINAL),
            ],
            [("I", "M"), ("M", "A"), ("A", "D"), ("D", "M", "again"), ("D", "F_node", "done")],
        )
        assert validate(model) == []
        assert not is_acyclic(model)

    @pytest.mark.parametrize("back_edge", [False, True])
    def test_long_chain_under_the_default_recursion_limit(self, back_edge):
        n = 20_000
        assert sys.getrecursionlimit() < n  # a recursive walk of the chain would fail
        ids = [f"A{i}" for i in range(n)]
        edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if back_edge else [])
        model = model_of([(i, NodeKind.ACTION) for i in ids], edges)
        assert is_acyclic(model) is not back_edge

    def test_agrees_with_reachability_oracle(self):
        def has_cycle_oracle(model):
            ids = [n.id for n in model.nodes]
            reach = {i: {e.target for e in model.outgoing(i)} for i in ids}
            for _ in ids:
                for i in ids:
                    reach[i] |= {k for j in reach[i] for k in reach[j]}
            return any(i in reach[i] for i in ids)

        for seed in range(300):
            model = random_digraph(seed, max_nodes=12)
            assert is_acyclic(model) == (not has_cycle_oracle(model)), seed


def targets(model, node_id):
    return [e.target for e in model.outgoing(node_id)]


def sources(model, node_id):
    return [e.source for e in model.incoming(node_id)]


class TestAdjacency:
    def test_fork_successors_in_edge_order(self, high_model):
        assert targets(high_model, "ForkNode1") == ["ShipOrder", "ChargeOrder"]

    def test_initial_has_no_predecessors(self, high_model):
        assert high_model.incoming("InitialNode1") == ()

    def test_low_decision_successors(self, low_unsat_model):
        assert targets(low_unsat_model, "DecisionNode2") == [
            "ConfirmOrderCancelation",
            "CreateOrderBusinessObject",
        ]

    def test_join_predecessors(self, high_model):
        assert sources(high_model, "JoinNode1") == ["ShipOrder", "ChargeOrder"]

    def test_unknown_node_raises(self, high_model):
        with pytest.raises(ValueError, match="unknown node"):
            high_model.outgoing("Nope")
        with pytest.raises(ValueError, match="unknown node"):
            high_model.incoming("Nope")

    def test_order_stable_across_reparse(self, high_model):
        from containcheck.ingest import parse_dsl, print_dsl

        again = parse_dsl(print_dsl(high_model), "again")
        for node in high_model.nodes:
            assert high_model.outgoing(node.id) == again.outgoing(node.id)
            assert high_model.incoming(node.id) == again.incoming(node.id)


class TestIndex:
    """The adjacency index against the linear scans it replaced."""

    MESSY = model_of(
        [
            ("I", NodeKind.INITIAL),
            ("A", NodeKind.ACTION),
            ("A", NodeKind.FINAL),
            ("F_node", NodeKind.FINAL),
        ],
        [("I", "A"), ("A", "Ghost"), ("Ghost", "F_node"), ("A", "F_node"), ("I", "F_node")],
    )

    def test_lookups_match_scans(self):
        model = self.MESSY
        for node_id in ("I", "A", "F_node", "Ghost", "Nope"):
            first = next((n for n in model.nodes if n.id == node_id), None)
            assert model.has_node(node_id) == (first is not None)
            if first is None:
                for lookup in (model.node, model.outgoing, model.incoming):
                    with pytest.raises(ValueError, match="unknown node"):
                        lookup(node_id)
                continue
            assert model.node(node_id) is first
            assert model.outgoing(node_id) == tuple(e for e in model.edges if e.source == node_id)
            assert model.incoming(node_id) == tuple(e for e in model.edges if e.target == node_id)

    def test_first_duplicate_wins(self):
        assert self.MESSY.node("A").kind is NodeKind.ACTION
        assert [e.target for e in self.MESSY.outgoing("A")] == ["Ghost", "F_node"]

    def test_index_is_not_a_field(self, high_model):
        from containcheck.ingest import parse_dsl, print_dsl

        again = parse_dsl(print_dsl(high_model), "again")
        assert again == high_model and hash(again) == hash(high_model)
        assert repr(again) == repr(high_model)
        assert "_out" not in repr(high_model)


class TestRecords:
    """Value classes compare, hash, print, copy and refuse assignment as
    frozen dataclasses do."""

    def test_equality_needs_the_same_class(self):
        a, b = Atom("a"), Atom("b")
        assert Not(a) != Next(a) and Not(a) == Not(Atom("a"))
        assert And(a, b) != Or(a, b) and And(a, b) == And(Atom("a"), Atom("b"))
        assert a != "a" and a != ("a",)

    def test_hash_is_the_compared_field_tuple(self):
        conj = And(Atom("a"), TrueConst())
        assert hash(conj) == hash(And(Atom("a"), TrueConst())) == hash((Atom("a"), TrueConst()))
        assert hash(Atom("a")) == hash(("a",)) and hash(TrueConst()) == hash(())
        assert hash(Edge("A", "B", "g")) == hash(("A", "B", "g"))

    def test_display_name_is_not_compared(self):
        shown = Node("x", NodeKind.ACTION, "Shown")
        plain = Node("x", NodeKind.ACTION)
        assert shown == plain and hash(shown) == hash(plain) == hash(("x", NodeKind.ACTION))
        assert plain.name == "x" and shown.name == "Shown"
        assert shown != Node("x", NodeKind.FINAL, "Shown")

    def test_immutable(self):
        for record, field in ((Atom("a"), "name"), (Node("x", NodeKind.ACTION), "name"), (MINIMAL, "edges")):
            with pytest.raises(AttributeError):
                setattr(record, field, "other")
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.undeclared = 1

    def test_repr(self):
        assert repr(Atom("a")) == "Atom(name='a')"
        assert repr(Not(TrueConst())) == "Not(operand=TrueConst())"
        assert repr(Node("x", NodeKind.ACTION)) == (
            "Node(id='x', kind=<NodeKind.ACTION: 'action'>, name='x')"
        )
        assert repr(Edge("A", "B")) == "Edge(source='A', target='B', guard=None)"

    def test_keyword_construction(self):
        a = Atom(name="a")
        assert And(left=a, right=a) == And(a, a)
        assert Node(id="x", kind=NodeKind.ACTION, name="X").name == "X"
        assert Edge(source="A", target="B").guard is None
        assert SmvModule(vars=(), assigns=()) == SmvModule((), ())
        prop = GeneratedProperty(formula=a, origin="A", primitive=Primitive.SEQUENCE)
        assert prop.origin == "A"
        lasso = Lasso(var_names=("a",), prefix=(), loop=(("FALSE",),))
        verdict = Verdict(formula=a, holds=False, counterexample=lasso, origin="A")
        assert verdict.counterexample is lasso and verdict.primitive is None

    def test_verdict_rejects_a_holds_counterexample_mismatch(self):
        lasso = Lasso(("a",), (), (("FALSE",),))
        with pytest.raises(ValueError, match="counterexample is present exactly"):
            Verdict(Atom("a"), True, lasso)
        with pytest.raises(ValueError, match="counterexample is present exactly"):
            Verdict(Atom("a"), False)

    def test_every_record_takes_its_fields_in_order(self):
        # Copying and pickling call the class on the fields in order. The
        # imports above load every module defining records (checker loads
        # automaton and semantics).
        checked, stack = 0, [Record]
        while stack:
            cls = stack.pop()
            stack += cls.__subclasses__()
            if cls._fields:
                params = list(inspect.signature(cls.__init__).parameters)[1:]
                assert tuple(params) == cls._fields, cls
                checked += 1
        assert checked >= 30

    def test_every_record_class_keeps_the_contract(self, high_model, low_unsat_model):
        # One instance of each record class, found in what the pipeline
        # builds: every class __subclasses__() reaches must turn up.
        module = generate_smv(low_unsat_model)
        system = build_system(module)
        properties = ltl.generate_properties(high_model)
        seeds = [
            low_unsat_model,
            module,
            reachable_states(system),
            properties,
            check_all(system, properties),
            ltl.parse_ltl("G (a -> F b) & X !c | TRUE xor FALSE"),
            validate(model_of([("A", NodeKind.ACTION)], [])),
            parse_dsl("model M { initial I; final F; I -> }"),
            _tokenize("model M { }", "<string>")[0],
        ]
        found: dict[type, Record] = {}
        while seeds:
            value = seeds.pop()
            if isinstance(value, Record):
                found.setdefault(type(value), value)
                seeds += [getattr(value, name) for name in value._fields]
            elif isinstance(value, (tuple, list, frozenset)):
                seeds += value
        leaves, stack = set(), [Record]
        while stack:
            cls = stack.pop()
            stack += cls.__subclasses__()
            if not cls.__subclasses__() and cls.__module__.startswith("containcheck."):
                leaves.add(cls)
        assert leaves <= set(found), leaves - set(found)
        for cls in leaves:
            record = found[cls]
            for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert clone is not record and clone == record and not clone != record
                assert hash(clone) == hash(record) == hash(record._key(record))
            fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
            assert repr(record) == f"{cls.__qualname__}({fields})"
        node = found[Node]
        renamed = Node(node.id, node.kind, node.name + "Other")
        assert renamed == node and hash(renamed) == hash(node) and repr(renamed) != repr(node)

    def test_copy_and_pickle(self, high_model):
        shown = Node("x", NodeKind.ACTION, "Shown")
        for value in (And(Atom("a"), Atom("b")), shown, high_model):
            for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
                assert clone(value) == value and repr(clone(value)) == repr(value)
        again = pickle.loads(pickle.dumps(high_model))
        assert again.outgoing("InitialNode1") == high_model.outgoing("InitialNode1")
