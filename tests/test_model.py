"""Graph core: validation rules, cycle detection, adjacency queries."""

from __future__ import annotations

import pytest

from conftest import random_digraph
from containcheck.model import (
    ActivityModel,
    Edge,
    Node,
    NodeKind,
    is_acyclic,
    predecessors,
    successors,
    synthetic_guard,
    validate,
)


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

    def test_agrees_with_reachability_oracle(self):
        def has_cycle_oracle(model):
            ids = [n.id for n in model.nodes]
            reach = {i: set(successors(model, i)) for i in ids}
            for _ in ids:
                for i in ids:
                    reach[i] |= {k for j in reach[i] for k in reach[j]}
            return any(i in reach[i] for i in ids)

        for seed in range(300):
            model = random_digraph(seed, max_nodes=12)
            assert is_acyclic(model) == (not has_cycle_oracle(model)), seed


class TestAdjacency:
    def test_fork_successors_in_edge_order(self, high_model):
        assert successors(high_model, "ForkNode1") == ["ShipOrder", "ChargeOrder"]

    def test_initial_has_no_predecessors(self, high_model):
        assert predecessors(high_model, "InitialNode1") == []

    def test_low_decision_successors(self, low_unsat_model):
        assert successors(low_unsat_model, "DecisionNode2") == [
            "ConfirmOrderCancelation",
            "CreateOrderBusinessObject",
        ]

    def test_join_predecessors(self, high_model):
        assert predecessors(high_model, "JoinNode1") == ["ShipOrder", "ChargeOrder"]

    def test_unknown_node_raises(self, high_model):
        with pytest.raises(ValueError, match="unknown node"):
            successors(high_model, "Nope")
        with pytest.raises(ValueError, match="unknown node"):
            predecessors(high_model, "Nope")

    def test_order_stable_across_reparse(self, high_model):
        from containcheck.ingest import parse_dsl, print_dsl

        again = parse_dsl(print_dsl(high_model), "again")
        for node in high_model.nodes:
            assert successors(high_model, node.id) == successors(again, node.id)
            assert predecessors(high_model, node.id) == predecessors(again, node.id)


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
