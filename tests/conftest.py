"""Shared fixtures: the order-processing models, their systems, a seeded
generator of random well-formed acyclic models for the property-based
suites, decision-free cyclic models drawn from random digraphs,
chain/fork/decision model families, random formulas, and the benchmark's
modules."""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from containcheck import ltl
from containcheck.ingest import load_model
from containcheck.model import (
    ActivityModel,
    Edge,
    Node,
    NodeKind,
    is_acyclic,
    validate,
)
from containcheck.semantics import build_system
from containcheck.smv import generate_smv

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

HIGH = FIXTURES / "order_processing_high.behavior"
LOW_UNSAT = FIXTURES / "order_processing_low_unsat.behavior"
LOW_UNSAT_JSON = FIXTURES / "order_processing_low_unsat.json"
LOW_SAT = FIXTURES / "order_processing_low_sat.behavior"
# A decision-free pair: the low model has one run and violates one property.
FULFILMENT_HIGH = GOLDEN / "fulfilment_high.behavior"
FULFILMENT_LOW = GOLDEN / "fulfilment_low_swapped.behavior"


@pytest.fixture(scope="session")
def high_model():
    return load_model(str(HIGH))


@pytest.fixture(scope="session")
def low_unsat_model():
    return load_model(str(LOW_UNSAT))


@pytest.fixture(scope="session")
def low_sat_model():
    return load_model(str(LOW_SAT))


@pytest.fixture(scope="session")
def low_unsat_system(low_unsat_model):
    return build_system(generate_smv(low_unsat_model))


@pytest.fixture(scope="session")
def low_sat_system(low_sat_model):
    return build_system(generate_smv(low_sat_model))


def random_valid_model(seed: int, max_nodes: int = 10) -> ActivityModel:
    """Deterministic well-formed acyclic model for a seed.

    Nodes are laid out in a topological line and all edges point forward,
    so the result is acyclic by construction; arity minimums are satisfied
    by a connectivity pass (one incoming each), a second-incoming pass for
    merges and joins, and a fan-out pass for forks and decisions.
    """
    rng = random.Random(seed)
    for _ in range(300):
        model = _try_build(rng, max_nodes)
        if model is not None and not validate(model):
            assert is_acyclic(model)
            return model
    raise AssertionError(f"no valid model for seed {seed}")


def _try_build(rng: random.Random, max_nodes: int) -> ActivityModel | None:
    n = rng.randint(3, max_nodes)
    kinds = [NodeKind.INITIAL]
    for i in range(1, n - 1):
        feasible = [NodeKind.ACTION, NodeKind.ACTION, NodeKind.ACTION, NodeKind.FINAL]
        if i <= n - 3:
            feasible += [NodeKind.FORK, NodeKind.DECISION]
        if i >= 2:
            feasible += [NodeKind.MERGE, NodeKind.JOIN]
        kinds.append(rng.choice(feasible))
    kinds.append(NodeKind.FINAL)

    out_cap, out_min = [], []
    for kind in kinds:
        if kind is NodeKind.FINAL:
            out_cap.append(0), out_min.append(0)
        elif kind in (NodeKind.FORK, NodeKind.DECISION):
            out_cap.append(3), out_min.append(2)
        else:
            out_cap.append(1), out_min.append(1)

    edges: list[tuple[int, int]] = []
    out_used = [0] * n

    def targets_of(i: int) -> set[int]:
        return {j for s, j in edges if s == i}

    for j in range(1, n):  # one incoming edge each, from an earlier node
        candidates = [i for i in range(j) if out_used[i] < out_cap[i]]
        if not candidates:
            return None
        i = rng.choice(candidates)
        edges.append((i, j))
        out_used[i] += 1
    for j in range(n):  # merges and joins need a second incoming edge
        if kinds[j] in (NodeKind.MERGE, NodeKind.JOIN):
            candidates = [
                i for i in range(j) if out_used[i] < out_cap[i] and j not in targets_of(i)
            ]
            if not candidates:
                return None
            i = rng.choice(candidates)
            edges.append((i, j))
            out_used[i] += 1
    for i in range(n):  # forks and decisions need their fan-out
        while out_used[i] < out_min[i]:
            candidates = [
                j
                for j in range(i + 1, n)
                if kinds[j] is not NodeKind.INITIAL and j not in targets_of(i)
            ]
            if not candidates:
                return None
            j = rng.choice(candidates)
            edges.append((i, j))
            out_used[i] += 1
    for _ in range(rng.randint(0, 2)):  # occasional implicit joins
        sources = [i for i in range(n) if out_used[i] < out_cap[i]]
        if not sources:
            break
        i = rng.choice(sources)
        candidates = [j for j in range(i + 1, n) if j not in targets_of(i)]
        if not candidates:
            continue
        j = rng.choice(candidates)
        edges.append((i, j))
        out_used[i] += 1

    names = [f"N{i}" for i in range(n)]
    return ActivityModel(
        "RandomModel",
        [Node(names[i], kinds[i]) for i in range(n)],
        [Edge(names[i], names[j]) for i, j in edges],
    )


def random_digraph(seed: int, max_nodes: int = 12) -> ActivityModel:
    """Arbitrary directed graph (cycles allowed, validity not guaranteed)
    packaged as a model, for exercising graph algorithms alone."""
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    names = [f"G{i}" for i in range(n)]
    nodes = [Node(name, NodeKind.ACTION) for name in names]
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        edges.append(Edge(rng.choice(names), rng.choice(names)))
    return ActivityModel("RandomDigraph", nodes, edges)


def functional_low(seed: int) -> ActivityModel:
    """A decision-free low model, cyclic as a rule: a fork starts a final
    node and G0, whose run follows the first out-edge of each node of
    random_digraph(seed); a node without one leads to a second final node,
    and a node entered twice is a merge, so a loop keeps running."""
    first: dict[str, str] = {}
    for e in random_digraph(seed).edges:
        first.setdefault(e.source, e.target)
    edges = [("I", "K"), ("K", "Stop"), ("K", "G0")]
    order: list[str] = []
    node = "G0"
    while node not in order and node != "F_end":
        order.append(node)
        edges.append((node, first.get(node, "F_end")))
        node = edges[-1][1]
    incoming = Counter(target for _, target in edges)
    nodes = [Node("I", NodeKind.INITIAL), Node("K", NodeKind.FORK), Node("Stop", NodeKind.FINAL)]
    nodes += [Node(n, NodeKind.MERGE if incoming[n] > 1 else NodeKind.ACTION) for n in order]
    if incoming["F_end"]:
        nodes.append(Node("F_end", NodeKind.FINAL))
    model = ActivityModel(f"Functional{seed}", nodes, [Edge(a, b) for a, b in edges])
    assert not validate(model)
    return model


def chain_model(n: int) -> ActivityModel:
    """I -> A0 -> ... -> A(n-1) -> F."""
    ids = ["I"] + [f"A{i}" for i in range(n)] + ["F_end"]
    nodes = [Node("I", NodeKind.INITIAL)] + [Node(i, NodeKind.ACTION) for i in ids[1:-1]]
    nodes.append(Node("F_end", NodeKind.FINAL))
    return ActivityModel(f"Chain{n}", nodes, [Edge(a, b) for a, b in zip(ids, ids[1:])])


def fork_model(width: int) -> ActivityModel:
    """I -> fork into B0..B(width-1) -> join -> F."""
    branches = [f"B{i}" for i in range(width)]
    nodes = [Node("I", NodeKind.INITIAL), Node("K", NodeKind.FORK)]
    nodes += [Node(b, NodeKind.ACTION) for b in branches]
    nodes += [Node("J", NodeKind.JOIN), Node("F_end", NodeKind.FINAL)]
    edges = [Edge("I", "K")] + [Edge("K", b) for b in branches]
    edges += [Edge(b, "J") for b in branches] + [Edge("J", "F_end")]
    return ActivityModel(f"Fork{width}", nodes, edges)


def decision_model(k: int) -> ActivityModel:
    """I -> A -> k-way decision into B0..B(k-1) -> merge -> Z -> F."""
    branches = [f"B{i}" for i in range(k)]
    nodes = [Node("I", NodeKind.INITIAL), Node("A", NodeKind.ACTION)]
    nodes += [Node("D", NodeKind.DECISION)] + [Node(b, NodeKind.ACTION) for b in branches]
    nodes += [Node("M", NodeKind.MERGE), Node("Z", NodeKind.ACTION), Node("F_end", NodeKind.FINAL)]
    edges = [Edge("I", "A"), Edge("A", "D")] + [Edge("D", b) for b in branches]
    edges += [Edge(b, "M") for b in branches] + [Edge("M", "Z"), Edge("Z", "F_end")]
    return ActivityModel(f"Decision{k}", nodes, edges)


def fork_of_decisions_model(k: int) -> ActivityModel:
    """I -> S -> fork into k branches Pi -> decision Di between Xi -> Wi
    and Yi -> merge Mi; the merges join, then E -> F."""
    nodes = [Node("I", NodeKind.INITIAL), Node("S", NodeKind.ACTION), Node("K", NodeKind.FORK)]
    edges = [Edge("I", "S"), Edge("S", "K")]
    for i in range(k):
        p, d, x, w, y, m = (f"{c}{i}" for c in "PDXWYM")
        nodes += [Node(p, NodeKind.ACTION), Node(d, NodeKind.DECISION)]
        nodes += [Node(n, NodeKind.ACTION) for n in (x, w, y)] + [Node(m, NodeKind.MERGE)]
        edges += [Edge("K", p), Edge(p, d), Edge(d, x), Edge(x, w), Edge(w, m)]
        edges += [Edge(d, y), Edge(y, m), Edge(m, "J")]
    nodes += [Node("J", NodeKind.JOIN), Node("E", NodeKind.ACTION), Node("F_end", NodeKind.FINAL)]
    edges += [Edge("J", "E"), Edge("E", "F_end")]
    return ActivityModel(f"ForkOfDecisions{k}", nodes, edges)


def number_backwards(sys) -> None:
    """Reach every state of the system depth first, last successor first:
    the system numbers its states as they are reached, so this leaves ids
    in an order no breadth-first caller would give them."""
    seen = {sys.initial}
    stack = [sys.initial]
    while stack:
        for succ in reversed(sys.successors(stack.pop())):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)


def random_formula(rng: random.Random, atoms: list[str], depth: int):
    """Arbitrary formula over the atoms, at most `depth` operators deep."""
    if depth == 0 or rng.random() < 0.3:
        draw = rng.random()
        if draw < 0.8:
            return ltl.Atom(rng.choice(atoms))
        return ltl.TrueConst() if draw < 0.9 else ltl.FalseConst()
    if rng.random() < 0.5:
        unary = rng.choice([ltl.Not, ltl.Always, ltl.Eventually, ltl.Next])
        return unary(random_formula(rng, atoms, depth - 1))
    op = rng.choice([ltl.And, ltl.Or, ltl.Xor, ltl.Implies])
    return op(
        random_formula(rng, atoms, depth - 1),
        random_formula(rng, atoms, depth - 1),
    )


def lasso_violates(formula, lasso) -> bool:
    """Re-evaluate a reported counterexample from its printable states
    alone (no transition system involved)."""
    from containcheck.checker import evaluate_on_lasso

    index = {name: i for i, name in enumerate(lasso.var_names)}

    def atom_value(row, name):
        return row[index[name]] == "TRUE"

    return evaluate_on_lasso(formula, lasso.prefix, lasso.loop, atom_value) is False


def load_bench(name: str):
    """bench/<name>.py as a module, leaving no bytecode cache under bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
