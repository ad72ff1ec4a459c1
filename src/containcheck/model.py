"""Behavior-model graph: typed nodes, guarded edges, well-formedness checks."""

from __future__ import annotations

import re
from enum import Enum

from .record import Record, setfield

ID_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

#: Surface-syntax words that cannot double as node ids (the textual model
#: format could not reproduce them).
RESERVED_IDS = frozenset(
    {"model", "initial", "final", "action", "fork", "join", "decision", "merge"}
)


class NodeKind(Enum):
    INITIAL = "initial"
    FINAL = "final"
    ACTION = "action"
    FORK = "fork"
    JOIN = "join"
    DECISION = "decision"
    MERGE = "merge"


#: Kinds that only route control flow; they never appear as atoms in
#: generated temporal properties.
STRUCTURAL_KINDS = frozenset(
    {NodeKind.FORK, NodeKind.JOIN, NodeKind.DECISION, NodeKind.MERGE}
)


class Node(Record, compare=("id", "kind")):
    __slots__ = ("id", "kind", "name")

    def __init__(self, id: str, kind: NodeKind, name: str = "") -> None:
        setfield(self, "id", id)
        setfield(self, "kind", kind)
        # Display name, defaulting to the id. Cosmetic: excluded from
        # equality so the DSL (which has no name syntax) round-trips JSON
        # models too.
        setfield(self, "name", name or id)

    @property
    def structural(self) -> bool:
        return self.kind in STRUCTURAL_KINDS


class Edge(Record):
    __slots__ = ("source", "target", "guard")

    def __init__(self, source: str, target: str, guard: str | None = None) -> None:
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "guard", guard)


def synthetic_guard(decision_id: str, target_id: str) -> str:
    """Canonical label for an unlabeled decision branch; doubles as the
    scalar value name in generated SMV."""
    return f"guard_{decision_id}_{target_id}"


class ActivityModel(Record):
    """Immutable control-flow graph shared by both abstraction levels.

    Construction normalizes fully-unguarded decision branches to synthetic
    guard labels so that printing, reparsing, and SMV generation all see the
    same edge data. Mixed guarded/unguarded branches are left untouched for
    validate() to report.

    Construction also indexes the graph once: nodes by id (the first of a
    duplicated id wins) and each id's outgoing and incoming edges in
    declaration order, so node, has_node, outgoing and incoming are
    lookups. The index is not a field: equality, hashing and repr see only
    name, nodes and edges.
    """

    __slots__ = ("name", "nodes", "edges", "_by_id", "_out", "_in")

    def __init__(self, name: str, nodes, edges) -> None:
        nodes = tuple(nodes)
        edges = self._label_decisions(nodes, tuple(edges))
        setfield(self, "name", name)
        setfield(self, "nodes", nodes)
        setfield(self, "edges", edges)
        by_id: dict[str, Node] = {}
        for n in nodes:
            by_id.setdefault(n.id, n)
        out: dict[str, list[Edge]] = {}
        into: dict[str, list[Edge]] = {}
        for e in edges:
            out.setdefault(e.source, []).append(e)
            into.setdefault(e.target, []).append(e)
        setfield(self, "_by_id", by_id)
        setfield(self, "_out", {k: tuple(v) for k, v in out.items()})
        setfield(self, "_in", {k: tuple(v) for k, v in into.items()})

    @staticmethod
    def _label_decisions(nodes, edges) -> tuple[Edge, ...]:
        guarded = {e.source for e in edges if e.guard is not None}
        unlabeled = {
            n.id for n in nodes if n.kind is NodeKind.DECISION and n.id not in guarded
        }
        return tuple(
            Edge(e.source, e.target, synthetic_guard(e.source, e.target))
            if e.source in unlabeled
            else e
            for e in edges
        )

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValueError(f"unknown node {node_id!r} in model {self.name!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def outgoing(self, node_id: str) -> tuple[Edge, ...]:
        self.node(node_id)
        return self._out.get(node_id, ())

    def incoming(self, node_id: str) -> tuple[Edge, ...]:
        self.node(node_id)
        return self._in.get(node_id, ())


DUPLICATE_EDGE = "duplicate edge"


def repeated_edges(edges) -> list[int]:
    """The indices of the edges that join the same two nodes as an earlier
    edge, in order; validate reports one DUPLICATE_EDGE for each."""
    first: dict[tuple[str, str], int] = {}
    return [i for i, e in enumerate(edges) if first.setdefault((e.source, e.target), i) != i]


class Violation(Record):
    """One well-formedness failure, located at a node or an edge."""

    __slots__ = ("message", "node_id", "edge")

    def __init__(
        self, message: str, node_id: str | None = None, edge: tuple[str, str] | None = None
    ) -> None:
        setfield(self, "message", message)
        setfield(self, "node_id", node_id)
        setfield(self, "edge", edge)

    def __str__(self) -> str:
        if self.node_id is not None:
            return f"{self.node_id}: {self.message}"
        if self.edge is not None:
            return f"{self.edge[0]} -> {self.edge[1]}: {self.message}"
        return self.message


def validate(model: ActivityModel) -> list[Violation]:
    """Collect every invariant violation; an empty list means the model is
    well formed. Never raises on malformed graphs: violations are data.
    """
    out: list[Violation] = []
    seen: set[str] = set()
    for n in model.nodes:
        if not ID_PATTERN.match(n.id):
            out.append(Violation(f"id {n.id!r} is not a legal identifier", n.id))
        elif n.id in RESERVED_IDS:
            out.append(Violation(f"id {n.id!r} is a reserved word", n.id))
        if n.id in seen:
            out.append(Violation(f"duplicate node id {n.id!r}", n.id))
        seen.add(n.id)

    known = {n.id for n in model.nodes}
    for e in model.edges:
        if e.source not in known:
            out.append(Violation(f"unknown source node {e.source!r}", edge=(e.source, e.target)))
        if e.target not in known:
            out.append(Violation(f"unknown target node {e.target!r}", edge=(e.source, e.target)))
    if any(v.edge for v in out) or len(seen) != len(model.nodes):
        # Arity and reachability checks assume resolvable, unique endpoints.
        return out

    for i in repeated_edges(model.edges):
        e = model.edges[i]
        out.append(Violation(DUPLICATE_EDGE, edge=(e.source, e.target)))

    n_in = {n.id: len(model.incoming(n.id)) for n in model.nodes}
    n_out = {n.id: len(model.outgoing(n.id)) for n in model.nodes}

    initials = [n for n in model.nodes if n.kind is NodeKind.INITIAL]
    if not initials:
        out.append(Violation("model has no initial node"))
    elif len(initials) > 1:
        for n in initials[1:]:
            out.append(Violation("more than one initial node", n.id))
    if not any(n.kind is NodeKind.FINAL for n in model.nodes):
        out.append(Violation("model has no final node"))

    for n in model.nodes:
        i, o = n_in[n.id], n_out[n.id]
        if n.kind is NodeKind.INITIAL:
            if i != 0:
                out.append(Violation("initial node must have no incoming edges", n.id))
            if o != 1:
                out.append(Violation("initial node requires exactly 1 outgoing edge", n.id))
        elif n.kind is NodeKind.FINAL:
            if o != 0:
                out.append(Violation("final node must have no outgoing edges", n.id))
            if i < 1:
                out.append(Violation("final node requires at least 1 incoming edge", n.id))
        elif n.kind is NodeKind.ACTION:
            if i < 1:
                out.append(Violation("action requires at least 1 incoming edge", n.id))
            if o != 1:
                out.append(Violation("action requires exactly 1 outgoing edge", n.id))
        elif n.kind in (NodeKind.FORK, NodeKind.DECISION):
            if i < 1:
                out.append(Violation(f"{n.kind.value} requires at least 1 incoming edge", n.id))
            if o < 2:
                out.append(Violation(f"{n.kind.value} requires >=2 outgoing edges", n.id))
        else:  # join, merge
            if i < 2:
                out.append(Violation(f"{n.kind.value} requires >=2 incoming edges", n.id))
            if o != 1:
                out.append(Violation(f"{n.kind.value} requires exactly 1 outgoing edge", n.id))

    for n in model.nodes:
        if n.kind is not NodeKind.DECISION:
            for e in model.outgoing(n.id):
                if e.guard is not None:
                    out.append(
                        Violation("guard is only allowed on decision branches", edge=(e.source, e.target))
                    )
        else:
            branches = model.outgoing(n.id)
            guarded = [e for e in branches if e.guard is not None]
            if guarded and len(guarded) != len(branches):
                out.append(
                    Violation("decision branches must be all guarded or all unguarded", n.id)
                )

    if initials and len(initials) == 1:
        reached = {initials[0].id}
        frontier = [initials[0].id]
        while frontier:
            current = frontier.pop()
            for e in model.outgoing(current):
                if e.target not in reached:
                    reached.add(e.target)
                    frontier.append(e.target)
        for n in model.nodes:
            if n.id not in reached:
                out.append(Violation("unreachable from the initial node", n.id))

    return out


def is_acyclic(model: ActivityModel) -> bool:
    """True iff the directed graph has no cycle: graphlib's topological
    sorter, which finds cycles without recursion, over ActivityModel.outgoing."""
    # Imported here, so that importing the package does not load graphlib.
    from graphlib import CycleError, TopologicalSorter

    graph = {n.id: [e.target for e in model.outgoing(n.id)] for n in model.nodes}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True
