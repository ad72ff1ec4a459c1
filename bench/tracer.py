"""Outside-in tracing of one in-process `containcheck` pipeline.

The tracer rebinds the module attributes that callers look up at call
time (for example `checker.automaton_for_negation`, which `check`
resolves through the checker module's globals), so the program itself is
never edited. Each wrapper records a span (name, start, end, parent span,
pair id); counters are taken at the same boundaries. Counter bookkeeping
runs on a paused clock, so it inflates no span; what remains of the
wrappers' cost is reported as the tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter


def _shape(formula, names: dict) -> tuple:
    """The formula with atoms renamed in order of first occurrence, so two
    formulas that differ only in atom names share one shape."""
    fields = getattr(formula, "__dataclass_fields__", {})
    if "name" in fields:
        return ("atom", names.setdefault(formula.name, len(names)))
    return (type(formula).__name__,) + tuple(_shape(getattr(formula, f), names) for f in fields)


class Tracer:
    def __init__(self, cc):
        """`cc` maps module names (cli, ingest, model, ltl, smv, semantics,
        checker) to the imported containcheck modules."""
        self.cc = cc
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self.systems: list = []
        self.pair: str | None = None
        self._stack: list[int] = []
        self._paused = 0.0
        self._properties = 0  # generated by the latest traced call
        self._patches: list[tuple[object, str, object]] = []

    # --- clock and spans ------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _untimed(self, fn, *args) -> None:
        began = time.perf_counter()
        fn(*args)
        self._paused += time.perf_counter() - began

    def call(self, name: str, fn, *args, before=None, after=None, **kwargs):
        """Run fn inside a span; before(args) and after(result) run off the
        clock."""
        if before is not None:
            self._untimed(before, args)
        index = len(self.spans)
        span = [name, self.now(), None, self._stack[-1] if self._stack else None, self.pair]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = self.now()
        if after is not None:
            self._untimed(after, result)
        return result

    def _wrap(self, owners, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owners[0], attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, before=before, after=after, **kwargs)

        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        cc, counts = self.cc, self.counts
        ingest, model, ltl, smv = cc["ingest"], cc["model"], cc["ltl"], cc["smv"]
        semantics, checker = cc["semantics"], cc["checker"]

        def loaded(result):
            counts["ingest.nodes"] += len(result.nodes)
            counts["ingest.edges"] += len(result.edges)

        def validated(result):
            counts["model.validate_calls"] += 1

        def generated_properties(result):
            counts["ltl.properties"] += len(result)
            self._properties = len(result)

        def bundled(result):
            counts["smv.bundle_bytes"] += len(result.encode("utf-8"))

        def generated_smv(result):
            counts["smv.generate_calls"] += 1

        def built_system(result):
            self.systems.append(result)

        def checked_all(result):
            counts["checker.violations"] += sum(not v.holds for v in result)

        def built_automaton(result):
            counts["automaton.builds"] += 1
            counts["automaton.states"] += len(result.states)
            counts["automaton.max_states"] = max(counts["automaton.max_states"], len(result.states))

        def shape_of(args):
            self.shapes.add(_shape(args[0], {}))

        def scc_input(args):
            adjacency, order = args[0], args[1]
            counts["checker.product_states"] += len(order)
            counts["checker.product_edges"] += sum(map(len, adjacency.values()))

        def rendered(result):
            counts["checker.report_bytes"] += len(result.encode("utf-8"))

        self._wrap([ingest], "load_model", "ingest.load", after=loaded)
        # Every caller of validate imported it by name; rebind each copy.
        self._wrap([model, ingest, ltl, smv], "validate", "model.validate", after=validated)
        self._wrap([ltl], "generate_properties", "ltl.generate", after=generated_properties)
        self._wrap([smv], "bundle_check_file", "smv.bundle", after=bundled)
        self._wrap([smv], "generate_smv", "smv.generate", after=generated_smv)
        self._wrap([semantics], "build_system", "semantics.build", after=built_system)
        self._wrap([checker], "check_all", "checker.check_all", after=checked_all)
        self._wrap([checker], "check", "checker.check")
        self._wrap([checker], "automaton_for_negation", "automaton.build", before=shape_of, after=built_automaton)
        self._wrap([checker], "_find_fair_scc", "checker.scc", before=scc_input)
        self._wrap([checker], "render_report", "checker.render", after=rendered)

        system_class = semantics.TransitionSystem
        successors = system_class.successors

        def counted_successors(system, state):
            counts["semantics.successor_calls"] += 1
            return successors(system, state)

        self._patches.append((system_class, "successors", successors))
        system_class.successors = counted_successors

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- after a traced call --------------------------------------------

    def count_systems(self) -> None:
        """Size the state graphs built since the last call; run with the
        tracer uninstalled so the walk itself is not counted."""
        semantics = self.cc["semantics"]
        for system in self.systems:
            # Successor-cache entries: the states whose successors were computed.
            self.counts["semantics.states_computed"] += len(system._successor_cache)
            reach = semantics.reachable_states(system)
            self.counts["semantics.reachable_states"] += len(reach.states)
            self.counts["semantics.transitions"] += reach.transition_count
            self.counts["reachable_x_properties"] += len(reach.states) * self._properties
        self.systems.clear()

    # --- derived times --------------------------------------------------

    def layer_times(self) -> Counter:
        """Self time per layer over the recorded spans, plus the split of each
        check into automaton build, product exploration (the time before
        the fair-SCC search, less the build), SCC search, and the lasso
        stage (everything after the search: prefix, fair cycle,
        re-evaluation on the lasso, verdict)."""
        spans = self.spans
        children: dict[int, list] = {}
        for span in spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append(span)
        times: Counter = Counter()
        for index, (name, start, end, _parent, _pair) in enumerate(spans):
            kids = children.get(index, [])
            times[name + ".self"] += (end - start) - sum(k[2] - k[1] for k in kids)
            times[name + ".total"] += end - start
            if name == "checker.check":
                build = sum(k[2] - k[1] for k in kids if k[0] == "automaton.build")
                scc = [k for k in kids if k[0] == "checker.scc"]
                if scc:
                    times["checker.explore"] += scc[0][1] - start - build
                    times["checker.lasso"] += end - scc[0][2]
                else:
                    times["checker.explore"] += end - start - build
        return times
