"""The benchmark's tracer (bench/tracer.py) rebinds module attributes of
the package by name. A rename in the package must fail here, not only
when the benchmark runs."""

from __future__ import annotations

from conftest import FULFILMENT_HIGH, FULFILMENT_LOW, HIGH, LOW_UNSAT, load_bench
from containcheck import checker, cli, ingest, ltl, model, semantics, smv


def test_rebound_names_exist_and_are_restored(capsys):
    cc = {
        "checker": checker, "cli": cli, "ingest": ingest, "ltl": ltl,
        "model": model, "semantics": semantics, "smv": smv,
    }
    owners = list(cc.values()) + [semantics.TransitionSystem]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer = load_bench("tracer").Tracer(cc)
    tracer.install()
    try:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert id(owner) in before, owner
            # The name existed before install, bound to what uninstall restores.
            assert before[id(owner)].get(attr) is original, (owner, attr)
            assert vars(owner)[attr] is not original, (owner, attr)
        # The hooks sit where a violated check passes: each layer is counted.
        code = tracer.call("cli.main", cli.main, ["check", str(HIGH), str(LOW_UNSAT)])
    finally:
        tracer.uninstall()
    assert code == 1 and "is false" in capsys.readouterr().out
    for name in (
        "ltl.properties", "semantics.successor_calls", "automaton.builds",
        "checker.product_states", "checker.product_edges", "checker.violations",
    ):
        assert tracer.counts[name] > 0, name
    # What the tracer reads from the automata of this check: 6 properties,
    # 32 automaton states in all, at most 16 in one.
    automaton = {name: tracer.counts[f"automaton.{name}"] for name in ("builds", "states", "max_states")}
    assert automaton == {"builds": 6, "states": 32, "max_states": 16}
    for owner in owners:
        assert dict(vars(owner)) == before[id(owner)], owner


def test_every_decision_is_a_check_span(capsys):
    # On a one-run low model, the four holding properties are decided on
    # the run and the violated one on the product: each is one
    # `checker.check` span, and only the violated one builds an automaton.
    cc = {
        "checker": checker, "cli": cli, "ingest": ingest, "ltl": ltl,
        "model": model, "semantics": semantics, "smv": smv,
    }
    tracer = load_bench("tracer").Tracer(cc)
    tracer.install()
    try:
        code = cli.main(["check", str(FULFILMENT_HIGH), str(FULFILMENT_LOW)])
    finally:
        tracer.uninstall()
    assert code == 1 and capsys.readouterr().out.count("is true") == 4
    assert [span[0] for span in tracer.spans].count("checker.check") == 5
    assert tracer.counts["automaton.builds"] == 1
