"""The benchmark's tracer (bench/tracer.py) rebinds module attributes of
the package by name. A rename in the package must fail here, not only
when the benchmark runs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from conftest import HIGH, LOW_UNSAT
from containcheck import checker, cli, ingest, ltl, model, semantics, smv

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_rebound_names_exist_and_are_restored(capsys):
    cc = {
        "checker": checker, "cli": cli, "ingest": ingest, "ltl": ltl,
        "model": model, "semantics": semantics, "smv": smv,
    }
    owners = list(cc.values()) + [semantics.TransitionSystem]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer = load_tracer().Tracer(cc)
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
    for owner in owners:
        assert dict(vars(owner)) == before[id(owner)], owner
