"""External checker integration: detection, execution, output parsing."""

from __future__ import annotations

import stat
import time

import pytest

from containcheck.checker import check_all, render_report
from containcheck.ltl import generate_properties, render_formula
from containcheck.nusmv import (
    OutputParseError,
    ToolNotFound,
    ToolRunError,
    locate,
    parse_output,
    run_check,
)

# The external checker's output dialect: verdict lines, delta-printed
# states, a loop marker, elisions, and assorted banner noise.
SAMPLE_OUTPUT = """\
*** This is a sample banner line ***
*** For more information see the tool homepage ***
-- specification  G (InitialNode1 ->  F VerifyCreditCard)  is true
-- specification  G (VerifyCreditCard -> ( F ReplyCreditCardNotOK xor  F CreateOrderBusinessObject))  is false
-- as demonstrated by the following execution sequence
Trace Description: LTL Counterexample
Trace Type: Counterexample
-> State: 1.1 <-
  InitialNode1 = TRUE
  ReceiveNewOrder = FALSE
  VerifyCreditCard = FALSE
  DecisionNode1 = undetermined
  ReplyCreditCardNotOK = FALSE
  DecisionNode2 = undetermined
  ActivityFinalNode1 = FALSE
  ConfirmOrderCancelation = FALSE
  ...
-> State: 1.2 <-
  InitialNode1 = FALSE
  ReceiveNewOrder = TRUE
-> State: 1.3 <-
  ReceiveNewOrder = FALSE
  VerifyCreditCard = TRUE
-> State: 1.4 <-
  VerifyCreditCard = FALSE
  DecisionNode1 = guard_DecisionNode1_DecisionNode2
-> State: 1.5 <-
  DecisionNode1 = undetermined
  DecisionNode2 = guard_DecisionNode2_ConfirmOrderCancelation
-> State: 1.6 <-
  DecisionNode2 = undetermined
  ConfirmOrderCancelation = TRUE
-> State: 1.7 <-
  ConfirmOrderCancelation = FALSE
  ActivityFinalNode2 = TRUE
-- Loop starts here
-> State: 1.8 <-
  ActivityFinalNode2 = FALSE
-> State: 1.9 <-
-- specification  G (ReplyCreditCardNotOK ->  F ActivityFinalNode1)  is true
...
"""


def fake_tool(tmp_path, name="NuSMV", body='echo "output"'):
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestDetect:
    def test_override_to_missing_file(self):
        assert locate("/nonexistent/no-such-tool") is None

    def test_nothing_installed(self, monkeypatch, tmp_path):
        monkeypatch.delenv("NUSMV", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert locate() is None

    def test_env_variable_lookup(self, monkeypatch, tmp_path):
        tool = fake_tool(tmp_path)
        monkeypatch.setenv("NUSMV", tool)
        assert locate() == tool

    def test_explicit_override_wins(self, monkeypatch, tmp_path):
        tool = fake_tool(tmp_path)
        monkeypatch.setenv("NUSMV", "/nonexistent/no-such-tool")
        assert locate(tool) == tool


class TestRunCheck:
    def test_absent_tool(self, monkeypatch, tmp_path):
        monkeypatch.delenv("NUSMV", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(ToolNotFound):
            run_check("MODULE main\n")

    def test_captures_stdout(self, tmp_path):
        tool = fake_tool(tmp_path, body='echo "-- specification G a is true"')
        out = run_check("MODULE main\n", path_override=tool)
        assert "is true" in out

    def test_nonzero_exit_surfaced(self, tmp_path):
        tool = fake_tool(tmp_path, body='echo "boom" >&2; exit 3')
        with pytest.raises(ToolRunError) as info:
            run_check("MODULE main\n", path_override=tool)
        assert "boom" in info.value.stderr

    def test_timeout(self, tmp_path):
        # The tool hangs, and a child it started would leave a mark after
        # 1 s: a timeout must return on time and kill the child too.
        late = tmp_path / "late"
        tool = fake_tool(tmp_path, body=f"(sleep 1; touch {late}) &\nsleep 5")
        started = time.monotonic()
        with pytest.raises(ToolRunError, match="timed out"):
            run_check("MODULE main\n", timeout=0.2, path_override=tool)
        assert time.monotonic() - started < 2.0
        time.sleep(1.5)
        assert not late.exists()


class TestParseOutput:
    def test_sample_verdicts(self):
        verdicts = parse_output(SAMPLE_OUTPUT)
        assert [v.holds for v in verdicts] == [True, False, True]

    def test_sample_counterexample(self):
        lasso = parse_output(SAMPLE_OUTPUT)[1].counterexample
        assert len(lasso.prefix) == 7
        assert len(lasso.loop) == 1
        loop_state = lasso.loop_dicts()[0]
        assert loop_state["ActivityFinalNode2"] == "FALSE"

    def test_carry_forward(self):
        states = parse_output(SAMPLE_OUTPUT)[1].counterexample.prefix_dicts()
        # VerifyCreditCard was printed in 1.1 and 1.3-1.4 only; the value in
        # 1.5 carries forward from 1.4.
        assert states[4]["VerifyCreditCard"] == "FALSE"
        assert states[2]["InitialNode1"] == "FALSE"

    def test_formulas_reparse(self):
        verdicts = parse_output(SAMPLE_OUTPUT)
        assert render_formula(verdicts[0].formula) == "G (InitialNode1 -> F VerifyCreditCard)"

    def test_all_true_output(self):
        text = "-- specification G a is true\n-- specification F b is true\n"
        verdicts = parse_output(text)
        assert [v.holds for v in verdicts] == [True, True]
        assert all(v.counterexample is None for v in verdicts)

    def test_unrecognized_trace_line(self):
        bad = (
            "-- specification G a is false\n"
            "-> State: 1.1 <-\n"
            "  a = FALSE\n"
            "!!! what is this !!!\n"
        )
        with pytest.raises(OutputParseError) as info:
            parse_output(bad)
        assert info.value.line_number == 4

    @pytest.mark.parametrize("tail", ["", "-- specification F a is true\n"])
    def test_loop_marker_after_last_state(self, tail):
        # The loop would be empty: no lasso can be built from this trace.
        bad = (
            "-- specification G a is false\n"
            "-> State: 1.1 <-\n"
            "  a = FALSE\n"
            "-- Loop starts here\n"
        ) + tail
        with pytest.raises(OutputParseError) as info:
            parse_output(bad)
        assert info.value.line_number == 4
        assert str(info.value) == (
            "loop marker with no state after it at line 4: '-- Loop starts here'"
        )

    @pytest.mark.parametrize("tail", ["", "-- specification F a is true\n"])
    def test_false_verdict_without_trace(self, tail):
        bad = "-- specification G a is true\n-- specification G a is false\n" + tail
        with pytest.raises(OutputParseError) as info:
            parse_output(bad)
        assert info.value.line_number == 2
        assert str(info.value) == (
            "counterexample trace missing after a false verdict at line 2: "
            "'-- specification G a is false'"
        )

    def test_unparsable_formula(self):
        bad = "-- specification G a is true\n-- specification G (a U b) is true\n"
        with pytest.raises(OutputParseError) as info:
            parse_output(bad)
        assert info.value.line_number == 2
        assert str(info.value) == (
            "formula does not parse (1:6: expected ')') at line 2: "
            "'-- specification G (a U b) is true'"
        )

    def test_round_trip_of_internal_report(
        self, low_unsat_system, low_sat_system, high_model
    ):
        properties = generate_properties(high_model)
        for system in (low_unsat_system, low_sat_system):
            verdicts = check_all(system, properties)
            reparsed = parse_output(render_report(verdicts))
            assert [v.holds for v in reparsed] == [v.holds for v in verdicts]
            assert [render_formula(v.formula) for v in reparsed] == [
                render_formula(v.formula) for v in verdicts
            ]

    def test_multiple_counterexample_traces(self, low_unsat_system):
        from containcheck.ltl import parse_ltl

        # Two failing properties produce two delta-printed traces (numbered
        # 1.x and 2.x); both must reconstruct.
        properties = [
            parse_ltl("G (InitialNode1 -> F ReplyCreditCardNotOK)"),
            parse_ltl("G (VerifyCreditCard -> F Reship)"),
        ]
        verdicts = check_all(low_unsat_system, properties)
        assert [v.holds for v in verdicts] == [False, False]
        report = render_report(verdicts)
        assert "-> State: 2.1 <-" in report
        reparsed = parse_output(report)
        assert [v.holds for v in reparsed] == [False, False]
        for original, parsed in zip(verdicts, reparsed):
            assert len(parsed.counterexample.prefix) == len(original.counterexample.prefix)
            assert len(parsed.counterexample.loop) == len(original.counterexample.loop)

    def test_round_trip_on_random_models(self):
        from conftest import random_valid_model
        from containcheck.semantics import build_system
        from containcheck.smv import generate_smv

        for seed in range(40):
            model = random_valid_model(seed)
            system = build_system(generate_smv(model))
            verdicts = check_all(system, generate_properties(model))
            reparsed = parse_output(render_report(verdicts))
            assert [v.holds for v in reparsed] == [v.holds for v in verdicts], seed
