"""Exit-code contract and output behavior of the command-line interface."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    FULFILMENT_HIGH,
    FULFILMENT_LOW,
    GOLDEN,
    HIGH,
    LOW_SAT,
    LOW_UNSAT,
    LOW_UNSAT_JSON,
    chain_model,
    fork_model,
)
from containcheck import checker, cli, nusmv, semantics
from containcheck.cli import main
from containcheck.ingest import IngestError, ParseError, load_model, print_dsl
from containcheck.ltl import GenerationError
from containcheck.smv import AtomMismatchError, SmvGenerationError, generate_smv

CYCLIC = """\
model Loop {
    initial I;
    merge M;
    action A;
    decision D;
    final F_end;
    I -> M;
    M -> A;
    A -> D;
    D -> M [again];
    D -> F_end [done];
}
"""


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestValidate:
    def test_valid_model(self, capsys):
        assert run("validate", HIGH) == 0
        assert "valid" in capsys.readouterr().out

    def test_valid_json_model(self):
        assert run("validate", LOW_UNSAT_JSON) == 0

    def test_dangling_edge(self, tmp_path, capsys):
        path = tmp_path / "bad.behavior"
        path.write_text("model M { initial I; final F; I -> Ghost; I -> F }")
        assert run("validate", path) == 2
        assert "unknown node reference" in capsys.readouterr().err

    def test_unreadable_path(self, tmp_path, capsys):
        assert run("validate", tmp_path / "missing.behavior") == 2
        assert "error:" in capsys.readouterr().err

    def test_each_error_on_its_own_line(self, tmp_path, capsys):
        path = tmp_path / "two.behavior"
        path.write_text("model M { initial I; action A; final F; I -> F; A -> F }")
        assert run("validate", path) == 2
        assert capsys.readouterr().err == (
            f"{path}:1:29: A: action requires at least 1 incoming edge\n"
            f"{path}:1:29: A: unreachable from the initial node\n"
        )

    def test_malformed_model_matches_golden(self, monkeypatch, capsys):
        # From the repository root, as in CI, so each message names the
        # file as the golden does.
        monkeypatch.chdir(GOLDEN.parents[1])
        assert run("validate", "fixtures/golden/malformed.behavior") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (GOLDEN / "malformed.validate.txt").read_text()

    @pytest.mark.parametrize("suffix", [".behavior", ".json"])
    def test_not_utf8_is_an_input_error(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(b"\xff\xfe")
        message = f"{path}: offset 0: not UTF-8 text: byte 0xff (invalid start byte)\n"
        assert run("validate", path) == 2
        assert capsys.readouterr().err == message
        assert run("check", HIGH, path) == 2
        assert capsys.readouterr().err == "error: " + message

    def test_bad_byte_offset_counts_from_the_file_start(self, tmp_path, capsys):
        path = tmp_path / "late.behavior"
        data = b"model M {\n  initial I\xe9;\n}"
        path.write_bytes(data)
        assert run("validate", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: offset {data.index(0xE9)}: not UTF-8 text: byte 0xe9")

    @pytest.mark.parametrize("model", [HIGH, LOW_UNSAT_JSON], ids=["behavior", "json"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys, model):
        path = tmp_path / f"bom{model.suffix}"
        path.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        assert load_model(str(path)) == load_model(str(model))
        assert run("validate", path) == 0 and run("validate", model) == 0
        with_mark, without = capsys.readouterr().out.splitlines()
        assert with_mark == without

    def test_bad_byte_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.behavior"
        path.write_bytes(b"\xef\xbb\xbfab\xffc")
        assert run("validate", path) == 2
        assert capsys.readouterr().err == (
            f"{path}: offset 5: not UTF-8 text: byte 0xff (invalid start byte)\n"
        )

    def test_json_errors_name_their_file(self, tmp_path, capsys):
        low = tmp_path / "low.json"
        low.write_text('{"name": "M", "nodes": 3, "edges": []}')
        assert run("check", HIGH, low) == 2
        assert capsys.readouterr().err == f"error: {low}: /nodes: 'nodes' must be an array\n"
        low.write_text('{"name":\n  oops}')
        assert run("validate", low) == 2
        assert capsys.readouterr().err == f"{low}: line 2: invalid JSON: Expecting value\n"

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        assert run("validate", deep) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{deep}: /: invalid JSON: nested too deeply\n")


class TestGenLtl:
    def test_high_fixture_matches_golden(self, tmp_path):
        out = tmp_path / "props.ltl"
        assert run("gen-ltl", HIGH, "-o", out) == 0
        assert out.read_bytes() == (GOLDEN / "order_processing_high.ltl").read_bytes()

    def test_stdout_default(self, capsys):
        assert run("gen-ltl", HIGH) == 0
        out = capsys.readouterr().out
        assert out.startswith("LTLSPEC G (InitialNode1 -> F VerifyCreditCard)")

    def test_cyclic_model_rejected(self, tmp_path, capsys):
        path = tmp_path / "loop.behavior"
        path.write_text(CYCLIC)
        assert run("gen-ltl", path) == 2
        assert "loops unsupported in high-level models" in capsys.readouterr().err

    def test_minimal_model_single_line(self, tmp_path):
        path = tmp_path / "m.behavior"
        path.write_text("model M { initial I; final Done; I -> Done }")
        out = tmp_path / "m.ltl"
        assert run("gen-ltl", path, "-o", out) == 0
        assert out.read_text() == "LTLSPEC G (I -> F Done)\n"

    def test_join_mode_changes_output(self, capsys):
        assert run("gen-ltl", HIGH, "--join-mode", "simultaneous") == 0
        out = capsys.readouterr().out
        assert "LTLSPEC G (ShipOrder & ChargeOrder -> F ReplyOrderStatus)" in out

    def test_long_chain(self, tmp_path, capsys):
        # 1500 actions: a walk that recursed once per node would overflow.
        path = tmp_path / "chain1500.behavior"
        path.write_text(print_dsl(chain_model(1500)))
        assert run("gen-ltl", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1501
        assert lines[0] == "LTLSPEC G (I -> F A0)"
        assert lines[-1] == "LTLSPEC G (A1499 -> F F_end)"


class TestGenSmv:
    def test_low_fixture_matches_golden(self, tmp_path):
        out = tmp_path / "low.smv"
        assert run("gen-smv", LOW_UNSAT, "-o", out) == 0
        assert out.read_bytes() == (GOLDEN / "order_processing_low_unsat.smv").read_bytes()

    def test_embed_ltl_bundle(self, tmp_path):
        out = tmp_path / "bundle.smv"
        assert run("gen-smv", LOW_UNSAT, "--embed-ltl", HIGH, "-o", out) == 0
        golden = GOLDEN / "order_processing_low_unsat.bundle.smv"
        assert out.read_bytes() == golden.read_bytes()

    def test_atom_mismatch_lists_missing(self, tmp_path, capsys):
        low = tmp_path / "tiny.behavior"
        low.write_text("model T { initial InitialNode1; final Done; InitialNode1 -> Done }")
        assert run("gen-smv", low, "--embed-ltl", HIGH) == 2
        err = capsys.readouterr().err
        assert "VerifyCreditCard" in err

    def test_idempotent_output(self, tmp_path):
        first, second = tmp_path / "a.smv", tmp_path / "b.smv"
        assert run("gen-smv", LOW_UNSAT, "-o", first) == 0
        assert run("gen-smv", LOW_UNSAT, "-o", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_model(self, tmp_path, capsys):
        path = tmp_path / "bad.behavior"
        path.write_text("model M { initial I; action A; final F; I -> F; A -> F }")
        assert run("gen-smv", path) == 2


class TestCheck:
    def test_unsat_pair_exits_one(self, capsys):
        assert run("check", HIGH, LOW_UNSAT) == 1
        out = capsys.readouterr().out
        assert out.count("is false") == 1
        assert out.count("is true") == 5

    def test_sat_pair_exits_zero(self, capsys):
        assert run("check", HIGH, LOW_SAT) == 0
        assert capsys.readouterr().out.count("is true") == 6

    def test_json_format(self, capsys):
        assert run("check", HIGH, LOW_UNSAT, "--format", "json") == 1
        doc = json.loads(capsys.readouterr().out)
        assert [p["holds"] for p in doc["properties"]] == [
            True, False, True, True, True, True,
        ]

    def test_missing_nusmv_binary(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("NUSMV", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert run("check", HIGH, LOW_SAT, "--engine", "nusmv") == 2
        assert "no NuSMV binary" in capsys.readouterr().err

    def test_oracle_cross_check_agrees(self):
        assert run("check", HIGH, LOW_UNSAT, "--depth", "32") == 1

    def test_cap_too_small(self, capsys):
        assert run("check", HIGH, LOW_UNSAT, "--cap", "3") == 2
        assert "cap" in capsys.readouterr().err

    def test_nonpositive_cap_rejected(self, capsys):
        assert run("check", HIGH, LOW_SAT, "--cap", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap must be positive\n"

    def test_nonpositive_depth_rejected(self, monkeypatch, capsys):
        def no_check(*args, **kwargs):
            raise AssertionError("no property may be checked")

        monkeypatch.setattr("containcheck.checker.check_all", no_check)
        for depth in ("0", "-1"):
            assert run("check", HIGH, LOW_SAT, "--depth", depth) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --depth must be positive\n"

    def test_oracle_divergence_is_operational_error(self, monkeypatch, capsys):
        # An oracle that holds where the engine's lasso is within its reach.
        monkeypatch.setattr(
            checker, "oracle_check", lambda sys, prop, depth: checker.Verdict(prop, True)
        )
        assert run("check", HIGH, LOW_UNSAT, "--depth", "30") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal and brute-force verdicts diverge on "
            "G (VerifyCreditCard -> F ReplyCreditCardNotOK xor F CreateOrderBusinessObject)\n"
        )

    @pytest.mark.parametrize("depth", [3, 8])
    def test_oracle_too_shallow_for_the_counterexample(self, capsys, depth):
        # The engine's lasso has 8 states; the oracle reaches every lasso of
        # fewer than --depth states.
        assert run("check", HIGH, LOW_UNSAT, "--depth", depth) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --depth {depth} cannot reach the counterexample to "
            "G (VerifyCreditCard -> F ReplyCreditCardNotOK xor F CreateOrderBusinessObject): "
            "it has 8 states, so the oracle needs --depth 9 or more\n"
        )

    def test_oracle_deep_enough_for_the_counterexample(self, capsys):
        assert run("check", HIGH, LOW_UNSAT, "--depth", 9) == 1
        captured = capsys.readouterr()
        golden = (GOLDEN / "order_processing_low_unsat.check.txt").read_bytes()
        assert (captured.out.encode("utf-8"), captured.err) == (golden, "")

    def test_dump_states(self, capsys):
        assert run("check", HIGH, LOW_SAT, "--dump-states") == 0
        err = capsys.readouterr().err
        assert "InitialNode1 = TRUE" in err.splitlines()[0]

    @pytest.mark.parametrize("extra", [["--depth", "5"], ["--dump-states"]])
    def test_internal_only_options_refused_with_external_engine(self, monkeypatch, capsys, extra):
        def no_tool(*args, **kwargs):
            raise AssertionError("no engine may run")

        monkeypatch.setattr("containcheck.nusmv.run_check", no_tool)
        assert run("check", HIGH, LOW_SAT, "--engine", "nusmv", *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --depth and --dump-states need the internal engine "
            "(--engine internal or both)\n"
        )

    @pytest.mark.parametrize("low, code", [(LOW_UNSAT, 1), (LOW_SAT, 0)])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_report_matches_golden(self, capsys, low, code, fmt, suffix):
        golden = GOLDEN / f"{low.stem}.check.{suffix}"
        # The oracle cross-check numbers states too; it must not move a byte.
        for extra in ((), ("--depth", "30")):
            assert run("check", HIGH, low, "--format", fmt, *extra) == code
            assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_single_run_report_matches_golden(self, capsys, fmt, suffix):
        # The low model has one run: its holding properties are decided on
        # that run, and the violated one still gets check's lasso.
        golden = GOLDEN / f"fulfilment_low_swapped.check.{suffix}"
        for extra in ((), ("--depth", "30")):
            assert run("check", FULFILMENT_HIGH, FULFILMENT_LOW, "--format", fmt, *extra) == 1
            assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    def test_parity_pair_matches_golden(self, capsys):
        # A fork/join refinement of a three-way decision runs all three
        # branches; the decision property's xor chain holds on an odd count.
        high, low = GOLDEN / "parity_high.behavior", GOLDEN / "parity_low_forkjoin.behavior"
        assert run("check", high, low) == 0
        captured = capsys.readouterr()
        golden = (GOLDEN / "parity_low_forkjoin.check.txt").read_bytes()
        assert (captured.out.encode("utf-8"), captured.err) == (golden, "")

    def test_parity_pair_is_decided_within_its_run(self, capsys):
        # Every property holds on the low model's run of 8 states, so a cap
        # of 8 decides them all; at 7 the run does not fit and check's
        # product stops at the cap.
        high, low = GOLDEN / "parity_high.behavior", GOLDEN / "parity_low_forkjoin.behavior"
        assert run("check", high, low, "--cap", "8") == 0
        captured = capsys.readouterr()
        golden = (GOLDEN / "parity_low_forkjoin.check.txt").read_bytes()
        assert (captured.out.encode("utf-8"), captured.err) == (golden, "")
        assert run("check", high, low, "--cap", "7") == 2
        assert capsys.readouterr() == (
            "", "error: state-space cap of 7 states exceeded (frontier size 1)\n"
        )

    def test_smallest_passing_cap_on_a_single_run(self, capsys):
        # The violated property's product needs 18 states; with one fewer,
        # check's message reports the cap.
        assert run("check", FULFILMENT_HIGH, FULFILMENT_LOW, "--cap", 18) == 1
        captured = capsys.readouterr()
        golden = (GOLDEN / "fulfilment_low_swapped.check.txt").read_text()
        assert (captured.out, captured.err) == (golden, "")
        assert run("check", FULFILMENT_HIGH, FULFILMENT_LOW, "--cap", 17) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: state-space cap of 17 states exceeded (frontier size 2)\n",
        )

    def test_default_cap_is_the_engine_default(self):
        # Both read the one literal in `record`, which parsing loads
        # without the engine.
        args = cli.build_parser().parse_args(["check", "high.behavior", "low.behavior"])
        assert args.cap == semantics.DEFAULT_STATE_CAP

    @pytest.mark.parametrize("low, code", [(LOW_UNSAT, 1), (LOW_SAT, 0)])
    def test_dump_states_matches_golden(self, capsys, low, code):
        # Reachable states in BFS order, whatever numbers the system gave them.
        assert run("check", HIGH, low, "--dump-states") == code
        golden = GOLDEN / f"{low.stem}.states.txt"
        assert capsys.readouterr().err.encode("utf-8") == golden.read_bytes()

    def test_atom_mismatch_is_operational_error(self, tmp_path, capsys):
        # Raised before any engine runs, so before the tool is looked up.
        low = tmp_path / "tiny.behavior"
        low.write_text("model T { initial InitialNode1; final Done; InitialNode1 -> Done }")
        for engine in ("internal", "nusmv", "both"):
            assert run("check", HIGH, low, "--engine", engine, "--nusmv-path", tmp_path / "none") == 2
            assert capsys.readouterr().err == (
                "error: atoms missing from the model: VerifyCreditCard, "
                "CreateOrderBusinessObject, ReplyCreditCardNotOK, ActivityFinalNode1, "
                "ChargeOrder, ShipOrder, ReplyOrderStatus, ActivityFinalNode2\n"
            ), engine

    def test_internal_engine_renders_no_bundle(self, monkeypatch, capsys):
        def no_bundle(*args):
            raise AssertionError("the SMV bundle is only the external engine's input")

        monkeypatch.setattr("containcheck.smv.bundle_check_file", no_bundle)
        assert run("check", HIGH, LOW_SAT, "--format", "json") == 0
        golden = GOLDEN / "order_processing_low_sat.check.json"
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    def test_cyclic_high_model(self, tmp_path, capsys):
        path = tmp_path / "loop.behavior"
        path.write_text(CYCLIC)
        assert run("check", path, LOW_SAT) == 2
        assert "loops unsupported" in capsys.readouterr().err

    def test_repeated_runs_identical(self, capsys):
        run("check", HIGH, LOW_UNSAT)
        first = capsys.readouterr().out
        run("check", HIGH, LOW_UNSAT)
        assert capsys.readouterr().out == first

    def test_wide_fork_against_itself(self, tmp_path, capsys):
        # The fork property nests 1000 conjuncts, deeper than the recursion
        # limit: a recursive walk over its automaton, its atoms or its
        # rendering overflows the stack.
        path = tmp_path / "fork1000.behavior"
        path.write_text(print_dsl(fork_model(1000)))
        assert run("check", path, path) == 0
        assert capsys.readouterr().out.count("is true") == 2

    def test_oracle_on_a_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # The oracle's path search visits 1,200 states before the sink
        # closes a lasso: a search that recursed once per step overflows.
        high, low = tmp_path / "chain1.behavior", tmp_path / "chain1200.behavior"
        high.write_text(print_dsl(chain_model(1)))
        low.write_text(print_dsl(chain_model(1200)))
        assert run("check", high, low, "--depth", 1300) == 0
        assert capsys.readouterr().out.count("is true") == 2

    def test_unequal_branches_never_reach_the_join(self, tmp_path):
        # A node with several incoming edges fires only in a step where
        # all of them pulse together. The low model inserts X after B, so
        # its join never fires and C never pulses: under the default join
        # template every property about C holds vacuously.
        high, low = tmp_path / "high.behavior", tmp_path / "low.behavior"
        high.write_text(
            "model H { initial S; fork K; action A; action B; join J; action C;"
            " final E; S -> K; K -> A; K -> B; A -> J; B -> J; J -> C; C -> E }"
        )
        low.write_text(
            "model L { initial S; fork K; action A; action B; action X; join J;"
            " action C; final E; S -> K; K -> A; K -> B; B -> X; A -> J; X -> J;"
            " J -> C; C -> E }"
        )
        system = semantics.build_system(generate_smv(load_model(str(low))))
        reached = semantics.reachable_states(system).order
        assert not any(system.atom_value(s, "C") for s in reached)
        assert run("check", high, low) == 0
        assert run("check", high, low, "--join-mode", "simultaneous") == 1


def run_child(source: str) -> subprocess.CompletedProcess:
    """Run Python source in a fresh interpreter that imports this package."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-S", "-c", source],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestStartup:
    # What a default run must not load: dataclasses brings in inspect (and
    # with it ast and dis), and the NuSMV bridge brings in subprocess.
    UNNEEDED = ("dataclasses", "inspect", "subprocess", "containcheck.nusmv")
    # The checking engine, which only `check` needs.
    ENGINE = ("containcheck.checker", "containcheck.automaton", "containcheck.semantics")

    def run_child(self, body: str, unneeded) -> subprocess.CompletedProcess:
        return run_child(
            "import sys\n"
            f"unneeded = {tuple(unneeded)!r}\n"
            "def loaded(): return [m for m in unneeded if m in sys.modules]\n"
            + body
        )

    def test_default_run_loads_no_unneeded_module(self):
        result = self.run_child(
            "import containcheck.cli\n"
            "after_import = loaded()\n"
            f"code = containcheck.cli.main(['check', {str(HIGH)!r}, {str(LOW_SAT)!r}, '--format', 'json'])\n"
            "print(repr((code, after_import, loaded())), file=sys.stderr)\n",
            self.UNNEEDED,
        )
        assert result.stdout == (GOLDEN / "order_processing_low_sat.check.json").read_text()
        assert result.stderr.splitlines()[-1] == repr((0, [], []))

    def test_cap_refusal_loads_no_bridge(self):
        result = self.run_child(
            "import containcheck.cli\n"
            f"code = containcheck.cli.main(['check', {str(HIGH)!r}, {str(LOW_SAT)!r}, '--cap', '1'])\n"
            "print(repr((code, loaded())), file=sys.stderr)\n",
            ("containcheck.nusmv", "subprocess"),
        )
        assert result.stdout == ""
        assert result.stderr == (
            "error: state-space cap of 1 states exceeded (frontier size 1)\n" + repr((2, [])) + "\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", str(HIGH)],
            ["gen-ltl", str(HIGH)],
            ["gen-smv", str(LOW_UNSAT), "--embed-ltl", str(HIGH)],
        ],
        ids=["validate", "gen-ltl", "gen-smv"],
    )
    def test_commands_that_check_nothing_load_no_engine(self, argv):
        result = self.run_child(
            "import containcheck\n"
            "after_package = loaded()\n"
            "import containcheck.cli\n"
            "after_cli = loaded()\n"
            f"code = containcheck.cli.main({argv!r})\n"
            "print(repr((code, after_package, after_cli, loaded())), file=sys.stderr)\n",
            self.ENGINE + self.UNNEEDED,
        )
        assert result.stderr.splitlines()[-1] == repr((0, [], [], []))

    def test_package_exports_load_the_engine_on_use(self):
        result = self.run_child(
            "import containcheck\n"
            "before = loaded()\n"
            "from containcheck import check_all, StateCapExceeded\n"
            "from containcheck import checker, semantics\n"
            "assert check_all is checker.check_all and StateCapExceeded is semantics.StateCapExceeded\n"
            "assert all(getattr(containcheck, name) is not None for name in containcheck.__all__)\n"
            "try:\n"
            "    containcheck.no_such_name\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(repr((before, loaded(), missing)), file=sys.stderr)\n",
            self.ENGINE,
        )
        assert result.stderr.splitlines()[-1] == repr(
            ([], list(self.ENGINE), "module 'containcheck' has no attribute 'no_such_name'")
        )


class TestScale:
    """A single run is checked in time that grows with what its pulses
    move, not with the model's size at every step. Each bound is the
    child's own CPU time, interpreter start included."""

    @pytest.mark.parametrize(
        "high_n, low_n, bound",
        [(1500, 1500, 2.5), (1, 1200, 1.0)],
        ids=["chain1500-itself", "chain1-in-chain1200"],
    )
    def test_long_chain(self, tmp_path, high_n, low_n, bound):
        paths = []
        for role, n in (("high", high_n), ("low", low_n)):
            path = tmp_path / f"{role}.behavior"
            path.write_text(print_dsl(chain_model(n)))
            paths.append(str(path))
        result = run_child(
            "import sys, time\n"
            "from containcheck.cli import main\n"
            f"code = main(['check', *{paths!r}, '--format', 'json'])\n"
            "print(repr((code, time.process_time())), file=sys.stderr)\n"
        )
        code, cpu_s = ast.literal_eval(result.stderr.splitlines()[-1])
        assert code == 0
        properties = json.loads(result.stdout)["properties"]
        assert properties and all(p["holds"] for p in properties)
        assert cpu_s < bound


class TestFailureType:
    """A failure's type alone decides its line: an OSError or an
    OperationalError prints its message, anything else reads as internal."""

    FAILURES = [
        (OSError(2, "No such file or directory", "x"), "[Errno 2] No such file or directory: 'x'"),
        (IngestError([ParseError("bad", pointer="/nodes", file="x.json")]), "x.json: /nodes: bad"),
        (GenerationError("x"), "x"),
        (SmvGenerationError("x"), "x"),
        (AtomMismatchError(["a", "b"]), "atoms missing from the model: a, b"),
        (semantics.StateCapExceeded(1, 2), "state-space cap of 1 states exceeded (frontier size 2)"),
        (checker.OracleError("x"), "x"),
        (nusmv.ToolNotFound("x"), "x"),
        (nusmv.ToolRunError("x"), "x"),
        (nusmv.OutputParseError(3, "y"), "unrecognized output at line 3: 'y'"),
        (checker.CounterexampleUnsound("x"), "internal error: CounterexampleUnsound: x"),
        (ValueError("x"), "internal error: ValueError: x"),
    ]

    @pytest.mark.parametrize(
        "exc, message", FAILURES, ids=[type(exc).__name__ for exc, _ in FAILURES]
    )
    def test_each_failure_exits_two_by_its_type(self, monkeypatch, capsys, exc, message):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", fail)
        assert run("check", HIGH, LOW_SAT) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestInternalError:
    def test_crash_is_not_a_verdict(self, monkeypatch, capsys):
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cmd_check", crash)
        assert run("check", HIGH, LOW_SAT) == 2
        assert capsys.readouterr().err == (
            "error: internal error: RecursionError: maximum recursion depth exceeded\n"
        )

    def test_interrupt_propagates(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_check", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("check", HIGH, LOW_SAT)


class TestEngineBoth:
    """Exercise the dual-engine path with a stand-in external checker that
    replays a canned report (the report format is parseable on purpose)."""

    def stub_tool(self, tmp_path, report_text: str) -> str:
        report = tmp_path / "canned.out"
        report.write_text(report_text)
        tool = tmp_path / "NuSMV"
        tool.write_text(f'#!/bin/sh\ncat "{report}"\n')
        tool.chmod(0o755)
        return str(tool)

    def internal_report(self, capsys, low) -> str:
        assert run("check", HIGH, low) in (0, 1)
        return capsys.readouterr().out

    def test_agreement_exits_by_verdict(self, tmp_path, capsys):
        report = self.internal_report(capsys, LOW_UNSAT)
        tool = self.stub_tool(tmp_path, report)
        assert run("check", HIGH, LOW_UNSAT, "--engine", "both", "--nusmv-path", tool) == 1

    def test_agreement_on_satisfied_pair(self, tmp_path, capsys):
        report = self.internal_report(capsys, LOW_SAT)
        tool = self.stub_tool(tmp_path, report)
        assert run("check", HIGH, LOW_SAT, "--engine", "both", "--nusmv-path", tool) == 0

    def test_divergence_is_operational_error(self, tmp_path, capsys):
        report = self.internal_report(capsys, LOW_SAT)  # all true
        tool = self.stub_tool(tmp_path, report)
        assert run("check", HIGH, LOW_UNSAT, "--engine", "both", "--nusmv-path", tool) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: engine verdicts diverge (internal [True, False, True, True, True, True], "
            "external [True, True, True, True, True, True])\n"
        )

    def test_external_engine_alone(self, tmp_path, capsys):
        report = self.internal_report(capsys, LOW_UNSAT)
        tool = self.stub_tool(tmp_path, report)
        assert run("check", HIGH, LOW_UNSAT, "--engine", "nusmv", "--nusmv-path", tool) == 1
        assert capsys.readouterr().out.count("is false") == 1

    @pytest.mark.parametrize("engine", ["nusmv", "both"])
    @pytest.mark.parametrize("verdicts", [0, 1])
    def test_verdict_count_must_match_properties(self, tmp_path, capsys, engine, verdicts):
        # A banner alone, or one verdict line, decides nothing about six
        # properties: that is an error, not containment.
        first_line = self.internal_report(capsys, LOW_SAT).splitlines(keepends=True)[0]
        report = "*** This is a sample banner line ***\n" + first_line * verdicts
        tool = self.stub_tool(tmp_path, report)
        assert run("check", HIGH, LOW_SAT, "--engine", engine, "--nusmv-path", tool) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: external checker reported {verdicts} verdicts for 6 properties\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_loop_is_a_parse_error(self, tmp_path, capsys, fmt):
        # Cut the counterexample's states after its loop marker, keeping
        # the verdict lines that follow.
        lines = self.internal_report(capsys, LOW_UNSAT).splitlines(keepends=True)
        marker = lines.index("-- Loop starts here\n")
        resume = next(i for i in range(marker, len(lines)) if lines[i].startswith("-- spec"))
        tool = self.stub_tool(tmp_path, "".join(lines[: marker + 1] + lines[resume:]))
        argv = ("check", HIGH, LOW_UNSAT, "--engine", "nusmv", "--format", fmt)
        assert run(*argv, "--nusmv-path", tool) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: loop marker with no state after it at line {marker + 1}: "
            "'-- Loop starts here'\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_false_verdict_without_trace_is_a_parse_error(self, tmp_path, capsys, fmt):
        # Keep the verdict lines only: the false one loses its trace.
        lines = self.internal_report(capsys, LOW_UNSAT).splitlines(keepends=True)
        report = "".join(line for line in lines if line.startswith("-- specification"))
        tool = self.stub_tool(tmp_path, report)
        argv = ("check", HIGH, LOW_UNSAT, "--engine", "nusmv", "--format", fmt)
        assert run(*argv, "--nusmv-path", tool) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: counterexample trace missing after a false verdict at line 2: "
            "'-- specification G (VerifyCreditCard -> F ReplyCreditCardNotOK xor "
            "F CreateOrderBusinessObject) is false'\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unparsable_formula_is_a_parse_error(self, tmp_path, capsys, fmt):
        tool = self.stub_tool(tmp_path, "-- specification G (a U b) is true\n")
        argv = ("check", HIGH, LOW_SAT, "--engine", "nusmv", "--format", fmt)
        assert run(*argv, "--nusmv-path", tool) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: formula does not parse (1:6: expected ')') at line 1: "
            "'-- specification G (a U b) is true'\n"
        )
