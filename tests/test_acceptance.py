"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria, in order: the LTL golden file, the SMV golden file (including the
published template fragments), negative and positive containment verdicts,
the counterexample trace replay, oracle equivalence over 500 random
models, counterexample soundness, print/parse round-trips, and the
conditional differential run against an installed NuSMV.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from conftest import (
    GOLDEN,
    HIGH,
    LOW_SAT,
    LOW_UNSAT,
    lasso_violates,
    random_valid_model,
)
from containcheck.checker import check, check_all, oracle_check
from containcheck.cli import main
from containcheck.ingest import load_model, parse_dsl, print_dsl
from containcheck.ltl import generate_properties, parse_ltl, render_formula
from containcheck.semantics import build_system, reachable_states, simulate
from containcheck.smv import generate_smv
from containcheck import nusmv

# --- published artifacts the generators must reproduce -------------------

EXPECTED_LTL_LINES = [
    "LTLSPEC G (InitialNode1 -> F VerifyCreditCard)",
    "LTLSPEC G (VerifyCreditCard -> F ReplyCreditCardNotOK xor F CreateOrderBusinessObject)",
    "LTLSPEC G (ReplyCreditCardNotOK -> F ActivityFinalNode1)",
    "LTLSPEC G (CreateOrderBusinessObject -> F ShipOrder & F ChargeOrder)",
    "LTLSPEC (G (ShipOrder & ChargeOrder) -> F ReplyOrderStatus)",
    "LTLSPEC G (ReplyOrderStatus -> F ActivityFinalNode2)",
]

PUBLISHED_VAR_LINES = [
    "InitialNode1 : boolean;",
    "ReceiveNewOrder : boolean;",
    "VerifyCreditCard : boolean;",
    "DecisionNode1 : {undetermined, guard_DecisionNode1_ReplyCreditCardNotOK,"
    " guard_DecisionNode1_DecisionNode2};",
    "DecisionNode2 : {undetermined, guard_DecisionNode2_ConfirmOrderCancelation,"
    " guard_DecisionNode2_CreateOrderBusinessObject};",
]

# init/next blocks as published; the generator appends a totalizing
# `TRUE : <var>;` arm to each case, which the comparison strips.
PUBLISHED_ASSIGN_BLOCKS = """\
init(InitialNode1) := TRUE;
next(InitialNode1) := case
    InitialNode1 : FALSE;
esac;
init(ReceiveNewOrder) := FALSE;
next(ReceiveNewOrder) := case
    InitialNode1 : TRUE;
    ReceiveNewOrder : FALSE;
esac;
init(DecisionNode1) := undetermined;
next(DecisionNode1) := case
    VerifyCreditCard : {guard_DecisionNode1_ReplyCreditCardNotOK, guard_DecisionNode1_DecisionNode2};
    DecisionNode1 != undetermined : undetermined;
esac;
init(ReplyCreditCardNotOK) := FALSE;
next(ReplyCreditCardNotOK) := case
    (DecisionNode1 = guard_DecisionNode1_ReplyCreditCardNotOK) : TRUE;
    ReplyCreditCardNotOK : FALSE;
esac;
init(DecisionNode2) := undetermined;
next(DecisionNode2) := case
    (DecisionNode1 = guard_DecisionNode1_DecisionNode2) : {guard_DecisionNode2_ConfirmOrderCancelation, guard_DecisionNode2_CreateOrderBusinessObject};
    DecisionNode2 != undetermined : undetermined;
esac;
init(ActivityFinalNode1) := FALSE;
next(ActivityFinalNode1) := case
    ReplyCreditCardNotOK : TRUE;
    ActivityFinalNode1 : FALSE;
esac;
init(ConfirmOrderCancelation) := FALSE;
next(ConfirmOrderCancelation) := case
    (DecisionNode2 = guard_DecisionNode2_ConfirmOrderCancelation) : TRUE;
    ConfirmOrderCancelation : FALSE;
esac;
init(CreateOrderBusinessObject) := FALSE;
next(CreateOrderBusinessObject) := case
    (DecisionNode2 = guard_DecisionNode2_CreateOrderBusinessObject) : TRUE;
    CreateOrderBusinessObject : FALSE;
esac;
init(ForkNode1) := FALSE;
next(ForkNode1) := case
    CreateOrderBusinessObject : TRUE;
    ForkNode1 : FALSE;
esac;
init(ShipOrder) := FALSE;
next(ShipOrder) := case
    ForkNode1 : TRUE;
    ShipOrder : FALSE;
esac;
init(MergeNode2) := FALSE;
next(MergeNode2) := case
    (DecisionNode4 = guard_DecisionNode4_MergeNode2) | ForkNode1 : TRUE;
    MergeNode2 : FALSE;
esac;
init(DecisionNode5) := undetermined;
next(DecisionNode5) := case
    ShipOrder : {guard_DecisionNode5_MergeNode1, guard_DecisionNode5_Reship};
    DecisionNode5 != undetermined : undetermined;
esac;
"""

EXPECTED_TRACE_FLIPS = [
    "InitialNode1 = TRUE",
    "ReceiveNewOrder = TRUE",
    "VerifyCreditCard = TRUE",
    "DecisionNode1 = guard_DecisionNode1_DecisionNode2",
    "DecisionNode2 = guard_DecisionNode2_ConfirmOrderCancelation",
    "ConfirmOrderCancelation = TRUE",
    "ActivityFinalNode2 = TRUE",
]

RANDOM_SUITE_SEEDS = range(500)


def normalize(text: str) -> str:
    return "\n".join(
        re.sub(r"\s+", " ", line).strip() for line in text.strip().splitlines()
    )


def split_blocks(text: str) -> list[str]:
    blocks, current = [], []
    for line in text.splitlines():
        if line.startswith("init("):
            current = []
        current.append(line)
        if line.strip() == "esac;":
            blocks.append("\n".join(current))
            current = []
    return blocks


def strip_default_arm(block: str) -> str:
    lines = [
        line
        for line in block.splitlines()
        if not re.match(r"\s*TRUE : \w+;\s*$", line)
    ]
    return "\n".join(lines)


def test_criterion_1_ltl_golden(tmp_path):
    started = time.monotonic()
    out = tmp_path / "generated.ltl"
    assert main(["gen-ltl", str(HIGH), "-o", str(out)]) == 0
    generated = [line.rstrip() for line in out.read_text().splitlines()]
    assert generated == EXPECTED_LTL_LINES
    golden = [line.rstrip() for line in (GOLDEN / "order_processing_high.ltl").read_text().splitlines()]
    assert generated == golden
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 1 (LTL golden, {elapsed:.2f}s): PASS")


def test_criterion_2_smv_golden(tmp_path):
    started = time.monotonic()
    out = tmp_path / "generated.smv"
    assert main(["gen-smv", str(LOW_UNSAT), "-o", str(out)]) == 0
    generated = out.read_text()
    assert generated == (GOLDEN / "order_processing_low_unsat.smv").read_text()

    generated_lines = [line.strip() for line in generated.splitlines()]
    for var_line in PUBLISHED_VAR_LINES:
        assert var_line in generated_lines, var_line

    published = {
        block.splitlines()[0]: normalize(block)
        for block in split_blocks(PUBLISHED_ASSIGN_BLOCKS)
    }
    positions = []
    generated_blocks = {}
    for index, block in enumerate(split_blocks(generated)):
        head = block.splitlines()[0].strip()
        if head in published:
            generated_blocks[head] = normalize(strip_default_arm(block))
            positions.append((index, head))
    assert set(generated_blocks) == set(published)
    for head, text in published.items():
        assert generated_blocks[head] == text, head
    assert [head for _, head in sorted(positions)] == list(published)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 2 (SMV golden, {elapsed:.2f}s): PASS")


def test_criterion_3_negative_containment(tmp_path, capsys):
    started = time.monotonic()
    code = main(["check", str(HIGH), str(LOW_UNSAT), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert [p["holds"] for p in doc["properties"]] == [
        True, False, True, True, True, True,
    ]
    failing = doc["properties"][1]
    assert failing["formula"] == (
        "G (VerifyCreditCard -> F ReplyCreditCardNotOK xor F CreateOrderBusinessObject)"
    )
    loop = failing["counterexample"]["loop"]
    assert all(state["ReplyCreditCardNotOK"] is False for state in loop)
    assert any(
        state["ConfirmOrderCancelation"] is True
        for state in failing["counterexample"]["prefix"]
    )
    system = build_system(generate_smv(load_model(str(LOW_UNSAT))))
    assert len(reachable_states(system).states) < 10**4
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 3 (negative containment, {elapsed:.2f}s): PASS")


def test_criterion_4_positive_containment(capsys):
    started = time.monotonic()
    code = main(["check", str(HIGH), str(LOW_SAT)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("is true") == 6
    assert "is false" not in out
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 4 (positive containment, {elapsed:.2f}s): PASS")


def test_criterion_5_semantics_trace():
    system = build_system(generate_smv(load_model(str(LOW_UNSAT))))
    trace = simulate(
        system,
        [("DecisionNode1", "DecisionNode2"), ("DecisionNode2", "ConfirmOrderCancelation")],
    )
    flips = []
    previous = None
    for state in trace[:7]:
        items = dict(system.state_items(state))
        if previous is None:
            turned_on = [(k, v) for k, v in items.items() if v not in ("FALSE", "undetermined")]
        else:
            turned_on = [
                (k, v)
                for k, v in items.items()
                if previous[k] != v and v not in ("FALSE", "undetermined")
            ]
        assert len(turned_on) == 1
        flips.append(f"{turned_on[0][0]} = {turned_on[0][1]}")
        previous = items
    assert flips == EXPECTED_TRACE_FLIPS
    print("criterion 5 (counterexample trace replay): PASS")


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    disagreements = []
    properties_checked = 0
    for seed in RANDOM_SUITE_SEEDS:
        model = random_valid_model(seed)
        system = build_system(generate_smv(model))
        depth = len(reachable_states(system).states) + 2
        for prop in generate_properties(model):
            internal = check(system, prop.formula)
            brute = oracle_check(system, prop.formula, depth)
            properties_checked += 1
            if internal.holds != brute.holds:
                disagreements.append((seed, render_formula(prop.formula)))
    elapsed = time.monotonic() - started
    assert disagreements == []
    assert elapsed < 60.0
    print(
        f"criterion 6 (oracle equivalence, {properties_checked} checks over "
        f"{len(RANDOM_SUITE_SEEDS)} models, {elapsed:.1f}s): PASS"
    )


def test_criterion_7_counterexample_soundness():
    failures = 0
    unsound = 0
    high = load_model(str(HIGH))
    low_system = build_system(generate_smv(load_model(str(LOW_UNSAT))))
    corpora = [(low_system, generate_properties(high))]
    for seed in RANDOM_SUITE_SEEDS:
        model = random_valid_model(seed)
        corpora.append((build_system(generate_smv(model)), generate_properties(model)))
    for system, properties in corpora:
        for verdict in check_all(system, properties):
            if verdict.holds:
                continue
            failures += 1
            if not lasso_violates(verdict.formula, verdict.counterexample):
                unsound += 1
    assert failures > 0
    assert unsound == 0
    print(f"criterion 7 (counterexample soundness, {failures} lassos re-checked): PASS")


def test_criterion_8_round_trips():
    for path in (HIGH, LOW_UNSAT, LOW_SAT):
        model = load_model(str(path))
        assert parse_dsl(print_dsl(model), "round-trip") == model
    high = load_model(str(HIGH))
    for prop in generate_properties(high):
        assert parse_ltl(render_formula(prop.formula)) == prop.formula
    for seed in RANDOM_SUITE_SEEDS:
        model = random_valid_model(seed)
        assert parse_dsl(print_dsl(model), "round-trip") == model
        for prop in generate_properties(model):
            assert parse_ltl(render_formula(prop.formula)) == prop.formula
    print(f"criterion 8 (round-trips over fixtures and {len(RANDOM_SUITE_SEEDS)} models): PASS")


@pytest.mark.skipif(nusmv.locate() is None, reason="no NuSMV binary detected")
def test_criterion_9_differential(capsys):
    for path, expected in ((LOW_UNSAT, 1), (LOW_SAT, 0)):
        code = main(["check", str(HIGH), str(path), "--engine", "both"])
        capsys.readouterr()
        assert code == expected
    print("criterion 9 (differential against external checker): PASS")
