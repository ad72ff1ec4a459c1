"""Command-line front end wiring ingestion, generation, checking, and
reporting into one pipeline.

Exit codes: 0 success (for `check`: containment holds), 1 a property is
violated, 2 an operational error or an internal error, so a crash never
reads as a verdict. An operational error prints `error: <message>`. It is
an `OSError` or a `containcheck.record.OperationalError`:
- unreadable input or unwritable output, an invalid model, a cyclic
  high-level model;
- property atoms missing from the low-level model;
- a non-positive `--cap` or `--depth`, or either of `--depth` and
  `--dump-states` with `--engine nusmv`;
- the state-space cap exceeded;
- a system too large for the `--depth` oracle, an engine counterexample
  of `--depth` or more states where the oracle holds, or any other oracle
  verdict that differs from the engine's;
- a missing external tool, one that times out or exits non-zero, a report
  that does not parse or gives other than one verdict per property, and
  internal and external verdicts that diverge.
Any other exception is an internal error and prints
`error: internal error: <type>: <message>`.
"""

from __future__ import annotations

import argparse
import sys

from . import ingest, ltl, smv
from .record import DEFAULT_STATE_CAP, OperationalError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, OperationalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="containcheck",
        description=(
            "Check that a low-level behavior model contains the behavior of "
            "its high-level counterpart."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a model file")
    p_validate.add_argument("model", help=".behavior or .json model file")
    p_validate.set_defaults(handler=cmd_validate)

    p_ltl = sub.add_parser(
        "gen-ltl", help="compile a high-level model to LTLSPEC properties"
    )
    p_ltl.add_argument("high", help="high-level model file")
    p_ltl.add_argument("-o", "--out", help="output file (default: stdout)")
    _add_join_mode(p_ltl, "join template variant (default: %(default)s)")
    p_ltl.set_defaults(handler=cmd_gen_ltl)

    p_smv = sub.add_parser(
        "gen-smv", help="compile a low-level model to an SMV description"
    )
    p_smv.add_argument("low", help="low-level model file")
    p_smv.add_argument("-o", "--out", help="output file (default: stdout)")
    p_smv.add_argument(
        "--embed-ltl",
        metavar="HIGH",
        help="also embed the LTLSPEC lines generated from this high-level model",
    )
    _add_join_mode(p_smv, "join template variant for --embed-ltl (default: %(default)s)")
    p_smv.set_defaults(handler=cmd_gen_smv)

    p_check = sub.add_parser(
        "check", help="check containment of the high-level model in the low-level one"
    )
    p_check.add_argument("high", help="high-level model file")
    p_check.add_argument("low", help="low-level model file")
    p_check.add_argument(
        "--engine",
        choices=("internal", "nusmv", "both"),
        default="internal",
        help="checking engine; 'both' also asserts verdict agreement",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    p_check.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_STATE_CAP,
        help=(
            "bound on the states explored to decide each property: the run of "
            "a one-run system where the property holds on it, else the "
            "product (default: %(default)s)"
        ),
    )
    p_check.add_argument(
        "--depth",
        type=int,
        help=(
            "additionally cross-check internal verdicts with the brute-force "
            "enumeration of lassos of fewer than this many states; a "
            "counterexample it cannot reach, or a divergence, is an error"
        ),
    )
    _add_join_mode(p_check, "join template variant (default: %(default)s)")
    p_check.add_argument(
        "--dump-states",
        action="store_true",
        help="dump the reachable states of the low-level system to stderr",
    )
    p_check.add_argument("--nusmv-path", help="path to the external checker binary")
    p_check.set_defaults(handler=cmd_check)
    return parser


def _add_join_mode(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--join-mode", choices=("always", "simultaneous"), default="always", help=help_text
    )


def cmd_validate(args) -> int:
    try:
        model = ingest.load_model(args.model)
    except ingest.IngestError as exc:
        for error in exc.errors:
            print(str(error), file=sys.stderr)
        return EXIT_ERROR
    print(f"{model.name}: valid ({len(model.nodes)} nodes, {len(model.edges)} edges)")
    return EXIT_OK


def cmd_gen_ltl(args) -> int:
    model = ingest.load_model(args.high)
    properties = ltl.generate_properties(model, join_mode=args.join_mode)
    text = ltl.render_ltlspec(properties)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_gen_smv(args) -> int:
    model = ingest.load_model(args.low)
    if args.embed_ltl:
        high = ingest.load_model(args.embed_ltl)
        properties = ltl.generate_properties(high, join_mode=args.join_mode)
        text = smv.bundle_check_file(smv.generate_smv(model), properties)
    else:
        text = smv.render_smv(smv.generate_smv(model))
    _write_output(text, args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.cap < 1:
        raise OperationalError("--cap must be positive")
    if args.depth is not None and args.depth < 1:
        raise OperationalError("--depth must be positive")
    if args.engine == "nusmv" and (args.depth is not None or args.dump_states):
        raise OperationalError(
            "--depth and --dump-states need the internal engine (--engine internal or both)"
        )
    from . import checker, semantics

    high = ingest.load_model(args.high)
    low = ingest.load_model(args.low)
    properties = ltl.generate_properties(high, join_mode=args.join_mode)
    module = smv.generate_smv(low)
    # Surfaces an atom mismatch before any engine runs.
    smv.check_atoms(module, properties)

    internal_verdicts = None
    if args.engine in ("internal", "both"):
        system = semantics.build_system(module)
        if args.dump_states:
            _dump_states(system, args.cap)
        internal_verdicts = checker.check_all(system, properties, cap=args.cap)
        if args.depth is not None:
            for verdict, prop in zip(internal_verdicts, properties):
                oracle = checker.oracle_check(system, prop, args.depth)
                if oracle.holds == verdict.holds:
                    continue
                formula = ltl.render_formula(verdict.formula)
                # The oracle reaches every lasso of fewer than --depth states.
                lasso = verdict.counterexample
                states = len(lasso.prefix) + len(lasso.loop) if lasso else 0
                if oracle.holds and states >= args.depth:
                    raise OperationalError(
                        f"--depth {args.depth} cannot reach the counterexample to {formula}: "
                        f"it has {states} states, so the oracle needs --depth {states + 1} or more"
                    )
                raise OperationalError(f"internal and brute-force verdicts diverge on {formula}")

    external_verdicts = None
    if args.engine in ("nusmv", "both"):
        # Imported here: it loads subprocess, which no other run needs.
        from . import nusmv

        bundle = smv.bundle_check_file(module, properties)
        raw = nusmv.run_check(bundle, path_override=args.nusmv_path)
        external_verdicts = nusmv.parse_output(raw)
        if len(external_verdicts) != len(properties):
            raise OperationalError(
                f"external checker reported {len(external_verdicts)} "
                f"verdicts for {len(properties)} properties"
            )

    if args.engine == "both":
        internal_vector = [v.holds for v in internal_verdicts]
        external_vector = [v.holds for v in external_verdicts]
        if internal_vector != external_vector:
            raise OperationalError(
                f"engine verdicts diverge (internal {internal_vector}, "
                f"external {external_vector})"
            )

    verdicts = internal_verdicts if internal_verdicts is not None else external_verdicts
    sys.stdout.write(checker.render_report(verdicts, format=args.format))
    return EXIT_OK if all(v.holds for v in verdicts) else EXIT_VIOLATION


def _dump_states(system, cap: int) -> None:
    from . import semantics

    reach = semantics.reachable_states(system, cap=cap)
    for state in reach.order:
        pairs = ", ".join(f"{n} = {v}" for n, v in system.state_items(state))
        print(pairs, file=sys.stderr)


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
