"""End-to-end and per-layer benchmark of `containcheck check`.

Run from the repository root:

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

`--trace 0` (end to end): generates the workload's seeded batch of
high/low model pairs, then runs the real CLI (`check --format json`) on
them one child process at a time, a closed loop with one client, repeating
whole batches for about `--seconds`. Each verdict vector and exit
code is compared with the answer implied by the pair's construction.

`--trace 1` (per layer): runs the same batch in process, alternating an
untraced and a traced `cli.main` call per pair, and reports self times and
counters per layer (see tracer.py); spans go to bench/out/.

`--workload all` runs every workload in turn. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import families
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

PAIR_LIMIT_S = 60.0  # per-invocation time limit; passing it counts as a failure
RUN_LIMIT_S = 150.0  # no invocation starts or runs past this, so a run ends well within 180 s
SETUP_SAMPLES = 9
# What the installed `containcheck` console script runs.
CLI_MAIN = "import sys; from containcheck.cli import main; sys.exit(main())"

# Gated metrics. Times are the child's CPU time (user + system): a
# single-threaded check that reads a few small files spends its wall time
# on the CPU, while on a shared machine wall time also counts waiting for
# one (wall-time medians spread up to 22 % between runs where CPU time
# spread about 4 %). Wall times are printed alongside (verdict_s.p50,
# batch_s, setup_wall_s).
END_TO_END = {
    "verdict_cpu_s.p50": "s",
    "batch_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, source). Times are per batch (every pair of
# the workload once), median over the traced passes; counts are per batch.
PER_LAYER = {
    "ingest.load_s": ("s", "ingest.load.self"),
    "ingest.nodes": ("count", "ingest.nodes"),
    "ingest.edges": ("count", "ingest.edges"),
    "model.validate_s": ("s", "model.validate.self"),
    "model.validate_calls": ("count", "model.validate_calls"),
    "ltl.generate_s": ("s", "ltl.generate.self"),
    "ltl.properties": ("count", "ltl.properties"),
    "smv.generate_s": ("s", "smv.generate.self"),
    "smv.generate_calls": ("count", "smv.generate_calls"),
    "smv.bundle_s": ("s", "smv.bundle.self"),
    "smv.bundle_bytes": ("B", "smv.bundle_bytes"),
    "semantics.successor_calls": ("count", "semantics.successor_calls"),
    "semantics.states_computed": ("count", "semantics.states_computed"),
    "semantics.reachable_states": ("count", "semantics.reachable_states"),
    "semantics.transitions": ("count", "semantics.transitions"),
    "automaton.build_s": ("s", "automaton.build.self"),
    "automaton.builds": ("count", "automaton.builds"),
    "automaton.distinct_shapes": ("count", "automaton.distinct_shapes"),
    "automaton.states": ("count", "automaton.states"),
    "automaton.max_states": ("count", "automaton.max_states"),
    "checker.check_s": ("s", "checker.check.total"),
    "checker.explore_s": ("s", "checker.explore"),
    "checker.scc_s": ("s", "checker.scc.self"),
    "checker.lasso_s": ("s", "checker.lasso"),
    "checker.product_states": ("count", "checker.product_states"),
    "checker.product_edges": ("count", "checker.product_edges"),
    "checker.product_per_reachable": ("ratio", "checker.product_per_reachable"),
    "checker.violations": ("count", "checker.violations"),
    "checker.render_s": ("s", "checker.render.self"),
    "checker.report_bytes": ("B", "checker.report_bytes"),
    "cli.main_s": ("s", "cli.main.total"),
    "trace.overhead_s": ("s", "trace.overhead"),
}

# Self times ranked when reporting the layer that dominates a workload.
SELF_TIMES = tuple(
    name for name, (unit, key) in PER_LAYER.items()
    if unit == "s" and key not in ("checker.check.total", "cli.main.total", "trace.overhead")
)


class BenchError(Exception):
    pass


class _Timeout(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise _Timeout in the main thread once `seconds` have passed."""

    def expire(signum, frame):
        raise _Timeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Invocation:
    wall: float
    cpu: float  # user + system time of the child
    code: int | None  # exit code (negative: killed by that signal); None: timed out
    stdout: bytes
    maxrss_mb: float


def spawn(args: list[str], env: dict, work: Path, limit: float) -> Invocation:
    """Run `python3 <args>` to completion or until `limit` seconds pass,
    timing it from spawn to exit and taking its own resource usage."""
    out_path = work / "stdout"
    with open(out_path, "wb") as out, open(work / "stderr", "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        status = usage = None
        try:
            with _deadline(limit):
                _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            pass
        finally:
            if status is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    _, _, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    code = None if status is None else os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime if usage is not None else 0.0
    maxrss = usage.ru_maxrss / 1024 if usage is not None else 0.0
    return Invocation(wall, cpu, code, out_path.read_bytes(), maxrss)


def judge(pair: families.Pair, code: int | None, stdout: str | bytes) -> str:
    """'ok', 'wrong' (a verdict vector or exit code differs from the
    expected answer) or 'failed' (exit 2, another code, a signal, a time
    out, or output that is not the JSON report)."""
    if code not in (0, 1):
        return "failed"
    try:
        got = tuple((p["formula"], p["holds"]) for p in json.loads(stdout)["properties"])
    except (ValueError, KeyError, TypeError):
        return "failed"
    return "ok" if got == pair.expected and code == pair.exit_code else "wrong"


def write_pairs(pairs, work: Path) -> None:
    for pair in pairs:
        (work / pair.high_file).write_text(pair.high_text, encoding="utf-8")
        (work / pair.low_file).write_text(pair.low_text, encoding="utf-8")


def check_args(pair: families.Pair, work: Path) -> list[str]:
    return ["check", str(work / pair.high_file), str(work / pair.low_file), "--format", "json"]


def remaining(started: float) -> float:
    return RUN_LIMIT_S - (time.perf_counter() - started)


def _another_round(began: float, last_began: float, seconds: float) -> bool:
    """Whether to repeat the batch: only when it would end less than half a
    batch past `seconds`, judged by how long the last one took."""
    now = time.perf_counter()
    return now - began + (now - last_began) / 2 < seconds


# --- end to end -------------------------------------------------------------

def measure_setup(env: dict, work: Path, started: float) -> list[Invocation]:
    """Fresh interpreters importing containcheck.cli. One untimed import
    first compiles the bytecode cache, which an installed package has
    already done."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        inv = spawn(["-c", "import containcheck.cli"], env, work, min(PAIR_LIMIT_S, remaining(started)))
        if inv.code != 0:
            err = (work / "stderr").read_text(encoding="utf-8", errors="replace")
            raise BenchError(f"`import containcheck.cli` failed (exit {inv.code}):\n{err}")
        if i:
            samples.append(inv)
    return samples


def _high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    pct = int(100 * (1 - 10 / len(values)))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_end_to_end(pairs, work: Path, seconds: float, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = measure_setup(env, work, started)
    done: list[list[Invocation]] = [[] for _ in pairs]  # completed checks per pair
    peak_rss = 0.0
    batches = 0
    tally = {"ok": 0, "wrong": 0, "failed": 0}
    cut = False
    began = last = time.perf_counter()
    while not cut and (not batches or _another_round(began, last, seconds)):
        last = time.perf_counter()
        for i, pair in enumerate(pairs):
            budget = min(PAIR_LIMIT_S, remaining(started))
            if budget <= 0:
                cut = True
                break
            inv = spawn(["-c", CLI_MAIN, *check_args(pair, work)], env, work, budget)
            outcome = judge(pair, inv.code, inv.stdout)
            tally[outcome] += 1
            if outcome != "ok":
                print(f"{outcome}: {pair.name} exit {inv.code}", file=sys.stderr)
            if outcome != "failed":
                done[i].append(inv)
            peak_rss = max(peak_rss, inv.maxrss_mb)
        else:
            batches += 1
    attempted = sum(tally.values())
    if not any(done):
        raise BenchError(f"all {attempted} invocations failed")
    if not batches:
        raise BenchError("the run limit cut the first batch short")

    # Each pair's median over the batches, so one stalled invocation does
    # not set a pair's time. A typical verdict is the median over pairs;
    # checking every pair once, in sequence, is their sum.
    pair_cpu = [statistics.median(inv.cpu for inv in runs) for runs in done if runs]
    pair_wall = [statistics.median(inv.wall for inv in runs) for runs in done if runs]
    completed = [inv for runs in done for inv in runs]
    per_pair = f"{len(pair_cpu)} pairs x {batches} batches"
    report = [
        ("verdict_cpu_s.p50", statistics.median(pair_cpu), "s", f"CPU, median over {per_pair}"),
        ("verdict_s.p50", statistics.median(pair_wall), "s", f"wall, median over {per_pair}"),
        ("batch_cpu_s", sum(pair_cpu), "s", f"CPU, sum over {per_pair}"),
        ("batch_s", sum(pair_wall), "s", f"wall, sum over {per_pair}"),
        ("setup_s", statistics.median(inv.cpu for inv in setup), "s", f"CPU, median of {len(setup)} imports"),
        ("setup_wall_s", statistics.median(inv.wall for inv in setup), "s", f"wall, median of {len(setup)} imports"),
        ("peak_rss_mb", peak_rss, "MB", "largest child"),
        ("verdicts_wrong", tally["wrong"], "count", "invocations"),
        ("failed_ratio", tally["failed"] / attempted, "ratio", f"{tally['failed']}/{attempted}"),
    ]
    for label, attr in (("verdict_cpu_s", "cpu"), ("verdict_s", "wall")):
        high = _high_percentile([getattr(inv, attr) for inv in completed])
        if high is not None:
            report.append((f"{label}.p{high[0]}", high[1], "s", f"over {len(completed)} invocations"))
    for name, value, unit, note in report:
        print(f"  {name} = {value:.6g} {unit} ({note})")
    return {
        "correct": tally["wrong"] == 0,
        "attempted": attempted,
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in report if name in END_TO_END},
    }


# --- per layer ----------------------------------------------------------------

def _import_containcheck() -> dict:
    sys.path.insert(0, str(SRC))
    from containcheck import checker, cli, ingest, ltl, model, semantics, smv

    return {
        "checker": checker, "cli": cli, "ingest": ingest, "ltl": ltl,
        "model": model, "semantics": semantics, "smv": smv,
    }


def call_main(cc: dict, args: list[str], limit: float, tracer: Tracer | None):
    """One in-process `containcheck` run: (exit code or None, stdout, wall)."""
    stdout = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with _deadline(limit), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cc["cli"].main(args)
            else:
                tracer.install()
                try:
                    code = tracer.call("cli.main", cc["cli"].main, args)
                finally:
                    tracer.uninstall()
    except _Timeout:
        code = None
    except (Exception, SystemExit):
        traceback.print_exc()
        code = None
    return code, stdout.getvalue(), time.perf_counter() - start


def run_traced(pairs, work: Path, seconds: float, started: float, span_path: Path) -> dict:
    cc = _import_containcheck()
    passes = []
    spans = []
    tally = {"ok": 0, "wrong": 0, "failed": 0}
    began = last = time.perf_counter()
    while not passes or _another_round(began, last, seconds):
        last = time.perf_counter()
        tracer = Tracer(cc)
        untraced = 0.0
        complete = True
        for i, pair in enumerate(pairs):
            # Alternate which of the two runs of a pair goes first.
            for traced in (False, True) if (len(passes) + i) % 2 == 0 else (True, False):
                budget = min(PAIR_LIMIT_S, remaining(started))
                if budget <= 0:
                    complete = False
                    break
                tracer.pair = pair.name
                code, stdout, wall = call_main(cc, check_args(pair, work), budget, tracer if traced else None)
                outcome = judge(pair, code, stdout)
                tally[outcome] += 1
                if outcome != "ok":
                    print(f"{outcome}: {pair.name} exit {code}", file=sys.stderr)
                if traced:
                    tracer.count_systems()
                else:
                    untraced += wall
            if not complete:
                break
        if not complete:
            break
        times = tracer.layer_times()
        counts = dict(tracer.counts)
        counts["automaton.distinct_shapes"] = len(tracer.shapes)
        counts["checker.product_per_reachable"] = counts.get("checker.product_states", 0) / max(
            counts.get("reachable_x_properties", 0), 1
        )
        times["trace.overhead"] = times["cli.main.total"] - untraced
        passes.append((times, counts))
        spans += [[len(passes) - 1, *span] for span in tracer.spans]
    if not passes:
        raise BenchError("no complete traced pass")

    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        if unit == "s":
            value = statistics.median(times.get(key, 0.0) for times, _ in passes)
        else:
            value = passes[-1][1].get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    ranked = sorted(SELF_TIMES, key=lambda name: metrics[name]["value"], reverse=True)
    print(f"  largest self times: {', '.join(ranked[:3])} (n={len(passes)} traced passes)")

    span_path.write_text(
        json.dumps({"fields": ["pass", "name", "start", "end", "parent", "pair"], "spans": spans}),
        encoding="utf-8",
    )
    print(f"  spans: {span_path.relative_to(ROOT)}")
    return {
        "correct": tally["wrong"] == 0,
        "attempted": sum(tally.values()),
        "failed": tally["failed"],
        "metrics": metrics,
    }


# --- command line -----------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    pairs = families.workload_pairs(workload, seed, ROOT)
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    print(f"workload {workload} seed {seed} ({'traced, in process' if trace else 'end to end'}): {len(pairs)} pairs")
    try:
        write_pairs(pairs, work)
        if trace:
            return run_traced(pairs, work, seconds, started, OUT / f"spans-{workload}-{seed}.json")
        return run_end_to_end(pairs, work, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=families.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "containcheck" / "cli.py").is_file():
        print(f"error: no src/containcheck under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    # Terminate like an interrupt, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = families.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
