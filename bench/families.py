"""Seeded model-pair generators for the benchmark workloads.

Every generator returns Pair objects whose expected answer follows from
how the pair was built, never from running the checker: the property
list is the one the paper's templates give for the high-level model (in
the documented emission order, a depth-first walk from the initial node
along declaration-ordered edges), and each verdict is argued from pulse
semantics in the generator's docstring. `selftest.py` confirms the rule
against the brute-force oracle at small sizes.

Node ids are a random lowercase prefix plus digits, so they never collide
with reserved LTL, SMV or DSL words (`F`, `G`, `X`, `U`, `model`, ...).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Pair:
    name: str
    high_file: str
    high_text: str
    low_file: str
    low_text: str
    # (formula as rendered by the CLI, holds), in property emission order.
    expected: tuple[tuple[str, bool], ...]

    @property
    def exit_code(self) -> int:
        return 0 if all(holds for _, holds in self.expected) else 1


# --- formula text for the five templates ---------------------------------

def _seq(a: str, b: str) -> str:
    return f"G ({a} -> F {b})"


def _fork(a: str, targets) -> str:
    return f"G ({a} -> " + " & ".join(f"F {t}" for t in targets) + ")"


def _decision(a: str, targets) -> str:
    return f"G ({a} -> " + " xor ".join(f"F {t}" for t in targets) + ")"


def _merge(sources, b: str) -> str:
    return f"G ({' | '.join(sources)} -> F {b})"


def _join(sources, b: str) -> str:
    return f"(G ({' & '.join(sources)}) -> F {b})"


# --- DSL text -------------------------------------------------------------

def _dsl(name: str, nodes, edges) -> str:
    lines = [f"model {name} {{"]
    lines += [f"    {kind} {node_id};" for kind, node_id in nodes]
    lines.append("")
    lines += [f"    {src} -> {dst};" for src, dst in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def _pair(name: str, high: str, low: str, expected) -> Pair:
    return Pair(name, f"{name}.high.behavior", high, f"{name}.low.behavior", low, tuple(expected))


# --- chain ----------------------------------------------------------------

def chain(rng: random.Random, n: int, name: str) -> Pair:
    """High: initial, N actions in sequence, final. Low: the same chain with
    0, 1 or 2 actions inserted after each high action; the counts are a
    shuffled, balanced list, so every draw of one N has the same size.

    Each action pulses exactly once and its high-level successor pulses
    later, so every `G (a -> F b)` holds and the exit code is 0.
    """
    p = _prefix(rng)
    init, fin = f"{p}0", f"{p}end"
    acts = [f"{p}{i}" for i in range(1, n + 1)]
    high_ids = [init] + acts + [fin]
    high_edges = list(zip(high_ids, high_ids[1:]))
    high_nodes = [("initial", init)] + [("action", a) for a in acts] + [("final", fin)]

    inserts = [i % 3 for i in range(n)]
    rng.shuffle(inserts)
    low_ids = [init]
    low_nodes = [("initial", init)]
    for a, count in zip(acts, inserts):
        extra = [f"{a}x{j}" for j in range(1, count + 1)]
        low_ids += [a] + extra
        low_nodes += [("action", x) for x in [a] + extra]
    low_ids.append(fin)
    low_nodes.append(("final", fin))
    low_edges = list(zip(low_ids, low_ids[1:]))

    expected = [(_seq(a, b), True) for a, b in high_edges]
    return _pair(name, _dsl("ChainHigh", high_nodes, high_edges), _dsl("ChainLow", low_nodes, low_edges), expected)


# --- decision -------------------------------------------------------------

def decision(rng: random.Random, k: int, fork: bool, name: str) -> Pair:
    """High: initial, A, a K-way decision into actions B1..BK, a merge, Z,
    final. Low: the same decision, or (fork=True) a fork/join in its place.

    Properties: `G (I -> F A)`, the decision `G (A -> F B1 xor ... xor F BK)`,
    the merge `G (B1 | ... | BK -> F Z)` and `G (Z -> F end)`. With the
    decision exactly one Bi pulses, so all hold. With the fork all K pulse
    together; the paper's xor chain is then true iff K is odd, so the
    decision property is violated exactly when K is even. The join fires
    because the Bi arrive together, so the merge property still holds.
    """
    p = _prefix(rng)
    init, a, d, m, z, fin = (f"{p}{s}" for s in ("0", "1", "d1", "m1", "2", "end"))
    bs = [f"{p}b{i}" for i in range(1, k + 1)]
    rng.shuffle(bs)

    def model(split: str, split_kind: str, gather: str, gather_kind: str, title: str) -> str:
        nodes = [("initial", init), ("action", a), (split_kind, split)]
        nodes += [("action", b) for b in bs]
        nodes += [(gather_kind, gather), ("action", z), ("final", fin)]
        edges = [(init, a), (a, split)] + [(split, b) for b in bs]
        edges += [(b, gather) for b in bs] + [(gather, z), (z, fin)]
        return _dsl(title, nodes, edges)

    high = model(d, "decision", m, "merge", "DecisionHigh")
    if fork:
        low = model(f"{p}f1", "fork", f"{p}j1", "join", "DecisionLowFork")
    else:
        low = model(d, "decision", m, "merge", "DecisionLow")
    expected = [
        (_seq(init, a), True),
        (_decision(a, bs), not fork or k % 2 == 1),
        (_merge(bs, z), True),
        (_seq(z, fin), True),
    ]
    return _pair(name, high, low, expected)


# --- forkdec --------------------------------------------------------------

def forkdec_extras(k: int, shape: int) -> list[tuple[int, int]]:
    """Extra low-level actions (after Wi, after Yi) for K branches: 0-2
    each, varied by branch and by `shape`, never all branch lengths equal."""
    return [((i + shape) % 3, (2 * i + shape + 1) % 3) for i in range(k)]


def forkdec(rng: random.Random, extras, swap: bool, name: str) -> Pair:
    """High: I -> S -> fork into K = len(extras) branches Pi -> decision Di,
    whose X branch is Xi -> Wi and whose Y branch is Yi; both reach merge
    Mi, every Mi feeds one join, then E -> end.

    Low: branch i's X branch gets extras[i][0] actions after Wi and its Y
    branch extras[i][1] after Yi; the seed shuffles which branch gets which
    pair, which changes no state count. With swap=True the first X branch
    runs W1 before X1 (an order-swap bug).

    Properties in emission order: `G (I -> F S)`, the fork
    `G (S -> F P1 & ... & F PK)`, then per branch i the decision
    `G (Pi -> F Xi xor F Yi)`, `G (Xi -> F Wi)` and the merge
    `G (Wi | Yi -> F E)`, with the join `(G (W1 & Y1 & ...) -> F E)` and
    `G (E -> F end)` emitted after the first branch's merge.

    Verdicts: every Pi pulses and exactly one of Xi, Yi follows, so the
    fork and decision properties hold. A pulse join fires only when all
    Mi pulse in the same step; the Mi pulse at times set by the chosen
    branch lengths, so unless all 2K branch lengths are equal some choice
    leaves E unreached and every merge property fails. `G (X1 -> F W1)`
    fails under the swap. The join property is vacuous (its G-conjunction
    is false at step 0) and `G (E -> F end)` holds.
    """
    k = len(extras)
    extras = list(extras)
    rng.shuffle(extras)
    p = _prefix(rng)
    init, s, fk, j, e, fin = (f"{p}{t}" for t in ("0", "1", "f1", "j1", "2", "end"))
    ps = [f"{p}p{i}" for i in range(1, k + 1)]
    ds = [f"{p}d{i}" for i in range(1, k + 1)]
    xs = [f"{p}x{i}" for i in range(1, k + 1)]
    ws = [f"{p}w{i}" for i in range(1, k + 1)]
    ys = [f"{p}y{i}" for i in range(1, k + 1)]
    ms = [f"{p}m{i}" for i in range(1, k + 1)]

    def model(x_branches, y_branches, title: str) -> str:
        nodes = [("initial", init), ("action", s), ("fork", fk)]
        edges = [(init, s), (s, fk)] + [(fk, pi) for pi in ps]
        for i in range(k):
            xb, yb = x_branches[i], y_branches[i]
            nodes += [("action", ps[i]), ("decision", ds[i])]
            nodes += [("action", n) for n in xb + yb] + [("merge", ms[i])]
            edges += [(ps[i], ds[i]), (ds[i], xb[0]), (ds[i], yb[0])]
            edges += list(zip(xb, xb[1:] + [ms[i]]))
            edges += list(zip(yb, yb[1:] + [ms[i]]))
        nodes += [("join", j), ("action", e), ("final", fin)]
        edges += [(mi, j) for mi in ms] + [(j, e), (e, fin)]
        return _dsl(title, nodes, edges)

    high = model([[x, w] for x, w in zip(xs, ws)], [[y] for y in ys], "ForkDecHigh")
    low_x, low_y = [], []
    for i in range(k):
        first = [ws[i], xs[i]] if swap and i == 0 else [xs[i], ws[i]]
        low_x.append(first + [f"{ws[i]}r{t}" for t in range(1, extras[i][0] + 1)])
        low_y.append([ys[i]] + [f"{ys[i]}r{t}" for t in range(1, extras[i][1] + 1)])
    low = model(low_x, low_y, "ForkDecLow")

    lengths = {len(b) for b in low_x + low_y}
    merges_hold = len(lengths) == 1
    expected = [(_seq(init, s), True), (_fork(s, ps), True)]
    for i in range(k):
        expected += [
            (_decision(ps[i], [xs[i], ys[i]]), True),
            (_seq(xs[i], ws[i]), not (swap and i == 0)),
            (_merge([ws[i], ys[i]], e), merges_hold),
        ]
        if i == 0:
            expected += [(_join([v for w, y in zip(ws, ys) for v in (w, y)], e), True), (_seq(e, fin), True)]
    return _pair(name, high, low, expected)


# --- fixtures -------------------------------------------------------------

# Hand-derived answers for the order-processing example (README): the
# unsat refinement's order-cancelation branch skips both decision outcomes,
# so only the decision property fails; the sat refinement keeps them all.
_FIXTURE_PAIRS = (
    ("order_processing_low_sat.behavior", (True,) * 6),
    ("order_processing_low_unsat.behavior", (True, False, True, True, True, True)),
    ("order_processing_low_unsat.json", (True, False, True, True, True, True)),
)


def fixtures(root: Path) -> list[Pair]:
    """The three order-processing pairs, formulas taken from the golden
    property file (which pins the generator's output byte for byte)."""
    fixture_dir = root / "fixtures"
    high_text = (fixture_dir / "order_processing_high.behavior").read_text(encoding="utf-8")
    golden = (fixture_dir / "golden" / "order_processing_high.ltl").read_text(encoding="utf-8")
    formulas = [line[len("LTLSPEC "):] for line in golden.splitlines()]
    pairs = []
    for low_file, vector in _FIXTURE_PAIRS:
        low_text = (fixture_dir / low_file).read_text(encoding="utf-8")
        pairs.append(
            Pair(
                low_file.replace(".", "_"),
                "order_processing_high.behavior",
                high_text,
                low_file,
                low_text,
                tuple(zip(formulas, vector)),
            )
        )
    return pairs


# --- workloads ------------------------------------------------------------

# Sizes stay well below chain(1500) and fork(160), which crash with
# RecursionError today; those are robustness tests, not benchmark load.
WORKLOADS = ("chain", "decision", "forkdec", "fixtures")


def workload_pairs(workload: str, seed: int, root: Path) -> list[Pair]:
    """The workload's batch: a fixed mix of sizes (so runs with different
    seeds do the same amount of work) with seeded ids and refinements."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain":
        return [chain(rng, n, f"chain{i}_{n}") for i, n in enumerate((100, 130, 130, 160))]
    if workload == "decision":
        mix = [(5, True), (6, False), (6, True), (6, False), (6, True)]
        return [decision(rng, k, fork, f"decision{i}_{k}{'f' if fork else 'd'}") for i, (k, fork) in enumerate(mix)]
    if workload == "forkdec":
        mix = [(6, False), (6, True), (7, False), (7, True), (7, False)]
        return [
            forkdec(rng, forkdec_extras(k, i), swap, f"forkdec{i}_{k}{'s' if swap else ''}")
            for i, (k, swap) in enumerate(mix)
        ]
    if workload == "fixtures":
        pairs = fixtures(root)
        rng.shuffle(pairs)
        return pairs
    raise ValueError(f"unknown workload {workload!r}")
