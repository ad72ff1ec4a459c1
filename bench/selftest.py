"""Check the benchmark's expected answers against the brute-force oracle.

For small members of each generated family (chain N <= 20, decision
K <= 5, forkdec K <= 3) this confirms that the formulas the generator
predicts are the ones the property generator emits, in order, and that
every predicted verdict matches `checker.oracle_check`, which enumerates
lassos directly and never builds an automaton. The oracle is far too slow
at benchmark sizes, which is why the benchmark relies on the construction
rule this script validates.

Run from the repository root:  python3 bench/selftest.py
Exits 0 when every case agrees, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
from containcheck import checker, ingest, ltl, semantics, smv  # noqa: E402


def _cases():
    for seed in range(3):
        rng = random.Random(f"selftest:{seed}")
        for n in (1, 2, 7, 20):
            yield families.chain(rng, n, f"chain{n}")
        for k in (2, 3, 4, 5):
            for fork in (False, True):
                yield families.decision(rng, k, fork, f"decision{k}{fork}")
        # The last extras make every branch equally long, so the merges hold.
        for extras in (families.forkdec_extras(2, seed), families.forkdec_extras(3, seed), [(0, 1)] * 3):
            for swap in (False, True):
                yield families.forkdec(rng, extras, swap, f"forkdec{len(extras)}{swap}")
    yield from families.fixtures(ROOT)


def _depth(low) -> int:
    # Every generated low model is acyclic, so its runs settle into the idle
    # sink after at most one step per node; a bound past that makes the
    # oracle's lasso enumeration exhaustive.
    return len(low.nodes) + 2


def check_pair(pair: families.Pair) -> list[str]:
    parse = ingest.parse_json if pair.low_file.endswith(".json") else ingest.parse_dsl
    high = ingest.parse_dsl(pair.high_text)
    low = parse(pair.low_text)
    properties = ltl.generate_properties(high)
    system = semantics.build_system(smv.generate_smv(low))
    got = [ltl.render_formula(p.formula) for p in properties]
    want = [formula for formula, _ in pair.expected]
    if got != want:
        return [f"{pair.name}: formulas differ\n  got  {got}\n  want {want}"]
    problems = []
    for prop, (formula, holds) in zip(properties, pair.expected):
        oracle = checker.oracle_check(system, prop.formula, _depth(low))
        if oracle.holds != holds:
            problems.append(f"{pair.name}: {formula} oracle {oracle.holds}, expected {holds}")
    return problems


def main() -> int:
    problems = []
    count = 0
    for pair in _cases():
        problems += check_pair(pair)
        count += 1
    for line in problems:
        print(line)
    print(f"selftest: {count} pairs, {len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
