"""Optional integration with an installed NuSMV binary: run a generated
.smv file and parse the checker's textual verdicts and counterexample
traces for cross-checking against the internal engine.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import tempfile

from . import ltl
from .checker import Lasso, Verdict
from .record import OperationalError

ENV_VAR = "NUSMV"
DEFAULT_TIMEOUT = 60.0

_SPEC_LINE = re.compile(r"^--\s+specification\s+(.*?)\s+is\s+(true|false)\s*$")
_STATE_LINE = re.compile(r"^->\s*State:\s*(\d+)\.(\d+)\s*<-\s*$")
_ASSIGN_LINE = re.compile(r"^\s*(\w+)\s*=\s*(\S+)\s*$")
_LOOP_LINE = re.compile(r"^--\s+Loop starts here\s*$")
_NOISE_PREFIXES = (
    "*** ",
    "WARNING",
    "-- as demonstrated",
    "Trace Description:",
    "Trace Type:",
)


class ToolNotFound(OperationalError):
    pass


class ToolRunError(OperationalError):
    def __init__(self, message: str, stdout: str = "", stderr: str = ""):
        super().__init__(message)
        self.stdout = stdout
        self.stderr = stderr


class OutputParseError(OperationalError):
    def __init__(self, line_number: int, line: str, problem: str = "unrecognized output"):
        super().__init__(f"{problem} at line {line_number}: {line!r}")
        self.line_number = line_number
        self.line = line


def locate(path_override: str | None = None) -> str | None:
    """Path of the external checker: explicit override, then the NUSMV
    environment variable, then the system path. Absence is data, not an
    error."""
    candidate = path_override or os.environ.get(ENV_VAR)
    if not candidate:
        return shutil.which("NuSMV") or shutil.which("nusmv")
    return shutil.which(candidate) or (
        candidate if os.path.isfile(candidate) and os.access(candidate, os.X_OK) else None
    )


def run_check(
    smv_text: str,
    timeout: float = DEFAULT_TIMEOUT,
    path_override: str | None = None,
) -> str:
    """Write the module to a temp file, run the external checker on it, and
    return its stdout. Raises ToolNotFound, ToolRunError on nonzero exit,
    and ToolRunError on timeout."""
    path = locate(path_override)
    if path is None:
        raise ToolNotFound("no NuSMV binary found (override, NUSMV env var, PATH)")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smv", delete=False, encoding="utf-8"
    ) as handle:
        handle.write(smv_text)
        temp_path = handle.name
    try:
        # A session of its own lets the timeout kill the tool's children
        # too; one left alive would hold the pipes open past the timeout.
        with subprocess.Popen(
            [path, temp_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.communicate()
                raise ToolRunError(f"external checker timed out after {timeout}s") from exc
        if proc.returncode != 0:
            raise ToolRunError(
                f"external checker exited with {proc.returncode}",
                stdout=stdout,
                stderr=stderr,
            )
        return stdout
    finally:
        os.unlink(temp_path)


def parse_output(raw: str) -> list[Verdict]:
    """One verdict per '-- specification ... is true|false' line.

    Counterexample states are rebuilt from the delta-printed blocks by
    carrying unprinted variables forward; the loop begins at the state
    following the loop marker. A trailing repetition of the loop's first
    state (the checker's way of closing the loop) is dropped. Lines that do
    not belong to the known layout, a formula that does not parse, a false
    verdict with no trace after it and a loop marker with no state after it
    raise OutputParseError.
    """
    verdicts: list[Verdict] = []
    pending_formula: ltl.Formula | None = None
    states: list[dict[str, str]] = []
    loop_index: int | None = None
    verdict_line = loop_marker = (0, "")
    in_trace = False

    def flush() -> None:
        nonlocal pending_formula, states, loop_index, in_trace
        if pending_formula is None:
            return
        if not states:
            raise OutputParseError(
                *verdict_line, "counterexample trace missing after a false verdict"
            )
        if loop_index == len(states):
            raise OutputParseError(*loop_marker, "loop marker with no state after it")
        verdicts.append(
            Verdict(pending_formula, False, _build_lasso(states, loop_index))
        )
        pending_formula = None
        states = []
        loop_index = None
        in_trace = False

    for line_number, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        spec = _SPEC_LINE.match(stripped)
        if spec:
            flush()
            try:
                formula = ltl.parse_ltl(spec.group(1))
            except ltl.LtlSyntaxError as exc:
                problem = f"formula does not parse ({exc})"
                raise OutputParseError(line_number, line, problem) from None
            if spec.group(2) == "true":
                verdicts.append(Verdict(formula, True))
            else:
                pending_formula = formula
                verdict_line = (line_number, line)
                in_trace = True
            continue
        if _LOOP_LINE.match(stripped):
            if not in_trace:
                raise OutputParseError(line_number, line)
            loop_index = len(states)
            loop_marker = (line_number, line)
            continue
        if _STATE_LINE.match(stripped):
            if not in_trace:
                raise OutputParseError(line_number, line)
            previous = dict(states[-1]) if states else {}
            states.append(previous)
            continue
        if in_trace and states and _ASSIGN_LINE.match(stripped):
            name, value = _ASSIGN_LINE.match(stripped).groups()
            states[-1][name] = value
            continue
        if not stripped or stripped == "..." or stripped.startswith(_NOISE_PREFIXES):
            continue
        if stripped.startswith("$") or stripped.startswith("Copyright"):
            continue
        if in_trace:
            raise OutputParseError(line_number, line)
        # Banner or other preamble outside any trace: tolerated.
    flush()
    return verdicts


def _build_lasso(states: list[dict[str, str]], loop_index: int | None) -> Lasso:
    if loop_index is None:
        loop_index = len(states) - 1
    names: list[str] = []
    for state in states:
        for name in state:
            if name not in names:
                names.append(name)
    rows = [tuple(state.get(name) for name in names) for state in states]
    loop_rows = rows[loop_index:]
    # The printed trace closes the loop by repeating its first state.
    if len(loop_rows) >= 2 and loop_rows[-1] == loop_rows[0]:
        loop_rows = loop_rows[:-1]
    return Lasso(tuple(names), tuple(rows[:loop_index]), tuple(loop_rows))
