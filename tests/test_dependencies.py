"""The runtime stays standard-library only: no module of the package
imports anything outside the standard library, at module level or in a
function body."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import containcheck

PACKAGE = Path(containcheck.__file__).resolve().parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level name of every absolute import in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    imports = {
        (path.name, name) for path in PACKAGE.glob("*.py") for name in absolute_imports(path)
    }
    # model.is_acyclic imports graphlib in its body: function-level imports count.
    assert ("model.py", "graphlib") in imports
    assert sorted(i for i in imports if i[1] not in sys.stdlib_module_names) == []
