"""The package's runtime dependencies are numpy and the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nsshare").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "nsshare"}


def imported_modules(path):
    """The absolute module names that a source file imports, at any depth of its code."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_numpy_and_the_standard_library():
    assert SOURCES
    foreign = [(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name.split(".")[0] not in ALLOWED]
    assert foreign == []
