"""The package's runtime dependencies are numpy and the standard library.

The package root loads only what `hybrid_vertices` needs, and an import that
no module reads is there only because perfbench's tracer wraps it.
"""

import ast
import subprocess
import sys
from pathlib import Path

from test_bench_hooks import TARGETS

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "nsshare").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "nsshare"}

# perfbench/run.py's setup probe, with the package's loaded modules printed
ROOT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nsshare
nsshare.hybrid_vertices()
print(" ".join(sorted(name for name in sys.modules if name.startswith("nsshare"))))
"""


def imported_modules(path):
    """The absolute module names that a source file imports, at any depth of its code."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def unread_imports(path):
    """The names a source file binds by an import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_runtime_imports_only_numpy_and_the_standard_library():
    assert SOURCES
    foreign = [(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_package_root_loads_neither_the_cli_nor_the_file_io():
    loaded = subprocess.run([sys.executable, "-c", ROOT_PROBE, str(SRC)], capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert "nsshare.certifier" in loaded
    assert "nsshare.cli" not in loaded and "nsshare.behavior_io" not in loaded


def test_package_root_builds_no_seed_lp():
    probe = ROOT_PROBE + ("from nsshare.certifier import seed_lp\n"
                          "print(seed_lp.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "0"


def test_unread_imports_are_the_benchmark_targets():
    allowed = {(module, attribute) for module, attribute, _ in TARGETS}
    allowed.add(("nsshare", "hybrid_vertices"))
    unread = {("nsshare" if path.stem == "__init__" else f"nsshare.{path.stem}", name)
              for path in SOURCES for name in unread_imports(path)}
    assert ("nsshare", "hybrid_vertices") in unread  # the check sees a real keep-alive
    assert unread - allowed == set()
