"""Import rules: the package imports only the standard library, and its
bound half imports nothing from the enumerator side."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "relubound").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_standard_library_imports():
    assert SOURCES
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside, f"imports outside the standard library: {sorted(outside)}"


BOUND_HALF = ("histogram", "gamma", "transition", "bound_matrices", "decomposition")
ENUMERATOR_SIDE = {"empirical", "simplex", "fixtures", "cli"}


def package_imports(path):
    """Package modules named by every import in one source file, wherever it
    sits (under ``if TYPE_CHECKING:`` or inside a function too)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            head = ["relubound"] * bool(node.level) + [node.module] * bool(node.module)
            dotted = [".".join([*head, alias.name]) for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "relubound" and len(parts) > 1:
                yield parts[1]


def test_bound_half_does_not_import_the_enumerator():
    paths = {path.stem: path for path in SOURCES}
    reached = {
        (module, name)
        for module in BOUND_HALF
        for name in package_imports(paths[module])
        if name in ENUMERATOR_SIDE
    }
    assert not reached, f"bound-half modules import the enumerator side: {sorted(reached)}"
