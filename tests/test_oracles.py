"""The test oracles stay independent of the program, and each is written in one module."""

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_modules(path):
    """The top-level names of the modules a source file imports; a relative one keeps its dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "").split(".")[0])
    return names


def test_oracles_import_only_the_standard_library_and_numpy():
    assert imported_modules(TESTS / "oracles.py") <= set(sys.stdlib_module_names) | {"numpy"}


def test_no_test_module_imports_another():
    # A helper that two test modules need lives in oracles.py, not in one of them.
    modules = {path.stem: path for path in TESTS.glob("test_*.py")}
    imports = {name: imported_modules(path) & modules.keys() for name, path in modules.items()}
    assert {name: found for name, found in imports.items() if found} == {}


def test_output_bytes_are_pinned_only_in_the_golden_corpus():
    # A digest pinned elsewhere is one more place to re-pin by hand after a deliberate change.
    pins = [f"{path.name}:{node.lineno}"
            for path in sorted(TESTS.glob("*.py")) if path.name != "test_golden_corpus.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.search("[0-9a-fA-F]{64}", node.value)]
    assert pins == []
