"""Imports of the library: each one is stdlib, trimod itself or a declared
dependency, and every function the benchmark tracer wraps exists."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in meta.get("dependencies", [])}


def _imported(path):
    """Top-level names of every absolute import, at module level or inside functions."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_are_declared():
    allowed = set(sys.stdlib_module_names) | {"trimod"} | _declared()
    stray = sorted({(path.name, name)
                    for path in (ROOT / "src" / "trimod").glob("*.py")
                    for name in _imported(path) if name not in allowed})
    assert not stray, f"undeclared imports: {stray}"


def _traced_functions():
    """(module, function) pairs that the benchmark's tracer wraps, read from
    the LAYERS table of perfbench/tracing.py without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    assert len(tables) == 1
    return [(module, name) for module, names in tables[0].values() for name in names]


def test_traced_functions_exist():
    # a traced benchmark run (--trace 1) wraps these by name
    traced = _traced_functions()
    assert traced
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"functions the tracer wraps are gone: {missing}"
    assert callable(vars(importlib.import_module("trimod.rings").RingElement).get("__mul__"))
