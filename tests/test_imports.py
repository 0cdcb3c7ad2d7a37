"""Every import in the library is stdlib, trimod itself, or a declared dependency."""

import ast
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
