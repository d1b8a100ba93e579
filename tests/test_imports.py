"""Every name a topobetti module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import topobetti

PACKAGE = Path(topobetti.__file__).parent


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "from fractions import Fraction\nimport os, json\nprint(json.dumps(1))\n"
    assert _unused_imports(source) == ["Fraction (line 1)", "os (line 2)"]
