"""Every name a topobetti, test or bench module imports is used in that
module, and every public function, class or method of topobetti has a caller
outside the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import topobetti

PACKAGE = Path(topobetti.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
TESTS = Path(__file__).parent


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


@pytest.mark.parametrize(
    "path",
    sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]),
    ids=lambda p: p.name,
)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "from fractions import Fraction\nimport os, json\nprint(json.dumps(1))\n"
    assert _unused_imports(source) == ["Fraction (line 1)", "os (line 2)"]


def _references(tree) -> Counter:
    """How often each name, attribute, imported name and whole string (the
    benchmark wraps functions by name) occurs in tree."""
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _defined_names(node) -> list:
    """Names a top-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(tree):
    """(qualified name, node) for each public top-level def, class or assigned
    name, and each public method or property of a top-level class."""
    for node in tree.body:
        for n in _defined_names(node):
            if not n.startswith("_"):
                yield n, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uncalled(modules: dict, callers: list) -> list:
    """module.name of each definition that neither another module, nor the
    rest of its own module, nor a caller source references.

    A method counts as referenced wherever an attribute of its name appears,
    whatever the object: StabilityReport.dumps went unflagged while json.dumps
    was called in its module."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    # each source is walked once; a definition is flagged when every
    # reference to its name lies inside it
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        total.update(_references(tree))
    found = []
    for name, tree in trees.items():
        for qualified, node in _definitions(tree):
            short = qualified.rsplit(".", 1)[-1]
            if total[short] == _references(node)[short]:
                found.append(f"{name}.{qualified}")
    return sorted(found)


def test_public_api_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert _uncalled(modules, callers) == []


def test_scan_finds_an_uncalled_name():
    modules = {
        "a": "def used():\n    pass\ndef unused():\n    return unused()\nclass _Hidden:\n    pass\n",
        "b": "from a import used\nused()\nclass Wrapped:\n    pass\n",
    }
    bench = 'import b\nwrap(b, "Wrapped")\n'
    assert _uncalled(modules, [bench]) == ["a.unused"]
    assert _uncalled(modules, []) == ["a.unused", "b.Wrapped"]
    # assigned names count too, annotated or not; private ones do not
    modules["c"] = "LIMIT = 3\nAlias: type = int\n_cache = {}\nprint(LIMIT)\n"
    assert _uncalled(modules, [bench]) == ["a.unused", "c.Alias"]
    # so do public methods and properties, unless only they refer to themselves
    modules["d"] = (
        "class Box:\n"
        "    def grow(self):\n        return self.grow()\n"
        "    @property\n    def side(self):\n        return 1\n"
        "    def _area(self):\n        return self.side\n"
        "Box()._area()\n"
    )
    assert _uncalled(modules, [bench]) == ["a.unused", "c.Alias", "d.Box.grow"]
