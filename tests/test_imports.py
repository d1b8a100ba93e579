"""Every name a topobetti, test or bench module imports is used in that
module, every public function, class or method of topobetti has a caller
outside the tests, every private one a caller in topobetti itself, and every
one of the test oracles and helpers a caller in the tests."""

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


def _definitions(tree, private: bool):
    """(qualified name, node) for each public (or each private) top-level def,
    class or assigned name, and each such method or property of a top-level
    class.  Dunder names, which Python itself calls, are neither."""

    def wanted(name):
        return name.startswith("_") == private and not name.startswith("__")

    for node in tree.body:
        for n in _defined_names(node):
            if wanted(n):
                yield n, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and wanted(item.name):
                    yield f"{node.name}.{item.name}", item


def _uncalled(modules: dict, callers: list, private: bool = False) -> list:
    """module.name of each public (or private) definition that neither another
    module, nor the rest of its own module, nor a caller source references.

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
        for qualified, node in _definitions(tree, private):
            short = qualified.rsplit(".", 1)[-1]
            if total[short] == _references(node)[short]:
                found.append(f"{name}.{qualified}")
    return sorted(found)


def test_public_api_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert _uncalled(modules, callers) == []


def test_private_names_have_a_caller():
    # only package code counts: a helper that only tests or the benchmark
    # call is left over
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _uncalled(modules, [], private=True) == []


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
    # the private scan: the same rule for private names, dunders aside
    modules["e"] = (
        "def _walk(n):\n    return _walk(n - 1)\n"
        "class Tree:\n    def __init__(self):\n        pass\n"
        "    def _prune(self):\n        pass\n"
    )
    assert _uncalled(modules, [bench], private=True) == [
        "a._Hidden", "c._cache", "e.Tree._prune", "e._walk"
    ]


def _unused_helpers(modules: dict, tests: list) -> list:
    """module.name of each public or private definition in modules that
    neither the test sources nor the rest of modules reference."""
    return sorted(_uncalled(modules, tests) + _uncalled(modules, tests, private=True))


def test_test_helpers_have_a_caller():
    # an oracle or helper that no test reaches, such as an ordering helper
    # left over when the program's numbering changed, is dead code
    paths = (TESTS / "oracles.py", TESTS / "helpers.py")
    modules = {p.stem: p.read_text(encoding="utf-8") for p in paths}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py")) if p not in paths]
    assert _unused_helpers(modules, tests) == []


def test_scan_finds_an_unused_helper():
    # rank, which only a helper calls, counts as called; _order, which only
    # calls itself, and relabel do not
    modules = {
        "oracles": "def rank(pc):\n    return pc\ndef _order(pc):\n    return _order(pc)\n",
        "helpers": "from oracles import rank\ndef digest(pc):\n    return rank(pc)\n"
        "def relabel(pc):\n    pass\n",
    }
    tests = ["from helpers import digest\ndigest(1)\n"]
    assert _unused_helpers(modules, tests) == ["helpers.relabel", "oracles._order"]
