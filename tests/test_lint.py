"""Static checks on the package source."""

import ast
import os

import leavitt_lab

SRC = os.path.dirname(leavitt_lab.__file__)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, unless the line of the
    imported name carries ``# noqa: F401``.  Strings in ``__all__`` count as
    reads, so re-exports are used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = names_read(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def names_read(tree: ast.Module) -> set[str]:
    """Every name loaded anywhere in the module, plus the strings in ``__all__``."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return read


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore that their own module never reads: nothing else should use them."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = names_read(tree)
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_unused_imports_are_caught():
    source = "import json\nimport sys  # noqa: F401\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 3)"]


def findings(check) -> dict[str, list[str]]:
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                hits = check(fh.read())
            if hits:
                found[name] = hits
    return found


def test_package_has_no_unused_imports():
    assert findings(unused_imports) == {}


def test_unread_private_names_are_caught():
    source = (
        "__version__ = '1'\n_LIMIT = 3\n_USED = 4\n"
        "def _helper():\n    return _USED\n"
        "class _Box:\n    pass\n"
        "def public():\n    return _Box\n"
    )
    assert unread_private_names(source) == ["_LIMIT (line 2)", "_helper (line 4)"]


def test_package_has_no_unread_private_names():
    assert findings(unread_private_names) == {}


def self_calls(source: str) -> list[str]:
    """Functions that call themselves by name (``f(...)``, or ``self.f(...)``
    in a method): the package keeps its depth off the Python stack."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == node.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((node.lineno, node.name))
                break
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_self_calls_are_caught():
    source = (
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "def outer():\n    def build(u):\n        return build(u)\n    return build\n"
        "class Box:\n    def size(self):\n        return self.size()\n"
        "def least(g):\n    return g.analysis.least(g)\n"
    )
    assert self_calls(source) == ["walk (line 1)", "build (line 4)", "size (line 8)"]


def test_package_has_no_self_calls():
    assert findings(self_calls) == {}
