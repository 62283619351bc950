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
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_caught():
    source = "import json\nimport sys  # noqa: F401\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 3)"]


def test_package_has_no_unused_imports():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}
