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
    """Every name loaded anywhere in the module, plus the strings in a literal
    ``__all__`` list or tuple (a computed ``__all__`` names nothing here)."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.List, ast.Tuple))
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return read


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants, and the methods and
    properties of a class body, named with one leading underscore that their
    own module never reads: nothing else should use them.  A method or
    property is read where an attribute of its name is loaded."""
    tree = ast.parse(source)
    defined: list[tuple[int, str, bool]] = []  # (line, name, is a class member)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        defined += [(node.lineno, name, False) for name in targets]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            defined += [(f.lineno, f.name, True) for f in node.body if isinstance(f, ast.FunctionDef)]
    read = names_read(tree)
    loaded = {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name} (line {line})"
        for line, name, member in sorted(defined)
        if name.startswith("_") and not name.startswith("__") and name not in (loaded if member else read)
    ]


def test_unused_imports_are_caught():
    source = "import json\nimport sys  # noqa: F401\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["json (line 1)", "path (line 3)"]


def test_a_computed_all_reads_no_import():
    source = "from os import path, sep\n__all__ = ['sep']\n__all__ = sorted(['path'])\n"
    assert unused_imports(source) == ["path (line 1)"]


def read_sources(directory: str, skip: str = "") -> list[tuple[str, str]]:
    """(file name, source) of each Python file in the directory, by name."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name != skip:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append((name, fh.read()))
    return out


def findings(check) -> dict[str, list[str]]:
    found = {}
    for name, source in read_sources(SRC):
        hits = check(source)
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


def test_unread_private_methods_and_properties_are_caught():
    source = (
        "class Box:\n"
        "    def __init__(self):\n        self._table = None\n"
        "    def _grow(self):\n        return self._step\n"
        "    @property\n    def _step(self):\n        return 1\n"
        "    @cached_property\n    def _table(self):\n        return {}\n"
        "    def _left(self):\n        pass\n"
        "    def public(self):\n        return self._grow(), _left\n"
    )
    assert unread_private_names(source) == ["_table (line 10)", "_left (line 12)"]


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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def names_in(source: str) -> set[str]:
    """Every name the module mentions as code: a name, an attribute or an
    imported name, in any context.  Strings and comments do not count."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
    return named


def orphaned_public_names(package: dict[str, str], users: list[str]) -> list[str]:
    """Public top-level functions and classes of the package modules that no
    package module and no user source names: code that only its own
    definition and re-exports keep alive."""
    named = set().union(*map(names_in, [*package.values(), *users]))
    return [
        f"{module}: {node.name} (line {node.lineno})"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]


def test_orphaned_public_names_are_caught():
    package = {
        "kernel.py": "def used():\n    pass\ndef helper():\n    pass\nclass Old:\n    pass\n"
        "def _private():\n    pass\ndef imported():\n    pass\ndef orphan():\n    '''orphan'''\n",
        "cli.py": "from .kernel import imported\nimport kernel\nkernel.helper()\n",
    }
    users = ["from kernel import used\nprint('Old')  # orphan\n"]
    assert orphaned_public_names(package, users) == [
        "kernel.py: Old (line 5)",
        "kernel.py: orphan (line 11)",
    ]


def test_package_has_no_orphaned_public_names():
    # __init__ only re-exports: a name it alone mentions is still orphaned
    package = dict(read_sources(SRC, skip="__init__.py"))
    users = [
        source
        for directory in ("tests", "scripts")
        for _, source in read_sources(os.path.join(ROOT, directory))
    ]
    assert orphaned_public_names(package, users) == []


def unraised_errors(errors_source: str, package: list[str]) -> list[str]:
    """Exception classes of the errors module, the ``LeavittError`` base
    aside, that no ``raise`` statement of a package module names: an error
    kept alive only by the code that reports it."""
    raised = {
        name
        for source in package
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in names_in(ast.unparse(node.exc))
    }
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
        and node.name != "LeavittError"
        and node.name not in raised
    ]


def test_unraised_errors_are_caught():
    errors_source = (
        "class LeavittError(Exception):\n    pass\n"
        "class Raised(LeavittError):\n    pass\n"
        "class Bare(LeavittError):\n    pass\n"
        "class Mapped(LeavittError):\n    pass\n"
        "class Caught(LeavittError):\n    pass\n"
    )
    package = [
        "from .errors import Bare, Caught, Mapped, Raised\n"
        "CODES = {Mapped: 4}\n"
        "def f():\n    raise Raised('boom')\n"
        "def g():\n    try:\n        f()\n    except Caught:\n        raise\n"
        "def h():\n    raise errors.Bare from None\n"
    ]
    assert unraised_errors(errors_source, package) == [
        "Mapped (line 7)",
        "Caught (line 9)",
    ]


def test_package_raises_every_error():
    package = dict(read_sources(SRC))
    errors_source = package.pop("errors.py")
    assert unraised_errors(errors_source, list(package.values())) == []


def graph_and_element_parameters(source: str) -> list[str]:
    """Public top-level functions with both a ``Graph``-annotated and an
    ``Element``-annotated parameter: an element knows its graph, so a route
    over an element reads ``x.graph`` instead of taking it again."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        annotated = set()
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            note = arg.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                annotated |= names_in(note.value)
            elif note is not None:
                annotated |= names_in(ast.unparse(note))
        if {"Graph", "Element"} <= annotated:
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_graph_and_element_parameters_are_caught():
    source = (
        "def norm(g: Graph, x: Element, p: float):\n    pass\n"
        "def maybe(g: Optional[Graph], *, x: 'Element'):\n    pass\n"
        "def _private(g: Graph, x: Element):\n    pass\n"
        "def read(x: Element, n: int):\n    return x.graph\n"
        "def build(g: Graph, obj: dict) -> Element:\n    pass\n"
        "class Box:\n    def method(self, g: Graph, x: Element):\n        pass\n"
    )
    assert graph_and_element_parameters(source) == ["norm (line 1)", "maybe (line 3)"]


def test_package_takes_no_graph_beside_an_element():
    assert findings(graph_and_element_parameters) == {}


def json_loads_calls(source: str) -> int:
    """The calls of ``json.loads`` in the module."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "loads"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        for node in ast.walk(ast.parse(source))
    )


def test_json_loads_calls_are_counted():
    source = "import json\njson.loads(a)\nx = [json.loads(b)]\njson.dumps(c)\nloads(d)\n"
    assert json_loads_calls(source) == 2


def test_package_reads_json_in_one_place():
    # one reader, so every input meets the same parse errors (graph.parse_json)
    calls = {name: n for name, source in read_sources(SRC) if (n := json_loads_calls(source))}
    assert list(calls.values()) == [1], calls


def is_empty_list(node) -> bool:
    return isinstance(node, ast.List) and not node.elts


def is_range_of_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "range_of"


def empty_list_groupings(source: str) -> int:
    """The groupings by vertex started in the module: dict comprehensions whose
    value is an empty list literal, such as ``{v: [] for v in vertices}``, and
    ``setdefault`` calls that key an empty list by a path's range, such as
    ``groups.setdefault(g.range_of(p), [])``."""
    return sum(
        (isinstance(node, ast.DictComp) and is_empty_list(node.value))
        or (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "setdefault"
            and len(node.args) == 2
            and is_range_of_call(node.args[0])
            and is_empty_list(node.args[1])
        )
        for node in ast.walk(ast.parse(source))
    )


def test_empty_list_groupings_are_caught():
    source = (
        "a = {v: [] for v in vs}\nb = {v: [0] for v in vs}\nc = {v: () for v in vs}\n"
        "d = [{k: [] for k in ks} for ks in kss]\ne = dict.fromkeys(vs, [])\n"
        "for p in level:\n    by.setdefault(g.range_of(p), []).append(p)\n"
        "    by.setdefault(range_of(g, p), []).append(p)\n"
        "    by.setdefault(len(p), []).append(p)\n    by.setdefault(g.range_of(p), ())\n"
    )
    assert empty_list_groupings(source) == 4


def test_package_groups_by_vertex_in_one_place():
    # one grouping helper behind every per-vertex table (graph._grouped)
    found = {name: n for name, source in read_sources(SRC) if (n := empty_list_groupings(source))}
    assert found == {"graph.py": 1}, found
