"""What a cold start of the CLI imports: each call is its own process, so
every module loaded at import time is paid on every call."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import leavitt_lab
from leavitt_lab import zoo
from leavitt_lab.graph import graph_to_json

# the set differences leave out whatever the interpreter's start-up
# (``site`` and its .pth files) has already imported
CHILD = """
import sys

before = set(sys.modules)
import leavitt_lab.cli

imported = set(sys.modules) - before
code = leavitt_lab.cli.main(sys.argv[1:])
print(repr((code, sorted(imported), sorted(set(sys.modules) - before - imported))))
"""

# dataclasses pulls in inspect (and ast, dis, tokenize); fractions pulls in
# decimal and numbers
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}

ELEMENT = (
    '[{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"1/2","im":"-3"},'
    '{"alpha":[],"alpha_src":"v","beta":[],"beta_src":"v","re":"-7/4","im":"0"}]'
)


def term(alpha, beta) -> dict:
    """The monomial alpha·beta* with coefficient 1 over a3 (u -e1-> v -e2-> w)."""
    (a, a_src), (b, b_src) = alpha, beta
    return {"alpha": a, "alpha_src": a_src, "beta": b, "beta_src": b_src, "re": "1", "im": "0"}


W, E2, E12 = ([], "w"), (["e2"], "v"), (["e1", "e2"], "u")
# e2·e2* + e2·(e1 e2)* + (e1 e2)·e2*: one connected 2×2 component
TWO_BY_TWO = [term(E2, E2), term(E2, E12), term(E12, E2)]
# e2·w* + (e1 e2)·w*, a 2×1 column, and w·e2*, a 1×1 component
COLUMN_AND_ONE = [term(E2, W), term(E12, W), term(W, E2)]


def run_child(script: str, argv) -> tuple[object, str]:
    """The last stdout line of ``script`` run with ``argv`` in a fresh
    interpreter, as a Python literal, and the stdout lines before it."""
    # the child imports the same leavitt_lab this process imported, installed or from source
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        # no bytecode written: a __pycache__ left in the source tree would
        # change later cold-start timings of that tree
        env={
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    return ast.literal_eval(last), "\n".join(out)


def run_cli_child(argv) -> tuple[int, list[str], list[str], str]:
    """(exit code, modules importing the CLI loaded, modules the call then
    loaded, the call's stdout) of ``cli.main(argv)`` in a fresh interpreter."""
    (code, imported, called), out = run_child(CHILD, argv)
    return code, imported, called, out


def test_cli_import_and_normalize_load_no_heavy_module(tmp_path):
    graph, element = tmp_path / "g.json", tmp_path / "a.json"
    graph.write_text(graph_to_json(zoo.r2()))
    element.write_text(ELEMENT)
    code, imported, normalized, out = run_cli_child(
        ["normalize", "--graph", str(graph), "--element", str(element)]
    )
    assert code == 0 and out.startswith("[{")
    assert "leavitt_lab.cli" in imported
    assert HEAVY.isdisjoint(imported)
    # numpy is a LazyLoader module until an attribute is read; executing it
    # would load its submodules
    assert not [m for m in imported if m.startswith("numpy.")]
    assert not [m for m in normalized if m in HEAVY or m.startswith("numpy")]


@pytest.mark.parametrize(
    "terms, p, runs_numpy",
    [
        # p = 1 has a closed form for every component
        (TWO_BY_TWO, "1", False),
        (COLUMN_AND_ONE, "1.5", False),
        (COLUMN_AND_ONE, "2", False),
        (COLUMN_AND_ONE, "3", False),
        # the control: a 2×2 component at p = 1.5 runs the power iteration
        (TWO_BY_TWO, "1.5", True),
    ],
    ids=["2x2-p1", "column-and-1x1-p1.5", "column-and-1x1-p2", "column-and-1x1-p3", "2x2-p1.5"],
)
def test_norm_runs_numpy_only_for_a_component_without_a_closed_form(tmp_path, terms, p, runs_numpy):
    graph, element = tmp_path / "g.json", tmp_path / "a.json"
    graph.write_text(graph_to_json(zoo.a3()))
    element.write_text(json.dumps(terms))
    code, imported, called, out = run_cli_child(
        ["norm", "--graph", str(graph), "--element", str(element), "--p", p]
    )
    assert code == 0 and json.loads(out)["p"] == float(p)
    assert not [m for m in imported if m.startswith("numpy.")]
    assert any(m.startswith("numpy.") for m in called) is runs_numpy


# The package's submodules that ``cli.main(argv)`` executed.  A lazily
# registered submodule that nothing has read is still a LazyLoader module, and
# ``type`` reads no attribute of it, so it stays unexecuted.
EXECUTED_CHILD = """
import sys
import types

import leavitt_lab.cli

code = leavitt_lab.cli.main(sys.argv[1:])
executed = [
    name.partition(".")[2]
    for name, module in sys.modules.items()
    if name.startswith("leavitt_lab.") and type(module) is types.ModuleType
]
print(repr((code, sorted(executed))))
"""

# every call runs these; ``sample`` and ``zoo`` are never imported
ALWAYS = ["cli", "errors", "graph", "lpa"]


@pytest.mark.parametrize(
    "graph, argv, runs",
    [
        ("r2", ["classify"], []),
        ("r2", ["normalize", "--element", "{element}"], []),
        ("r2", ["witness", "--element", "{element}"], ["matricial", "spi"]),
        ("a3", ["norm", "--element", "{element}"], ["matricial", "pnorm"]),
        ("r2", ["transform", "remove-sources"], ["transforms"]),
        ("omega_spi", ["transform", "desingularize"], ["transforms"]),
        ("r2", ["transform", "reachable", "--from", "v"], ["transforms"]),
        ("r2", ["transform", "complete", "--subgraph", "{graph}"], ["transforms"]),
    ],
    ids=["classify", "normalize", "witness", "norm", "remove-sources", "desingularize",
         "reachable", "complete"],
)
def test_a_call_executes_only_the_modules_it_runs(tmp_path, graph, argv, runs):
    g = getattr(zoo, graph)()
    paths = {"graph": tmp_path / "g.json", "element": tmp_path / "a.json"}
    paths["graph"].write_text(graph_to_json(g))
    paths["element"].write_text(json.dumps([term(([], g.vertices[0]), ([], g.vertices[0]))]))
    argv = [arg.format(**paths) for arg in argv] + ["--graph", str(paths["graph"])]
    (code, executed), out = run_child(EXECUTED_CHILD, argv)
    assert code == 0 and out
    assert executed == sorted(ALWAYS + runs)


def test_public_names_are_their_submodules_objects():
    exported = [name for names in leavitt_lab._EXPORTS.values() for name in names]
    assert sorted(exported) == sorted(set(leavitt_lab.__all__)) == sorted(leavitt_lab.__all__)
    for module, names in leavitt_lab._EXPORTS.items():
        submodule = importlib.import_module(f"leavitt_lab.{module}")
        assert getattr(leavitt_lab, module) is submodule
        for name in names:
            assert getattr(leavitt_lab, name) is getattr(submodule, name)


def test_reading_a_public_name_binds_nothing_on_the_package():
    # a binding read while the benchmark's tracer is installed would keep its
    # wrapper after the tracer restores the submodules
    for name in leavitt_lab.__all__:
        getattr(leavitt_lab, name)
    assert set(leavitt_lab.__all__).isdisjoint(vars(leavitt_lab))
    with pytest.raises(AttributeError, match="no attribute 'spatial_rep_acyclic'"):
        leavitt_lab.spatial_rep_acyclic
