"""What a cold start of the CLI imports: each call is its own process, so
every module loaded at import time is paid on every call."""

import ast
import os
import subprocess
import sys

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
code = leavitt_lab.cli.main(["normalize", "--graph", sys.argv[1], "--element", sys.argv[2]])
print(repr((code, sorted(imported), sorted(set(sys.modules) - before - imported))))
"""

# dataclasses pulls in inspect (and ast, dis, tokenize); fractions pulls in
# decimal and numbers
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}

ELEMENT = (
    '[{"alpha":["e"],"alpha_src":"v","beta":["f"],"beta_src":"v","re":"1/2","im":"-3"},'
    '{"alpha":[],"alpha_src":"v","beta":[],"beta_src":"v","re":"-7/4","im":"0"}]'
)


def test_cli_import_and_normalize_load_no_heavy_module(tmp_path):
    graph, element = tmp_path / "g.json", tmp_path / "a.json"
    graph.write_text(graph_to_json(zoo.r2()))
    element.write_text(ELEMENT)
    # the child imports the same leavitt_lab this process imported, installed or from source
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(graph), str(element)],
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
    *normal_form, last = proc.stdout.splitlines()
    code, imported, normalized = ast.literal_eval(last)
    assert code == 0 and normal_form[0].startswith("[{")
    assert "leavitt_lab.cli" in imported
    assert HEAVY.isdisjoint(imported)
    # numpy is a LazyLoader module until an attribute is read; executing it
    # would load its submodules
    assert not [m for m in imported if m.startswith("numpy.")]
    assert not [m for m in normalized if m in HEAVY or m.startswith("numpy")]
