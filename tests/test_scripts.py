"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys

import pytest

import leavitt_lab

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify_zoo.py"],
        ["witness_experiment.py", "--graph", "spi3", "--count", "5"],
        ["norm_profile.py", "--edges", "5", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    # the child imports the same leavitt_lab this process imported, installed or from source
    package_root = os.path.dirname(os.path.dirname(leavitt_lab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        # no bytecode written into the tree under test, as in test_cli.child_env
        env={
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
