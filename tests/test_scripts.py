"""The exploration script runs from the repository root and prints the
rows it is known to print, so a refactor that removes a helper it
imports shows up here."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, line", [
    (("scripts/psl2_sweep.py", "--q-max", "9"),
     "    9       360        7    6    7     1    2"),
], ids=["psl2_sweep"])
def test_script_runs(argv, line):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
