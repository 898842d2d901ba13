"""Package entry points import cleanly in a fresh interpreter.

An import cycle only shows when its modules are the first to load, so
each entry point runs in its own subprocess rather than in the test
process, where earlier tests have imported everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.molecules import build_helix",
        "import repro.molecules",
        "import repro.molecules.rna",
        "import repro.molecules.ribosome",
    ],
)
def test_first_import_succeeds(statement):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
