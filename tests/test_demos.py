"""The quick demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import abbo

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["align_structures.py", "gp_on_mutants.py", "batch_from_portfolio.py"]
)
def test_demo_runs(script):
    src = str(Path(abbo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
