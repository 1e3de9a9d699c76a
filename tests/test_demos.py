"""Every demo runs to completion as its own process.

pole_placement_walkthrough.py writes its CSV and SVG next to itself, so
it runs from a copy in a temporary directory, and the response it
simulates must match the committed demos/closed_loop_response.csv.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
WALKTHROUGH = "pole_placement_walkthrough.py"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py")
               if p.name != WALKTHROUGH)
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=ENV, cwd=ROOT, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_walkthrough_reproduces_committed_response(tmp_path):
    shutil.copy(ROOT / "demos" / WALKTHROUGH, tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / WALKTHROUGH)],
                          env=ENV, cwd=tmp_path, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    name = "closed_loop_response.csv"
    assert (tmp_path / name.replace(".csv", ".svg")).is_file()
    got = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
    want = np.loadtxt(ROOT / "demos" / name, delimiter=",", skiprows=1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
