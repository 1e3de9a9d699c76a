"""Every demo runs to completion as its own process.

pole_placement_walkthrough.py is left out: it rewrites the CSV and SVG
files that sit next to it in the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py")
               if p.name != "pole_placement_walkthrough.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, cwd=ROOT, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
