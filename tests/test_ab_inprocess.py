"""Smoke tests of tools/ab_inprocess.py: this tree against itself, on
designs and on simulations, and against a copy whose gcld raises."""

import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_inprocess.py")


def _run(base, workload):
    run = subprocess.run(
        [sys.executable, TOOL, "--base", base, "--workload", workload,
         "--seconds", "0.3"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = run.stdout.splitlines()
    assert lines[0].startswith(f"{workload}, seed 1, ")
    assert lines[-1].startswith("speed-up (base round / head round): ")
    ratio = float(lines[-1].rsplit(":", 1)[1])
    assert math.isfinite(ratio) and ratio > 0
    return lines


def test_ab_inprocess_compares_a_tree_with_itself():
    lines = _run(ROOT, "design")
    labels = [line.split()[0] for line in lines[2:-2]]
    assert "worked" in labels and "n8-nonreal" in labels
    assert not any("DIFFERS" in line for line in lines)
    assert lines[-2].startswith("round ms (8 of 8 ops whose outcomes agree)")


def test_ab_inprocess_compares_simulations_with_themselves():
    lines = _run(ROOT, "simulate")
    labels = [line.split()[0] for line in lines[2:-2]]
    assert "feedback-worked" in labels and "open-n16" in labels
    assert not any("DIFFERS" in line for line in lines)
    rates = [line for line in lines if " per s: base " in line]
    assert [line.split()[0] for line in rates] == ["feedback", "open"]
    assert lines[-2].startswith("round ms (5 of 5 ops whose outcomes agree)")


def test_ab_inprocess_flags_ops_whose_outcomes_differ(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src", "qctl"),
                    tmp_path / "src" / "qctl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "qctl" / "__init__.py", "a") as init:
        init.write("\n\ndef gcld(*args, **kwargs):\n"
                   "    raise RuntimeError('gcld fails at once')\n")
    lines = _run(str(tmp_path), "poly")
    flagged = [line.split()[0] for line in lines if "DIFFERS" in line]
    assert flagged and all(label.startswith(("gcld-", "fixed-gcld-"))
                           for label in flagged)
    assert all("base RuntimeError, head returned" in line
               for line in lines if "DIFFERS" in line)
    assert lines[-2].startswith(
        f"round ms ({21 - len(flagged)} of 21 ops whose outcomes agree)")
