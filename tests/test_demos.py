"""Smoke tests: the quick demos run to completion and print something.

Each demo runs in its own interpreter with src/ on PYTHONPATH, so no
install is needed.  quickstart.py trains a model for about two minutes and
is left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", ["parameter_audit.py", "attention_gates.py"])
def test_demo_exits_zero_with_output(demo):
    assert _run(demo).strip()


def test_attention_demo_shows_stage_one_gates_that_differ():
    """With dead hidden units every stage-1 channel gate reads sigmoid(0) =
    0.5, and the demo's per-channel ranking shows nothing."""
    stage1 = re.search(r"stage 1: .* min (\S+) .* max (\S+)", _run("attention_gates.py"))
    assert float(stage1[1]) < float(stage1[2]), stage1[0]
