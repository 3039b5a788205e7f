"""Smoke test: every demo script runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coevents

DEMOS = sorted((Path(__file__).resolve().parents[1] / 'demos').glob('*.py'))
# child processes import the same coevents package as this test process
CHILD_ENV = {**os.environ,
             'PYTHONPATH': str(Path(coevents.__file__).resolve().parents[1])}


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize('script', DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
