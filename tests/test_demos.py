"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=subprocess_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
