"""Each demo runs to completion as a script."""

import subprocess
import sys

import pytest

from oracles import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=child_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
