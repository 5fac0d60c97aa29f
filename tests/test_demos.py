"""Every demo script runs to completion with warnings turned into errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
