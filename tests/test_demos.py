"""Every demo script and every python block of the README runs to completion
with warnings turned into errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = run_python(str(demo))
    assert res.returncode == 0, res.stderr


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"README-block-{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(tmp_path, block):
    script = tmp_path / "block.py"
    script.write_text(block)
    res = run_python(str(script))
    assert res.returncode == 0, res.stderr
