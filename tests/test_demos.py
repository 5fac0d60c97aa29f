"""Every demo script and every python block of the README runs to completion
with warnings turned into errors, and every `schedule`/`bounds` line of the
README's shell examples exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sgdm_sched import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
# the sgdm-sched schedule/bounds commands of the bash blocks, continuations joined
README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```bash\n(.*?)^```", README, re.S | re.M)
    for line in block.replace("\\\n", " ").splitlines()
    if re.match(r"sgdm-sched (schedule|bounds) ", line)
]


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


def test_readme_commands_found():
    assert {argv[0] for argv in README_COMMANDS} == {"schedule", "bounds"}


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[f"README-command-{i}" for i in range(len(README_COMMANDS))])
def test_readme_command_exits_zero(capsys, argv):
    assert cli.main(argv) == 0, capsys.readouterr().err
