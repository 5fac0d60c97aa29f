"""Every span the benchmark's tracer hooks still finds its function.

``perfbench/tracing.py`` attaches spans by name, and a renamed or deleted
function makes its span "absent" without failing the benchmark.  The tracer
rebinds functions across the package, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
from sgdm_sched import _fmt, cli, harness, optim, problems, schedules, theory
import tracing
assert all(m.__file__.startswith({str(ROOT / "src")!r})
           for m in (_fmt, cli, harness, optim, problems, schedules, theory))
tracer = tracing.Tracer()
tracer.install()
print(json.dumps(tracer.absent))
"""


def test_every_perfbench_span_resolves():
    res = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []
