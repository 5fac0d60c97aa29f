"""Every span the benchmark's tracer hooks still finds its function, and the
schedule build still calls the functions its span hooks.

``perfbench/tracing.py`` attaches spans by name, and a renamed or deleted
function makes its span "absent" without failing the benchmark.  The tracer
rebinds functions across the package, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sgdm_sched import schedules

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
BUILDERS = ("build_constant_bs_table", "build_increasing_bs_table")


def test_every_perfbench_span_resolves():
    res = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


@pytest.mark.parametrize("regime, fields, builder", [
    ("constant-bs", dict(batch=4, T=8), "build_constant_bs_table"),
    ("increasing-bs", dict(), "build_increasing_bs_table"),
    ("joint-growth", dict(gamma=1.5, lambda0=0.1), "build_increasing_bs_table"),
    ("warmup", dict(gamma=1.5, lambda0=0.1, warmup_phases=0), "build_increasing_bs_table"),
])
def test_schedule_build_reaches_its_span(monkeypatch, regime, fields, builder):
    # the schedules.build span wraps the two builders' module-level names; a
    # build that bypassed them would read 0 calls
    calls = dict.fromkeys(BUILDERS, 0)
    for name in BUILDERS:
        def counted(*args, _name=name, _fn=getattr(schedules, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(schedules, name, counted)
    phases = dict(b0=2, delta=2.0, epochs_per_phase=(1, 1))
    schedules.ScheduleSpec(regime, **fields, **phases).build(problem_n=16)
    assert calls == {name: int(name == builder) for name in BUILDERS}
