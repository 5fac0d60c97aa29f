"""Every span the benchmark's tracer hooks still finds its function, and the
schedule build and the optimizer's run still call the functions their spans
hook.

``perfbench/tracing.py`` attaches spans by name, and a renamed or deleted
function makes its span "absent" without failing the benchmark.  The tracer
rebinds functions across the package, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sgdm_sched import optim, problems, schedules

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


@pytest.mark.parametrize("R, d", [(3, 5), (60, 300)])  # 60*300 > 2^14: blocks of J = 1 step
def test_run_reaches_the_step_span(monkeypatch, R, d):
    # the optim.step span wraps the module-level update; run calls it once
    # per step for all R seeds, so a run that bypassed it would read 0 calls
    calls = []
    update = optim.step

    def counted(*args):
        calls.append(args[0].shape)
        return update(*args)

    monkeypatch.setattr(optim, "step", counted)
    prob = problems.QuadraticMeanProblem.generate(d, 24, sigma_sq=1.0, seed=3)
    table = schedules.ScheduleTable(lr=[0.1] * 7, batch=[3] * 7)
    optim.run("nshb", 0.5, table, prob, list(range(R)), record_every=3)
    assert calls == [(R, d)] * table.T


@pytest.mark.parametrize("R, d", [(3, 5), (60, 300)])  # 60*300 > 2^14: blocks of J = 1 step
def test_run_checks_the_box_once_per_block(monkeypatch, R, d):
    # the problems.check_iterate span wraps the problem class's method; run
    # calls it once per trajectory block, on the (n, R, d) stack of iterates
    # the block's n steps ran on, never on theta_T
    calls = []
    check = problems.QuadraticMeanProblem.check_iterate

    def counted(self, theta):
        calls.append(theta.shape)
        return check(self, theta)

    monkeypatch.setattr(problems.QuadraticMeanProblem, "check_iterate", counted)
    prob = problems.QuadraticMeanProblem.generate(d, 24, sigma_sq=1.0, seed=3)
    table = schedules.ScheduleTable(lr=[0.1] * 7, batch=[3] * 7)
    optim.run("nshb", 0.5, table, prob, list(range(R)), record_every=3)
    J = max(1, optim._OBSERVE_WORDS // (R * d))
    assert calls == [(min(J, table.T - t0), R, d) for t0 in range(0, table.T, J)]
    assert len(calls) == (1 if J > 1 else table.T)
