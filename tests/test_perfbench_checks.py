"""The benchmark's own result checks accept a small run of each workload kind.

``perfbench/workloads.py`` checks every repetition through the report and
artifact names it reads (``report.total_steps``, ``report.traces``,
``tr.rows``, ``report.passed``, ``report.checks``, ``report.to_dict()``, the
files ``sgdm-sched run`` writes).  A renamed one would fail the benchmark
run; here it fails the suite instead.  The module is loaded from its file,
as ``perfbench/run.py`` loads it, with the package from ``src/``.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from sgdm_sched import _fmt, cli, harness

ROOT = Path(__file__).resolve().parent.parent

SMALL_DOUBLING_INI = """\
[problem]
family = quadratic
d = 4
n = 64
sigma_sq = 1.0
seed = 42

[optimizer]
alg = nshb
beta = 0.3
theta0_seed = 5

[schedule]
regime = increasing-bs
kind = constant
lambda_max = 0.2
b0 = 8
delta = 2.0
epochs_per_phase = 2,2

[harness]
seeds = 0,1,2,3
"""


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture
def pkg():
    return types.SimpleNamespace(harness=harness, cli=cli, dumps17=_fmt.dumps17)


def test_experiments_workload_check_accepts_a_run(workloads, pkg):
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(family="quadratic", d=4, n=32, sigma_sq=1.0, seed=3),
        alg="nshb", beta=0.9,
        schedule=harness.ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.15,
                                      batch=8, T=40),
        seeds=tuple(range(8)), theta0_seed=1, record_every=2,
    )
    workload = workloads.ExperimentsWorkload([config], pkg)
    (experiment,) = workload.experiments()
    outcome = workload.check(0, experiment())
    assert outcome.ok, outcome.detail
    assert (outcome.seed_steps, outcome.rows) == (8 * 40, 8 * 20)


def test_cli_workload_check_accepts_a_run(workloads, pkg, tmp_path):
    workload = workloads.CliWorkload(SMALL_DOUBLING_INI, pkg, tmp_path / "cli")
    (experiment,) = workload.experiments()
    outcome = workload.check(0, experiment())
    assert outcome.ok, outcome.detail
    T = 2 * 8 + 2 * 4  # two epochs at batch 8, then two at 16
    assert (outcome.seed_steps, outcome.rows) == (4 * T, 4 * T)
    assert outcome.artifact_bytes > 0
