"""End-to-end CLI behavior: exit codes, output formats, env overrides."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from sgdm_sched import cli as sgdm_cli
from sgdm_sched import harness, optim, problems, schedules, theory

BASE_CONFIG = """\
[problem]
family = quadratic
d = 4
n = 32
sigma_sq = 1.0
seed = 3

[optimizer]
alg = nshb
beta = 0.9
theta0_seed = 1

[schedule]
regime = constant-bs
kind = cosine
lambda_max = 0.15
batch = 8
T = 40

[harness]
seeds = 8
record_every = 1
validation_mode = strict
"""


def with_schedule(config, schedule):
    """``config`` with its [schedule] section replaced by ``schedule``."""
    head, rest = config.split("[schedule]\n")
    return head + "[schedule]\n" + schedule + "\n[harness]\n" + rest.split("[harness]\n")[1]


INCREASING_SCHEDULE = """\
regime = increasing-bs
kind = constant
lambda_max = 0.05
b0 = 4
delta = 2
epochs_per_phase = 1,1,1
"""

# warm-up through phase 3 of a plan whose last phase index is M = 2
WARMUP_SCHEDULE = """\
regime = warmup
kind = constant
gamma = 1.1
lambda0 = 0.01
warmup_phases = 3
b0 = 4
delta = 2
epochs_per_phase = 1,1,1
"""


def momentum_conflict(config):
    # growth constant c = gamma = 1.2 >= 1/0.95^2 = 1.108: no admissible rate
    return config.replace("beta = 0.9", "beta = 0.95").replace(
        "regime = constant-bs\nkind = cosine\nlambda_max = 0.15\nbatch = 8\nT = 40",
        "regime = joint-growth\ngamma = 1.2\nlambda0 = 0.001\nb0 = 8\ndelta = 2\n"
        "epochs_per_phase = 1,1",
    )


def diverging(config):
    return config.replace("lambda_max = 0.15", "lambda_max = 1e200").replace(
        "validation_mode = strict", "validation_mode = waived"
    )


# the iterate stays finite (|theta| doubles per step up to ~2^520), but f
# overflows to inf near step 512
OVERFLOWING_F_CONFIG = """\
[problem]
family = quadratic
d = 1
n = 4
sigma_sq = 1.0
seed = 1

[optimizer]
alg = nshb
beta = 0.0

[schedule]
regime = constant-bs
kind = constant
lambda_max = 3
batch = 1
T = 520

[harness]
seeds = 2
validation_mode = waived
"""


# iterates start inside the 0.5 box (theta0_seed 29) and leave it within 40 steps
LOGCOSH_BOX_CONFIG = """\
[problem]
family = logcosh
d = 4
n = 64
spread = 3.0
seed = 0
box_radius = 0.5

[optimizer]
alg = nshb
beta = 0.0
theta0_seed = 29

[schedule]
regime = constant-bs
kind = constant
lambda_max = 0.1
batch = 8
T = 40

[harness]
seeds = 8
"""


def first_box_exit(cfg_path):
    """(seed, step) the engine must report: each seed of the config run alone
    through ``optim.run``; the earliest box-exit step, then the lowest seed row."""
    config = sgdm_cli.load_config(cfg_path)
    problem = config.problem.build()
    table = config.schedule.build(problem.n)[0]
    theta0 = np.random.default_rng((config.theta0_seed,)).standard_normal(problem.d)
    exits = []
    for row, seed in enumerate(config.seeds):
        try:
            optim.run(config.alg, config.beta, table, problem, seed, run_index=row,
                      theta0=theta0)
        except problems.IterateOutsideCertifiedBox as exc:
            step = int(re.match(r"seed \d+ at step (\d+): ", str(exc)).group(1))
            exits.append((step, row, seed))
    assert exits, "the config must leave the box"
    step, _, seed = min(exits)
    return seed, step


def cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sgdm_sched", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRunCommand:
    def test_valid_config_exit_zero(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG)
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 0, res.stderr
        assert "theorem1_sq: PASS" in res.stdout
        assert "admissible: PASS" in res.stdout

    def test_unknown_key_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG + "\nwibble = 3\n")
        res = cli("run", str(cfg))
        assert res.returncode == 2
        assert "wibble" in res.stderr

    def test_unknown_schedule_kind_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("kind = cosine", "kind = zigzag"))
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 2

    def test_momentum_growth_conflict_exit_three(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(momentum_conflict(BASE_CONFIG))
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 3
        assert "1/beta^2" in res.stderr

    def test_divergence_exit_four(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(diverging(BASE_CONFIG))
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 4

    def test_overflowing_observation_exit_four(self, tmp_path, capsys):
        # in process, so a RuntimeWarning would fail the test (filterwarnings)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(OVERFLOWING_F_CONFIG)
        assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 4
        assert "divergence: FAIL (seed" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bound_failure_exit_one(self, tmp_path):
        # waived, stable but inadmissible rate: the variance floor sits above
        # sigma^2/b, so the out-of-hypothesis bound check must fail
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            BASE_CONFIG.replace("beta = 0.9", "beta = 0.0")
            .replace("kind = cosine", "kind = constant")
            .replace("lambda_max = 0.15", "lambda_max = 1.5")
            .replace("T = 40", "T = 2000")
            .replace("batch = 8", "batch = 16")
            .replace("validation_mode = strict", "validation_mode = waived")
        )
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "theorem1_sq: FAIL" in res.stdout

    def test_iterate_leaving_box_exit_four(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(LOGCOSH_BOX_CONFIG)
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 4, res.stderr
        seed, step = first_box_exit(cfg)
        assert f"divergence: FAIL (seed {seed} at step {step}:" in res.stderr

    def test_theta0_outside_box_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(LOGCOSH_BOX_CONFIG.replace("theta0_seed = 29", "theta0_seed = 0"))
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 2, res.stderr
        assert "config error: theta0" in res.stderr
        assert not (tmp_path / "runs").exists()

    def test_zero_seeds_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG)
        res = cli("run", str(cfg), "--seeds", "0", "--out", str(tmp_path / "runs"))
        assert res.returncode == 2, res.stderr
        assert "config error: need at least one master seed" in res.stderr

    def test_seed_beyond_stream_key_exit_two(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("seeds = 8", "seeds = 3,18446744073709551616"))
        res = cli("run", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 2, res.stderr
        assert "config error: master seeds must be in [0, 2**64)" in res.stderr
        assert not (tmp_path / "runs").exists()

    def test_env_var_out_root(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG)
        res = cli("run", str(cfg), env_extra={"SGDM_SCHED_OUT": str(tmp_path / "envruns")})
        assert res.returncode == 0
        assert any((tmp_path / "envruns").iterdir())

    def test_seed_override_flag(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG)
        res = cli("run", str(cfg), "--seeds", "4", "--out", str(tmp_path / "runs"))
        assert res.returncode == 0
        exp_dirs = list((tmp_path / "runs").iterdir())
        assert len(exp_dirs) == 1
        assert len(list(exp_dirs[0].glob("trace_*.csv"))) == 4

    def test_warmup_phases_beyond_last_phase_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_schedule(BASE_CONFIG, WARMUP_SCHEDULE))
        assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "warmup_phases=3 exceeds" in err

    def test_unusable_corollary_exits_two_before_any_step(self, tmp_path, capsys, monkeypatch):
        # warm-up through the last phase M = 2 leaves no post-warm-up step
        def no_run(*args, **kwargs):
            raise AssertionError("optim.run was reached")

        monkeypatch.setattr(harness.optim, "run", no_run)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_schedule(BASE_CONFIG, WARMUP_SCHEDULE.replace(
            "warmup_phases = 3", "warmup_phases = 2")))
        assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == (
            "config error: warm-up bounds need at least one post-warm-up step (T > T_w)\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("warmup_phases", [1, 5])
    def test_stray_warmup_phases_is_ignored_outside_warmup(self, tmp_path, warmup_phases):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_schedule(BASE_CONFIG, INCREASING_SCHEDULE
                                     + f"warmup_phases = {warmup_phases}\n"))
        out = tmp_path / "runs"
        assert sgdm_cli.main(["run", str(cfg), "--out", str(out)]) == 0
        (report,) = out.glob("*/report.json")
        totals = json.loads(report.read_text())["totals"]
        assert totals["M"] == 2 and totals["T_w"] is None
        # the ignored key leaves the config, and so the artifact directory, as
        # it is without the key
        cfg.write_text(with_schedule(BASE_CONFIG, INCREASING_SCHEDULE))
        assert report.parent.name == sgdm_cli.load_config(cfg).config_hash


def ini_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items()) + "\n"
        for name, body in sections.items()
    )


# a small constant-batch quadratic config and a small phase-plan log-cosh
# config, whose every float and int key takes each of EXTREME_VALUES in
# turn; no int grows, since T, n, d, batch and seeds allocate
EXTREME_BASES = {
    "constant-bs": {
        "problem": {"family": "quadratic", "d": 2, "n": 16, "sigma_sq": 1.0, "seed": 3},
        "optimizer": {"alg": "nshb", "beta": 0.5, "theta0_seed": 1},
        "schedule": {"regime": "constant-bs", "kind": "cosine", "lambda_max": 0.1,
                     "batch": 4, "T": 8},
        "harness": {"seeds": 2},
    },
    "phase-plan": {
        "problem": {"family": "logcosh", "d": 2, "n": 16, "spread": 1.0, "seed": 3},
        "optimizer": {"alg": "shb", "beta": 0.5, "theta0_seed": 1},
        "schedule": {"regime": "warmup", "kind": "cosine", "gamma": 1.1, "lambda0": 0.01,
                     "lambda_min": 0.001, "warmup_phases": 1, "b0": 2, "delta": 2,
                     "epochs_per_phase": "1,1,1"},
        "harness": {"seeds": 2},
    },
}
EXTREME_VALUES = {float: ("nan", "inf", "-inf", "1e308", "-1", "0"), int: ("-1", "0")}
EXTREME_CASES = [
    (base, section, key, value)
    for base in EXTREME_BASES
    for section, fields in sgdm_cli._SECTIONS.items()
    for key, kind in fields.items()
    for value in EXTREME_VALUES.get(kind, ())
]


@pytest.mark.parametrize("base", EXTREME_BASES)
def test_extreme_value_bases_pass(tmp_path, base):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini_text(EXTREME_BASES[base]))
    assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 0


@pytest.mark.parametrize("base, section, key, value", EXTREME_CASES,
                         ids=["-".join(case) for case in EXTREME_CASES])
def test_extreme_values_keep_the_exit_contract(tmp_path, base, section, key, value):
    # in process, so a warning fails the test (filterwarnings) rather than printing
    sections = {name: dict(body) for name, body in EXTREME_BASES[base].items()}
    sections[section][key] = value
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ini_text(sections))
    assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) in range(5)


class TestScheduleCommand:
    def test_cosine_fifteen_rows(self):
        res = cli("schedule", "--regime", "constant-bs", "--kind", "cosine", "--lambda-min", "0",
                  "--lambda-max", "1", "--batch", "1", "--dataset-size", "5", "--T", "15")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "t,lr,batch"
        assert len(lines) == 16
        assert float(lines[1].split(",")[1]) == 1.0
        assert float(lines[6].split(",")[1]) == 0.75

    def test_constant_all_rows_equal(self):
        res = cli("schedule", "--regime", "constant-bs", "--kind", "constant",
                  "--lambda-max", "0.1", "--batch", "4", "--T", "6")
        rows = res.stdout.strip().splitlines()[1:]
        assert len({r.split(",")[1] for r in rows}) == 1
        assert float(rows[0].split(",")[1]) == 0.1

    def test_warmup_constant_phase_rates(self):
        res = cli("schedule", "--regime", "warmup", "--kind", "constant", "--lambda0", "0.1",
                  "--gamma", "1.5", "--warmup-phases", "1", "--b0", "8", "--delta", "2",
                  "--epochs-per-phase", "1,1,1", "--dataset-size", "32")
        assert res.returncode == 0
        lr = [float(row.split(",")[1]) for row in res.stdout.splitlines()[1:]]
        np.testing.assert_allclose(lr, [0.1] * 4 + [0.15] * 2 + [0.15], rtol=1e-15)

    def test_round_trip_exact(self):
        res = cli("schedule", "--regime", "constant-bs", "--kind", "diminishing",
                  "--lambda-max", "0.123456789012345", "--batch", "3", "--T", "50")
        lr = [float(row.split(",")[1]) for row in res.stdout.splitlines()[1:]]
        expected = 0.123456789012345 / np.sqrt(np.arange(50) + 1.0)
        np.testing.assert_array_equal(lr, expected)

    def test_invalid_parameters_exit_two(self):
        res = cli("schedule", "--regime", "constant-bs", "--kind", "cosine", "--lambda-max", "1",
                  "--batch", "1", "--dataset-size", "5", "--T", "14")
        assert res.returncode == 2


class TestBoundsCommand:
    @pytest.mark.pinned
    def test_constant_regime_golden(self):
        res = cli("bounds", "--regime", "constant-bs", "--lambda-max", "0.1", "--batch", "10",
                  "--T", "100", "--sigma-sq", "1", "--f0-gap", "1", "--beta", "0",
                  "--alg", "nshb", "--L", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["B_T"] == pytest.approx(0.1)
        assert doc["V_T"] == pytest.approx(0.1)
        assert doc["rhs_sq"] == pytest.approx(0.3)
        assert doc["regime"] == "cor3.1-constant"

    def test_beta_zero_algs_agree(self):
        docs = []
        for alg in ("nshb", "shb"):
            res = cli("bounds", "--regime", "constant-bs", "--lambda-max", "0.1", "--batch", "10",
                      "--T", "100", "--sigma-sq", "1", "--f0-gap", "1", "--beta", "0",
                      "--alg", alg, "--L", "1")
            docs.append(json.loads(res.stdout))
        assert docs[0]["C_alg"] == docs[1]["C_alg"] == 1.0
        assert docs[0]["rhs_sq"] == docs[1]["rhs_sq"]

    def test_gamma_at_delta_exit_two(self):
        res = cli("bounds", "--regime", "joint-growth", "--gamma", "2.0", "--lambda0", "0.1",
                  "--b0", "8", "--delta", "2", "--epochs-per-phase", "1,1,1",
                  "--dataset-size", "32", "--sigma-sq", "1", "--f0-gap", "1",
                  "--beta", "0.5", "--alg", "nshb", "--L", "1")
        assert res.returncode == 2
        assert "gamma/delta" in res.stderr

    def test_missing_flags_exit_two(self):
        res = cli("bounds", "--regime", "constant-bs", "--sigma-sq", "1",
                  "--f0-gap", "1", "--beta", "0", "--alg", "nshb", "--L", "1")
        assert res.returncode == 2


THEORY_FLAGS = ("--alg", "nshb", "--beta", "0.5", "--L", "2", "--sigma-sq", "1.5", "--f0-gap", "3")
PHASE_FLAGS = ("--b0", "8", "--delta", "2", "--epochs-per-phase", "1,2,1", "--dataset-size", "64")
GROWTH_FLAGS = ("--gamma", "1.5", "--lambda0", "0.02", "--b0", "8", "--delta", "2",
                "--epochs-per-phase", "1,1,2", "--dataset-size", "64")
SMALL_GROWTH_FLAGS = ("--gamma", "1.5", "--lambda0", "0.02", "--b0", "4", "--delta", "2",
                      "--dataset-size", "16")


def bounds_argv(regime, *flags):
    return ["bounds", "--regime", regime, *flags, *THEORY_FLAGS]


def constant_bs(kind, *flags):
    return ("constant-bs", "--kind", kind, *flags)


def increasing_bs(kind, *flags):
    return ("increasing-bs", "--kind", kind, *flags, *PHASE_FLAGS)


def warmup(kind, *flags):
    return ("warmup", "--kind", kind, *GROWTH_FLAGS, "--warmup-phases", "1", *flags)


# SHA-256 prefixes of the stdout of `bounds` for every corollary regime and of
# `schedule` for one kind per table-builder branch
@pytest.mark.pinned
@pytest.mark.parametrize("argv, digest", [
    (bounds_argv(*constant_bs("constant", "--lambda-max", "0.1", "--batch", "10", "--T", "100")),
     "0cddb6fb74e513a4"),
    (bounds_argv(*constant_bs("diminishing", "--lambda-max", "0.2", "--batch", "4", "--T", "50")),
     "c6cd20270fdc521e"),
    (bounds_argv(*constant_bs("cosine", "--lambda-max", "0.2", "--lambda-min", "0.01",
                              "--batch", "4", "--T", "40", "--dataset-size", "32")),
     "ffbee7b0dc28e7ea"),
    (bounds_argv(*constant_bs("polynomial", "--lambda-max", "0.2", "--lambda-min", "0.01",
                              "--p", "2", "--batch", "4", "--T", "50")), "523bddb8c0f88392"),
    (bounds_argv(*increasing_bs("constant", "--lambda-max", "0.1")), "02a6a9a5e8d65507"),
    (bounds_argv(*increasing_bs("diminishing", "--lambda-max", "0.2")), "065eb6850898c66c"),
    (bounds_argv(*increasing_bs("cosine", "--lambda-max", "0.2", "--lambda-min", "0.01")),
     "70e5b64b96fe331e"),
    (bounds_argv(*increasing_bs("polynomial", "--lambda-max", "0.2", "--lambda-min", "0.01",
                                "--p", "2")), "674c1e2375ca0d50"),
    (bounds_argv("joint-growth", *GROWTH_FLAGS), "3c9c63da0958fa69"),
    (bounds_argv(*warmup("constant")), "782d5ef284f68a6d"),
    (bounds_argv(*warmup("cosine", "--lambda-min", "0.001")), "f68a47051380094b"),
    (["schedule", "--regime", *constant_bs("cosine", "--lambda-max", "1", "--lambda-min", "0.1",
                                           "--batch", "2", "--dataset-size", "6", "--T", "9")],
     "29e6cdf0e5b878d3"),
    (["schedule", "--regime", "increasing-bs", "--kind", "polynomial", "--lambda-max", "0.5",
      "--p", "2", "--b0", "4", "--delta", "2", "--epochs-per-phase", "1,2", "--dataset-size", "16"],
     "a6f193332a38184f"),
    (["schedule", "--regime", "joint-growth", *SMALL_GROWTH_FLAGS, "--epochs-per-phase", "1,1,1"],
     "b427a20e1bbfc41c"),
    (["schedule", "--regime", "warmup", "--kind", "cosine", *SMALL_GROWTH_FLAGS,
      "--epochs-per-phase", "1,1,2", "--warmup-phases", "1", "--lambda-min", "0.001"],
     "7817982877251ed7"),
], ids=[*theory.REGIMES, "schedule-cosine", "schedule-polynomial-phases",
        "schedule-exp_growth", "schedule-warmup_cosine"])
def test_cli_stdout_is_pinned(capsys, argv, digest):
    assert sgdm_cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv, message", [
    (bounds_argv("warmup", "--kind", "constant", *SMALL_GROWTH_FLAGS, "--epochs-per-phase",
                 "1,1,1", "--warmup-phases", "3"), "warmup_phases=3 exceeds"),
    (["schedule", "--regime", "warmup", "--kind", "constant", *SMALL_GROWTH_FLAGS,
      "--epochs-per-phase", "1,1,1", "--warmup-phases", "3"], "warmup_phases=3 exceeds"),
    (bounds_argv("joint-growth", "--gamma", "1.5", "--lambda0", "0.02", "--b0", "4",
                 "--delta", "2", "--epochs-per-phase", "1,1"), "needs a dataset_size"),
    (["schedule", "--regime", "increasing-bs", "--b0", "4", "--delta", "2",
      "--epochs-per-phase", "1,1"], "needs a dataset_size"),
], ids=["bounds-warmup-beyond-M", "schedule-warmup-beyond-M", "bounds-no-dataset-size",
        "schedule-no-dataset-size"])
def test_flags_the_schedule_cannot_honour_exit_two(capsys, argv, message):
    assert sgdm_cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command", ["bounds", "schedule"])
def test_flag_the_regime_does_not_read_is_ignored(capsys, command):
    # a stray phase-plan flag on a constant-batch schedule, as an unread INI key
    flags = constant_bs("constant", "--lambda-max", "0.1", "--batch", "10", "--T", "100")
    argv = bounds_argv(*flags) if command == "bounds" else [command, "--regime", *flags]
    assert sgdm_cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert sgdm_cli.main([*argv, "--b0", "8"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("delta", ["inf", "1e308"])
@pytest.mark.parametrize("command", ["run", "bounds", "schedule"])
def test_overflowing_batch_growth_exits_two(tmp_path, capsys, command, delta):
    # delta^M * b0 leaves the float range: the final batch exceeds any dataset
    plan = ("--b0", "4", "--delta", delta, "--epochs-per-phase", "1,1,1", "--dataset-size", "32")
    if command == "run":
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_schedule(BASE_CONFIG, INCREASING_SCHEDULE.replace(
            "delta = 2", f"delta = {delta}")))
        argv = ["run", str(cfg), "--out", str(tmp_path / "runs")]
    elif command == "bounds":
        argv = bounds_argv("increasing-bs", *plan)
    else:
        argv = ["schedule", "--regime", "increasing-bs", *plan]
    assert sgdm_cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: final-phase batch size inf exceeds")


@pytest.mark.parametrize("command", ["run", "bounds", "schedule"])
def test_schedule_too_large_to_allocate_exits_two(tmp_path, capsys, command):
    # 4e13 or more steps: each per-step array is above 2^47 bytes, beyond the
    # x86-64 user address space, so the first allocation fails at once
    epochs = "10000000000000,1"
    if command == "run":
        cfg = tmp_path / "exp.ini"
        cfg.write_text(with_schedule(BASE_CONFIG, INCREASING_SCHEDULE.replace(
            "epochs_per_phase = 1,1,1", f"epochs_per_phase = {epochs}")))
        argv = ["run", str(cfg), "--out", str(tmp_path / "runs")]
    else:
        plan = ("increasing-bs", "--b0", "2", "--delta", "2", "--epochs-per-phase", epochs,
                "--dataset-size", "8")
        argv = bounds_argv(*plan) if command == "bounds" else ["schedule", "--regime", *plan]
    assert sgdm_cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_overflowing_rate_sum_exits_two_before_any_step(tmp_path, capsys, monkeypatch, command):
    # every rate is finite, but sum(lr) is beyond the float range
    def no_run(*args, **kwargs):
        raise AssertionError("optim.run was reached")

    monkeypatch.setattr(harness.optim, "run", no_run)
    if command == "run":
        cfg = tmp_path / "exp.ini"
        cfg.write_text(diverging(BASE_CONFIG).replace("lambda_max = 1e200", "lambda_max = 1e308"))
        argv = ["run", str(cfg), "--out", str(tmp_path / "runs")]
    else:
        argv = bounds_argv(*constant_bs("cosine", "--lambda-max", "1e308", "--batch", "4",
                                        "--T", "8", "--dataset-size", "16"))
    assert sgdm_cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: sum of learning rates overflows the float range\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["schedule", "bounds"])
def test_schedule_flags_are_the_ini_keys(command):
    (commands,) = [a.choices for a in sgdm_cli.build_parser()._actions
                   if isinstance(a.choices, dict)]
    flags = {flag: a.dest for a in commands[command]._actions for flag in a.option_strings
             if a.dest != "help"}
    keys = {"--" + key.replace("_", "-"): key for key in sgdm_cli._SECTIONS["schedule"]}
    if command == "bounds":  # the problem and algorithm constants of the report
        keys |= {"--alg": "alg", "--beta": "beta", "--L": "L", "--sigma-sq": "sigma_sq",
                 "--f0-gap": "f0_gap"}
    assert flags == keys


# the schedule bodies of EXTREME_BASES as `schedule` and `bounds` flags, with
# the dataset size that `run` takes from the problem; every float and int key
# takes each of EXTREME_VALUES in turn
FLAG_BASES = {base: {**body["schedule"], "dataset_size": 16}
              for base, body in EXTREME_BASES.items()}
FLAG_CASES = [
    (command, base, key, value)
    for command in ("schedule", "bounds")
    for base in FLAG_BASES
    for key, kind in sgdm_cli._SECTIONS["schedule"].items()
    for value in EXTREME_VALUES.get(kind, ())
]


def flag_argv(command, body):
    # --key=value, so that a value such as -inf is not read as a flag
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in body.items()]
    return [command, *flags, *(THEORY_FLAGS if command == "bounds" else ())]


@pytest.mark.parametrize("command", ["schedule", "bounds"])
@pytest.mark.parametrize("base", FLAG_BASES)
def test_extreme_flag_bases_pass(command, base):
    assert sgdm_cli.main(flag_argv(command, FLAG_BASES[base])) == 0


@pytest.mark.parametrize("command, base, key, value", FLAG_CASES,
                         ids=["-".join(case) for case in FLAG_CASES])
def test_extreme_flag_values_keep_the_exit_contract(command, base, key, value):
    # in process, so a warning or an uncaught exception fails the test
    assert sgdm_cli.main(flag_argv(command, {**FLAG_BASES[base], key: value})) in (0, 2)


class TestAuditCommand:
    def test_audit_passes_and_writes_csv(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("seeds = 8", "seeds = 64"))
        res = cli("audit", str(cfg), "--out", str(tmp_path / "runs"))
        assert res.returncode == 0, res.stderr
        assert "lyapunov_descent: PASS" in res.stdout
        audit_files = list((tmp_path / "runs").glob("*/audit.csv"))
        assert len(audit_files) == 1
        header = audit_files[0].read_text().splitlines()[0]
        assert header == "t,mean_delta_lyapunov,descent_rhs,stderr,ok"

    def test_audit_requires_nshb(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("alg = nshb", "alg = shb"))
        res = cli("audit", str(cfg))
        assert res.returncode == 2

    @pytest.mark.parametrize("edit, code, message", [
        (lambda c: c + "budget = 10\n", 2, "config error: estimated work"),
        (momentum_conflict, 3, "admissibility: FAIL ("),
        (diverging, 4, "divergence: FAIL (seed 0 diverged"),
    ], ids=["budget", "admissibility", "divergence"])
    def test_audit_failure_exit_codes(self, tmp_path, capsys, edit, code, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(edit(BASE_CONFIG.replace("seeds = 8", "seeds = 64")))
        assert sgdm_cli.main(["audit", str(cfg), "--out", str(tmp_path / "runs")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("text, message", [
    ("alg = nshb\n" + BASE_CONFIG, "File contains no section headers"),
    (BASE_CONFIG.replace("d = 4\n", "d = 4\nd = 5\n"), "option 'd' in section 'problem' already"),
], ids=["no-section-header", "duplicate-key"])
def test_malformed_ini_exit_two(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text.replace("seeds = 8", "seeds = 64"))
    assert sgdm_cli.main([command, str(cfg), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "runs").exists()


class TestRatefitCommand:
    def _fake_report(self, path, T, y):
        path.write_text(json.dumps({
            "totals": {"T": T, "M": None, "samples": T * 8},
            "empirical": {"min_mean_grad_norm": y},
        }))

    def test_fits_reports(self, tmp_path):
        paths = []
        for k in range(8, 13):
            p = tmp_path / f"r{k}.json"
            self._fake_report(p, 2**k, 3.0 * (2**k) ** -0.5)
            paths.append(str(p))
        res = cli("ratefit", *paths, "--mode", "loglog", "--x", "T")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["slope"] == pytest.approx(-0.5, abs=1e-9)

    def test_too_few_points_exit_two(self, tmp_path):
        paths = []
        for k in range(3):
            p = tmp_path / f"r{k}.json"
            self._fake_report(p, 100 * (k + 1), 1.0 / (k + 1))
            paths.append(str(p))
        res = cli("ratefit", *paths)
        assert res.returncode == 2

    @pytest.mark.parametrize("doc", [
        [],
        {"totals": None, "empirical": {"min_mean_grad_norm": 1.0}},
        {"totals": {"T": 100, "M": None, "samples": 800}, "empirical": None},
    ], ids=["list", "null-totals", "null-empirical"])
    def test_report_that_is_not_an_object_exits_two(self, tmp_path, capsys, doc):
        paths = []
        for k in range(4):
            p = tmp_path / f"r{k}.json"
            self._fake_report(p, 100 * (k + 1), 1.0 / (k + 1))
            paths.append(str(p))
        (tmp_path / "r0.json").write_text(json.dumps(doc))
        assert sgdm_cli.main(["ratefit", *paths]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("mode", ["loglog", "per-phase"])
    def test_single_phase_reports_exit_two_without_warning(self, tmp_path, mode):
        # M = 0 in every single-phase report; warnings are errors in the child
        paths = []
        for k in range(5):
            p = tmp_path / f"r{k}.json"
            p.write_text(json.dumps({
                "totals": {"T": 100 * (k + 1), "M": 0, "samples": 800 * (k + 1)},
                "empirical": {"min_mean_grad_norm": 1.0 / (k + 1)},
            }))
            paths.append(str(p))
        res = cli("ratefit", *paths, "--x", "M", "--mode", mode,
                  env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error: x values must")


def failing_argv(command, tmp_path):
    """An argv on which ``command`` fails with a config error."""
    if command in ("run", "audit"):  # --out names a file, not a directory
        cfg = tmp_path / "exp.ini"
        cfg.write_text(BASE_CONFIG.replace("seeds = 8", "seeds = 64"))
        (tmp_path / "out").write_text("")
        return [command, str(cfg), "--out", str(tmp_path / "out")]
    if command == "bounds":
        return bounds_argv("joint-growth", "--gamma", "1.5", "--lambda0", "0.02", "--b0", "4",
                           "--delta", "2", "--epochs-per-phase", "1,1")
    if command == "schedule":
        return ["schedule", "--regime", "increasing-bs", "--b0", "4", "--delta", "2",
                "--epochs-per-phase", "1,1"]
    return ["ratefit", *[str(tmp_path)] * 4]  # a directory, not a report


@pytest.mark.parametrize("command", ["run", "audit", "bounds", "schedule", "ratefit"])
def test_every_command_fails_through_the_one_exit_table(tmp_path, capsys, command):
    # one stderr line, no traceback: main's exit table handled the failure
    assert sgdm_cli.main(failing_argv(command, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("out, under", [("file", ""), ("file", "sub"), ("dangling-link", "")],
                         ids=["file", "file-sub", "dangling-link"])
def test_unusable_out_exits_two_before_any_step(tmp_path, capsys, monkeypatch, command, out,
                                                under):
    def no_run(*args, **kwargs):
        raise AssertionError("optim.run was reached")

    monkeypatch.setattr(harness.optim, "run", no_run)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(BASE_CONFIG.replace("seeds = 8", "seeds = 64"))
    if out == "file":
        (tmp_path / "out").write_text("kept")
    else:
        (tmp_path / "out").symlink_to(tmp_path / "missing")
    assert sgdm_cli.main([command, str(cfg), "--out", str(tmp_path / "out" / under)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create directory ")
    assert err.endswith(f"{tmp_path / 'out'} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "out"]
    if out == "file":
        assert (tmp_path / "out").read_text() == "kept"


@pytest.mark.parametrize("command", ["run", "audit"])
def test_inadmissible_beats_unusable_out(tmp_path, capsys, command):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(momentum_conflict(BASE_CONFIG.replace("seeds = 8", "seeds = 64")))
    (tmp_path / "out").write_text("")
    assert sgdm_cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("admissibility: FAIL (")


@pytest.mark.parametrize("text, field", [
    ("{", None),
    ('{"totals": {"T": 100}, "empirical": {"min_mean_grad_norm": NaN}}',
     "empirical.min_mean_grad_norm = NaN"),
    ('{"totals": {"T": Infinity}, "empirical": {"min_mean_grad_norm": 1.0}}',
     "totals.T = Infinity"),
], ids=["truncated", "nan-y", "infinite-x"])
def test_ratefit_names_the_broken_report(tmp_path, capsys, text, field):
    paths = []
    for k in range(4):
        p = tmp_path / f"r{k}.json"
        p.write_text(json.dumps({"totals": {"T": 100 * (k + 1)},
                                 "empirical": {"min_mean_grad_norm": 1.0 / (k + 1)}}))
        paths.append(str(p))
    (tmp_path / "r2.json").write_text(text)
    assert sgdm_cli.main(["ratefit", *paths]) == 2
    err = capsys.readouterr().err
    if field is None:
        assert err.startswith(f"config error: {paths[2]} is not JSON: Expecting property name")
    else:
        assert err == f"config error: {paths[2]}: {field} is not a finite number\n"


@pytest.mark.parametrize("argv", [
    ["schedule", "--regime", "constant-bs", "--lambda-max", "0.1", "--bat", "4", "--T", "2"],
    ["schedule", "--regime", "constant-bs", "--lambda-max", "0.1", "--batch", "4", "--T", "2",
     "--dataset", "16"],
], ids=["bat", "dataset"])
def test_abbreviated_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as info:
        sgdm_cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--L", "inf", "L must be finite, got inf"),
    ("--sigma-sq", "nan", "sigma_sq must be finite, got nan"),
    ("--f0-gap", "inf", "f0_minus_fstar must be finite, got inf"),
])
def test_non_finite_bounds_constant_exits_two(capsys, flag, value, message):
    argv = bounds_argv(*constant_bs("constant", "--lambda-max", "0.1", "--batch", "1",
                                    "--T", "1"))
    argv[argv.index(flag) + 1] = value
    assert sgdm_cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.replace("sigma_sq = 1.0\n", "spread = 1e200\n"),
     "the anchors' variance sigma_sq = inf is not finite"),
    (lambda c: c.replace("lambda_max = 0.15", "lambda_max = 5e-324").replace("T = 40", "T = 1")
     .replace("kind = cosine", "kind = constant"),
     "theory report value B_T = inf is not finite"),
], ids=["anchor-variance", "subnormal-rate-sum"])
def test_non_finite_value_exits_two_before_any_step(tmp_path, capsys, monkeypatch, edit,
                                                     message):
    # in process, so a warning fails the test
    def no_run(*args, **kwargs):
        raise AssertionError("optim.run was reached")

    monkeypatch.setattr(harness.optim, "run", no_run)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(edit(BASE_CONFIG))
    assert sgdm_cli.main(["run", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "runs").exists()
