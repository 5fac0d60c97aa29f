"""Experiment orchestration: aggregation, artifact output, audits, rate fits."""

import hashlib
import inspect
import math
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from sgdm_sched import optim, problems, schedules
from sgdm_sched.harness import (
    _FAMILIES,
    BudgetExceeded,
    ExperimentConfig,
    ProblemSpec,
    ScheduleSpec,
    lyapunov_descent_audit,
    rate_fit,
    run_experiment,
    write_artifacts,
)


def small_config(**overrides):
    base = dict(
        problem=ProblemSpec(family="quadratic", d=4, n=32, sigma_sq=1.0, seed=3),
        alg="nshb",
        beta=0.9,
        schedule=ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.15,
                              batch=8, T=40),
        seeds=tuple(range(8)),
        theta0_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# sets every config field away from its default: log-cosh, warmup, shb,
# waived, record_every = 2
EVERY_FIELD = dict(
    problem=ProblemSpec(family="logcosh", d=3, n=16, spread=2.0, scale=0.5, amp=1.5,
                        box_radius=5.0, seed=2),
    schedule=ScheduleSpec(regime="warmup", kind="cosine", gamma=1.5, lambda0=0.02,
                          lambda_min=0.001, warmup_phases=1, b0=4, delta=2.0,
                          epochs_per_phase=(1, 2, 1), dataset_size=16),
    alg="SHB", validation_mode="waived", record_every=2, budget=1e9,
)

# one schedule per regime for the log-cosh bound check (n = 32)
LOGCOSH_SCHEDULES = {
    "constant-bs": ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.1,
                                batch=4, T=64),
    "increasing-bs": ScheduleSpec(regime="increasing-bs", kind="diminishing", lambda_max=0.1,
                                  b0=4, delta=2.0, epochs_per_phase=(2, 2, 2)),
    "joint-growth": ScheduleSpec(regime="joint-growth", gamma=1.5, lambda0=0.02,
                                 b0=4, delta=2.0, epochs_per_phase=(1, 1, 1)),
    "warmup": ScheduleSpec(regime="warmup", kind="cosine", gamma=1.5, lambda0=0.02,
                           lambda_min=0.001, warmup_phases=1, b0=4, delta=2.0,
                           epochs_per_phase=(1, 2, 1)),
}

# First 16 hex digits of the SHA-256 of each artifact file.  Reruns and other
# versions must write the same bytes, so a change here must be deliberate.
PINNED_ARTIFACTS = {
    "defaults": {
        "aggregate.csv": "c35fe58a8c5bd582",
        "report.json": "37fb86c2aa17af63",
        "trace_0.csv": "ca3231f9f5c736e8",
        "trace_1.csv": "a32b770e15827534",
        "trace_2.csv": "a3e780c3ed7bda06",
        "trace_3.csv": "d1d15c8b17f9e569",
        "trace_4.csv": "d8d80356ef01ab33",
        "trace_5.csv": "d64203997cb38456",
        "trace_6.csv": "c56ccdf04287463f",
        "trace_7.csv": "b781817afa1aced5",
    },
    "every-field": {
        "aggregate.csv": "16e7e550d8596644",
        "report.json": "1a4712a225704d52",
        "trace_0.csv": "ecf7b540a40a31ef",
        "trace_1.csv": "d321c37a0dcdc0d4",
        "trace_2.csv": "4585e27625790da9",
        "trace_3.csv": "a75f420730b19475",
        "trace_4.csv": "ce1433b304218e07",
        "trace_5.csv": "4c9bd1ecd3af5198",
        "trace_6.csv": "93e091cc5a3793c9",
        "trace_7.csv": "917b41942b7a0361",
    },
    "table_to_csv": "f0be0d3aaa5d87fe",
    "audit.to_csv": "5bfb7eed66334e19",
}


def short_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestProblemSpec:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_family_reads_exactly_the_keywords_of_generate(self, family):
        # a keyword of generate missing from the table would silently keep
        # its default whatever the config says
        cls, read = _FAMILIES[family]
        params = inspect.signature(cls.generate).parameters.values()
        keywords = [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert sorted(read) == sorted(set(keywords) - {"seed"})
        family_fields = {f.name for f in fields(ProblemSpec)} - {"family", "d", "n", "seed"}
        assert set(read) <= family_fields

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", -1), ("d", 2.5), ("n", 16.5), ("seed", "1"),
    ])
    def test_count_that_is_not_whole_is_refused(self, field, value):
        # seed 1.5 would build seed 1's anchors under another config hash
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            ProblemSpec(**{field: value})

    def test_whole_float_counts_equal_the_ints(self):
        # stored as ints, so the config hash is the int config's
        spec = ProblemSpec(d=4.0, n=32.0, seed=np.int64(3))
        assert spec == ProblemSpec(d=4, n=32, seed=3)
        assert all(type(v) is int for v in (spec.d, spec.n, spec.seed))


class TestScheduleSpec:
    def test_constant_bs_regime_string(self):
        spec = ScheduleSpec(regime="constant-bs", kind="polynomial", lambda_max=0.1,
                            p=2.0, batch=4, T=20)
        table, regime, symbols = spec.build(problem_n=64)
        assert regime == "cor3.1-polynomial"
        assert "M" not in symbols and "T_w" not in symbols
        assert table.T == 20 and symbols["T"] == 20

    def test_increasing_bs_realized_extrema(self):
        spec = ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.1,
                            b0=8, delta=2.0, epochs_per_phase=(1, 2, 1))
        table, regime, symbols = spec.build(problem_n=32)
        assert regime == "cor3.2-constant"
        assert symbols["K_max"] == 4 and symbols["E_max"] == 2
        # phases of 1, 2 and 1 epochs of 4, 2 and 1 steps
        assert symbols["T"] == table.T == 4 + 2 * 2 + 1

    def test_joint_growth(self):
        spec = ScheduleSpec(regime="joint-growth", gamma=1.5, lambda0=0.02,
                            b0=8, delta=2.0, epochs_per_phase=(1, 1, 1))
        table, regime, symbols = spec.build(problem_n=32)
        assert regime == "cor3.3"
        assert symbols["M"] == 2
        assert table.growth_constant_c == pytest.approx(1.5, rel=1e-12)

    def test_warmup(self):
        spec = ScheduleSpec(regime="warmup", kind="constant", gamma=1.5, lambda0=0.02,
                            warmup_phases=1, b0=8, delta=2.0, epochs_per_phase=(1, 1, 1))
        table, regime, symbols = spec.build(problem_n=32)
        assert regime == "cor3.4-constant"
        # phases 0 and 1 hold one epoch of 4 and of 2 steps
        assert (symbols["M_w"], symbols["T_w"], table.T) == (1, 4 + 2, 4 + 2 + 1)

    @pytest.mark.parametrize("regime, kind", [
        ("increasing-bs", "exp_growth"), ("increasing-bs", "warmup_constant"),
        ("constant-bs", "exp_growth"), ("warmup", "diminishing"),
    ])
    def test_kind_outside_the_regime_is_refused(self, regime, kind):
        spec = ScheduleSpec(regime=regime, kind=kind, gamma=1.5, lambda0=0.02,
                            warmup_phases=1, batch=4, T=8, b0=8, delta=2.0,
                            epochs_per_phase=(1, 1, 1))
        with pytest.raises(ValueError, match=f"does not take kind '{kind}'"):
            spec.build(problem_n=32)

    @pytest.mark.parametrize("regime, field, value", [
        ("constant-bs", "batch", 4.5), ("constant-bs", "T", 3.5),
        ("constant-bs", "dataset_size", 16.5), ("increasing-bs", "b0", 2.5),
        ("increasing-bs", "epochs_per_phase", (1.5, 1)),
        ("increasing-bs", "dataset_size", 16.5), ("warmup", "warmup_phases", 0.5),
    ])
    def test_count_that_is_not_whole_is_refused(self, regime, field, value):
        # batch 4.5 would build a batch-4 table while the corollary reads 4.5
        counts = dict(batch=4, T=10, dataset_size=16, b0=2, epochs_per_phase=(1, 1),
                      warmup_phases=1)
        with pytest.raises(ValueError, match=f"{field} must be a whole number, got"):
            ScheduleSpec(regime, "constant", gamma=1.5, lambda0=0.02, delta=2.0,
                         **counts | {field: value})

    def test_count_the_regime_does_not_read_is_reset_not_refused(self):
        spec = ScheduleSpec("increasing-bs", b0=2, delta=2.0, epochs_per_phase=(1, 1), T=3.5)
        assert spec.T is None

    def test_whole_float_counts_equal_the_ints(self):
        floats = ScheduleSpec("increasing-bs", b0=2.0, delta=2.0, epochs_per_phase=[1.0, 2],
                              dataset_size=np.int64(16))
        ints = ScheduleSpec("increasing-bs", b0=2, delta=2.0, epochs_per_phase=(1, 2),
                            dataset_size=16)
        assert floats == ints
        assert all(type(v) is int for v in (floats.b0, floats.dataset_size,
                                             *floats.epochs_per_phase))


class TestExperimentConfig:
    @pytest.mark.parametrize("seed", [1.5, -1, math.nan, "1"])
    def test_theta0_seed_that_is_not_whole_is_refused(self, seed):
        # theta0_seed 1.5 would run seed 1's experiment under another hash
        with pytest.raises(ValueError, match="theta0_seed must be a whole number >= 0"):
            small_config(theta0_seed=seed)

    def test_whole_float_theta0_seed_is_the_int(self):
        config = small_config(theta0_seed=1.0)
        assert config.theta0_seed == 1 and type(config.theta0_seed) is int
        assert config.config_hash == small_config(theta0_seed=1).config_hash


class TestRunExperiment:
    def test_aggregation_and_checks(self, tmp_path):
        report = run_experiment(small_config(), out_dir=tmp_path)
        assert report.t.shape == report.mean_grad_norm_sq.shape
        assert report.empirical["min_mean_grad_norm_sq"] == report.mean_grad_norm_sq.min()
        assert report.checks["theorem1_sq"]["pass"]
        assert report.checks["theorem1_norm"]["pass"]
        assert report.theory.rhs_norm == pytest.approx(math.sqrt(report.theory.rhs_sq))
        exp_dir = tmp_path / report.config_hash
        assert (exp_dir / "aggregate.csv").exists()
        assert (exp_dir / "report.json").exists()
        assert sorted(p.name for p in exp_dir.glob("trace_*.csv")) == [
            f"trace_{s}.csv" for s in range(8)
        ]

    def test_derived_totals(self):
        cfg = small_config(schedule=ScheduleSpec(regime="increasing-bs", kind="diminishing",
                                                 lambda_max=0.1, b0=4, delta=2.0,
                                                 epochs_per_phase=(2, 2, 2)))
        report = run_experiment(cfg)
        assert report.config_hash == cfg.config_hash
        # batches 4, 8, 16 for 2 epochs of 8, 4, 2 steps each
        assert report.total_steps == report.table.T == len(report.traces[0].t) == 28
        assert report.total_samples == report.table.batch.sum() == 4 * 16 + 8 * 8 + 16 * 4

    def test_config_hash_is_computed_once(self, monkeypatch):
        cfg = small_config()
        calls = []
        to_dict = ExperimentConfig.to_dict
        monkeypatch.setattr(ExperimentConfig, "to_dict",
                            lambda self: calls.append(self) or to_dict(self))
        assert cfg.config_hash == cfg.config_hash == small_config().config_hash
        assert len(calls) == 2  # once for cfg, once for the second config

    def test_report_json_fields(self, tmp_path):
        report = run_experiment(small_config(), out_dir=tmp_path)
        doc = report.to_dict()
        assert set(doc["theory"].keys()) == {
            "B_T", "V_T", "rhs_sq", "rhs_norm", "B_bound", "V_bound",
            "regime", "admissible_lr_max", "c", "C_alg",
        }
        assert doc["totals"]["samples"] == 8 * 40
        assert doc["empirical"]["min_mean_grad_norm_sq"] >= 0
        assert list(doc["checks"]) == ["admissible", "theorem1_sq", "theorem1_norm"]

    @pytest.mark.pinned
    @pytest.mark.parametrize("overrides, expected", [
        ({}, "c5f253fb83e9bde5"),
        (EVERY_FIELD, "38be79718d498a1a"),
    ], ids=["defaults", "every-field"])
    def test_config_hash_is_pinned(self, overrides, expected):
        # the hash names the artifact directory, so it must not drift
        assert small_config(**overrides).config_hash == expected

    @pytest.mark.pinned
    @pytest.mark.parametrize("overrides, name", [({}, "defaults"), (EVERY_FIELD, "every-field")],
                             ids=["defaults", "every-field"])
    def test_artifact_bytes_are_pinned(self, tmp_path, overrides, name):
        cfg = small_config(**overrides)
        run_experiment(cfg, out_dir=tmp_path)
        written = {f.name: short_sha(f.read_bytes())
                   for f in sorted((tmp_path / cfg.config_hash).iterdir())}
        assert written == PINNED_ARTIFACTS[name]

    def test_non_finite_trace_value_is_refused(self, tmp_path):
        report = run_experiment(small_config())
        report.traces[2].lyapunov[5] = np.inf
        with pytest.raises(ValueError, match="non-finite value inf"):
            write_artifacts(report, tmp_path)

    @pytest.mark.pinned
    def test_table_and_audit_csv_bytes_are_pinned(self):
        spec = ScheduleSpec(regime="warmup", kind="cosine", gamma=1.5, lambda0=0.02,
                            warmup_phases=1, lambda_min=0.001, b0=4, delta=2.0,
                            epochs_per_phase=(1, 2, 1), dataset_size=16)
        text = schedules.table_to_csv(spec.build(problem_n=None)[0])
        assert short_sha(text.encode()) == PINNED_ARTIFACTS["table_to_csv"]
        audit = lyapunov_descent_audit(small_config(seeds=tuple(range(64))))
        assert short_sha(audit.to_csv().encode()) == PINNED_ARTIFACTS["audit.to_csv"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a_dir = tmp_path / "a" / cfg.config_hash
        b_dir = tmp_path / "b" / cfg.config_hash
        for f in sorted(a_dir.iterdir()):
            assert (b_dir / f.name).read_bytes() == f.read_bytes(), f.name

    def test_strict_blocks_inadmissible(self):
        cfg = small_config(
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=5.0, batch=8, T=10)
        )
        with pytest.raises(schedules.InadmissibleSchedule):
            run_experiment(cfg)

    def test_waived_runs_inadmissible(self):
        cfg = small_config(
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=2.0, batch=8, T=10),
            validation_mode="waived",
        )
        report = run_experiment(cfg)
        assert not report.checks["admissible"]["pass"]
        assert report.checks["admissible"]["waived"]
        # the waived check does not count towards the verdict
        bound_checks = [report.checks[name]["pass"] for name in ("theorem1_sq", "theorem1_norm")]
        assert report.passed == all(bound_checks)

    def test_momentum_too_large_propagates(self):
        cfg = small_config(
            beta=0.95,
            schedule=ScheduleSpec(regime="joint-growth", gamma=1.2, lambda0=0.001,
                                  b0=8, delta=2.0, epochs_per_phase=(1, 1)),
        )
        with pytest.raises(schedules.MomentumTooLarge):
            run_experiment(cfg)

    def test_divergence_raises_with_seed(self):
        # every seed overflows at the same step: the first in config order is named
        cfg = small_config(
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=1e200, batch=8, T=10),
            validation_mode="waived",
            seeds=(5, 3, 9),
        )
        with pytest.raises(optim.NumericalDivergence) as info:
            run_experiment(cfg)
        assert info.value.seed == 5
        assert str(info.value) == f"seed 5 diverged at step {info.value.step_index}"

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            run_experiment(small_config(budget=10.0))

    def test_non_finite_field_rejected_before_any_step(self, monkeypatch):
        # the config hash names the artifact directory and cannot hold inf; an
        # infinite budget passes every other check, so it must fail before the
        # run, not after it
        def no_run(*args, **kwargs):
            raise AssertionError("optim.run was reached")

        monkeypatch.setattr(optim, "run", no_run)
        cfg = small_config(budget=math.inf)
        with pytest.raises(ValueError, match="refusing to serialize non-finite value inf"):
            run_experiment(cfg)

    @pytest.mark.parametrize("problem, schedule", [
        (dict(scale=5.0, amp=math.nan, box_radius=1.0), {}),
        ({}, dict(gamma=1.5, lambda0=0.02, warmup_phases=3, b0=4, delta=2.0,
                  epochs_per_phase=(1, 1))),
    ], ids=["family", "regime"])
    def test_unread_fields_do_not_change_the_config_hash(self, problem, schedule):
        # the quadratic family reads no scale/amp/box_radius, and constant-bs
        # no growth or plan field: they are reset to their defaults
        base = small_config()
        cfg = small_config(
            problem=ProblemSpec(**{**asdict(base.problem), **problem}),
            schedule=ScheduleSpec(**{**asdict(base.schedule), **schedule}),
        )
        assert cfg == base and cfg.config_hash == base.config_hash

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            small_config(seeds=(1, 1, 2))

    @pytest.mark.parametrize("seeds", [(1.7, 2), (math.nan, 2), (2, -1), (2, 2**64)])
    def test_seeds_must_be_stream_keys(self, seeds):
        # 1.7 used to become seed 1, and NaN to fail in int()
        with pytest.raises(ValueError,
                           match=r"master seeds must be in \[0, 2\*\*64\) and be integers"):
            small_config(seeds=seeds)
        assert small_config(seeds=(np.uint64(3), 2.0)).seeds == (3, 2)

    @pytest.mark.parametrize("record_every", [2.5, 0])
    def test_record_every_must_be_a_positive_integer(self, record_every):
        # 2.5 used to be accepted and label step 5's observation t = 2.5
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            small_config(record_every=record_every)

    @pytest.mark.parametrize("whole", [2.0, np.float64(2.0)], ids=["float", "np.float64"])
    def test_whole_record_every_is_its_int(self, whole):
        # a whole float is the int it equals: the same config, hash and run
        cfg, ref = small_config(record_every=whole), small_config(record_every=2)
        assert type(cfg.record_every) is int and cfg.record_every == 2
        assert cfg.config_hash == ref.config_hash
        got, want = run_experiment(cfg, None), run_experiment(ref, None)
        for tr, tr_ref in zip(got.traces, want.traces):
            np.testing.assert_array_equal(tr.t, tr_ref.t)
            np.testing.assert_array_equal(tr.grad_norm_sq, tr_ref.grad_norm_sq)

    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    @pytest.mark.parametrize("regime", sorted(LOGCOSH_SCHEDULES))
    def test_logcosh_unified_bound_dominance(self, regime, alg):
        # the first bound check on a non-quadratic problem: sigma_sq is the
        # proven log-cosh certificate, and the report carries its terms
        cfg = small_config(
            problem=ProblemSpec(family="logcosh", d=4, n=32, spread=1.5, seed=4),
            alg=alg, beta=0.5, schedule=LOGCOSH_SCHEDULES[regime], seeds=tuple(range(16)),
        )
        report = run_experiment(cfg)
        assert report.checks["theorem1_sq"]["pass"]
        assert report.checks["theorem1_norm"]["pass"]
        constants = report.to_dict()["problem_constants"]
        cert = constants["sigma_certificate"]
        assert constants["sigma_sq"] == (
            cert["grid_max"] + cert["curvature_slack"] + cert["rounding_margin"])

    def test_noise_free_mean_decreases_and_bound_holds(self):
        # beta = 0 reduces to exact gradient descent (with momentum the
        # gradient norm may overshoot even without noise)
        cfg = small_config(
            problem=ProblemSpec(family="quadratic", d=4, n=32, sigma_sq=0.0, seed=3),
            beta=0.0,
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=0.15, batch=8, T=60),
        )
        report = run_experiment(cfg)
        assert np.all(np.diff(report.mean_grad_norm_sq) < 0)
        assert report.checks["theorem1_sq"]["pass"]
        assert report.checks["theorem1_sq"]["margin"] > 0


def artifact_digest(exp_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(exp_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class TestObservationLanes:
    """The log-cosh observation runs one lane per CPU; no byte may depend on it."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity (Linux)")
    def test_one_cpu_child_writes_the_bytes_of_three_lanes(self, tmp_path, monkeypatch):
        config = small_config(seeds=tuple(range(6)),
                              problem=ProblemSpec(family="logcosh", d=5, n=160, spread=1.5, seed=4))
        monkeypatch.setattr(problems, "_cpus", lambda: 3)
        report = run_experiment(config, tmp_path / "lanes")
        script = textwrap.dedent("""
            import os, pickle, sys, threading
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from sgdm_sched import harness, problems
            config, out = pickle.loads(sys.stdin.buffer.read())
            report = harness.run_experiment(config, out)
            print(problems._cpus(), threading.active_count(), report.config_hash)
        """)
        src = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                            os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              input=pickle.dumps((config, str(tmp_path / "one"))),
                              capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr.decode()
        cpus, threads, config_hash = proc.stdout.decode().split()
        assert (cpus, threads, config_hash) == ("1", "1", report.config_hash)
        assert (artifact_digest(tmp_path / "one" / config_hash)
                == artifact_digest(tmp_path / "lanes" / report.config_hash))

    def test_quadratic_run_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: 3)
        monkeypatch.setattr(problems, "_workers", [])
        before = threading.active_count()
        run_experiment(small_config())
        assert threading.active_count() == before and problems._workers == []


class TestLyapunovAudit:
    def test_small_admissible_audit_passes(self):
        cfg = small_config(seeds=tuple(range(64)))
        report = lyapunov_descent_audit(cfg)
        assert report.n_seeds == 64
        assert report.t.shape[0] == 40  # every step audited for short runs
        assert report.all_ok
        text = report.to_csv()
        assert text.splitlines()[0] == "t,mean_delta_lyapunov,descent_rhs,stderr,ok"

    def test_requires_nshb(self):
        with pytest.raises(ValueError, match="nshb"):
            lyapunov_descent_audit(small_config(alg="shb", seeds=tuple(range(64))))

    def test_requires_enough_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            lyapunov_descent_audit(small_config(seeds=(1, 2, 3)))

    def test_long_runs_subsample_to_64(self):
        cfg = small_config(
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=0.1, batch=8, T=600),
            seeds=tuple(range(64)),
        )
        report = lyapunov_descent_audit(cfg)
        assert report.t.shape[0] == 64
        assert report.t[0] == 0 and report.t[-1] == 599

    def test_noise_free_descent_is_pointwise(self):
        # with sigma^2 = 0 the expected Lyapunov difference is <= 0 at every step
        cfg = small_config(
            problem=ProblemSpec(family="quadratic", d=4, n=32, sigma_sq=0.0, seed=3),
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=0.15, batch=8, T=50),
            seeds=tuple(range(64)),
        )
        report = lyapunov_descent_audit(cfg)
        assert np.all(report.mean_delta <= 1e-15)
        assert report.all_ok


class TestRateFit:
    def test_recovers_half_power_slope(self, rng):
        T = np.array([2**k for k in range(8, 15)], dtype=float)
        y = 3.0 * T**-0.5 * np.exp(rng.normal(0, 0.02, size=T.shape))
        fit = rate_fit(T, y, mode="loglog")
        assert fit.slope == pytest.approx(-0.5, abs=0.05)
        assert fit.ci_low < -0.5 < fit.ci_high

    def test_per_phase_decay_factor(self, rng):
        M = np.arange(2, 9, dtype=float)
        factor = 1.5**-0.5
        y = 2.0 * factor**M * np.exp(rng.normal(0, 0.02, size=M.shape))
        fit = rate_fit(M, y, mode="per-phase")
        assert fit.decay_factor == pytest.approx(factor, abs=0.03)

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 budget points"):
            rate_fit([1, 2, 3], [1.0, 0.5, 0.3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rate_fit([1, 2, 3, 4], [1.0, 0.5, -0.3, 0.1])

    def test_rejects_nonpositive_x_without_warning(self):
        # checked before the log is taken: the suite turns warnings into errors
        with pytest.raises(ValueError, match="x values must be positive"):
            rate_fit([0, 1, 2, 3], [1.0, 0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="not all be equal"):
            rate_fit([0, 0, 0, 0], [1.0, 0.5, 0.3, 0.2], mode="per-phase")

    @pytest.mark.parametrize("x, y", [
        ([1, 2, 3, 4], [1.0, 0.5, math.nan, 0.2]),
        ([1, 2, 3, 4], [1.0, 0.5, math.inf, 0.2]),
        ([1, 2, math.inf, 4], [1.0, 0.5, 0.3, 0.2]),
    ], ids=["nan-y", "inf-y", "inf-x"])
    def test_rejects_non_finite(self, x, y):
        # json reads NaN and Infinity, and nan passes a y <= 0 check
        with pytest.raises(ValueError, match="must be finite"):
            rate_fit(x, y, mode="per-phase")

    def test_interval_uses_student_t(self, rng):
        stats = pytest.importorskip("scipy.stats")
        for n in range(4, 80):
            x = np.arange(1.0, n + 1)
            fit = rate_fit(x, np.exp(-0.3 * x + rng.normal(0, 0.1, size=n)), mode="per-phase")
            t = (fit.ci_high - fit.ci_low) / (2 * fit.stderr)
            assert t == pytest.approx(stats.t.ppf(0.975, n - 2), abs=5e-4), n
