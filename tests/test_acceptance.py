"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here.  Stochastic checks follow the 3-standard-error
rule with fixed seeds throughout, so each criterion is a deterministic,
reproducible computation.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from sgdm_sched import schedules, theory
from sgdm_sched.harness import (
    ExperimentConfig,
    ProblemSpec,
    ScheduleSpec,
    lyapunov_descent_audit,
    rate_fit,
    run_experiment,
)
from sgdm_sched.optim import run
from sgdm_sched.problems import QuadraticMeanProblem, LogCoshProblem, empirical_minibatch_variance
from conftest import constant_bs_table, random_decaying_lr, random_plan

BENCH = ProblemSpec(family="quadratic", d=20, n=256, sigma_sq=1.0, seed=7)
REL_SLACK = 1 + 1e-12  # roundoff slack where a bound holds with equality


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


def exact_terms(table):
    lam = [float(x) for x in table.lr]
    s = math.fsum(lam)
    return 1.0 / s, math.fsum(l / float(b) for l, b in zip(lam, table.batch)) / s


def test_criterion_01_cosine_sum_identity():
    """sum_{t<KE} cos(floor(t/K) pi/E) = K within 1e-9, via the cosine table."""
    worst = 0.0
    for K in range(1, 21):
        for E in range(1, 21):
            table = constant_bs_table("cosine", batch=1, T=K * E, dataset_size=K, lambda_max=2.0)
            # lr_t = (1 + cos(...)); sum(lr) - KE isolates the cosine sum
            cos_sum = math.fsum(float(x) for x in table.lr) - K * E
            worst = max(worst, abs(cos_sum - K))
    ok = verdict(1, "cosine-sum identity", worst <= 1e-9, f"worst |error| = {worst:.3g}")
    assert ok


def test_criterion_02_bound_dominance():
    """200 random configurations per regime: exact B_T/V_T never exceed the
    bounds evaluated at the symbols ScheduleSpec.build passes to them."""
    rng = np.random.default_rng(20250811)
    violations = []

    def check(spec):
        table, regime, symbols = spec.build(problem_n=None)
        B_exact, V_exact = exact_terms(table)
        B, V = theory.corollary_bounds(regime, **symbols)
        if not (B_exact <= B * REL_SLACK and V_exact <= V * REL_SLACK):
            violations.append((regime, B_exact, B, V_exact, V))

    for _ in range(200):  # fixed batch, decaying rate (cor3.1-* regimes)
        lr = random_decaying_lr(rng)
        b = int(rng.integers(1, 65))
        if lr["kind"] == "cosine":
            K, E = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            check(ScheduleSpec("constant-bs", batch=b, T=K * E, dataset_size=K * b, **lr))
        else:
            check(ScheduleSpec("constant-bs", batch=b, T=int(rng.integers(1, 400)), **lr))

    for _ in range(200):  # growing batch, decaying rate (cor3.2-* regimes)
        plan = random_plan(rng)
        check(ScheduleSpec("increasing-bs", **random_decaying_lr(rng), **plan))

    for _ in range(200):  # joint exponential growth (cor3.3 regime)
        plan = random_plan(rng)
        gamma = float(rng.uniform(1.01, plan["delta"] - 1e-6))
        check(ScheduleSpec("joint-growth", gamma=gamma,
                           lambda0=float(rng.uniform(0.001, 0.5)), **plan))

    for _ in range(200):  # warm-up (cor3.4-* regimes)
        plan = random_plan(rng)  # M >= 1
        gamma = float(rng.uniform(1.01, plan["delta"] - 1e-6))
        Mw = int(rng.integers(0, len(plan["epochs_per_phase"]) - 1))
        kind = str(rng.choice(["constant", "cosine"]))
        check(ScheduleSpec("warmup", kind, gamma=gamma, lambda0=float(rng.uniform(0.001, 0.5)),
                           warmup_phases=Mw, lambda_min=0.0, **plan))

    ok = verdict(2, "bound dominance", not violations,
                 f"800 configurations, {len(violations)} violations")
    assert ok, violations[:5]


def test_criterion_03_nshb_shb_equivalence():
    """50 random tuples: shb with lr (1-beta)*eta reproduces nshb within 1e-10."""
    rng = np.random.default_rng(31337)
    worst = 0.0
    for trial in range(50):
        beta = float(rng.uniform(0.0, 0.93))
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 33))
        if trial % 5 == 0:
            problem = LogCoshProblem.generate(d, n, spread=1.0, scale=0.8, seed=trial,
                                              box_radius=12.0)
        else:
            problem = QuadraticMeanProblem.generate(
                d, n, spread=float(rng.uniform(0.2, 2.0)), seed=trial)
        kind = str(rng.choice(["constant", "diminishing", "cosine", "polynomial",
                               "exp_growth", "warmup_constant"]))
        if kind in ("exp_growth", "warmup_constant"):
            regime = "joint-growth" if kind == "exp_growth" else "warmup"
            spec = ScheduleSpec(regime, gamma=1.4, lambda0=float(rng.uniform(0.01, 0.1)),
                                warmup_phases=1, b0=2, delta=2.0, epochs_per_phase=(2, 2, 2),
                                dataset_size=max(8, n))
            eta = spec.build(problem_n=None)[0]
        else:
            lmax = float(rng.uniform(0.01, 0.3))
            if kind == "cosine":
                K, E = int(rng.integers(1, 6)), int(rng.integers(1, 6))
                eta = constant_bs_table(kind, batch=2, T=K * E, dataset_size=2 * K,
                                        lambda_max=lmax)
            else:
                eta = constant_bs_table(kind, batch=2, T=int(rng.integers(5, 60)),
                                        lambda_max=lmax, p=2.0)
        alpha = schedules.ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch)
        seed = int(rng.integers(10_000))
        a = run("nshb", beta, eta, problem, seed, theta0_seed=trial, record_theta=True)
        b = run("shb", beta, alpha, problem, seed, theta0_seed=trial, record_theta=True)
        scale = np.maximum(1.0, np.abs(a.theta))
        worst = max(worst, float(np.max(np.abs(a.theta - b.theta) / scale)))
    ok = verdict(3, "nshb/shb equivalence", worst < 1e-10,
                 f"50 tuples, worst relative deviation = {worst:.3g}")
    assert ok


# --- criterion 4: the eight benchmark cells -------------------------------

PLAN_EPOCHS = (2, 2, 2, 2, 2, 2)  # batches 8..256 on n=256, T = 126

CELLS = [
    ("constant-bs", "nshb", 0.9,
     ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.15, batch=16, T=240)),
    ("constant-bs", "shb", 0.9,
     ScheduleSpec(regime="constant-bs", kind="cosine", lambda_max=0.01, batch=16, T=240)),
    ("increasing-bs", "nshb", 0.9,
     ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.15,
                  b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
    ("increasing-bs", "shb", 0.9,
     ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.01,
                  b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
    ("joint-growth", "nshb", 0.9,
     ScheduleSpec(regime="joint-growth", gamma=1.2, lambda0=0.08,
                  b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
    ("joint-growth", "shb", 0.9,
     ScheduleSpec(regime="joint-growth", gamma=1.2, lambda0=0.005,
                  b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
    ("warmup", "nshb", 0.9,
     ScheduleSpec(regime="warmup", kind="constant", gamma=1.2, lambda0=0.1,
                  warmup_phases=2, b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
    ("warmup", "shb", 0.9,
     ScheduleSpec(regime="warmup", kind="constant", gamma=1.2, lambda0=0.008,
                  warmup_phases=2, b0=8, delta=2.0, epochs_per_phase=PLAN_EPOCHS)),
]


def test_criterion_04_theorem_dominance_benchmark():
    """Four regimes x both algorithms on the d=20/n=256/sigma^2=1 quadratic:
    min_t mean-over-64-seeds + 3 stderr stays below the closed-form bound."""
    failed = []
    for regime, alg, beta, schedule in CELLS:
        cfg = ExperimentConfig(problem=BENCH, alg=alg, beta=beta, schedule=schedule,
                               seeds=tuple(range(64)), theta0_seed=11, budget=1e12)
        rep = run_experiment(cfg)
        sq, norm = rep.checks["theorem1_sq"], rep.checks["theorem1_norm"]
        # Jensen consistency of the reported norm-form bound
        assert rep.theory.rhs_norm == pytest.approx(math.sqrt(rep.theory.rhs_sq), rel=1e-15)
        if not (sq["pass"] and norm["pass"]):
            failed.append((regime, alg))
    ok = verdict(4, "unified-bound dominance", not failed,
                 f"8 cells on the quadratic benchmark, failed: {failed or 'none'}")
    assert ok


def test_criterion_05_variance_floor():
    """Constant batch b=16: plateau at or below sigma^2/16 with near-zero slope."""
    pts = []
    plateau_ok = True
    for T in (1024, 2048, 4096, 8192):
        cfg = ExperimentConfig(
            problem=BENCH, alg="nshb", beta=0.9,
            schedule=ScheduleSpec(regime="constant-bs", kind="constant",
                                  lambda_max=0.15, batch=16, T=T),
            seeds=tuple(range(24)), theta0_seed=11, budget=1e12)
        rep = run_experiment(cfg)
        plateau_ok &= rep.empirical["min_mean_grad_norm_sq"] <= 1.0 / 16.0
        pts.append((T, rep.empirical["min_mean_grad_norm"]))
    fit = rate_fit([p[0] for p in pts], [p[1] for p in pts], mode="loglog")
    ok = verdict(5, "variance floor", plateau_ok and abs(fit.slope) < 0.1,
                 f"plateau <= 1/16: {plateau_ok}, |slope| = {abs(fit.slope):.3f}")
    assert ok


def test_criterion_06_sqrt_T_rate():
    """Doubling batch + constant LR: log-log slope of min-mean norm is -0.5 +- 0.15."""
    pts = []
    for M in range(4, 11):  # T approx 2^8 .. 2^14
        cfg = ExperimentConfig(
            problem=ProblemSpec(family="quadratic", d=10, n=8 * 2**M, sigma_sq=1.0, seed=42),
            alg="nshb", beta=0.3,
            schedule=ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.2,
                                  b0=8, delta=2.0, epochs_per_phase=(8,) * (M + 1)),
            seeds=tuple(range(16)), theta0_seed=5, budget=1e12)
        rep = run_experiment(cfg)
        pts.append((rep.total_steps, rep.empirical["min_mean_grad_norm"]))
    fit = rate_fit([p[0] for p in pts], [p[1] for p in pts], mode="loglog")
    ok = verdict(6, "1/sqrt(T) rate", abs(fit.slope + 0.5) <= 0.15,
                 f"slope = {fit.slope:.3f} over T in [{pts[0][0]}, {pts[-1][0]}]")
    assert ok


def test_criterion_07_exponential_rate():
    """Joint growth delta=2, gamma=1.5: per-phase decay factor near gamma^(-1/2)."""
    target = 1.5**-0.5
    pts = []
    for M in range(2, 9):
        cfg = ExperimentConfig(
            problem=ProblemSpec(family="quadratic", d=10, n=8 * 2**M, sigma_sq=1.0, seed=42),
            alg="nshb", beta=0.3,
            schedule=ScheduleSpec(regime="joint-growth", gamma=1.5, lambda0=0.02,
                                  b0=8, delta=2.0, epochs_per_phase=(32,) * (M + 1)),
            seeds=tuple(range(16)), theta0_seed=5, budget=1e12)
        rep = run_experiment(cfg)
        pts.append((M, rep.empirical["min_mean_grad_norm"]))
    fit = rate_fit([p[0] for p in pts], [p[1] for p in pts], mode="per-phase")
    ok = verdict(7, "exponential rate",
                 abs(fit.decay_factor - target) <= 0.1,
                 f"decay/phase = {fit.decay_factor:.4f}, target {target:.4f}")
    assert ok


def test_criterion_08_lyapunov_descent_audit():
    """Admissible nshb run, 64 seeds: every audited step satisfies the one-step
    descent inequality within 3 standard errors."""
    cfg = ExperimentConfig(
        problem=BENCH, alg="nshb", beta=0.9,
        schedule=ScheduleSpec(regime="constant-bs", kind="cosine",
                              lambda_max=0.15, batch=16, T=240),
        seeds=tuple(range(64)), theta0_seed=11, budget=1e12)
    rep = lyapunov_descent_audit(cfg)
    n_bad = int(np.sum(~rep.ok))
    ok = verdict(8, "lyapunov descent audit", rep.all_ok,
                 f"{rep.t.shape[0] - n_bad}/{rep.t.shape[0]} audited steps pass")
    assert ok


def test_criterion_09_minibatch_variance_scaling():
    """Mini-batch variance matches sigma^2/b at b in {1,2,4,8,16}, 1e5 trials."""
    prob = QuadraticMeanProblem.generate(20, 256, sigma_sq=1.0, seed=7)
    theta = np.random.default_rng((11,)).standard_normal(20)
    worst_z = 0.0
    for b in (1, 2, 4, 8, 16):
        est = empirical_minibatch_variance(prob, theta, b=b, trials=100_000, seed=100 + b)
        z = abs(est.value - prob.sigma_sq / b) / est.stderr
        worst_z = max(worst_z, z)
    ok = verdict(9, "variance scaling", worst_z <= 3.0, f"worst |z| = {worst_z:.2f}")
    assert ok


def test_criterion_10_schedule_hierarchy_ordering():
    """At matched sample budget (12288 gradient evaluations), final gradient
    norms order: constant-bs >= increasing-bs >= joint-growth, gaps > SE sums."""
    plan = (8,) * 6
    results = {}
    for name, schedule in (
        ("i", ScheduleSpec(regime="constant-bs", kind="constant", lambda_max=0.5,
                           batch=16, T=768)),
        ("ii", ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.5,
                            b0=8, delta=2.0, epochs_per_phase=plan)),
        ("iii", ScheduleSpec(regime="joint-growth", gamma=1.5, lambda0=0.3 / 1.5**5,
                             b0=8, delta=2.0, epochs_per_phase=plan)),
    ):
        cfg = ExperimentConfig(problem=BENCH, alg="nshb", beta=0.5, schedule=schedule,
                               seeds=tuple(range(64)), theta0_seed=11, budget=1e12)
        rep = run_experiment(cfg)
        results[name] = (rep.empirical["final_mean_grad_norm"],
                         rep.empirical["final_stderr_grad_norm"], rep.total_samples)
    budgets = {r[2] for r in results.values()}
    gap_a = results["i"][0] - results["ii"][0]
    gap_b = results["ii"][0] - results["iii"][0]
    se_a = results["i"][1] + results["ii"][1]
    se_b = results["ii"][1] + results["iii"][1]
    ok = verdict(
        10, "schedule hierarchy",
        len(budgets) == 1 and gap_a > se_a and gap_b > se_b,
        f"final norms {results['i'][0]:.4f} > {results['ii'][0]:.4f} > "
        f"{results['iii'][0]:.4f} at {budgets} samples",
    )
    assert ok


DETERMINISM_CONFIG = """\
[problem]
family = quadratic
d = 20
n = 256
sigma_sq = 1.0
seed = 7

[optimizer]
alg = nshb
beta = 0.9
theta0_seed = 11

[schedule]
regime = constant-bs
kind = cosine
lambda_max = 0.15
batch = 16
T = 160

[harness]
seeds = 8
"""


def test_criterion_11_determinism(tmp_path):
    """Repeated CLI runs of one config produce byte-identical artifacts."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    outs = []
    for sub in ("a", "b"):
        res = subprocess.run(
            [sys.executable, "-m", "sgdm_sched", "run", str(cfg),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        (exp_dir,) = (tmp_path / sub).iterdir()
        outs.append({p.name: p.read_bytes() for p in sorted(exp_dir.iterdir())})
    same = outs[0].keys() == outs[1].keys() and all(
        outs[0][k] == outs[1][k] for k in outs[0]
    )
    ok = verdict(11, "determinism", same,
                 f"{len(outs[0])} artifacts byte-identical across reruns")
    assert ok
