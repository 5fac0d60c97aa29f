"""Head-to-head of the three scheduling regimes at a matched sample budget.

Every configuration consumes exactly the same number of single-sample gradient
evaluations; what differs is how they are spent.  A fixed batch size leaves a
noise floor, growing the batch removes it, and growing the learning rate along
with the batch pushes the floor down faster per update.
Run:  python3 demos/04_regime_comparison.py
"""

from sgdm_sched import ExperimentConfig, ProblemSpec, ScheduleSpec, run_experiment

PROBLEM = ProblemSpec(family="quadratic", d=20, n=256, sigma_sq=1.0, seed=7)
PLAN = dict(b0=8, delta=2.0, epochs_per_phase=(8,) * 6)  # batches 8..256

REGIMES = [
    ("fixed batch + constant lr",
     ScheduleSpec(regime="constant-bs", kind="constant", lambda_max=0.5, batch=16, T=768)),
    ("growing batch + constant lr",
     ScheduleSpec(regime="increasing-bs", kind="constant", lambda_max=0.5, **PLAN)),
    ("growing batch + growing lr",
     ScheduleSpec(regime="joint-growth", gamma=1.5, lambda0=0.3 / 1.5**5, **PLAN)),
]

print(f"{'regime':32s} {'samples':>8s} {'steps':>6s} {'final ||grad||':>14s} {'per-seed se':>12s}")
rows = []
for name, schedule in REGIMES:
    cfg = ExperimentConfig(problem=PROBLEM, alg="nshb", beta=0.5, schedule=schedule,
                           seeds=tuple(range(64)), theta0_seed=11)
    rep = run_experiment(cfg)
    rows.append((name, rep))
    emp = rep.empirical
    print(f"{name:32s} {rep.total_samples:8d} {rep.total_steps:6d} "
          f"{emp['final_mean_grad_norm']:14.5f} {emp['final_stderr_grad_norm']:12.5f}")

print("\nordering of mean final gradient norms:")
for (name_a, a), (name_b, b) in zip(rows, rows[1:]):
    a, b = a.empirical, b.empirical
    gap = a["final_mean_grad_norm"] - b["final_mean_grad_norm"]
    ses = a["final_stderr_grad_norm"] + b["final_stderr_grad_norm"]
    sign = ">" if gap > ses else "~"
    print(f"  [{name_a}] {sign} [{name_b}]  (gap {gap:.5f}, combined se {ses:.5f})")
