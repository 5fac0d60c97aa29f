"""Empirical check of the convergence bound on a problem with exact constants.

The mean-anchored quadratic exposes L, sigma^2, f* in closed form, so the
bound  min_t E||grad f||^2 <= 2 C_alg (f(theta_0) - f*) B_T + sigma^2 V_T
is fully computable.  64 seeded runs estimate the left side; the report
compares both squared and norm forms and prints the per-step picture.
Run:  python3 demos/03_bound_verification.py
"""

from sgdm_sched import ExperimentConfig, ProblemSpec, ScheduleSpec, run_experiment

cfg = ExperimentConfig(
    problem=ProblemSpec(family="quadratic", d=20, n=256, sigma_sq=1.0, seed=7),
    alg="nshb",
    beta=0.9,
    schedule=ScheduleSpec(regime="increasing-bs", kind="cosine", lambda_max=0.15,
                          b0=8, delta=2.0, epochs_per_phase=(2,) * 6),
    seeds=tuple(range(64)),
    theta0_seed=11,
)
report = run_experiment(cfg)

th, emp = report.theory, report.empirical
print(f"schedule: {cfg.schedule.regime}/{cfg.schedule.kind}, T={report.total_steps}, "
      f"{report.total_samples} gradient evaluations, 64 seeds")
print(f"exact bias term      B_T = {th.B_T:.6g}   (closed-form bound {th.B_bound:.6g})")
print(f"exact variance term  V_T = {th.V_T:.6g}   (closed-form bound {th.V_bound:.6g})")
print(f"bound on min_t E||grad||^2: {th.rhs_sq:.6g}  (norm form {th.rhs_norm:.6g})")
print(f"empirical min_t mean||grad||^2 = {emp['min_mean_grad_norm_sq']:.6g} "
      f"(+3se = {emp['min_mean_grad_norm_sq'] + 3 * emp['stderr_at_min']:.6g}) "
      f"at t={emp['t_at_min']}")
for name, check in report.checks.items():
    print(f"  {name}: {'PASS' if check['pass'] else 'FAIL'}")

print("\nmean squared gradient norm along the run (every 12th step):")
for k in range(0, report.t.shape[0], 12):
    t = int(report.t[k])
    bar = "#" * max(1, int(50 * report.mean_grad_norm_sq[k] / report.mean_grad_norm_sq[0]))
    print(f"  t={t:4d}  {report.mean_grad_norm_sq[k]:10.3e}  {bar}")
