"""The two momentum parameterizations are the same algorithm in disguise.

Runs nshb (normalized buffer) and shb (raw buffer) with learning rates related
by alpha = (1 - beta) * eta on a shared sampling stream, and shows that the
trajectories agree to floating-point accuracy.  Also demonstrates the
two-term position recursion that eliminates the buffer entirely.
Run:  python3 demos/02_optimizer_equivalence.py
"""

import numpy as np

from sgdm_sched import QuadraticMeanProblem, ScheduleSpec, ScheduleTable, run
from sgdm_sched.optim import batch_indices

beta = 0.9
problem = QuadraticMeanProblem.generate(d=6, n=64, sigma_sq=1.0, seed=1)
eta = ScheduleSpec("constant-bs", "diminishing", lambda_max=0.15, batch=8, T=120).build(problem.n)[0]
alpha = ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch)

a = run("nshb", beta, eta, problem, seed=7, theta0_seed=2, record_theta=True)
b = run("shb", beta, alpha, problem, seed=7, theta0_seed=2, record_theta=True)

dev = np.max(np.abs(a.theta - b.theta) / np.maximum(1.0, np.abs(a.theta)))
print(f"nshb(eta) vs shb((1-beta)eta), shared stream, {eta.T} steps:")
print(f"  worst relative trajectory deviation: {dev:.3g}")
print(f"  final objective: nshb {a.final_f:.12f} | shb {b.final_f:.12f}")

# buffer-free rewrite: theta' = theta - eta(1-beta) g + beta (eta_t/eta_{t-1}) (theta - theta_prev)
theta = a.theta[0].copy()
theta_prev = theta.copy()
eta_prev = None
for t in range(eta.T):
    g = problem.minibatch_gradient(theta, batch_indices(7, 0, t, int(eta.batch[t]), problem.n))
    lam = float(eta.lr[t])
    pull = 0.0 if eta_prev is None else beta * (lam / eta_prev) * (theta - theta_prev)
    theta, theta_prev, eta_prev = theta - lam * (1 - beta) * g + pull, theta, lam
rewrite_dev = np.max(np.abs(theta - a.theta_final))
print(f"  buffer-free rewrite, final-iterate deviation: {rewrite_dev:.3g}")

print("\nwith beta = 0 both reduce to plain mini-batch SGD:")
sgd_a = run("nshb", 0.0, eta, problem, seed=7, theta0_seed=2, record_theta=True)
sgd_b = run("shb", 0.0, eta, problem, seed=7, theta0_seed=2, record_theta=True)
print(f"  trajectories bit-identical: {np.array_equal(sgd_a.theta, sgd_b.theta)}")
