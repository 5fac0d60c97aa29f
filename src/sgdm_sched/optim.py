"""Mini-batch SHB and NSHB state machines driven by a schedule table.

Both algorithms keep a momentum buffer m (zero before the first step) and
update theta_{t+1} = theta_t - lr_t * m_t, where

    nshb:  m_t = beta * m_{t-1} + (1 - beta) * g_t
    shb:   m_t = beta * m_{t-1} + g_t

with g_t the mini-batch gradient.  shb run with lr (1-beta)*eta reproduces
nshb run with lr eta.  Mini-batches are sampled i.i.d. with replacement from
one fresh generator per (master seed, run index, step), so runs are
deterministic and streams can be shared across algorithms exactly.

``run`` is a lockstep engine: the R master seeds of an experiment advance
together as the rows of (R, d) parameter and momentum arrays, so each step
makes one mini-batch gradient call, one ``step`` call and, on recorded steps,
one observation for all seeds.  A single seed is the R = 1 case.  Every row
is computed as it would be alone, so a seed's trace does not depend on the
seeds that run beside it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import problems, schedules, theory

__all__ = [
    "ALGS",
    "NumericalDivergence",
    "OptimizerState",
    "RunTrace",
    "step",
    "batch_indices",
    "run",
]

ALGS = ("nshb", "shb")


class NumericalDivergence(RuntimeError):
    """A gradient or parameter coordinate became non-finite.

    Carries the offending step index, the lowest non-finite seed row and,
    when raised out of ``run``, that seed's trace truncated at the step.
    """

    def __init__(self, step_index: int, trace: "RunTrace | None" = None, row: int = 0):
        super().__init__(f"non-finite value encountered at step {step_index}")
        self.step_index = step_index
        self.trace = trace
        self.row = row


def _check_alg(alg: str) -> str:
    alg = str(alg).lower()
    if alg not in ALGS:
        raise ValueError(f"unknown algorithm {alg!r}; expected one of {ALGS}")
    return alg


@dataclass
class OptimizerState:
    theta: np.ndarray
    momentum: np.ndarray
    t: int
    beta: float
    alg: str

    @classmethod
    def initial(cls, theta0: np.ndarray, beta: float, alg: str) -> "OptimizerState":
        alg = _check_alg(alg)
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        theta0 = np.array(theta0, dtype=np.float64, copy=True)
        if theta0.ndim not in (1, 2):
            raise ValueError("theta0 must be a 1-D vector or an (R, d) array of seed rows")
        return cls(theta=theta0, momentum=np.zeros_like(theta0), t=0, beta=beta, alg=alg)


def step(state: OptimizerState, grad: np.ndarray, lr: float) -> OptimizerState:
    """One update: fold grad into the momentum buffer, move theta, bump t.

    The state holds one iterate theta[d] or seed rows theta[R, d].  A
    non-finite gradient or new iterate raises NumericalDivergence naming the
    lowest row that is non-finite at this step.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.theta.shape:
        raise ValueError(
            f"gradient dimension {grad.shape} does not match parameters {state.theta.shape}"
        )
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    # divergence is detected explicitly below; let inf/nan flow, not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if state.alg == "nshb":
            m = state.beta * state.momentum + (1.0 - state.beta) * grad
        else:
            m = state.beta * state.momentum + grad
        theta = state.theta - lr * m
    finite = np.isfinite(grad) & np.isfinite(theta)
    if not finite.all():
        rows_ok = finite.reshape(-1, finite.shape[-1]).all(axis=1)
        raise NumericalDivergence(state.t, row=int(np.argmin(rows_ok)))
    return OptimizerState(theta=theta, momentum=m, t=state.t + 1, beta=state.beta, alg=state.alg)


def batch_indices(master_seed: int, run_index: int, t: int, b: int, n: int) -> np.ndarray:
    """I.i.d.-with-replacement index sample of size b for step t.

    A counter-based stream: a fresh generator keyed by
    (master_seed, run_index, t) per step.
    """
    rng = np.random.default_rng((int(master_seed), int(run_index), int(t)))
    return rng.integers(0, n, size=int(b))


@dataclass
class RunTrace:
    """Per-recorded-step metrics of one run plus the post-run summary.

    Row k holds step t[k] quantities evaluated BEFORE the step-t[k] update:
    the exact objective, exact squared full-gradient norm, and Lyapunov value
    (using the step-(t-1) coefficient and momentum buffer).  The final_*
    fields hold the same quantities at the post-run iterate theta_T.
    """

    t: np.ndarray
    lr: np.ndarray
    batch: np.ndarray
    f: np.ndarray
    grad_norm_sq: np.ndarray
    lyapunov: np.ndarray
    final_f: float
    final_grad_norm_sq: float
    final_lyapunov: float
    seed: int
    run_index: int
    alg: str
    beta: float
    diverged: bool = False
    diverged_at: int | None = None
    validation_waived: bool = False
    theta: np.ndarray | None = None
    theta_final: np.ndarray | None = None

    @property
    def min_grad_norm_sq(self) -> float:
        return float(np.min(self.grad_norm_sq))

    @property
    def rows(self) -> int:
        return int(self.t.shape[0])




def run(
    alg: str,
    beta: float,
    table: schedules.ScheduleTable,
    problem,
    seed: int | Sequence[int],
    *,
    run_index: int = 0,
    theta0: np.ndarray | None = None,
    theta0_seed: int = 0,
    record_every: int = 1,
    waive_admissibility: bool = False,
    record_theta: bool = False,
) -> RunTrace | list[RunTrace]:
    """Execute all T schedule steps, recording exact diagnostics.

    ``seed`` is one master seed, giving one RunTrace, or a sequence of R
    master seeds, giving a list of R traces.  All seeds start from the same
    theta0 and advance in lockstep; row r samples its mini-batches from
    (seed[r], run_index + r, t).

    Unless waived, the schedule must pass the admissibility check for
    (beta, problem.L, alg).  theta0 defaults to a deterministic seeded
    standard-normal draw.  Every iterate is passed to problem.check_iterate
    before its step; an IterateOutsideCertifiedBox names the lowest offending
    seed and the step.  Divergence aborts the run at the first step where any
    row goes non-finite: the raised NumericalDivergence names that step and
    the lowest non-finite row, and carries that seed's truncated trace with
    the step recorded.
    """
    alg = _check_alg(alg)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    single = np.ndim(seed) == 0
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one master seed")
    if not waive_admissibility:
        report = schedules.validate_admissible(table, beta, problem.L, alg)
        if not report.admissible:
            raise schedules.InadmissibleSchedule(
                f"max lr {report.lr_max:.6g} is not below the admissible bound "
                f"{report.lr_bound:.6g} for {alg} (beta={beta}, L={problem.L:.6g}, "
                f"c={report.c:.6g}); waive explicitly to run anyway"
            )
    if theta0 is None:
        theta0 = np.random.default_rng((int(theta0_seed),)).standard_normal(problem.d)
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 1:
        raise ValueError("theta0 must be a 1-D vector")
    R = len(seeds)
    run_indices = [int(run_index) + r for r in range(R)]
    state = OptimizerState.initial(np.tile(theta0, (R, 1)), beta, alg)
    one_minus_beta = 1.0 - beta
    # Lyapunov bookkeeping always uses the nshb parameterization: eta = lr
    # for nshb, eta = lr/(1-beta) and momentum scaled by (1-beta) for shb.
    eta = table.lr if alg == "nshb" else table.lr / one_minus_beta
    A = theory.lyapunov_coefficient_array(eta, problem.L, beta)

    def observe(st: OptimizerState):
        """(f, ||grad f||^2, Lyapunov value) per seed row at st.theta."""
        A_prev = float(A[st.t - 1]) if st.t > 0 else 0.0
        # a huge but finite iterate may overflow here; divergence is
        # detected by ``step``, so record inf rather than warn
        with np.errstate(over="ignore", invalid="ignore"):
            f = problem.loss(st.theta)
            g = problem.full_gradient(st.theta)
            m_eq = st.momentum if alg == "nshb" else one_minus_beta * st.momentum
            m_sq = np.einsum("ij,ij->i", m_eq, m_eq)
            return f, np.einsum("ij,ij->i", g, g), theory.lyapunov_value(f, m_sq, A_prev, st.t)

    rec_t = np.arange(0, table.T, record_every)
    rec_f = np.empty((R, rec_t.size))
    rec_gns = np.empty((R, rec_t.size))
    rec_lyap = np.empty((R, rec_t.size))
    rec_theta = np.empty((R, rec_t.size, problem.d)) if record_theta else None
    k = 0
    diverged_at: int | None = None
    diverged_row = -1
    for t in range(table.T):
        if t % record_every == 0:
            rec_f[:, k], rec_gns[:, k], rec_lyap[:, k] = observe(state)
            if record_theta:
                rec_theta[:, k] = state.theta
            k += 1
        try:
            problem.check_iterate(state.theta)
        except problems.IterateOutsideCertifiedBox as exc:
            raise problems.IterateOutsideCertifiedBox(
                f"seed {seeds[exc.row]} at step {t}: {exc}", row=exc.row
            ) from None
        b = int(table.batch[t])
        idx = np.stack([batch_indices(s, i, t, b, problem.n) for s, i in zip(seeds, run_indices)])
        grad = problem.minibatch_gradient(state.theta, idx)
        try:
            state = step(state, grad, float(table.lr[t]))
        except NumericalDivergence as exc:
            diverged_at, diverged_row = t, exc.row
            break

    final_f, final_gns, final_lyap = observe(state)
    rec = rec_t[:k]
    lr = np.asarray(table.lr[rec], dtype=np.float64)
    batch = np.asarray(table.batch[rec], dtype=np.int64)
    traces = [
        RunTrace(
            t=rec,
            lr=lr,
            batch=batch,
            f=rec_f[r, :k],
            grad_norm_sq=rec_gns[r, :k],
            lyapunov=rec_lyap[r, :k],
            final_f=float(final_f[r]),
            final_grad_norm_sq=float(final_gns[r]),
            final_lyapunov=float(final_lyap[r]),
            seed=seeds[r],
            run_index=run_indices[r],
            alg=alg,
            beta=float(beta),
            diverged=r == diverged_row,
            diverged_at=diverged_at if r == diverged_row else None,
            validation_waived=bool(waive_admissibility),
            theta=rec_theta[r, :k] if record_theta else None,
            theta_final=state.theta[r].copy() if record_theta else None,
        )
        for r in range(R)
    ]
    if diverged_at is not None:
        raise NumericalDivergence(diverged_at, traces[diverged_row], row=diverged_row)
    return traces[0] if single else traces
