"""Mini-batch SHB and NSHB state machines driven by a schedule table.

Both algorithms keep a momentum buffer m (zero before the first step) and
update theta_{t+1} = theta_t - lr_t * m_t, where

    nshb:  m_t = beta * m_{t-1} + (1 - beta) * g_t
    shb:   m_t = beta * m_{t-1} + g_t

with g_t the mini-batch gradient.  shb run with lr (1-beta)*eta reproduces
nshb run with lr eta.  Mini-batches are sampled i.i.d. with replacement from a
counter-based stream (Salmon et al., SC'11): index j of the step-t batch of
(master seed s, run index i) is a pure hash of (s, i, t, j),

    key  = mix(mix(s + G) + i*G)
    x[j] = mix(mix(key + t*G) + (j+1)*G)
    idx[j] = Lemire's bounded map of x[j] onto [0, n)

with mix the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA'14),
G = 0x9E3779B97F4A7C15 and all arithmetic mod 2^64.  The bounded map rejects
the 2^64 mod n surplus words, so each index is exactly uniform on [0, n) when
the hash words are (``batch_indices`` gives the argument).  Runs are deterministic,
streams can be shared across algorithms exactly, and the (R, b) indices of
all seeds at one step come from one vectorized call.

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
    "NumericalDivergence",
    "OptimizerState",
    "RunTrace",
    "step",
    "STREAM_LIMIT",
    "batch_indices",
    "run",
]


class NumericalDivergence(RuntimeError):
    """A gradient, parameter coordinate or observed value became non-finite.

    Carries the offending step index, the lowest non-finite seed row and,
    when raised out of ``run``, that row's master seed and its trace
    truncated at the step; the message then names the seed.
    """

    def __init__(self, step_index: int, trace: "RunTrace | None" = None, row: int = 0):
        self.seed = None if trace is None else trace.seed
        what = "non-finite value encountered" if trace is None else f"seed {self.seed} diverged"
        super().__init__(f"{what} at step {step_index}")
        self.step_index = step_index
        self.trace = trace
        self.row = row


@dataclass
class OptimizerState:
    theta: np.ndarray
    momentum: np.ndarray
    t: int
    beta: float
    alg: str

    @classmethod
    def initial(cls, theta0: np.ndarray, beta: float, alg: str) -> "OptimizerState":
        alg = schedules.check_alg(alg)
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


# SplitMix64 constants (Steele, Lea & Flood 2014).  Every uint64 operation
# below runs on arrays: numpy integer arrays wrap mod 2^64 silently, while
# numpy uint64 scalars warn on overflow.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
# shift counts as uint64 scalars: python-int operands cost a conversion per call
_SHIFT = {k: np.uint64(k) for k in (27, 30, 31, 32)}
STREAM_LIMIT = 2**64  # master seeds and run indices are stream words in [0, 2^64)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection of uint64 words; overwrites and returns x."""
    x ^= x >> _SHIFT[30]
    x *= _MUL1
    x ^= x >> _SHIFT[27]
    x *= _MUL2
    x ^= x >> _SHIFT[31]
    return x


def _stream_words(values, what: str) -> np.ndarray:
    """Non-negative integers below 2^64 as a 1-D uint64 array."""
    ints = [int(v) for v in np.ravel(np.asarray(values, dtype=object))]
    if any(not 0 <= v < STREAM_LIMIT for v in ints):
        raise ValueError(f"{what} must be integers in [0, 2**64) to key the sampling stream")
    return np.array(ints, dtype=np.uint64)


def _bounded(x: np.ndarray, n: int) -> np.ndarray:
    """Lemire's multiply-high map of uniform uint64 words onto [0, n), n < 2^32.

    idx = floor(x*n / 2^64), with the 128-bit product built from the 32-bit
    limbs of x.  Words whose low product word x*n mod 2^64 falls below
    2^64 mod n are rejected and redrawn as mix(x + G), so every index value
    keeps exactly floor(2^64/n) preimages and the map is exactly uniform.
    """
    n64 = np.uint64(n)
    threshold = np.uint64(STREAM_LIMIT % n)
    while True:
        high = (x >> _SHIFT[32]) * n64 + (((x & _LOW32) * n64) >> _SHIFT[32])
        if threshold:
            reject = x * n64 < threshold
            if reject.any():
                x = np.where(reject, _mix(x + _GOLDEN), x)
                continue
        return (high >> _SHIFT[32]).view(np.int64)  # < n < 2^32, so the bits agree


def _stream_key(master_seed, run_index) -> np.ndarray:
    """Per-row stream keys mix(mix(s + G) + i*G), constant for a whole run."""
    seeds = _stream_words(master_seed, "master seeds")
    runs = _stream_words(run_index, "run indices")
    if seeds.shape != runs.shape:
        raise ValueError(f"{seeds.size} master seeds but {runs.size} run indices")
    return _mix(_mix(seeds + _GOLDEN) + runs * _GOLDEN)


def _check_dataset_size(n: int) -> None:
    if not 1 <= n < 2**32:
        raise ValueError(f"dataset size n must be in [1, 2**32), got {n}")


def _draw(key: np.ndarray, t: int, b: int, n: int) -> np.ndarray:
    """(R, b) step-t indices on [0, n) for the R stream keys ``key``."""
    step_key = _mix(key + np.uint64(t * int(_GOLDEN) % STREAM_LIMIT))
    counters = np.arange(1, b + 1, dtype=np.uint64) * _GOLDEN
    return _bounded(_mix(step_key[:, None] + counters), n)


def batch_indices(master_seed, run_index, t: int, b: int, n: int) -> np.ndarray:
    """I.i.d.-with-replacement index sample of size b for step t.

    A pure function of (master_seed, run_index, t, b, n), computed from the
    counter-based stream of the module docstring, so any step of any run can
    be drawn on its own.  Scalar ``master_seed`` and ``run_index`` give shape
    (b,); equal-length sequences of R seeds and run indices give (R, b), row
    r equal to the scalar call for (master_seed[r], run_index[r]).

    Exactly uniform: modelling the hash words x as uniform on [0, 2^64), the
    multiply-high map floor(x*n / 2^64) hits each index floor(2^64/n) or
    floor(2^64/n) + 1 times; rejecting the 2^64 mod n words whose low product
    word is below 2^64 mod n removes the surplus (Lemire, TOMACS 2019).
    """
    b, n, t = int(b), int(n), int(t)
    _check_dataset_size(n)
    if b < 0 or t < 0:
        raise ValueError(f"batch size and step must be >= 0, got b={b}, t={t}")
    single = np.ndim(master_seed) == 0 and np.ndim(run_index) == 0
    idx = _draw(_stream_key(master_seed, run_index), t, b, n)
    return idx[0] if single else idx


def _nonfinite_row(*values: np.ndarray) -> int | None:
    """Lowest seed row where any of the per-row ``values`` is non-finite, else None."""
    finite = np.isfinite(values[0])
    for v in values[1:]:
        finite &= np.isfinite(v)
    return None if finite.all() else int(np.argmin(finite))


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
    record_theta: bool = False,
) -> RunTrace | list[RunTrace]:
    """Execute all T schedule steps, recording exact diagnostics.

    ``seed`` is one master seed, giving one RunTrace, or a sequence of R
    master seeds, giving a list of R traces.  All seeds start from the same
    theta0 and advance in lockstep; row r samples its mini-batches from
    (seed[r], run_index + r, t), and every seed and run index must lie in
    [0, 2^64), the stream's key range (ValueError otherwise).

    Admissibility is the caller's decision: ``run`` steps through any table
    (``schedules.validate_admissible`` checks one; ``harness.run_experiment``
    enforces it unless waived).  theta0 defaults to a deterministic seeded
    standard-normal draw.  Every iterate is passed to problem.check_iterate
    before its step; an IterateOutsideCertifiedBox names the lowest offending
    seed and the step.  Divergence aborts the run at the first step t where
    any row goes non-finite, checked in this order: the observation at
    theta_t on recorded steps (f, ||grad f||^2 or the Lyapunov value), then
    step t's gradient and new iterate; a non-finite observation at the
    post-run iterate counts as step T.  The raised NumericalDivergence names
    that step and the lowest non-finite row's master seed, and carries that
    seed's trace truncated after the step's record.
    """
    alg = schedules.check_alg(alg)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    single = np.ndim(seed) == 0
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one master seed")
    R = len(seeds)
    run_indices = [int(run_index) + r for r in range(R)]
    key = _stream_key(seeds, run_indices)
    _check_dataset_size(problem.n)
    if theta0 is None:
        theta0 = np.random.default_rng((int(theta0_seed),)).standard_normal(problem.d)
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 1:
        raise ValueError("theta0 must be a 1-D vector")
    state = OptimizerState.initial(np.tile(theta0, (R, 1)), beta, alg)
    one_minus_beta = 1.0 - beta
    # Lyapunov bookkeeping always uses the nshb parameterization: eta = lr
    # for nshb, eta = lr/(1-beta) and momentum scaled by (1-beta) for shb.
    eta = table.lr if alg == "nshb" else table.lr / one_minus_beta
    A = theory.lyapunov_coefficient_array(eta, problem.L, beta)

    def observe(st: OptimizerState):
        """(f, ||grad f||^2, Lyapunov value) per seed row at st.theta."""
        A_prev = float(A[st.t - 1]) if st.t > 0 else 0.0
        # a huge but finite iterate may overflow here; the caller reports
        # a non-finite value as divergence, so record it rather than warn
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = problem.value_and_grad(st.theta)
            m_eq = st.momentum if alg == "nshb" else one_minus_beta * st.momentum
            m_sq = np.einsum("ij,ij->i", m_eq, m_eq)
            return f, np.einsum("ij,ij->i", g, g), theory.lyapunov_value(f, m_sq, A_prev, st.t)

    rec_t = np.arange(0, table.T, record_every)
    rec_f = np.empty((R, rec_t.size))
    rec_gns = np.empty((R, rec_t.size))
    rec_lyap = np.empty((R, rec_t.size))
    rec_theta = np.empty((R, rec_t.size, problem.d)) if record_theta else None
    k = 0
    div_step: int | None = None
    div_row = -1
    for t in range(table.T):
        if t % record_every == 0:
            obs = observe(state)
            rec_f[:, k], rec_gns[:, k], rec_lyap[:, k] = obs
            if record_theta:
                rec_theta[:, k] = state.theta
            k += 1
            row = _nonfinite_row(*obs)
            if row is not None:
                div_step, div_row = t, row
                break
        try:
            problem.check_iterate(state.theta)
        except problems.IterateOutsideCertifiedBox as exc:
            raise problems.IterateOutsideCertifiedBox(
                f"seed {seeds[exc.row]} at step {t}: {exc}", row=exc.row
            ) from None
        idx = _draw(key, t, int(table.batch[t]), problem.n)
        grad = problem.minibatch_gradient(state.theta, idx)
        try:
            state = step(state, grad, float(table.lr[t]))
        except NumericalDivergence as exc:
            div_step, div_row = t, exc.row
            break

    final_f, final_gns, final_lyap = observe(state)
    row = _nonfinite_row(final_f, final_gns, final_lyap)
    if div_step is None and row is not None:
        div_step, div_row = table.T, row
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
            theta=rec_theta[r, :k] if record_theta else None,
            theta_final=state.theta[r].copy() if record_theta else None,
        )
        for r in range(R)
    ]
    if div_step is not None:
        raise NumericalDivergence(div_step, traces[div_row], row=div_row)
    return traces[0] if single else traces
