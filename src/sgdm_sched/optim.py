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
and streams can be shared across algorithms exactly.  ``run`` evaluates the
same stream in blocks, drawing the indices of all seeds over a run of
consecutive equal-batch steps in one vectorized call; since every word is a
pure function of (s, i, t, j), blocking changes no index.

``run`` is a lockstep engine: the R master seeds of an experiment advance
together as the rows of (R, d) parameter and momentum arrays, so each step
makes one mini-batch gradient call and one ``step`` call for all seeds;
``step`` updates the arrays in place.  A single seed is the R = 1 case.
Observations are made a block of recorded steps at a time: ``run`` copies
each recorded (theta_t, m_{t-1}) into a (J, R, d) block and observes the
block's J*R rows in one ``value_and_grad`` call, so a block may step past a
non-finite observation before its flush finds it and reports the earlier
step.  Every row is computed as it would be alone, so a seed's trace does
not depend on the seeds that run beside it, nor on the block it is
observed in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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
    # the arrays ``step`` writes the next momentum and iterate into, plus a
    # finiteness mask; a finite step swaps the pair with (theta, momentum)
    _spare: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # owned float64 copies: ``step`` writes into these arrays later on
        self.theta = np.array(self.theta, dtype=np.float64)
        self.momentum = np.array(self.momentum, dtype=np.float64)
        shape = self.theta.shape
        self._spare = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))

    @classmethod
    def initial(cls, theta0: np.ndarray, beta: float, alg: str) -> "OptimizerState":
        alg = schedules.check_alg(alg)
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        theta0 = np.asarray(theta0, dtype=np.float64)
        if theta0.ndim not in (1, 2):
            raise ValueError("theta0 must be a 1-D vector or an (R, d) array of seed rows")
        return cls(theta=theta0, momentum=np.zeros_like(theta0), t=0, beta=beta, alg=alg)


def step(state: OptimizerState, grad: np.ndarray, lr: float) -> OptimizerState:
    """One update: fold grad into the momentum buffer, move theta, bump t.

    The state holds one iterate theta[d] or seed rows theta[R, d].  A
    non-finite gradient or new iterate raises NumericalDivergence naming the
    lowest row that is non-finite at this step.

    The update runs in place and returns ``state`` itself: the new momentum
    and iterate are written into the state's spare pair of arrays, which is
    swapped in only when the new iterate is finite, so a step that raises
    leaves theta, momentum and t as they were.  The arrays a step swaps out
    are overwritten by the next one; copy ``state.theta`` to keep it.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.theta.shape:
        raise ValueError(
            f"gradient dimension {grad.shape} does not match parameters {state.theta.shape}"
        )
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    theta, m, finite = state._spare
    # divergence is detected explicitly below; let inf/nan flow, not warn
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(state.momentum, state.beta, out=m)
        if state.alg == "nshb":
            np.multiply(grad, 1.0 - state.beta, out=theta)  # theta as scratch
            np.add(m, theta, out=m)
        else:
            np.add(m, grad, out=m)
        np.multiply(m, lr, out=theta)
        np.subtract(state.theta, theta, out=theta)
    # a non-finite gradient or state entry makes the same entry of the new
    # iterate non-finite, so the iterate alone decides
    np.isfinite(theta, out=finite)
    if np.count_nonzero(finite) < finite.size:  # cheaper than finite.all() on small arrays
        rows_ok = finite.reshape(-1, finite.shape[-1]).all(axis=1)
        raise NumericalDivergence(state.t, row=int(np.argmin(rows_ok)))
    state._spare = (state.theta, state.momentum, finite)
    state.theta, state.momentum = theta, m
    state.t += 1
    return state


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


def _draw(key: np.ndarray, t: int, b: int, n: int, steps: int = 1) -> np.ndarray:
    """(steps, b, R) indices on [0, n) of steps t..t+steps-1 for the R stream keys ``key``.

    Every word is hashed and bounded on its own, so a step's indices are the
    same whichever block of steps they are drawn in.
    """
    step_keys = _mix(key + np.arange(t, t + steps, dtype=np.uint64)[:, None] * _GOLDEN)
    counters = np.arange(1, b + 1, dtype=np.uint64)[:, None] * _GOLDEN
    return _bounded(_mix(step_keys[:, None, :] + counters), n)


# Words per block of steps that ``run`` draws at once (unless one step needs
# more): the block and the draw's temporaries are 32 KB arrays, far below
# glibc's 128 KB mmap threshold.  2^13 words raised the log-cosh
# benchmark's peak RSS by about 0.2 MB.
_BLOCK_WORDS = 2**12


def _step_indices(key: np.ndarray, batch: np.ndarray, n: int):
    """Yield each step's (R, b) indices, drawn a block of equal-batch steps at a time."""
    R = key.size
    starts = [0, *(np.flatnonzero(np.diff(batch)) + 1).tolist()]
    for lo, hi in zip(starts, [*starts[1:], batch.size]):
        b = int(batch[lo])
        K = max(1, _BLOCK_WORDS // (R * b))
        for t in range(lo, hi, K):
            yield from _draw(key, t, b, n, min(K, hi - t)).transpose(0, 2, 1)


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
    idx = _draw(_stream_key(master_seed, run_index), t, b, n)[0].T
    return np.ascontiguousarray(idx[0] if single else idx)


@dataclass
class RunTrace:
    """Per-recorded-step metrics of one run plus the post-run summary.

    Row k holds step t[k] quantities evaluated BEFORE the step-t[k] update:
    the exact objective, exact squared full-gradient norm, and Lyapunov value
    (using the step-(t-1) coefficient and momentum buffer).  The final_*
    fields hold the same quantities at the post-run iterate theta_T.  The
    step's rate and batch size are ``table.lr[t]`` and ``table.batch[t]`` of
    the schedule table the run stepped through.
    """

    t: np.ndarray
    f: np.ndarray
    grad_norm_sq: np.ndarray
    lyapunov: np.ndarray
    final_f: float
    final_grad_norm_sq: float
    final_lyapunov: float
    seed: int
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
    seed's trace truncated after the step's record; its final_* values are
    the observation at that step's iterate.

    Recorded steps are observed J = max(1, _BLOCK_WORDS // (R*d)) at a time
    (each theta_t is observed with the step's A_{t-1}), and the final
    iterate with the last block.  A block is flushed when full, at the end
    and before a box exit or a step divergence is reported, so the steps
    run past a non-finite observation never change the outcome: the failure
    order above holds as if every step were observed on its own.
    """
    alg = schedules.check_alg(alg)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    single = np.ndim(seed) == 0
    seeds = [int(seed)] if single else [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one master seed")
    R, d = len(seeds), problem.d
    key = _stream_key(seeds, [int(run_index) + r for r in range(R)])
    _check_dataset_size(problem.n)
    if theta0 is None:
        theta0 = np.random.default_rng((int(theta0_seed),)).standard_normal(d)
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 1:
        raise ValueError("theta0 must be a 1-D vector")
    state = OptimizerState.initial(np.tile(theta0, (R, 1)), beta, alg)
    one_minus_beta = 1.0 - beta
    # Lyapunov bookkeeping always uses the nshb parameterization: eta = lr
    # for nshb, eta = lr/(1-beta) and momentum scaled by (1-beta) for shb.
    eta = table.lr if alg == "nshb" else table.lr / one_minus_beta
    # A_prev[t] = A_{t-1}, the momentum coefficient of the step-t Lyapunov value
    A_prev = np.concatenate(([0.0], theory.lyapunov_coefficient_array(eta, problem.L, beta)))

    # Column c of rec holds observation c: the recorded steps in order, then
    # the final iterate.  Observations wait in a block of (theta_t, m_{t-1},
    # t) entries and are made a block at a time.
    rec_t = np.arange(0, table.T, record_every)
    rec = [np.empty((R, rec_t.size + 1)) for _ in range(3)]  # f, ||grad f||^2, Lyapunov
    rec_theta = np.empty((R, rec_t.size + 1, d)) if record_theta else None
    J = max(1, _BLOCK_WORDS // (R * d))
    # two arrays, not one (2, J, R, d): the single 64 KB block raised the
    # cli-doubling benchmark's peak RSS by about 0.7 MB through heap placement
    blk_theta, blk_m = np.empty((J, R, d)), np.empty((J, R, d))
    blk_t = np.empty((J, 1), dtype=np.int64)
    k = j = 0  # observations taken, of which the last j wait in the block

    def push(st: OptimizerState) -> None:
        nonlocal k, j
        blk_theta[j] = st.theta
        blk_m[j] = st.momentum
        blk_t[j] = st.t
        if record_theta:
            rec_theta[:, k] = st.theta
        k += 1
        j += 1

    def flush() -> tuple[int, int] | None:
        """Observe the waiting entries into their columns of rec; return the
        (column, lowest row) of the first non-finite one, or None."""
        nonlocal j
        n, j = j, 0
        if n == 0:
            return None
        f, g = problem.value_and_grad(blk_theta[:n].reshape(n * R, d))
        f = f.reshape(n, R)
        m_eq = blk_m[:n] if alg == "nshb" else one_minus_beta * blk_m[:n]
        m_sq = np.einsum("ijk,ijk->ij", m_eq, m_eq)
        t = blk_t[:n]
        obs = (f, np.einsum("ij,ij->i", g, g).reshape(n, R),
               theory.lyapunov_value(f, m_sq, A_prev[t], t))
        finite = np.ones((n, R), dtype=bool)
        for column, values in zip(rec, obs):
            column[:, k - n : k] = values.T
            finite &= np.isfinite(values)
        if finite.all():
            return None
        first = int(np.argmin(finite.all(axis=1)))
        return k - n + first, int(np.argmin(finite[first]))

    bad = stop = final = None
    # Divergence is detected explicitly, and a block may step past a
    # non-finite observation before its flush finds it: let inf/nan flow.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, idx in enumerate(_step_indices(key, table.batch, problem.n)):
            if t % record_every == 0:
                push(state)
                if j == J and (bad := flush()):
                    break
            try:
                problem.check_iterate(state.theta)
            except problems.IterateOutsideCertifiedBox as exc:
                if bad := flush():
                    break
                raise problems.IterateOutsideCertifiedBox(
                    f"seed {seeds[exc.row]} at step {t}: {exc}", row=exc.row
                ) from None
            grad = problem.minibatch_gradient(state.theta, idx)
            try:
                state = step(state, grad, float(table.lr[t]))
            except NumericalDivergence as exc:
                stop = t, exc.row
                break
        if bad is None:
            push(state)  # theta_T, or the iterate of the step that diverged
            final = k - 1
            bad = flush()
    if bad is not None and bad[0] != final:
        # a recorded observation is non-finite: the run ends at its step
        final = bad[0]
        stop = int(rec_t[final]), bad[1]
        rows = final + 1
    else:
        rows = final
        if stop is None and bad is not None:
            stop = table.T, bad[1]  # the post-run observation counts as step T
    f, gns, lyap = rec
    traces = [
        RunTrace(
            t=rec_t[:rows],
            f=f[r, :rows],
            grad_norm_sq=gns[r, :rows],
            lyapunov=lyap[r, :rows],
            final_f=float(f[r, final]),
            final_grad_norm_sq=float(gns[r, final]),
            final_lyapunov=float(lyap[r, final]),
            seed=seeds[r],
            theta=rec_theta[r, :rows] if record_theta else None,
            theta_final=rec_theta[r, final] if record_theta else None,
        )
        for r in range(R)
    ]
    if stop is not None:
        raise NumericalDivergence(stop[0], traces[stop[1]], row=stop[1])
    return traces[0] if single else traces
