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
the hash words are (``batch_indices`` gives the argument).  Runs are
deterministic, and streams can be shared across algorithms exactly.

For n = 2^k (k <= 31, as n < 2^32) there is no surplus, and the map is
floor(x*2^k / 2^64) = x >> (64 - k), the top k bits of the word.  Those bits
are known before mix's last step x = y ^ (y >> 31): y >> 31 < 2^33, so the
xor changes bits 0..32 of y only, and bits 33..63 of x are those of y.  As
64 - k >= 33, idx = x >> (64 - k) = y >> (64 - k), and the draw skips that
step for such n.  Any other n takes the whole finalizer and the bounded map.

``run`` and ``batch_indices`` draw through one generator, ``_index_blocks``:
it yields the (K, b, R) indices of all seeds over K consecutive equal-batch
steps at a time, mixing the step keys mix(key + t*G) of several blocks at
once and hashing each block's words in place.  Every word is a pure function
of (s, i, t, j), so blocking changes no index.

``run`` is a lockstep engine: the R master seeds of an experiment advance
together as the rows of (R, d) parameter and momentum arrays, so each step
makes one mini-batch gradient call and one update for all seeds.  A single
seed is the R = 1 case.  The update arithmetic lives in ``_update`` alone,
which ``step`` and ``run`` both call.  Each drawn block of indices goes to
the problem's ``minibatch_gradients``, which returns the block's per-step
gradient functions (the quadratic gathers all K batch means of the block at
once).

``run`` keeps J = max(1, _OBSERVE_WORDS // (R*d)) steps at a time in a
trajectory block, a pair of (J+1, R, d) arrays of iterates and momenta:
slot s holds theta_{t0+s} and m_{t0+s-1}, and step t0+s writes theta_{t0+s+1}
and m_{t0+s} straight into slot s+1, so a step makes no copy and no
finiteness check.  Once per block, ``run`` checks the block's new iterates for
finiteness and observes its recorded slots in one ``value_and_grad`` call;
the block loop stops at the first failure, and one settle after it decides
how the run ends and observes the iterate it ends at.  The check is exact:
a non-finite entry of an iterate stays non-finite in every later one, as
theta' = theta - lr*m is NaN or infinite wherever theta is (NaN - x is NaN,
inf - x is inf or NaN), and a non-finite gradient or momentum entry makes
the same entry of the new iterate non-finite (lr = 0 included, as 0*inf is
NaN).  So a finite last iterate clears the whole block; otherwise the first
slot holding a non-finite entry, found in one pass over the block, is the
new iterate of the step that diverged, and its lowest non-finite row is the
row that diverged first.  Every row is computed as it would be alone, so a
seed's trace does not depend on the seeds that run beside it, nor on the
block it is observed in.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import problems, schedules, theory
from ._counts import _count, _whole

__all__ = [
    "NumericalDivergence",
    "OptimizerState",
    "RunTrace",
    "step",
    "STREAM_LIMIT",
    "batch_indices",
    "empirical_minibatch_variance",
    "VarianceEstimate",
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

    def __post_init__(self):
        # float64 copies, so the state never shares memory with the caller
        self.theta = np.array(self.theta, dtype=np.float64)
        self.momentum = np.array(self.momentum, dtype=np.float64)

    @classmethod
    def initial(cls, theta0: np.ndarray, beta: float, alg: str) -> "OptimizerState":
        alg = schedules.check_alg(alg)
        schedules.check_beta(beta)
        theta0 = np.asarray(theta0, dtype=np.float64)
        if theta0.ndim not in (1, 2):
            raise ValueError("theta0 must be a 1-D vector or an (R, d) array of seed rows")
        return cls(theta=theta0, momentum=np.zeros_like(theta0), t=0, beta=beta, alg=alg)


# divergence is detected explicitly below; let inf/nan flow, not warn
@np.errstate(over="ignore", invalid="ignore")
def step(state: OptimizerState, grad: np.ndarray, lr: float) -> OptimizerState:
    """One update: fold grad into the momentum buffer, move theta, bump t.

    The state holds one iterate theta[d] or seed rows theta[R, d].  A
    non-finite gradient or new iterate raises NumericalDivergence naming the
    lowest row that is non-finite at this step.

    It returns ``state`` itself: the new momentum and iterate are written
    into new arrays, which the state takes only when the new iterate is
    finite, so a step that raises leaves theta, momentum and t as they were.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.theta.shape:
        raise ValueError(
            f"gradient dimension {grad.shape} does not match parameters {state.theta.shape}"
        )
    if not lr >= 0:  # NaN too
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    theta, m = np.empty(grad.shape), np.empty(grad.shape)
    _update(state.theta, state.momentum, grad, lr, state.beta, state.alg, theta, m)
    # a non-finite gradient or state entry makes the same entry of the new
    # iterate non-finite (module docstring), so the iterate alone decides
    bad = _first_nonfinite(np.isfinite(theta).reshape(1, -1, theta.shape[-1]))
    if bad is not None:
        raise NumericalDivergence(state.t, row=bad[1])
    state.theta, state.momentum = theta, m
    state.t += 1
    return state


def _update(theta, momentum, grad, lr, beta, alg, theta_out, momentum_out) -> None:
    """The momentum update, written once for ``step`` and ``run``:
    momentum_out = beta*momentum + (1 - beta)*grad (nshb) or
    beta*momentum + grad (shb), then theta_out = theta - lr*momentum_out.

    Each output is written before every input is read, so neither may share
    memory with an input.  Call it under an error state that lets inf/nan
    flow."""
    np.multiply(momentum, beta, out=momentum_out)
    if alg == "nshb":
        np.multiply(grad, 1.0 - beta, out=theta_out)  # theta_out as scratch
        np.add(momentum_out, theta_out, out=momentum_out)
    else:
        np.add(momentum_out, grad, out=momentum_out)
    np.multiply(momentum_out, lr, out=theta_out)
    np.subtract(theta, theta_out, out=theta_out)


def _first_nonfinite(finite: np.ndarray) -> tuple[int, int] | None:
    """The (i, r) of the first false entry of the mask ``finite[i, r, ...]``:
    the lowest i holding one, then the lowest r; None when all are true."""
    if np.count_nonzero(finite) == finite.size:  # cheaper than finite.all() on small arrays
        return None
    rows = finite.reshape(finite.shape[0], finite.shape[1], -1).all(axis=2)
    i = int(np.argmin(rows.all(axis=1)))
    return i, int(np.argmin(rows[i]))


# SplitMix64 constants (Steele, Lea & Flood 2014).  Every uint64 operation
# below runs on arrays: numpy integer arrays wrap mod 2^64 silently, while
# numpy uint64 scalars warn on overflow.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
# shift counts as uint64 scalars: python-int operands cost a conversion per call
_SHIFT = {k: np.uint64(k) for k in (27, 30, 31, 32)}
STREAM_LIMIT = 2**64  # master seeds, run indices and steps are stream words in [0, 2^64)


def _premix(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer up to its last step x ^= x >> 31, in place:
    overwrites and returns x, with the x-shaped uint64 ``scratch`` holding
    each shifted copy."""
    for shift, mul in ((_SHIFT[30], _MUL1), (_SHIFT[27], _MUL2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mul
    return x


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection of uint64 words; overwrites and returns x."""
    scratch = np.empty_like(x)
    _premix(x, scratch)
    np.right_shift(x, _SHIFT[31], out=scratch)
    x ^= scratch
    return x


def _stream_words(values, what: str) -> list[int]:
    """A scalar or sequence of whole numbers in [0, 2^64) as a list of ints.

    A value that is not a whole number (1.5, NaN, "3") is refused rather
    than truncated: it would key another seed's stream.
    """
    words = [_whole(v) for v in np.ravel(np.asarray(values, dtype=object))]
    if not all(w is not None and 0 <= w < STREAM_LIMIT for w in words):
        raise ValueError(
            f"{what} must be in [0, 2**64) and be integers, to key the sampling stream")
    return words


def _theta0(theta0_seed, d: int) -> np.ndarray:
    """The default theta0: the standard-normal d-vector of ``theta0_seed``, a
    whole number >= 0 (ValueError otherwise)."""
    return np.random.default_rng((_count(theta0_seed, "theta0_seed", 0),)).standard_normal(d)


def _record_every(value) -> int:
    """``record_every`` as an int: a whole number >= 1 (2.0 counts as 2);
    anything else is a ValueError, never truncated."""
    w = _whole(value)
    if w is None or w < 1:
        raise ValueError("record_every must be an integer >= 1")
    return w


def _bounded(x: np.ndarray, n: int) -> np.ndarray:
    """Lemire's multiply-high map of uniform uint64 words onto [0, n), n < 2^32.

    idx = floor(x*n / 2^64), with the 128-bit product built from the 32-bit
    limbs of x.  Words whose low product word x*n mod 2^64 falls below
    2^64 mod n are rejected and redrawn as mix(x + G), so every index value
    keeps exactly floor(2^64/n) preimages and the map is exactly uniform.
    For n = 2^k nothing is rejected (2^64 mod n = 0); the draw maps such n
    by a shift instead (module docstring).
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


def _indices(x: np.ndarray, n: int) -> np.ndarray:
    """The indices on [0, n) of the hash words mix(x), as int64 of x's shape.

    Overwrites x.  For n = 2^k the result is x itself: the top k bits of the
    word before mix's last step, shifted down in place (the module docstring
    proves them the bounded map's); any other n takes the whole finalizer
    and ``_bounded``.
    """
    if n & (n - 1):
        return _bounded(_mix(x), n)
    _premix(x, np.empty_like(x))
    x >>= np.uint64(65 - n.bit_length())  # n = 1 shifts by 64, which numpy defines as 0
    return x.view(np.int64)


def _stream_key(master_seed, run_index) -> np.ndarray:
    """Per-row stream keys mix(mix(s + G) + i*G), constant for a whole run."""
    seeds = np.array(_stream_words(master_seed, "master seeds"), dtype=np.uint64)
    runs = np.array(_stream_words(run_index, "run indices"), dtype=np.uint64)
    if seeds.shape != runs.shape:
        raise ValueError(f"{seeds.size} master seeds but {runs.size} run indices")
    return _mix(_mix(seeds + _GOLDEN) + runs * _GOLDEN)


# Index words per block of steps that ``run`` draws at once, and the
# quadratic gathers at once: a block has K = max(1, _BLOCK_WORDS // (R*b))
# steps, so it is a 32 KB array unless one step needs more.  A step with
# R*b > 2^12 is a block of its own, 512 KB at R = 16, b = 4096.  Besides the
# block it yields, the draw holds at most max(2^12, R) mixed step keys; the
# scratch array of a block's size that hashing works in is freed before the
# block is yielded (kept for a whole run, it raised quad-bench64's peak RSS
# by 0.2-0.3 MB).  2^13 words raised the log-cosh benchmark's peak RSS by
# about 0.2 MB, and 2^14 the quad-bench64 benchmark's by about 0.5 MB.
_BLOCK_WORDS = 2**12
# Words of the J steps of iterates (and of momenta) that ``run`` keeps in
# its trajectory block and observes at once: 2^12 words made quad-bench64
# about 10% slower, and 2^15 raised the log-cosh benchmark's peak RSS by a
# further 0.4 MB.
_OBSERVE_WORDS = 2**14


def _index_blocks(key: np.ndarray, batch, n: int, t0: int = 0):
    """Yield the (K, b, R) indices on [0, n) of steps t0, t0 + 1, ... in order,
    ``batch`` giving each step's batch size and ``key`` the R stream keys;
    a block holds at most K = max(1, _BLOCK_WORDS // (R*b)) consecutive
    equal-batch steps.

    Every word is hashed and bounded on its own, so a step's indices are the
    same whichever block they are drawn in.  Each yielded block is a new
    array, hashed in place; the step keys are mixed G steps at a time, G a
    whole number of blocks and at most max(K, _BLOCK_WORDS // R).
    """
    R = key.size
    batch = np.asarray(batch)
    starts = [0, *(np.flatnonzero(np.diff(batch)) + 1).tolist()]
    for lo, hi in zip(starts, [*starts[1:], batch.size]):
        b = int(batch[lo])
        K = min(hi - lo, max(1, _BLOCK_WORDS // max(1, R * b)))
        G = K * max(1, _BLOCK_WORDS // max(1, R * K))  # whole blocks of up to 2^12 keys
        counters = np.arange(1, b + 1, dtype=np.uint64)[:, None] * _GOLDEN
        for g in range(lo, hi, G):
            steps = np.arange(min(G, hi - g), dtype=np.uint64) + np.uint64(t0 + g)
            keys = _mix(key + steps[:, None] * _GOLDEN)[:, None, :]
            for i in range(0, keys.shape[0], K):
                x = np.add(keys[i : i + K], counters)
                yield _indices(x, n)


def batch_indices(master_seed, run_index, t: int, b: int, n: int) -> np.ndarray:
    """I.i.d.-with-replacement index sample of size b for step t.

    A pure function of (master_seed, run_index, t, b, n), computed from the
    counter-based stream of the module docstring, so any step of any run can
    be drawn on its own; ``run`` draws through the same ``_index_blocks``.
    Scalar ``master_seed`` and ``run_index`` give shape (b,); equal-length
    sequences of R seeds and run indices give (R, b), row r equal to the
    scalar call for (master_seed[r], run_index[r]).  t must be a whole
    number in [0, 2^64), b one >= 0 and n one in [1, 2^32); 2.0 counts as
    2, while 2.5 is refused (ValueError) rather than truncated onto another
    sample.

    Exactly uniform: modelling the hash words x as uniform on [0, 2^64), the
    multiply-high map floor(x*n / 2^64) hits each index floor(2^64/n) or
    floor(2^64/n) + 1 times; rejecting the 2^64 mod n words whose low product
    word is below 2^64 mod n removes the surplus (Lemire, TOMACS 2019).
    """
    t = _count(t, "step t", 0, STREAM_LIMIT)
    b = _count(b, "batch size b", 0)
    n = _count(n, "dataset size n", 1, 2**32)
    single = np.ndim(master_seed) == 0 and np.ndim(run_index) == 0
    (idx,) = _index_blocks(_stream_key(master_seed, run_index), [b], n, t)
    idx = idx[0].T
    return np.ascontiguousarray(idx[0] if single else idx)


class VarianceEstimate(NamedTuple):
    value: float
    stderr: float
    trials: int


# Trials, and gathered values (trials * b * d), per gather of
# empirical_minibatch_variance, to bound its memory.
_VARIANCE_CHUNK = 4096
_VARIANCE_VALUES = 2**20


def empirical_minibatch_variance(
    problem, theta: np.ndarray, b: int, trials: int, seed: int
) -> VarianceEstimate:
    """Monte-Carlo estimate of E||grad f_B(theta) - grad f(theta)||^2.

    Trial i draws its batch of size ``b`` i.i.d. with replacement from the
    sampling stream every run uses: ``batch_indices(seed, i, 0, b, n)``,
    run index i at step 0 of master seed ``seed``.  Trials are evaluated
    at most _VARIANCE_CHUNK, and at most _VARIANCE_VALUES gathered values,
    at a time to bound the memory of the gather.  Each trial's row is
    computed as it would be alone, so the chunking does not change the
    estimate.  The standard error of the mean comes from the same trials.
    ``b`` and ``trials`` must be whole numbers (2.0 counts as 2; 2.5 is a
    ValueError).
    """
    b = _count(b, "batch size b", 1)
    trials = _count(trials, "trials (for a usable estimate)", 1000)
    theta = np.asarray(theta, dtype=np.float64)
    sq = np.empty(trials)
    chunk = max(1, min(_VARIANCE_CHUNK, _VARIANCE_VALUES // (b * problem.d)))
    for lo in range(0, trials, chunk):
        runs = np.arange(lo, min(lo + chunk, trials))
        k = runs.size
        idx = batch_indices([seed] * k, runs, 0, b, problem.n)
        dev = problem.minibatch_deviation_many(theta, idx)
        sq[lo : lo + k] = np.einsum("ij,ij->i", dev, dev)
    value = float(sq.mean())
    stderr = float(sq.std(ddof=1) / math.sqrt(trials))
    return VarianceEstimate(value, stderr, trials)


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
    ``record_every`` is a whole number >= 1 (2.0 counts as 2).

    theta0 must have length ``problem.d`` (ValueError otherwise, before any
    step).  Admissibility is the caller's decision: ``run`` steps through any table
    (``schedules.validate_admissible`` checks one; ``harness.run_experiment``
    enforces it unless waived).  theta0 defaults to a deterministic seeded
    standard-normal draw.  Every iterate is passed to problem.check_iterate
    before its step; an IterateOutsideCertifiedBox names the lowest offending
    seed and the step.  Divergence aborts the run at the first step t where
    any row goes non-finite, checked in this order: the observation at
    theta_t on recorded steps (f, ||grad f||^2 or the Lyapunov value), then
    the box check of theta_t, then step t's new iterate (a non-finite
    gradient makes it non-finite); a non-finite observation at the post-run
    iterate counts as step T.  The raised NumericalDivergence names that
    step and the lowest non-finite row's master seed, and carries that seed's
    trace truncated after the step's record; its final_* values are the
    observation at that step's iterate.

    Mini-batch gradients come from ``problem.minibatch_gradients``, one
    drawn (K, b, R) index block at a time, and rates from ``table.lr`` read
    once.  The steps run J = max(1, _OBSERVE_WORDS // (R*d)) at a time
    through the trajectory block of the module docstring; each recorded
    theta_t is observed with the step's A_{t-1}.  When a block is full, at
    the end and at a box exit, its new iterates are checked for finiteness
    (module docstring) and its recorded steps up to the first failure are
    observed in one call.  One settle after the last block applies the order
    above: a non-finite recorded observation, else a box exit with no
    earlier divergence (a non-finite iterate fails a box check too), else
    the observation of the iterate the run ends at, the diverged step's or
    theta_T.  So the order holds as if each step were checked on its own.
    """
    alg = schedules.check_alg(alg)
    schedules.check_beta(beta)
    every = _record_every(record_every)
    single = np.ndim(seed) == 0
    seeds = _stream_words(seed, "master seeds")
    if not seeds:
        raise ValueError("need at least one master seed")
    R, d, T = len(seeds), problem.d, table.T
    (first,) = _stream_words(run_index, "run indices")
    key = _stream_key(seeds, range(first, first + R))
    _count(problem.n, "dataset size n", 1, 2**32)
    if theta0 is None:
        theta0 = _theta0(theta0_seed, d)
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 1:
        raise ValueError("theta0 must be a 1-D vector")
    if theta0.size != d:
        raise ValueError(f"theta0 has length {theta0.size} but the problem has d = {d}")
    one_minus_beta = 1.0 - beta
    # Lyapunov bookkeeping always uses the nshb parameterization: eta = lr
    # for nshb, eta = lr/(1-beta) and momentum scaled by (1-beta) for shb.
    eta = table.lr if alg == "nshb" else table.lr / one_minus_beta
    # A_prev[t] = A_{t-1}, the momentum coefficient of the step-t Lyapunov value
    A_prev = np.concatenate(([0.0], theory.lyapunov_coefficient_array(eta, problem.L, beta)))

    # Column c of rec holds observation c: the recorded steps rec_t in order,
    # then, in column FINAL, the iterate the run ends at.
    rec_t = np.arange(0, T, every)
    FINAL = rec_t.size
    rec = [np.empty((R, FINAL + 1)) for _ in range(3)]  # f, ||grad f||^2, Lyapunov
    rec_theta = np.empty((R, FINAL + 1, d)) if record_theta else None
    J = max(1, _OBSERVE_WORDS // (R * d))
    # The trajectory block: slot s holds theta_{t0+s} and m_{t0+s-1}.  Two
    # arrays, not one (2, J+1, R, d): a single block raised the cli-doubling
    # benchmark's peak RSS by about 0.7 MB through heap placement.
    th, mo = np.empty((J + 1, R, d)), np.empty((J + 1, R, d))
    th[0], mo[0] = theta0, 0.0

    def observe(slots: slice, cols: slice, t: np.ndarray) -> tuple[int, int] | None:
        """Observe the iterates th[slots] of steps t into the columns ``cols``
        of rec; return the (column, lowest row) of the first non-finite
        observation, or None."""
        n = t.size
        if n == 0:
            return None
        # contiguous, so the sums run as over a block of recorded steps
        # alone (th[slots] is a strided view when record_every > 1)
        theta, m = np.ascontiguousarray(th[slots]), np.ascontiguousarray(mo[slots])
        f, g = problem.value_and_grad(theta.reshape(n * R, d))
        f = f.reshape(n, R)
        m_eq = m if alg == "nshb" else one_minus_beta * m
        m_sq = np.einsum("ijk,ijk->ij", m_eq, m_eq)
        t = t[:, None]
        obs = (f, np.einsum("ij,ij->i", g, g).reshape(n, R),
               theory.lyapunov_value(f, m_sq, A_prev[t], t))
        finite = np.ones((n, R), dtype=bool)
        for column, values in zip(rec, obs):
            column[:, cols] = values.T
            finite &= np.isfinite(values)
        if record_theta:
            rec_theta[:, cols] = theta.swapaxes(0, 1)
        bad = _first_nonfinite(finite)
        return None if bad is None else (cols.start + bad[0], bad[1])

    check = problem.check_iterate
    lr = iter(table.lr.tolist())
    gradients = chain.from_iterable(
        map(problem.minibatch_gradients, _index_blocks(key, table.batch, problem.n)))
    t0 = c = 0  # the step of slot 0; recorded steps observed so far
    # Divergence is detected once per block, after the block's steps ran on
    # past it: let inf/nan flow.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            box, n = None, 0
            theta, m = th[0], mo[0]
            # zip takes a slot first, so a full block consumes no rate or gradient
            for theta_next, m_next, rate, gradient in zip(th[1:], mo[1:], lr, gradients):
                try:
                    check(theta)
                except problems.IterateOutsideCertifiedBox as exc:
                    box = exc
                    break
                _update(theta, m, gradient(theta), rate, beta, alg, theta_next, m_next)
                theta, m = theta_next, m_next
                n += 1
            t = t0 + n  # the step of slot n, the block's last iterate
            # (i, row): step t0 + i diverged, its new iterate in slot i + 1.
            # A non-finite entry stays non-finite, so a finite last iterate
            # clears every step of the block
            div = None
            if np.count_nonzero(np.isfinite(theta)) < theta.size:
                div = _first_nonfinite(np.isfinite(th[1 : n + 1]))
            # observe the recorded slots before `end`: up to the step that
            # diverged, up to the iterate that left the box, or the steps run
            end = div[0] + 1 if div else n + 1 if box else n
            c_end = -(-(t0 + end) // every)
            bad = observe(slice(c * every - t0, end, every), slice(c, c_end), rec_t[c:c_end])
            c = c_end
            if bad or div or box or t == T:
                break
            th[0], mo[0] = theta, m  # slot J starts the next block
            t0 = t
        # the settle, the one place that decides how the run ends
        if bad:  # a recorded observation is non-finite: the run ends at its step
            final, rows = bad[0], bad[0] + 1
            stop = int(rec_t[final]), bad[1]
        elif box and not div:
            raise problems.IterateOutsideCertifiedBox(
                f"seed {seeds[box.row]} at step {t}: {box}", row=box.row)
        else:  # observe the iterate the run ends at: the diverged step's, or theta_T
            final, rows, last = FINAL, c, div[0] if div else n
            bad = observe(slice(last, last + 1), slice(FINAL, FINAL + 1), np.array([t0 + last]))
            # a non-finite observation at theta_T counts as step T
            stop = (t0 + div[0], div[1]) if div else (T, bad[1]) if bad else None
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
