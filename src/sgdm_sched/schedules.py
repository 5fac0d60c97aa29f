"""Deterministic learning-rate and batch-size schedules with phase bookkeeping.

``ScheduleSpec`` is the one description of a schedule: a regime (one of the
paper's scheduling strategies), the rate kind for the regimes that take one,
and the numbers the regime reads.  ``ScheduleSpec.build`` materializes it as
an immutable per-step table, so that every consumer (optimizer runs, bound
evaluation, CSV export) sees exactly the same numbers, together with the
corollary the table falls under and that corollary's symbols.  constant-bs
holds the batch size fixed under one of four decaying rate shapes; the phase
regimes multiply the batch size by ``delta`` after each phase while the rate
decays (increasing-bs), grows by ``gamma`` per phase (joint-growth), or warms
up and then holds or cosine-decays (warmup).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._counts import _count

__all__ = [
    "ScheduleError",
    "MomentumTooLarge",
    "InadmissibleSchedule",
    "ScheduleSpec",
    "ScheduleTable",
    "AdmissibilityReport",
    "ALGS",
    "DECAYING_KINDS",
    "check_alg",
    "check_beta",
    "growth_rates",
    "admissible_lr_bound",
    "validate_admissible",
    "table_to_csv",
]

DECAYING_KINDS = ("constant", "diminishing", "cosine", "polynomial")
_PLAN_FIELDS = ("b0", "delta", "epochs_per_phase", "dataset_size")
# regime -> (its corollary, the rate kinds it takes, the fields its table and
# symbols read); joint-growth has a single rate law and takes no kind.  The
# order of regimes and kinds is the order of theory.REGIMES.
_REGIMES = {
    "constant-bs": ("cor3.1-{kind}", DECAYING_KINDS,
                    ("kind", "lambda_max", "lambda_min", "p", "batch", "T", "dataset_size")),
    "increasing-bs": ("cor3.2-{kind}", DECAYING_KINDS,
                      ("kind", "lambda_max", "lambda_min", "p", *_PLAN_FIELDS)),
    "joint-growth": ("cor3.3", (), ("gamma", "lambda0", *_PLAN_FIELDS)),
    "warmup": ("cor3.4-{kind}", ("constant", "cosine"),
               ("kind", "lambda_min", "gamma", "lambda0", "warmup_phases", *_PLAN_FIELDS)),
}
# the read fields that are corollary symbols under their own name
_RATE_SYMBOLS = ("lambda_max", "lambda_min", "p", "gamma", "lambda0")

ALGS = ("nshb", "shb")


class ScheduleError(ValueError):
    """Invalid schedule parameters or malformed schedule table."""


class MomentumTooLarge(ScheduleError):
    """No admissible learning rate exists: growth constant c >= 1/beta^2."""


class InadmissibleSchedule(ScheduleError):
    """Schedule rejected by the admissibility check in strict mode."""


def check_alg(alg: str) -> str:
    """The algorithm name, lower-cased, if it is one of ALGS; ScheduleError otherwise."""
    alg = str(alg).lower()
    if alg not in ALGS:
        raise ScheduleError(f"unknown algorithm {alg!r}; expected one of {ALGS}")
    return alg


def check_beta(beta: float) -> None:
    """ScheduleError unless the momentum beta is in [0, 1)."""
    if not 0.0 <= beta < 1.0:  # NaN too
        raise ScheduleError(f"beta must be in [0, 1), got {beta}")


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative schedule description covering all four regimes.

    regime "constant-bs" needs kind/batch/T (cosine also dataset_size, which
    defaults to the problem's n); the phase regimes need b0/delta/
    epochs_per_phase, with "joint-growth" adding gamma/lambda0 and "warmup"
    adding gamma/lambda0/warmup_phases on top of kind in {constant, cosine}.
    The decaying kinds read lambda_max/lambda_min (and p for polynomial); the
    growth regimes start from lambda0 and multiply by gamma at each phase
    boundary, warmup through phase ``warmup_phases``, after which the rate is
    held (kind constant) or cosine-decayed towards lambda_min (kind cosine).
    A field the regime does not read is reset to its default, so it cannot
    change the config hash.
    """

    regime: str
    kind: str = "constant"
    lambda_max: float = 0.1
    lambda_min: float = 0.0
    p: float = 1.0
    gamma: float | None = None
    lambda0: float | None = None
    warmup_phases: int | None = None
    batch: int | None = None
    T: int | None = None
    b0: int | None = None
    delta: float | None = None
    epochs_per_phase: tuple[int, ...] | None = None
    dataset_size: int | None = None

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ScheduleError(
                f"unknown schedule regime {self.regime!r}; expected one of {tuple(_REGIMES)}"
            )
        read = _REGIMES[self.regime][2]
        for f in fields(self)[1:]:  # every field but regime
            if f.name not in read:
                object.__setattr__(self, f.name, f.default)
        # counts are refused, naming the field, unless whole: truncated, they
        # would build another schedule than the corollary reads
        for name in ("warmup_phases", "batch", "T", "b0", "dataset_size"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _count(value, name))
        if self.epochs_per_phase is not None:
            object.__setattr__(self, "epochs_per_phase",
                               tuple(_count(e, "epochs_per_phase") for e in self.epochs_per_phase))

    def build(self, problem_n: int | None):
        """Materialize (table, corollary regime, the corollary's symbols).

        The rate fields are checked first, then the builder of the regime
        checks the batch fields.  The symbols are the spec's rate fields plus
        the ones the builder fixes; M_w and T_w exist for the warm-up regime
        only.
        """
        corollary, kinds, read = _REGIMES[self.regime]
        if kinds and self.kind not in kinds:
            raise ScheduleError(
                f"regime {self.regime!r} does not take kind {self.kind!r}; "
                f"expected one of {sorted(kinds)}"
            )
        if self.regime in ("constant-bs", "increasing-bs"):
            if not 0.0 <= self.lambda_min <= self.lambda_max:
                raise ScheduleError(
                    f"need 0 <= lambda_min <= lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
                )
            if self.kind == "polynomial" and not self.p > 0:
                raise ScheduleError(f"polynomial power must be > 0, got {self.p}")
        else:
            if self.gamma is None or not self.gamma > 1.0:
                raise ScheduleError(f"{self.regime} needs a growth factor gamma > 1")
            if self.lambda0 is None or not self.lambda0 > 0.0:
                raise ScheduleError(f"{self.regime} needs an initial rate lambda0 > 0")
            if self.regime == "warmup":
                if self.warmup_phases is None or self.warmup_phases < 0:
                    raise ScheduleError("warmup needs warmup_phases >= 0")
                if not 0.0 <= self.lambda_min < math.inf:
                    raise ScheduleError("lambda_min must be finite and >= 0")

        n = self.dataset_size if self.dataset_size is not None else problem_n
        symbols = {name: getattr(self, name) for name in read if name in _RATE_SYMBOLS}
        # looked up as module globals on each call: the benchmark's
        # schedules.build span rebinds these two names
        builder = (build_constant_bs_table if self.regime == "constant-bs"
                   else build_increasing_bs_table)
        table, fixed = builder(self, n)
        return table, corollary.format(kind=self.kind), symbols | fixed


@dataclass(frozen=True)
class ScheduleTable:
    """Immutable per-step (learning rate, batch size) table of T >= 1 steps.

    ``T`` is the table length, ``len(lr)``.  ``growth_constant_c`` is derived
    from ``lr``: the smallest c >= 1 with lr[t+1] <= c * lr[t] over the whole
    table.
    """

    lr: np.ndarray
    batch: np.ndarray
    growth_constant_c: float = field(init=False)

    def __post_init__(self):
        lr = np.ascontiguousarray(np.asarray(self.lr, dtype=np.float64))
        batch = np.ascontiguousarray(np.asarray(self.batch, dtype=np.int64))
        if lr.ndim != 1 or batch.shape != lr.shape:
            raise ScheduleError("lr and batch must be 1-D arrays of equal length")
        if lr.size == 0:
            raise ScheduleError("a schedule table needs at least one step")
        if not np.all(np.isfinite(lr)) or np.any(lr < 0.0):
            raise ScheduleError("learning rates must be finite and >= 0")
        if np.any(batch < 1):
            raise ScheduleError("batch sizes must be positive integers")
        lr.flags.writeable = False
        batch.flags.writeable = False
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "growth_constant_c", _growth_constant_of(lr))

    @property
    def T(self) -> int:
        """Number of steps."""
        return len(self.lr)


def _growth_constant_of(lam: np.ndarray) -> float:
    """Smallest c >= 1 with lr[t+1] <= c * lr[t] over the whole table."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size < 2:
        return 1.0
    prev, nxt = lam[:-1], lam[1:]
    undefined = (prev == 0.0) & (nxt > 0.0)
    if np.any(undefined):
        t = int(np.argmax(undefined))
        raise ScheduleError(f"lr ratio undefined: lr[{t}] = 0 precedes a positive lr[{t + 1}]")
    ok = prev > 0.0
    if not np.any(ok):
        return 1.0
    return max(1.0, float(np.max(nxt[ok] / prev[ok])))


def _decaying_lr(spec: ScheduleSpec, peak: float, T: int, epoch: np.ndarray | None,
                 E: int | None) -> np.ndarray:
    """Rate of a decaying kind at steps 0..T-1, starting from ``peak``.

    ``peak`` is lambda_max for the decaying regimes and the last warm-up rate
    for the tail of a warm-up.  The cosine kind walks the per-step epoch
    index ``epoch`` over E epochs, from ``peak`` down to lambda_min.
    """
    if spec.kind == "constant":
        return np.full(T, float(peak))
    t = np.arange(T, dtype=np.float64)
    if spec.kind == "diminishing":
        return peak / np.sqrt(t + 1.0)
    if spec.kind == "polynomial":
        return (peak - spec.lambda_min) * (1.0 - t / T) ** spec.p + spec.lambda_min
    return spec.lambda_min + 0.5 * (peak - spec.lambda_min) * (1.0 + np.cos(epoch * math.pi / E))


def build_constant_bs_table(spec: ScheduleSpec, dataset_size: int | None):
    """A constant-bs spec's (table, {T, batch}): its decaying rate with the batch held.

    The cosine kind groups the step axis into epochs of K = ceil(dataset_size/batch)
    steps; T must then be a whole number of epochs.
    """
    b, T = spec.batch, spec.T
    if b is None or T is None:
        raise ScheduleError("constant-bs regime needs batch and T")
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    if b < 1:
        raise ScheduleError(f"batch size must be >= 1, got {b}")
    epoch, E = None, None
    if spec.kind == "cosine":
        if dataset_size is None or dataset_size < 1:
            raise ScheduleError("cosine kind needs a positive dataset_size to fix the epoch length")
        K = math.ceil(dataset_size / b)
        if T % K != 0:
            raise ScheduleError(
                f"cosine kind needs T to be a multiple of the {K} steps per epoch, got T={T}"
            )
        E = T // K
        epoch = np.floor_divide(np.arange(T), K).astype(np.float64)
    batch = np.full(T, b, dtype=np.int64)
    table = ScheduleTable(lr=_decaying_lr(spec, spec.lambda_max, T, epoch, E), batch=batch)
    return table, {"T": T, "batch": b}


def growth_rates(lambda0: float, gamma: float, M: int) -> np.ndarray:
    """lambda0 gamma^m for m = 0..M: the rate of growth phase m.

    The growth tables and ``theory.corollary_bounds``' warm-up peak both read
    it, so they agree to the bit: numpy's array ``power`` and Python's ``**``
    may round gamma^m differently (1.2^4 on AVX-512).
    """
    return lambda0 * gamma ** np.arange(M + 1.0)


def build_increasing_bs_table(spec: ScheduleSpec, dataset_size: int | None):
    """A phase spec's (table, the phase symbols it fixes).

    Phase m in [0:M] holds the batch at round(delta^m * b0) for
    ``epochs_per_phase[m]`` epochs of K_m = ceil(dataset_size / b_m) steps
    each.  increasing-bs pairs a decaying kind with those phases (cosine
    walks the global epoch index over all epochs).  joint-growth multiplies
    the rate by gamma at every phase boundary; warmup does so through phase
    ``warmup_phases`` and then holds (kind constant) or cosine-decays (kind
    cosine) the rate.
    """
    b0, delta, epochs, n = spec.b0, spec.delta, spec.epochs_per_phase, dataset_size
    if b0 is None or delta is None or epochs is None:
        raise ScheduleError(f"regime {spec.regime!r} needs b0, delta and epochs_per_phase")
    if n is None:
        raise ScheduleError(
            f"regime {spec.regime!r} needs a dataset_size to fix the steps per epoch"
        )
    n = _count(n, "dataset_size")  # a problem's n is not counted by the spec
    if b0 < 1:
        raise ScheduleError(f"b0 must be a positive integer, got {b0}")
    if not delta > 1.0:
        raise ScheduleError(f"batch growth factor delta must be > 1, got {delta}")
    if not epochs or any(e < 1 for e in epochs):
        raise ScheduleError("epochs_per_phase must be a non-empty list of positive integers")
    if n < 1:
        raise ScheduleError(f"dataset_size must be positive, got {n}")
    M = len(epochs) - 1
    try:
        # sample counts: nearest integer (half rounds up), never below 1
        batches = [max(1, math.floor(delta**m * b0 + 0.5)) for m in range(M + 1)]
    except OverflowError:  # delta^M * b0 beyond the float range
        batches = [math.inf]
    if batches[-1] > n:
        raise ScheduleError(f"final-phase batch size {batches[-1]} exceeds dataset size {n}")
    K = [math.ceil(n / b) for b in batches]
    lengths = [k * e for k, e in zip(K, epochs)]
    T = sum(lengths)
    fixed = {"delta": delta, "b0": b0, "K_max": max(K), "K_min": min(K),
             "E_max": max(epochs), "E_min": min(epochs), "T": T, "M": M}

    def step_epochs(first: int) -> np.ndarray:
        """Epoch index, counted from global epoch ``first``, of the steps from there on."""
        return np.repeat(np.arange(sum(epochs) - first, dtype=np.float64),
                         np.repeat(K, epochs)[first:])

    if spec.regime == "increasing-bs":
        epoch = step_epochs(0) if spec.kind == "cosine" else None
        lam = _decaying_lr(spec, spec.lambda_max, T, epoch, sum(epochs))
    else:
        if spec.gamma >= delta:
            raise ScheduleError(
                f"need gamma < delta so that gamma/delta < 1; got gamma={spec.gamma}, delta={delta}"
            )
        Mw = M if spec.regime == "joint-growth" else spec.warmup_phases
        if Mw > M:
            raise ScheduleError(f"warmup_phases={Mw} exceeds the plan's last phase index M={M}")
        rates = growth_rates(spec.lambda0, spec.gamma, Mw)
        lam = np.repeat(rates[np.minimum(np.arange(M + 1), Mw)], lengths)
        T_w = sum(lengths[: Mw + 1])
        if spec.kind == "cosine" and Mw < M:
            # the tail restarts the epoch count at the end of the warm-up,
            # from the last warm-up rate
            e_warm = sum(epochs[: Mw + 1])
            lam[T_w:] = _decaying_lr(spec, lam[T_w - 1], T - T_w, step_epochs(e_warm),
                                     sum(epochs) - e_warm)
        if spec.regime == "warmup":
            fixed.update(M_w=Mw, T_w=T_w)
    batch = np.repeat(np.asarray(batches, dtype=np.int64), lengths)
    return ScheduleTable(lr=lam, batch=batch), fixed


def admissible_lr_bound(beta: float, L: float, c: float, alg: str) -> float:
    """Upper end of the admissible learning-rate range for the given algorithm.

    (1 - c*beta^2) / (L*(1-beta)) for nshb, (1 - c*beta^2) / L for shb.
    Raises MomentumTooLarge when c >= 1/beta^2 (empty range).
    """
    alg = check_alg(alg)
    check_beta(beta)
    if not L > 0.0:
        raise ScheduleError(f"L must be > 0, got {L}")
    if c < 1.0:
        raise ScheduleError(f"growth constant must be >= 1, got {c}")
    if beta > 0.0 and c >= 1.0 / beta**2:
        raise MomentumTooLarge(
            f"growth constant c={c:.6g} violates c < 1/beta^2 = {1.0 / beta**2:.6g}; "
            "no admissible learning rate exists"
        )
    num = 1.0 - c * beta * beta
    return num / (L * (1.0 - beta)) if alg == "nshb" else num / L


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    lr_bound: float
    lr_max: float
    c: float


def validate_admissible(table: ScheduleTable, beta: float, L: float, alg: str) -> AdmissibilityReport:
    """Check max_t lr[t] against the admissible range for (beta, L, c, alg)."""
    c = table.growth_constant_c
    bound = admissible_lr_bound(beta, L, c, alg)
    lr_max = float(np.max(table.lr))
    return AdmissibilityReport(
        admissible=bool(lr_max < bound),
        lr_bound=bound,
        lr_max=lr_max,
        c=c,
    )


def table_to_csv(table: ScheduleTable) -> str:
    """CSV text with header ``t,lr,batch``; floats carry 17 significant digits."""
    from ._csv import csv_text  # loaded by the processes that write CSV only

    return csv_text("t,lr,batch", (np.arange(table.T), table.lr, table.batch))
