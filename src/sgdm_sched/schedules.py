"""Deterministic learning-rate and batch-size schedules with phase bookkeeping.

Schedules are materialized as immutable per-step tables so that every consumer
(optimizer runs, bound evaluation, CSV export) sees exactly the same numbers.
Two families are supported: a fixed batch size with one of four decaying
learning-rate shapes, and phase-based plans where the batch size is multiplied
by ``delta`` after each phase while the learning rate either decays, grows by
``gamma`` per phase, or warms up and then freezes/decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fmt import csv_text

__all__ = [
    "ScheduleError",
    "MomentumTooLarge",
    "InadmissibleSchedule",
    "LrSchedule",
    "PhasePlan",
    "ScheduleTable",
    "AdmissibilityReport",
    "ALGS",
    "DECAYING_KINDS",
    "GROWTH_KINDS",
    "build_constant_bs_table",
    "build_increasing_bs_table",
    "check_alg",
    "admissible_lr_bound",
    "validate_admissible",
    "table_to_csv",
    "table_from_csv",
]

DECAYING_KINDS = frozenset({"constant", "diminishing", "cosine", "polynomial"})
GROWTH_KINDS = frozenset({"exp_growth", "warmup_constant", "warmup_cosine"})
ALL_KINDS = DECAYING_KINDS | GROWTH_KINDS

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


@dataclass(frozen=True)
class LrSchedule:
    """Declarative learning-rate schedule parameters.

    ``lambda_min``/``lambda_max`` bound the decaying kinds.  Growth and
    warm-up kinds start from ``lambda0`` and multiply by ``gamma`` at each
    phase boundary; ``warmup_phases`` is the index of the last growing phase
    for the warm-up kinds, after which the rate is frozen (warmup_constant)
    or cosine-decayed towards ``lambda_min`` (warmup_cosine).
    """

    kind: str
    lambda_max: float = 0.0
    lambda_min: float = 0.0
    p: float = 1.0
    gamma: float | None = None
    lambda0: float | None = None
    warmup_phases: int | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ScheduleError(
                f"unknown schedule kind {self.kind!r}; expected one of {sorted(ALL_KINDS)}"
            )
        if self.kind in DECAYING_KINDS:
            if not 0.0 <= self.lambda_min <= self.lambda_max:
                raise ScheduleError(
                    f"need 0 <= lambda_min <= lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
                )
            if self.kind == "polynomial" and not self.p > 0:
                raise ScheduleError(f"polynomial power must be > 0, got {self.p}")
        else:
            if self.gamma is None or not self.gamma > 1.0:
                raise ScheduleError(f"{self.kind} needs a growth factor gamma > 1")
            if self.lambda0 is None or not self.lambda0 > 0.0:
                raise ScheduleError(f"{self.kind} needs an initial rate lambda0 > 0")
            if self.kind.startswith("warmup"):
                if self.warmup_phases is None or self.warmup_phases < 0:
                    raise ScheduleError(f"{self.kind} needs warmup_phases >= 0")
                if self.lambda_min < 0.0:
                    raise ScheduleError("lambda_min must be >= 0")


@dataclass(frozen=True)
class PhasePlan:
    """Phase bookkeeping for increasing-batch schedules.

    Phase m in [0:M] holds the batch size at round(delta^m * b0) for
    ``epochs_per_phase[m]`` epochs of ceil(dataset_size / b_m) steps each.
    The phase intervals partition [0, T) with no gaps or overlaps.
    """

    b0: int
    delta: float
    epochs_per_phase: tuple[int, ...]
    dataset_size: int

    def __post_init__(self):
        object.__setattr__(
            self, "epochs_per_phase", tuple(int(e) for e in self.epochs_per_phase)
        )
        if self.b0 < 1:
            raise ScheduleError(f"b0 must be a positive integer, got {self.b0}")
        if not self.delta > 1.0:
            raise ScheduleError(f"batch growth factor delta must be > 1, got {self.delta}")
        if not self.epochs_per_phase or any(e < 1 for e in self.epochs_per_phase):
            raise ScheduleError("epochs_per_phase must be a non-empty list of positive integers")
        if self.dataset_size < 1:
            raise ScheduleError(f"dataset_size must be positive, got {self.dataset_size}")
        b_last = self.batch_size(self.M)
        if b_last > self.dataset_size:
            raise ScheduleError(
                f"final-phase batch size {b_last} exceeds dataset size {self.dataset_size}"
            )

    @property
    def M(self) -> int:
        """Index of the last phase (phases are m in [0:M])."""
        return len(self.epochs_per_phase) - 1

    def batch_size(self, m: int) -> int:
        # sample counts: nearest integer (half rounds up), never below 1
        return max(1, int(math.floor(self.delta**m * self.b0 + 0.5)))

    def steps_per_epoch(self, m: int) -> int:
        return math.ceil(self.dataset_size / self.batch_size(m))

    @property
    def batch_sizes(self) -> tuple[int, ...]:
        return tuple(self.batch_size(m) for m in range(self.M + 1))

    @property
    def steps_per_epoch_all(self) -> tuple[int, ...]:
        return tuple(self.steps_per_epoch(m) for m in range(self.M + 1))

    @property
    def phase_lengths(self) -> tuple[int, ...]:
        return tuple(
            self.steps_per_epoch(m) * self.epochs_per_phase[m] for m in range(self.M + 1)
        )

    @property
    def phase_starts(self) -> tuple[int, ...]:
        """Start step of each phase, plus the total step count as sentinel."""
        starts = [0]
        for length in self.phase_lengths:
            starts.append(starts[-1] + length)
        return tuple(starts)

    @property
    def total_steps(self) -> int:
        return self.phase_starts[-1]

    @property
    def total_epochs(self) -> int:
        return sum(self.epochs_per_phase)

    def warmup_steps(self, warmup_phases: int) -> int:
        """Steps in phases 0..warmup_phases inclusive (the warm-up period)."""
        return self.phase_starts[warmup_phases + 1]

    def warmup_epochs(self, warmup_phases: int) -> int:
        return sum(self.epochs_per_phase[: warmup_phases + 1])

    def step_phases(self) -> np.ndarray:
        """Phase index m for each step t in [0, T)."""
        return np.repeat(np.arange(self.M + 1), self.phase_lengths)

    def step_batches(self) -> np.ndarray:
        return np.repeat(np.asarray(self.batch_sizes, dtype=np.int64), self.phase_lengths)

    def step_epochs(self) -> np.ndarray:
        """Global epoch index for each step t in [0, T)."""
        chunks = []
        epoch_base = 0
        for m in range(self.M + 1):
            K = self.steps_per_epoch(m)
            E = self.epochs_per_phase[m]
            chunks.append(epoch_base + np.repeat(np.arange(E), K))
            epoch_base += E
        return np.concatenate(chunks)


@dataclass(frozen=True)
class ScheduleTable:
    """Immutable per-step (learning rate, batch size) table.

    ``growth_constant_c`` is derived from ``lr``: the smallest c >= 1 with
    lr[t+1] <= c * lr[t] over the whole table.
    """

    lr: np.ndarray
    batch: np.ndarray
    T: int
    growth_constant_c: float = field(init=False)

    def __post_init__(self):
        lr = np.ascontiguousarray(np.asarray(self.lr, dtype=np.float64))
        batch = np.ascontiguousarray(np.asarray(self.batch, dtype=np.int64))
        if lr.ndim != 1 or batch.shape != lr.shape:
            raise ScheduleError("lr and batch must be 1-D arrays of equal length")
        if self.T != lr.shape[0] or self.T < 1:
            raise ScheduleError(f"T must equal the table length and be >= 1, got T={self.T}")
        if not np.all(np.isfinite(lr)) or np.any(lr < 0.0):
            raise ScheduleError("learning rates must be finite and >= 0")
        if np.any(batch < 1):
            raise ScheduleError("batch sizes must be positive integers")
        lr.flags.writeable = False
        batch.flags.writeable = False
        object.__setattr__(self, "lr", lr)
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "growth_constant_c", _growth_constant_of(lr))


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


def _decaying_lr(lr: LrSchedule, T: int, epoch: np.ndarray | None, E: int | None) -> np.ndarray:
    """Rate of a decaying kind at steps 0..T-1.

    The cosine kinds walk the per-step epoch index ``epoch`` over E epochs,
    from their peak rate (lambda_max, or lambda0 * gamma^warmup_phases for the
    tail of warmup_cosine) down to lambda_min.
    """
    if lr.kind == "constant":
        return np.full(T, float(lr.lambda_max))
    t = np.arange(T, dtype=np.float64)
    if lr.kind == "diminishing":
        return lr.lambda_max / np.sqrt(t + 1.0)
    if lr.kind == "polynomial":
        return (lr.lambda_max - lr.lambda_min) * (1.0 - t / T) ** lr.p + lr.lambda_min
    peak = lr.lambda_max if lr.kind == "cosine" else lr.lambda0 * lr.gamma ** int(lr.warmup_phases)
    return lr.lambda_min + 0.5 * (peak - lr.lambda_min) * (1.0 + np.cos(epoch * math.pi / E))


def build_constant_bs_table(
    lr: LrSchedule, b: int, T: int, dataset_size: int | None = None
) -> ScheduleTable:
    """Materialize a decaying-LR schedule with the batch size held at ``b``.

    The cosine kind groups the step axis into epochs of K = ceil(dataset_size/b)
    steps; T must then be a whole number of epochs.
    """
    if lr.kind not in DECAYING_KINDS:
        raise ScheduleError(
            f"constant-batch tables need a decaying kind, got {lr.kind!r}"
        )
    if T < 1:
        raise ScheduleError(f"T must be >= 1, got {T}")
    if b < 1:
        raise ScheduleError(f"batch size must be >= 1, got {b}")
    epoch, E = None, None
    if lr.kind == "cosine":
        if dataset_size is None:
            raise ScheduleError("cosine kind needs dataset_size to fix the epoch length")
        K = math.ceil(dataset_size / b)
        if T % K != 0:
            raise ScheduleError(
                f"cosine kind needs T to be a multiple of the {K} steps per epoch, got T={T}"
            )
        E = T // K
        epoch = np.floor_divide(np.arange(T), K).astype(np.float64)
    batch = np.full(T, int(b), dtype=np.int64)
    return ScheduleTable(lr=_decaying_lr(lr, T, epoch, E), batch=batch, T=T)


def build_increasing_bs_table(lr: LrSchedule, plan: PhasePlan) -> ScheduleTable:
    """Materialize a phase plan: batch delta^m * b0 on phase m, LR per ``lr.kind``.

    Decaying kinds pair with the plan as-is (the cosine variant walks the
    global epoch index against the plan's total epoch count).  exp_growth
    multiplies the rate by gamma at every phase boundary; the warm-up kinds do
    so through phase ``warmup_phases`` and then hold (warmup_constant) or
    cosine-decay (warmup_cosine) the rate.
    """
    T = plan.total_steps
    batch = plan.step_batches()
    phase = plan.step_phases()
    if lr.kind in GROWTH_KINDS and lr.gamma >= plan.delta:
        raise ScheduleError(
            f"need gamma < delta so that gamma/delta < 1; got gamma={lr.gamma}, delta={plan.delta}"
        )
    if lr.kind == "exp_growth":
        lam = lr.lambda0 * lr.gamma ** phase.astype(np.float64)
    elif lr.kind in ("warmup_constant", "warmup_cosine"):
        Mw = int(lr.warmup_phases)
        if Mw > plan.M:
            raise ScheduleError(
                f"warmup_phases={Mw} exceeds the plan's last phase index M={plan.M}"
            )
        lam = lr.lambda0 * lr.gamma ** np.minimum(phase, Mw).astype(np.float64)
        if lr.kind == "warmup_cosine" and Mw < plan.M:
            # the tail restarts the epoch count at the end of the warm-up
            e_warm = plan.warmup_epochs(Mw)
            post = phase > Mw
            epoch = plan.step_epochs().astype(np.float64)[post] - e_warm
            lam[post] = _decaying_lr(lr, epoch.size, epoch, plan.total_epochs - e_warm)
    else:  # a decaying kind; cosine walks the global epoch across the whole plan
        epoch = plan.step_epochs().astype(np.float64) if lr.kind == "cosine" else None
        lam = _decaying_lr(lr, T, epoch, plan.total_epochs)
    return ScheduleTable(lr=lam, batch=batch, T=T)


def admissible_lr_bound(beta: float, L: float, c: float, alg: str) -> float:
    """Upper end of the admissible learning-rate range for the given algorithm.

    (1 - c*beta^2) / (L*(1-beta)) for nshb, (1 - c*beta^2) / L for shb.
    Raises MomentumTooLarge when c >= 1/beta^2 (empty range).
    """
    alg = check_alg(alg)
    if not 0.0 <= beta < 1.0:
        raise ScheduleError(f"beta must be in [0, 1), got {beta}")
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
    beta: float
    L: float
    alg: str


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
        beta=float(beta),
        L=float(L),
        alg=check_alg(alg),
    )


def table_to_csv(table: ScheduleTable) -> str:
    """CSV text with header ``t,lr,batch``; floats carry 17 significant digits."""
    return csv_text("t,lr,batch", (np.arange(table.T), table.lr, table.batch))


def table_from_csv(text: str) -> ScheduleTable:
    """Parse ``table_to_csv`` output back into a ScheduleTable."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != "t,lr,batch":
        raise ScheduleError("expected header 't,lr,batch'")
    lrs, batches = [], []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 3:
            raise ScheduleError(f"malformed row {ln!r}")
        t, lam, b = int(parts[0]), float(parts[1]), int(parts[2])
        if t != i:
            raise ScheduleError(f"non-contiguous step index {t} at row {i}")
        lrs.append(lam)
        batches.append(b)
    return ScheduleTable(
        lr=np.asarray(lrs, dtype=np.float64), batch=np.asarray(batches, dtype=np.int64), T=len(lrs)
    )
