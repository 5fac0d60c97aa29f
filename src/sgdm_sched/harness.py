"""Multi-seed experiment orchestration.

Builds the problem from a ``ProblemSpec`` and the schedule table from a
``schedules.ScheduleSpec`` (re-exported here), settles admissibility, the
budget and the closed-form bound report before the first step, runs all
master seeds of an experiment in one lockstep ``optim.run`` call,
aggregates per-step statistics, checks the empirical minimum against
the bound with a 3-standard-error inflation, and writes machine-readable
artifacts (trace_<seed>.csv, aggregate.csv, report.json) into a directory
named by a content hash of the config.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import optim, problems, schedules, theory
from ._counts import _count
from ._fmt import dumps17
from .schedules import ScheduleSpec

__all__ = [
    "BudgetExceeded",
    "ProblemSpec",
    "ScheduleSpec",
    "ExperimentConfig",
    "AggregateReport",
    "AuditReport",
    "RateFit",
    "run_experiment",
    "lyapunov_descent_audit",
    "rate_fit",
    "write_artifacts",
]

# family -> (problem class, the fields its ``generate`` reads besides d, n and
# seed); every other family field keeps its default, so it cannot change the
# config hash
_FAMILIES = {
    "quadratic": (problems.QuadraticMeanProblem, ("sigma_sq", "spread")),
    "logcosh": (problems.LogCoshProblem, ("spread", "scale", "amp", "box_radius")),
}
_AUDIT_MIN_SEEDS = 64  # master seeds ``lyapunov_descent_audit`` needs


class BudgetExceeded(RuntimeError):
    """Configured work estimate exceeds the budget guard."""


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative synthetic-problem description (mirrors the config file)."""

    family: str = "quadratic"
    d: int = 20
    n: int = 256
    seed: int = 0
    sigma_sq: float | None = None
    spread: float = 1.0
    scale: float = 1.0
    amp: float = 1.0
    box_radius: float = 6.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown problem family {self.family!r}")
        read = _FAMILIES[self.family][1]
        for f in fields(self)[4:]:  # every family field: all but family, d, n and seed
            if f.name not in read:
                object.__setattr__(self, f.name, f.default)
        for name, lo in (("d", None), ("n", None), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, lo))
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")

    def build(self):
        cls, read = _FAMILIES[self.family]
        return cls.generate(self.d, self.n, seed=self.seed, **{k: getattr(self, k) for k in read})


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    alg: str
    beta: float
    schedule: ScheduleSpec
    seeds: tuple[int, ...]
    record_every: int = 1
    validation_mode: str = "strict"
    budget: float = 1e10
    theta0_seed: int = 0

    # the config-file section of each field that is not a spec of its own
    SECTIONS = {
        "optimizer": ("alg", "beta", "theta0_seed"),
        "harness": ("seeds", "record_every", "validation_mode", "budget"),
    }

    def __post_init__(self):
        object.__setattr__(self, "alg", schedules.check_alg(self.alg))
        object.__setattr__(self, "theta0_seed", _count(self.theta0_seed, "theta0_seed", 0))
        object.__setattr__(self, "seeds", tuple(optim._stream_words(self.seeds, "master seeds")))
        schedules.check_beta(self.beta)
        if not self.seeds:
            raise ValueError("need at least one master seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("master seeds must be distinct")
        object.__setattr__(self, "record_every", optim._record_every(self.record_every))
        if self.validation_mode not in ("strict", "waived"):
            raise ValueError("validation_mode must be 'strict' or 'waived'")
        if not self.budget > 0:
            raise ValueError("budget must be positive")

    def to_dict(self) -> dict:
        own = {name: {k: getattr(self, k) for k in keys} for name, keys in self.SECTIONS.items()}
        return {"problem": asdict(self.problem), "optimizer": own["optimizer"],
                "schedule": asdict(self.schedule), "harness": own["harness"]}

    @functools.cached_property
    def config_hash(self) -> str:
        """First 16 hex digits of the SHA-256 of the config's JSON, computed once."""
        return hashlib.sha256(dumps17(self.to_dict()).encode()).hexdigest()[:16]


@dataclass
class AggregateReport:
    """Across-seed aggregation, bound verdicts and the attached theory report.

    ``config_hash``, ``total_steps`` and ``total_samples`` are read off the
    config and the schedule table.  ``empirical`` is report.json's
    "empirical" block: the minimum over recorded steps of the seed-mean
    ||grad f||^2 and ||grad f||, and the seed-means at the final iterate.
    """

    config: ExperimentConfig
    table: schedules.ScheduleTable
    t: np.ndarray
    mean_grad_norm_sq: np.ndarray
    stderr_grad_norm_sq: np.ndarray
    empirical: dict
    theory: theory.TheoryReport
    constants: theory.TheoremConstants
    checks: dict
    symbols: dict  # the corollary's symbols, M and T_w among them
    sigma_certificate: dict | None  # the problem's, None for an exact sigma_sq
    traces: list = field(repr=False, default_factory=list)

    @property
    def config_hash(self) -> str:
        return self.config.config_hash

    @property
    def total_steps(self) -> int:
        return self.table.T

    @property
    def total_samples(self) -> int:
        return int(self.table.batch.sum())

    @property
    def passed(self) -> bool:
        """Every check passes; a waived admissibility check does not count."""
        return all(c["pass"] or c.get("waived", False) for c in self.checks.values())

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config_hash": self.config_hash,
            "alg": cfg.alg,
            "beta": cfg.beta,
            "n_seeds": len(cfg.seeds),
            "validation_mode": cfg.validation_mode,
            "problem": asdict(cfg.problem),
            "schedule": asdict(cfg.schedule),
            "totals": {
                "T": self.total_steps,
                "M": self.symbols.get("M"),
                "T_w": self.symbols.get("T_w"),
                "samples": self.total_samples,
            },
            "problem_constants": {
                "L": self.constants.L,
                "sigma_sq": self.constants.sigma_sq,
                "f0_minus_fstar": self.constants.f0_minus_fstar,
                "sigma_certificate": self.sigma_certificate,
            },
            "theory": asdict(self.theory),
            "empirical": self.empirical,
            "checks": self.checks,
        }


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> AggregateReport:
    """Settle the policy, run every master seed, aggregate, write artifacts.

    Deterministic given the config.  Before any step, in this order: the
    problem and then the schedule table are built (a spec the table cannot
    be built from is a ScheduleError), the admissibility check (unless
    waived), the budget, theta0 inside the
    certified box, the bound report, the config hash and, when ``out_dir``
    is given, that the experiment directory under it can be created; a
    theta0 outside the box, an unmet corollary hypothesis and a non-finite
    config field are ValueErrors, an ``out_dir`` path through a file is a
    NotADirectoryError.  The seeds then advance in lockstep, seed i
    sampling from stream (seeds[i], i, t).  At the first step where any
    seed's observed f, ||grad f||^2 or Lyapunov value, gradient or iterate
    goes non-finite (``optim.run`` gives the order within a step),
    optim.NumericalDivergence names the lowest-index such seed (in
    ``config.seeds`` order) and that step, even when a later seed would have
    diverged too; an iterate that leaves the certified box raises
    IterateOutsideCertifiedBox naming the lowest-index offending seed and the
    step, in the same order.
    """
    report = _run(config, out_dir)
    if out_dir is not None:
        write_artifacts(report, Path(out_dir))
    return report


def _run(config: ExperimentConfig, out_dir: str | Path | None) -> AggregateReport:
    """``run_experiment`` up to its report: every pre-step check, the steps, the aggregate."""
    problem = config.problem.build()
    table, regime, symbols = config.schedule.build(problem.n)
    waived = config.validation_mode == "waived"

    admissibility = None
    try:
        admissibility = schedules.validate_admissible(table, config.beta, problem.L, config.alg)
    except schedules.MomentumTooLarge:
        if not waived:
            raise
    if not waived and not admissibility.admissible:
        raise schedules.InadmissibleSchedule(
            f"max lr {admissibility.lr_max:.6g} is not below the admissible bound "
            f"{admissibility.lr_bound:.6g} for {config.alg} (beta={config.beta}, "
            f"L={problem.L:.6g}, c={admissibility.c:.6g})"
        )

    work = float(table.T) * len(config.seeds) * problem.d * float(np.mean(table.batch))
    if work > config.budget:
        raise BudgetExceeded(
            f"estimated work {work:.3g} (T x seeds x d x mean batch) exceeds budget {config.budget:.3g}"
        )

    theta0 = optim._theta0(config.theta0_seed, problem.d)
    try:
        problem.check_iterate(theta0)
    except problems.IterateOutsideCertifiedBox as exc:
        raise ValueError(f"theta0 (theta0_seed {config.theta0_seed}): {exc}") from None
    # theta_0 is shared across seeds, so f(theta_0) - f* and with it the
    # whole bound report are known before the first step
    f0_gap = float(problem.value_and_grad(theta0)[0]) - problem.f_star
    constants = theory.TheoremConstants(
        L=problem.L, beta=config.beta, f0_minus_fstar=f0_gap,
        sigma_sq=problem.sigma_sq, alg=config.alg,
    )
    theory_report = theory.build_report(constants, table, regime, symbols)
    config_hash = config.config_hash  # names the artifacts; refuses a non-finite field
    if out_dir is not None:
        _check_out_dir(Path(out_dir) / config_hash)

    traces = optim.run(config.alg, config.beta, table, problem, config.seeds,
                       theta0=theta0, record_every=config.record_every)
    return _aggregate(config, table, symbols, traces, admissibility, constants, theory_report,
                      problem.sigma_certificate)


def _check_out_dir(path: Path) -> None:
    """Refuse, creating nothing, a directory that ``mkdir(parents=True)`` cannot make:
    ``path`` or its nearest existing ancestor is not a directory."""
    # lexists: a dangling symlink exists for mkdir; "." or "/" ends the search
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise NotADirectoryError(f"cannot create directory {path}: {nearest} is not a directory")


def _mean_se(x: np.ndarray):
    """Mean over the seed axis (axis 0) and its standard error, 0 for one seed."""
    R = x.shape[0]
    se = x.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else np.zeros_like(x[0])
    return x.mean(axis=0), se


def _aggregate(config, table, symbols, traces, admissibility, constants, theory_report,
               sigma_certificate):
    t_axis = traces[0].t
    gns = np.stack([tr.grad_norm_sq for tr in traces])
    mean_sq, stderr_sq = _mean_se(gns)
    mean_norm, stderr_norm = _mean_se(np.sqrt(gns))
    i_min = int(np.argmin(mean_sq))
    i_min_norm = int(np.argmin(mean_norm))

    finals_sq = np.asarray([tr.final_grad_norm_sq for tr in traces])
    final_mean_sq, final_se_sq = _mean_se(finals_sq)
    final_mean_norm, final_se_norm = _mean_se(np.sqrt(finals_sq))
    empirical = {
        "min_mean_grad_norm_sq": float(mean_sq[i_min]),
        "stderr_at_min": float(stderr_sq[i_min]),
        "t_at_min": int(t_axis[i_min]),
        "min_mean_grad_norm": float(mean_norm[i_min_norm]),
        "stderr_at_min_norm": float(stderr_norm[i_min_norm]),
        "final_mean_grad_norm_sq": float(final_mean_sq),
        "final_stderr_grad_norm_sq": float(final_se_sq),
        "final_mean_grad_norm": float(final_mean_norm),
        "final_stderr_grad_norm": float(final_se_norm),
        "final_mean_f": float(np.mean([tr.final_f for tr in traces])),
    }

    checks = {
        "admissible": {
            "pass": bool(admissibility is not None and admissibility.admissible),
            "lr_max": admissibility.lr_max if admissibility else None,
            "lr_bound": admissibility.lr_bound if admissibility else None,
            "waived": config.validation_mode == "waived",
        },
    }
    for name, mean, se, i, rhs in (
        ("theorem1_sq", mean_sq, stderr_sq, i_min, theory_report.rhs_sq),
        ("theorem1_norm", mean_norm, stderr_norm, i_min_norm, theory_report.rhs_norm),
    ):
        stat = float(mean[i] + 3.0 * se[i])
        checks[name] = {"pass": bool(stat <= rhs), "statistic": stat, "rhs": rhs,
                        "margin": rhs - stat}

    return AggregateReport(
        config=config, table=table, t=t_axis, mean_grad_norm_sq=mean_sq,
        stderr_grad_norm_sq=stderr_sq, empirical=empirical, theory=theory_report,
        constants=constants, checks=checks, symbols=symbols,
        sigma_certificate=sigma_certificate, traces=traces,
    )


def write_artifacts(report: AggregateReport, out_root: Path) -> Path:
    """Write trace_<seed>.csv per seed, aggregate.csv and report.json.

    The experiment directory is named by the config content hash; floats are
    serialized with 17 significant digits so reruns are byte-identical, and a
    non-finite value is refused (ValueError) rather than written.
    """
    from ._csv import csv_bytes, csv_cells  # loaded by the processes that write CSV only

    exp_dir = Path(out_root) / report.config_hash
    exp_dir.mkdir(parents=True, exist_ok=True)
    # every trace of one run has the same t, lr and batch columns, so their
    # text is formatted once
    t = report.t
    lead = csv_cells((t, report.table.lr[t], report.table.batch[t]))
    for tr in report.traces:
        (exp_dir / f"trace_{tr.seed}.csv").write_bytes(csv_bytes(
            "t,lr,batch,f,grad_norm_sq,lyapunov", (tr.f, tr.grad_norm_sq, tr.lyapunov), lead
        ))
    aggregate = (report.t, report.mean_grad_norm_sq, report.stderr_grad_norm_sq)
    (exp_dir / "aggregate.csv").write_bytes(csv_bytes("t,mean_grad_norm_sq,stderr", aggregate))
    (exp_dir / "report.json").write_text(dumps17(report.to_dict()))
    return exp_dir


@dataclass
class AuditReport:
    """Per-audited-step comparison of E[L_{t+1} - L_t] against the descent bound."""

    t: np.ndarray
    mean_delta: np.ndarray
    descent_rhs: np.ndarray
    stderr: np.ndarray
    ok: np.ndarray
    n_seeds: int
    all_ok: bool

    def to_csv(self) -> str:
        from ._csv import csv_text  # loaded by the processes that write CSV only

        return csv_text(
            "t,mean_delta_lyapunov,descent_rhs,stderr,ok",
            (self.t, self.mean_delta, self.descent_rhs, self.stderr, self.ok),
        )


def lyapunov_descent_audit(config: ExperimentConfig,
                           out_dir: str | Path | None = None) -> AuditReport:
    """Estimate E[L_{t+1} - L_t] per step and compare against the one-step bound.

    Requires the nshb parameterization and at least _AUDIT_MIN_SEEDS (64)
    master seeds.  Each audited step passes when the seed-mean of
    (L_{t+1} - L_t) + (1/2)(1-beta) eta_t ||grad f(theta_t)||^2
    - (1/2)(1-beta) eta_t sigma^2/b_t lies at or below 3 standard errors of
    that combined per-seed statistic.  All steps are audited for T <= 512,
    else 64 evenly spaced ones.  The run makes ``run_experiment``'s checks
    before its first step; with ``out_dir`` it writes audit.csv into the
    config-hash directory under it and no other artifact.
    """
    if config.alg != "nshb":
        raise ValueError("the Lyapunov descent audit is defined for the nshb parameterization")
    if len(config.seeds) < _AUDIT_MIN_SEEDS:
        raise ValueError(f"audit needs at least {_AUDIT_MIN_SEEDS} seeds, got {len(config.seeds)}")
    if config.record_every != 1:
        raise ValueError("audit needs record_every = 1 for consecutive Lyapunov values")

    report = _run(config, out_dir)
    traces = report.traces
    T = report.total_steps
    if T <= 512:
        audited = np.arange(T)
    else:
        audited = np.unique(np.linspace(0, T - 1, 64).astype(np.int64))

    # (R, T+1) Lyapunov series: per-step values plus the post-run value
    lyap = np.stack([np.append(tr.lyapunov, tr.final_lyapunov) for tr in traces])
    gns = np.stack([tr.grad_norm_sq for tr in traces])
    # record_every = 1, so every trace holds all T steps of the table
    eta, batch = report.table.lr[audited], report.table.batch[audited]
    sigma_sq = report.constants.sigma_sq
    half, noise = theory.descent_terms(eta, config.beta, sigma_sq, batch)

    delta = lyap[:, audited + 1] - lyap[:, audited]
    D = delta + half * gns[:, audited] - noise
    mean_D, se_D = _mean_se(D)
    ok = mean_D <= 3.0 * se_D

    # seed means of the contiguous rows: each sums pairwise, as a 1-D mean does
    mean_gns = np.ascontiguousarray(gns[:, audited].T).mean(axis=1)
    rhs = theory.descent_inequality_rhs(eta, config.beta, sigma_sq, batch, mean_gns)
    audit = AuditReport(t=audited, mean_delta=delta.mean(axis=0), descent_rhs=rhs, stderr=se_D,
                        ok=ok, n_seeds=D.shape[0], all_ok=bool(np.all(ok)))
    if out_dir is not None:
        exp_dir = Path(out_dir) / report.config_hash
        exp_dir.mkdir(parents=True, exist_ok=True)
        (exp_dir / "audit.csv").write_text(audit.to_csv())
    return audit


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay-rate fit over a series of budget points."""

    slope: float
    stderr: float
    ci_low: float
    ci_high: float
    mode: str
    n_points: int

    @property
    def decay_factor(self) -> float:
        """Per-unit-x multiplicative decay, exp(slope); for per-phase fits."""
        return math.exp(self.slope)


# Student t quantiles t_0.975(df) for df = 2..30, to three decimals.
_T975 = (
    4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201,
    2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080,
    2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t975(df: int) -> float:
    """Two-sided 95% Student t quantile for df >= 2 degrees of freedom.

    Beyond the table, the Cornish-Fisher expansion about the normal quantile
    to order 1/df^2, within 5e-5 relative for df > 30.
    """
    if df <= 30:
        return _T975[df - 2]
    z = 1.959963984540054
    return z + (z**3 + z) / (4 * df) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * df**2)


def rate_fit(x, y, mode: str = "loglog") -> RateFit:
    """Fit log(y) against log(x) (mode 'loglog') or x itself (mode 'per-phase').

    Returns the slope with its standard error and a 95% confidence interval
    from Student t with n - 2 degrees of freedom.  Needs at least 4 points.
    """
    if mode not in ("loglog", "per-phase"):
        raise ValueError(f"unknown rate-fit mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.shape[0] < 4:
        raise ValueError(f"need at least 4 budget points, got {x.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y values must be finite")
    if np.any(y <= 0):
        raise ValueError("y values must be positive for a log fit")
    if np.all(x == x[0]):
        raise ValueError("x values must not all be equal")
    if mode == "loglog" and np.any(x <= 0):
        raise ValueError("x values must be positive for a log-log fit")
    X = np.log(x) if mode == "loglog" else x
    coef, cov = np.polyfit(X, np.log(y), 1, cov=True)
    slope = float(coef[0])
    se = float(math.sqrt(cov[0, 0]))
    half = _t975(x.shape[0] - 2) * se
    return RateFit(
        slope=slope,
        stderr=se,
        ci_low=slope - half,
        ci_high=slope + half,
        mode=mode,
        n_points=int(x.shape[0]),
    )
