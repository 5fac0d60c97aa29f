"""Multi-seed experiment orchestration.

Builds problems and schedule tables from declarative specs, runs all master
seeds of an experiment in one lockstep ``optim.run`` call, aggregates
per-step statistics, evaluates the closed-form bound report, checks the
empirical minimum against it with a 3-standard-error inflation, and writes
machine-readable artifacts (trace_<seed>.csv, aggregate.csv, report.json)
into a directory named by a content hash of the config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import optim, problems, schedules, theory
from ._fmt import dumps17, fmt_float

__all__ = [
    "BudgetExceeded",
    "ExperimentDivergence",
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

SCHEDULE_REGIMES = ("constant-bs", "increasing-bs", "joint-growth", "warmup")


class BudgetExceeded(RuntimeError):
    """Configured work estimate exceeds the budget guard."""


class ExperimentDivergence(RuntimeError):
    """A strict-mode run diverged; carries the offending seed and step."""

    def __init__(self, seed: int, step_index: int):
        super().__init__(f"seed {seed} diverged at step {step_index}")
        self.seed = seed
        self.step_index = step_index


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
        if self.family not in ("quadratic", "logcosh"):
            raise ValueError(f"unknown problem family {self.family!r}")
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")

    def build(self):
        if self.family == "quadratic":
            return problems.QuadraticMeanProblem.generate(
                self.d, self.n, sigma_sq=self.sigma_sq, spread=self.spread, seed=self.seed
            )
        return problems.LogCoshProblem.generate(
            self.d,
            self.n,
            spread=self.spread,
            scale=self.scale,
            amp=self.amp,
            seed=self.seed,
            box_radius=self.box_radius,
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "n": self.n,
            "seed": self.seed,
            "sigma_sq": self.sigma_sq,
            "spread": self.spread,
            "scale": self.scale,
            "amp": self.amp,
            "box_radius": self.box_radius,
        }


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative schedule description covering all four regimes.

    regime "constant-bs" needs kind/batch/T (cosine also dataset_size, which
    defaults to the problem's n); the phase regimes need b0/delta/
    epochs_per_phase, with "joint-growth" adding gamma/lambda0 and "warmup"
    adding gamma/lambda0/warmup_phases on top of kind in {constant, cosine}.
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
        if self.regime not in SCHEDULE_REGIMES:
            raise ValueError(
                f"unknown schedule regime {self.regime!r}; expected one of {SCHEDULE_REGIMES}"
            )
        if self.epochs_per_phase is not None:
            object.__setattr__(
                self, "epochs_per_phase", tuple(int(e) for e in self.epochs_per_phase)
            )

    def _plan(self, problem_n: int) -> schedules.PhasePlan:
        if self.b0 is None or self.delta is None or self.epochs_per_phase is None:
            raise ValueError(f"regime {self.regime!r} needs b0, delta and epochs_per_phase")
        return schedules.PhasePlan(
            b0=self.b0,
            delta=self.delta,
            epochs_per_phase=self.epochs_per_phase,
            dataset_size=self.dataset_size if self.dataset_size is not None else problem_n,
        )

    def build(self, problem_n: int):
        """Materialize (table, plan-or-None, theory regime, regime params)."""
        if self.regime == "constant-bs":
            if self.batch is None or self.T is None:
                raise ValueError("constant-bs regime needs batch and T")
            lr = schedules.LrSchedule(
                kind=self.kind,
                lambda_max=self.lambda_max,
                lambda_min=self.lambda_min,
                p=self.p,
            )
            table = schedules.build_constant_bs_table(
                lr,
                self.batch,
                self.T,
                dataset_size=self.dataset_size if self.dataset_size is not None else problem_n,
            )
            regime = f"cor3.1-{self.kind}"
            params = {
                "lambda_max": self.lambda_max,
                "lambda_min": self.lambda_min,
                "p": self.p,
                "T": table.T,
                "batch": self.batch,
            }
            return table, None, regime, params

        plan = self._plan(problem_n)
        params = {
            "delta": plan.delta,
            "b0": plan.b0,
            "K_max": max(plan.steps_per_epoch_all),
            "K_min": min(plan.steps_per_epoch_all),
            "E_max": max(plan.epochs_per_phase),
            "E_min": min(plan.epochs_per_phase),
            "T": plan.total_steps,
            "M": plan.M,
        }
        if self.regime == "increasing-bs":
            lr = schedules.LrSchedule(
                kind=self.kind,
                lambda_max=self.lambda_max,
                lambda_min=self.lambda_min,
                p=self.p,
            )
            regime = f"cor3.2-{self.kind}"
            params.update(
                lambda_max=self.lambda_max, lambda_min=self.lambda_min, p=self.p
            )
        elif self.regime == "joint-growth":
            lr = schedules.LrSchedule(kind="exp_growth", gamma=self.gamma, lambda0=self.lambda0)
            regime = "cor3.3"
            params.update(gamma=self.gamma, lambda0=self.lambda0)
        else:  # warmup
            if self.kind not in ("constant", "cosine"):
                raise ValueError("warmup regime needs kind 'constant' or 'cosine'")
            lr = schedules.LrSchedule(
                kind=f"warmup_{self.kind}",
                gamma=self.gamma,
                lambda0=self.lambda0,
                warmup_phases=self.warmup_phases,
                lambda_min=self.lambda_min,
            )
            regime = f"cor3.4-{self.kind}"
            params.update(
                gamma=self.gamma,
                lambda0=self.lambda0,
                lambda_min=self.lambda_min,
                M_w=self.warmup_phases,
                T_w=plan.warmup_steps(self.warmup_phases),
            )
        table = schedules.build_increasing_bs_table(lr, plan)
        return table, plan, regime, params

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "kind": self.kind,
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
            "p": self.p,
            "gamma": self.gamma,
            "lambda0": self.lambda0,
            "warmup_phases": self.warmup_phases,
            "batch": self.batch,
            "T": self.T,
            "b0": self.b0,
            "delta": self.delta,
            "epochs_per_phase": list(self.epochs_per_phase)
            if self.epochs_per_phase is not None
            else None,
            "dataset_size": self.dataset_size,
        }


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

    def __post_init__(self):
        object.__setattr__(self, "alg", str(self.alg).lower())
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.alg not in optim.ALGS:
            raise ValueError(f"unknown algorithm {self.alg!r}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not self.seeds:
            raise ValueError("need at least one master seed")
        if any(not 0 <= s < optim.STREAM_LIMIT for s in self.seeds):
            raise ValueError("master seeds must be in [0, 2**64), the sampling stream's key range")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("master seeds must be distinct")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.validation_mode not in ("strict", "waived"):
            raise ValueError("validation_mode must be 'strict' or 'waived'")
        if not self.budget > 0:
            raise ValueError("budget must be positive")

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "optimizer": {
                "alg": self.alg,
                "beta": self.beta,
                "theta0_seed": self.theta0_seed,
            },
            "schedule": self.schedule.to_dict(),
            "harness": {
                "seeds": list(self.seeds),
                "record_every": self.record_every,
                "validation_mode": self.validation_mode,
                "budget": self.budget,
            },
        }

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(dumps17(self.to_dict()).encode()).hexdigest()[:16]


@dataclass
class AggregateReport:
    """Across-seed aggregation, bound verdicts and the attached theory report."""

    config: ExperimentConfig
    config_hash: str
    t: np.ndarray
    mean_grad_norm_sq: np.ndarray
    stderr_grad_norm_sq: np.ndarray
    mean_grad_norm: np.ndarray
    stderr_grad_norm: np.ndarray
    mean_f: np.ndarray
    min_mean_grad_norm_sq: float
    stderr_at_min: float
    t_at_min: int
    min_mean_grad_norm: float
    stderr_at_min_norm: float
    final_mean_grad_norm_sq: float
    final_stderr_grad_norm_sq: float
    final_mean_grad_norm: float
    final_stderr_grad_norm: float
    final_mean_f: float
    theory: theory.TheoryReport
    constants: theory.TheoremConstants
    admissibility: schedules.AdmissibilityReport | None
    checks: dict
    diverged_seeds: list[int]
    total_steps: int
    total_samples: int
    M: int | None
    T_w: int | None
    sigma_certificate: dict | None = None
    traces: list = field(repr=False, default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    def to_dict(self) -> dict:
        cfg = self.config
        prob = cfg.problem
        return {
            "config_hash": self.config_hash,
            "alg": cfg.alg,
            "beta": cfg.beta,
            "n_seeds": len(cfg.seeds),
            "validation_mode": cfg.validation_mode,
            "problem": prob.to_dict(),
            "schedule": cfg.schedule.to_dict(),
            "totals": {
                "T": self.total_steps,
                "M": self.M,
                "T_w": self.T_w,
                "samples": self.total_samples,
            },
            "problem_constants": {
                "L": self.constants.L,
                "sigma_sq": self.constants.sigma_sq,
                "f0_minus_fstar": self.constants.f0_minus_fstar,
                "sigma_certificate": self.sigma_certificate,
            },
            "theory": self.theory.to_dict(),
            "empirical": {
                "min_mean_grad_norm_sq": self.min_mean_grad_norm_sq,
                "stderr_at_min": self.stderr_at_min,
                "t_at_min": self.t_at_min,
                "min_mean_grad_norm": self.min_mean_grad_norm,
                "stderr_at_min_norm": self.stderr_at_min_norm,
                "final_mean_grad_norm_sq": self.final_mean_grad_norm_sq,
                "final_stderr_grad_norm_sq": self.final_stderr_grad_norm_sq,
                "final_mean_grad_norm": self.final_mean_grad_norm,
                "final_stderr_grad_norm": self.final_stderr_grad_norm,
                "final_mean_f": self.final_mean_f,
            },
            "checks": self.checks,
            "diverged_seeds": self.diverged_seeds,
        }


def _estimate_work(table: schedules.ScheduleTable, n_seeds: int, d: int) -> float:
    return float(table.T) * n_seeds * d * float(np.mean(table.batch))


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    record_theta: bool = False,
) -> AggregateReport:
    """Run every master seed, aggregate, evaluate theory, write artifacts.

    Deterministic given the config.  The seeds advance in lockstep, seed i
    sampling from stream (seeds[i], i, t).  A theta0 outside the problem's
    certified box is a ValueError before any step.  At the first step where
    any seed's gradient or iterate goes non-finite, ExperimentDivergence names
    the lowest-index such seed (in ``config.seeds`` order) and that step, even
    when a later seed would have diverged too; an iterate that leaves the
    certified box raises IterateOutsideCertifiedBox naming the lowest-index
    offending seed and the step, in the same order.
    """
    problem = config.problem.build()
    table, plan, regime, regime_params = config.schedule.build(problem.n)
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

    work = _estimate_work(table, len(config.seeds), problem.d)
    if work > config.budget:
        raise BudgetExceeded(
            f"estimated work {work:.3g} (T x seeds x d x mean batch) exceeds budget {config.budget:.3g}"
        )

    theta0 = np.random.default_rng((int(config.theta0_seed),)).standard_normal(problem.d)
    try:
        problem.check_iterate(theta0)
    except problems.IterateOutsideCertifiedBox as exc:
        raise ValueError(f"theta0 (theta0_seed {config.theta0_seed}): {exc}") from None

    try:
        traces = optim.run(
            config.alg,
            config.beta,
            table,
            problem,
            config.seeds,
            theta0=theta0,
            record_every=config.record_every,
            waive_admissibility=True,  # validated once above
            record_theta=record_theta,
        )
    except optim.NumericalDivergence as exc:
        # waived mode waives the admissibility check, not divergence
        raise ExperimentDivergence(exc.trace.seed, exc.step_index) from exc
    for tr in traces:
        tr.validation_waived = waived

    report = _aggregate(config, problem, table, plan, regime, regime_params, traces, admissibility)
    if out_dir is not None:
        write_artifacts(report, Path(out_dir))
    return report


def _aggregate(config, problem, table, plan, regime, regime_params, traces, admissibility):
    diverged_seeds = [tr.seed for tr in traces if tr.diverged]
    rows = min(tr.rows for tr in traces)
    t_axis = traces[0].t[:rows]
    gns = np.stack([tr.grad_norm_sq[:rows] for tr in traces])
    f_vals = np.stack([tr.f[:rows] for tr in traces])
    R = gns.shape[0]
    sqrt_R = math.sqrt(R)

    mean_sq = gns.mean(axis=0)
    stderr_sq = gns.std(axis=0, ddof=1) / sqrt_R if R > 1 else np.zeros_like(mean_sq)
    norms = np.sqrt(gns)
    mean_norm = norms.mean(axis=0)
    stderr_norm = norms.std(axis=0, ddof=1) / sqrt_R if R > 1 else np.zeros_like(mean_norm)

    i_min = int(np.argmin(mean_sq))
    i_min_norm = int(np.argmin(mean_norm))

    finals_sq = np.asarray([tr.final_grad_norm_sq for tr in traces])
    finals_norm = np.sqrt(finals_sq)
    finals_f = np.asarray([tr.final_f for tr in traces])

    # theta_0 is shared across seeds, so f(theta_0) - f* is deterministic
    theta0 = np.random.default_rng((int(config.theta0_seed),)).standard_normal(problem.d)
    f0_gap = float(problem.loss(theta0)) - problem.f_star

    constants = theory.TheoremConstants(
        L=problem.L,
        beta=config.beta,
        c=table.growth_constant_c,
        f0_minus_fstar=f0_gap,
        sigma_sq=problem.sigma_sq,
        alg=config.alg,
    )
    theory_report = theory.build_report(constants, table, regime, regime_params)

    stat_sq = float(mean_sq[i_min] + 3.0 * stderr_sq[i_min])
    stat_norm = float(mean_norm[i_min_norm] + 3.0 * stderr_norm[i_min_norm])
    checks = {
        "admissible": {
            "pass": bool(admissibility is not None and admissibility.admissible),
            "lr_max": admissibility.lr_max if admissibility else None,
            "lr_bound": admissibility.lr_bound if admissibility else None,
            "waived": config.validation_mode == "waived",
        },
        "theorem1_sq": {
            "pass": bool(stat_sq <= theory_report.rhs_sq),
            "statistic": stat_sq,
            "rhs": theory_report.rhs_sq,
            "margin": theory_report.rhs_sq - stat_sq,
        },
        "theorem1_norm": {
            "pass": bool(stat_norm <= theory_report.rhs_norm),
            "statistic": stat_norm,
            "rhs": theory_report.rhs_norm,
            "margin": theory_report.rhs_norm - stat_norm,
        },
        "no_divergence": {"pass": not diverged_seeds, "seeds": diverged_seeds},
    }

    search = getattr(problem, "sigma_search", None)
    certificate = None
    if search is not None:
        certificate = {
            "box_radius": search["box_radius"],
            "grid_points_per_coord": search["grid_points_per_coord"],
            "probe_points": search["probe_points"],
            "raw_max": search["raw_max"],
            "inflation": search["inflation"],
        }

    return AggregateReport(
        config=config,
        config_hash=config.config_hash,
        t=t_axis,
        mean_grad_norm_sq=mean_sq,
        stderr_grad_norm_sq=stderr_sq,
        mean_grad_norm=mean_norm,
        stderr_grad_norm=stderr_norm,
        mean_f=f_vals.mean(axis=0),
        min_mean_grad_norm_sq=float(mean_sq[i_min]),
        stderr_at_min=float(stderr_sq[i_min]),
        t_at_min=int(t_axis[i_min]),
        min_mean_grad_norm=float(mean_norm[i_min_norm]),
        stderr_at_min_norm=float(stderr_norm[i_min_norm]),
        final_mean_grad_norm_sq=float(finals_sq.mean()),
        final_stderr_grad_norm_sq=float(finals_sq.std(ddof=1) / sqrt_R) if R > 1 else 0.0,
        final_mean_grad_norm=float(finals_norm.mean()),
        final_stderr_grad_norm=float(finals_norm.std(ddof=1) / sqrt_R) if R > 1 else 0.0,
        final_mean_f=float(finals_f.mean()),
        theory=theory_report,
        constants=constants,
        admissibility=admissibility,
        checks=checks,
        diverged_seeds=diverged_seeds,
        total_steps=table.T,
        total_samples=int(table.batch.sum()),
        M=plan.M if plan is not None else None,
        T_w=plan.warmup_steps(config.schedule.warmup_phases)
        if plan is not None and config.schedule.warmup_phases is not None
        else None,
        sigma_certificate=certificate,
        traces=traces,
    )


def write_artifacts(report: AggregateReport, out_root: Path) -> Path:
    """Write trace_<seed>.csv per seed, aggregate.csv and report.json.

    The experiment directory is named by the config content hash; floats are
    serialized with 17 significant digits so reruns are byte-identical.
    """
    exp_dir = Path(out_root) / report.config_hash
    exp_dir.mkdir(parents=True, exist_ok=True)
    for tr in report.traces:
        lines = ["t,lr,batch,f,grad_norm_sq,lyapunov"]
        for k in range(tr.rows):
            lines.append(
                f"{int(tr.t[k])},{fmt_float(tr.lr[k])},{int(tr.batch[k])},"
                f"{fmt_float(tr.f[k])},{fmt_float(tr.grad_norm_sq[k])},{fmt_float(tr.lyapunov[k])}"
            )
        (exp_dir / f"trace_{tr.seed}.csv").write_text("\n".join(lines) + "\n")
    lines = ["t,mean_grad_norm_sq,stderr"]
    for k in range(report.t.shape[0]):
        lines.append(
            f"{int(report.t[k])},{fmt_float(report.mean_grad_norm_sq[k])},"
            f"{fmt_float(report.stderr_grad_norm_sq[k])}"
        )
    (exp_dir / "aggregate.csv").write_text("\n".join(lines) + "\n")
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
        lines = ["t,mean_delta_lyapunov,descent_rhs,stderr,ok"]
        for k in range(self.t.shape[0]):
            lines.append(
                f"{int(self.t[k])},{fmt_float(self.mean_delta[k])},"
                f"{fmt_float(self.descent_rhs[k])},{fmt_float(self.stderr[k])},"
                f"{int(self.ok[k])}"
            )
        return "\n".join(lines) + "\n"


def lyapunov_descent_audit(config: ExperimentConfig, min_seeds: int = 64) -> AuditReport:
    """Estimate E[L_{t+1} - L_t] per step and compare against the one-step bound.

    Requires the nshb parameterization and at least ``min_seeds`` master
    seeds.  Each audited step passes when the seed-mean of
    (L_{t+1} - L_t) + (1/2)(1-beta) eta_t ||grad f(theta_t)||^2
    - (1/2)(1-beta) eta_t sigma^2/b_t lies at or below 3 standard errors of
    that combined per-seed statistic.  All steps are audited for T <= 512,
    else 64 evenly spaced ones.
    """
    if config.alg != "nshb":
        raise ValueError("the Lyapunov descent audit is defined for the nshb parameterization")
    if len(config.seeds) < min_seeds:
        raise ValueError(f"audit needs at least {min_seeds} seeds, got {len(config.seeds)}")
    if config.record_every != 1:
        raise ValueError("audit needs record_every = 1 for consecutive Lyapunov values")

    problem = config.problem.build()
    table, _, _, _ = config.schedule.build(problem.n)
    report = run_experiment(config, out_dir=None)
    traces = report.traces
    T = table.T
    if T <= 512:
        audited = np.arange(T)
    else:
        audited = np.unique(np.linspace(0, T - 1, 64).astype(np.int64))

    # (R, T+1) Lyapunov series: per-step values plus the post-run value
    lyap = np.stack([np.append(tr.lyapunov, tr.final_lyapunov) for tr in traces])
    gns = np.stack([tr.grad_norm_sq for tr in traces])
    eta = np.asarray(table.lr)
    half = 0.5 * (1.0 - config.beta) * eta
    noise = half * problem.sigma_sq / np.asarray(table.batch, dtype=np.float64)

    delta = lyap[:, audited + 1] - lyap[:, audited]
    D = delta + half[audited] * gns[:, audited] - noise[audited]
    R = D.shape[0]
    mean_D = D.mean(axis=0)
    se_D = D.std(axis=0, ddof=1) / math.sqrt(R)
    ok = mean_D <= 3.0 * se_D

    mean_delta = delta.mean(axis=0)
    rhs = np.asarray(
        [
            theory.descent_inequality_rhs(
                float(eta[t]),
                config.beta,
                problem.sigma_sq,
                int(table.batch[t]),
                float(gns[:, t].mean()),
            )
            for t in audited
        ]
    )
    return AuditReport(
        t=audited,
        mean_delta=mean_delta,
        descent_rhs=rhs,
        stderr=se_D,
        ok=ok,
        n_seeds=R,
        all_ok=bool(np.all(ok)),
    )


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


def rate_fit(x, y, mode: str = "loglog") -> RateFit:
    """Fit log(y) against log(x) (mode 'loglog') or x itself (mode 'per-phase').

    Returns the slope with its standard error and a 95% confidence interval.
    Needs at least 4 points.
    """
    if mode not in ("loglog", "per-phase"):
        raise ValueError(f"unknown rate-fit mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.shape[0] < 4:
        raise ValueError(f"need at least 4 budget points, got {x.shape[0]}")
    if np.any(y <= 0):
        raise ValueError("y values must be positive for a log fit")
    X = np.log(x) if mode == "loglog" else x
    if mode == "loglog" and np.any(x <= 0):
        raise ValueError("x values must be positive for a log-log fit")
    coef, cov = np.polyfit(X, np.log(y), 1, cov=True)
    slope = float(coef[0])
    se = float(math.sqrt(cov[0, 0]))
    return RateFit(
        slope=slope,
        stderr=se,
        ci_low=slope - 1.96 * se,
        ci_high=slope + 1.96 * se,
        mode=mode,
        n_points=int(x.shape[0]),
    )
