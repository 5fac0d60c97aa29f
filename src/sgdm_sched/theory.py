"""Closed-form convergence-bound machinery.

Evaluates the Lyapunov coefficient and function, the exact bias term
B_T = 1/sum(lr) and variance term V_T = sum(lr/b)/sum(lr), the unified
upper bound on the minimum expected squared gradient norm, the per-regime
closed-form bounds on B_T and V_T, and the single-step descent inequality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import schedules
from ._fmt import dumps17

__all__ = [
    "TheoremConstants",
    "TheoryReport",
    "c_alg",
    "lyapunov_coefficient",
    "lyapunov_coefficient_array",
    "lyapunov_value",
    "theorem1_rhs",
    "corollary_bounds",
    "build_report",
    "descent_inequality_rhs",
    "REGIMES",
]

REGIMES = (
    "cor3.1-constant",
    "cor3.1-diminishing",
    "cor3.1-cosine",
    "cor3.1-polynomial",
    "cor3.2-constant",
    "cor3.2-diminishing",
    "cor3.2-cosine",
    "cor3.2-polynomial",
    "cor3.3",
    "cor3.4-constant",
    "cor3.4-cosine",
)


def c_alg(alg: str, beta: float) -> float:
    """Algorithm constant: 1/(1-beta) for nshb, 1 for shb."""
    return 1.0 / (1.0 - beta) if schedules.check_alg(alg) == "nshb" else 1.0


@dataclass(frozen=True)
class TheoremConstants:
    """Problem/algorithm constants entering the unified bound."""

    L: float
    beta: float
    c: float
    f0_minus_fstar: float
    sigma_sq: float
    alg: str

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be > 0, got {self.L}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.c < 1.0:
            raise ValueError(f"growth constant must be >= 1, got {self.c}")
        if self.f0_minus_fstar < 0.0:
            raise ValueError("initial suboptimality must be >= 0")
        if self.sigma_sq < 0.0:
            raise ValueError("sigma_sq must be >= 0")
        object.__setattr__(self, "alg", schedules.check_alg(self.alg))

    @property
    def C_alg(self) -> float:
        return c_alg(self.alg, self.beta)


def lyapunov_coefficient(eta_t: float, L: float, beta: float, *, strict: bool = True) -> float:
    """Momentum-norm coefficient A_t = (eta - L(1-beta) eta^2) / (2(1-beta)).

    Non-negative exactly for eta in [0, 1/(L(1-beta))]; with ``strict`` a
    negative value (inadmissible eta) raises instead of being returned.
    """
    if eta_t < 0:
        raise ValueError(f"eta must be >= 0, got {eta_t}")
    A = (eta_t - L * (1.0 - beta) * eta_t * eta_t) / (2.0 * (1.0 - beta))
    if strict and A < 0.0:
        raise ValueError(
            f"eta={eta_t:.6g} exceeds 1/(L(1-beta)) = {1.0 / (L * (1.0 - beta)):.6g}; "
            "the Lyapunov coefficient would be negative"
        )
    return float(A)


def lyapunov_coefficient_array(eta: np.ndarray, L: float, beta: float) -> np.ndarray:
    """Vectorized A_t, no sign check (waived runs may be inadmissible)."""
    eta = np.asarray(eta, dtype=np.float64)
    with np.errstate(over="ignore"):  # absurd waived rates may overflow; fine
        return (eta - L * (1.0 - beta) * eta * eta) / (2.0 * (1.0 - beta))


def lyapunov_value(f_theta, momentum_norm_sq, A_prev: float, t: int):
    """f(theta_t) for t = 0, else f(theta_t) + A_{t-1} * ||m_{t-1}||^2.

    f_theta and momentum_norm_sq are floats or equal-shape arrays holding one
    entry per seed; the result has the same shape.
    """
    if t < 0:
        raise ValueError("step index must be >= 0")
    if t == 0:
        return f_theta
    return f_theta + A_prev * momentum_norm_sq


@dataclass(frozen=True)
class TheoryReport:
    """Exact bound ingredients plus optional per-regime closed-form bounds.

    ``admissible_lr_max`` is None when no admissible rate exists
    (c >= 1/beta^2); the other fields are still plain formula values, but the
    guarantee's hypotheses cannot be met.
    """

    B_T: float
    V_T: float
    rhs_sq: float
    rhs_norm: float
    B_bound: float | None
    V_bound: float | None
    regime: str | None
    admissible_lr_max: float | None
    c: float
    C_alg: float

    def to_json(self) -> str:
        return dumps17(asdict(self))


def theorem1_rhs(constants: TheoremConstants, table: schedules.ScheduleTable) -> TheoryReport:
    """Exact B_T, V_T by direct summation and the bound
    2 * C_alg * (f(theta_0) - f*) * B_T + sigma^2 * V_T.

    The gradient-norm (non-squared) form is the square root (``rhs_norm``).
    """
    lam = [float(x) for x in table.lr]
    s_lam = math.fsum(lam)
    if not s_lam > 0.0:
        raise ValueError("sum of learning rates must be positive")
    B_T = 1.0 / s_lam
    V_T = math.fsum(l / float(b) for l, b in zip(lam, table.batch)) / s_lam
    rhs_sq = 2.0 * constants.C_alg * constants.f0_minus_fstar * B_T + constants.sigma_sq * V_T
    try:
        bound = schedules.admissible_lr_bound(constants.beta, constants.L, constants.c, constants.alg)
    except schedules.MomentumTooLarge:
        bound = None
    return TheoryReport(
        B_T=B_T,
        V_T=V_T,
        rhs_sq=rhs_sq,
        rhs_norm=math.sqrt(rhs_sq),
        B_bound=None,
        V_bound=None,
        regime=None,
        admissible_lr_max=bound,
        c=constants.c,
        C_alg=constants.C_alg,
    )


def _req(params: dict, *names: str) -> list[float]:
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ValueError(f"regime parameter {name!r} is required")
        out.append(float(params[name]))
    return out


def _decaying_B_bound(kind: str, params: dict) -> float:
    (T,) = _req(params, "T")
    if T < 1:
        raise ValueError("T must be >= 1")
    if kind == "constant":
        (lam,) = _req(params, "lambda_max")
        return 1.0 / (lam * T)
    if kind == "diminishing":
        (lam,) = _req(params, "lambda_max")
        return 1.0 / (2.0 * lam * (math.sqrt(T + 1.0) - 1.0))
    if kind == "cosine":
        lam_min, lam_max = _req(params, "lambda_min", "lambda_max")
        return 2.0 / ((lam_min + lam_max) * T)
    if kind == "polynomial":
        lam_min, lam_max, p = _req(params, "lambda_min", "lambda_max", "p")
        if p <= 0:
            raise ValueError("p must be > 0")
        return (p + 1.0) / ((p * lam_min + lam_max) * T)
    raise ValueError(f"unknown decaying kind {kind!r}")


def _growing_batch_V_bound(kind: str, params: dict) -> float:
    delta, b0, K_max, E_max, T = _req(params, "delta", "b0", "K_max", "E_max", "T")
    if delta <= 1.0:
        raise ValueError(f"delta must be > 1, got {delta}")
    base = delta * K_max * E_max / ((delta - 1.0) * b0)
    if kind == "constant":
        return base / T
    if kind == "diminishing":
        return base / (2.0 * (math.sqrt(T + 1.0) - 1.0))
    if kind == "cosine":
        lam_min, lam_max = _req(params, "lambda_min", "lambda_max")
        return 2.0 * lam_max * base / ((lam_min + lam_max) * T)
    if kind == "polynomial":
        lam_min, lam_max, p = _req(params, "lambda_min", "lambda_max", "p")
        return (p + 1.0) * lam_max * base / ((p * lam_min + lam_max) * T)
    raise ValueError(f"unknown decaying kind {kind!r}")


def _joint_growth_bounds(params: dict, M_key: str) -> tuple[float, float]:
    delta, gamma, lam0, b0, K_min, E_min, K_max, E_max, M = _req(
        params, "delta", "gamma", "lambda0", "b0", "K_min", "E_min", "K_max", "E_max", M_key
    )
    if delta <= 1.0:
        raise ValueError(f"delta must be > 1, got {delta}")
    if gamma <= 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    gamma_hat = gamma / delta
    if gamma_hat >= 1.0:
        raise ValueError(f"need gamma/delta < 1, got {gamma_hat:.6g}")
    B = delta**2 / (lam0 * K_min * E_min * gamma**M)
    # V combines sum(lr/b) <= K_max E_max lambda0 / (b0 (1-gamma_hat)) with
    # sum(lr) > lambda0 K_min E_min gamma^M / delta^2; lambda0 cancels, so the
    # bound is dimensionless in the learning rate (as V_T itself is)
    V = K_max * E_max * delta**2 / (K_min * E_min * b0 * (1.0 - gamma_hat) * gamma**M)
    return B, V


def corollary_bounds(regime: str, **params) -> tuple[float, float]:
    """Closed-form (B_bound, V_bound) for one of the scheduling regimes.

    Regime names: cor3.1-{constant,diminishing,cosine,polynomial} (fixed batch),
    cor3.2-{...} (growing batch, decaying LR), cor3.3 (joint exponential
    growth), cor3.4-{constant,cosine} (warm-up).  Parameters carry the symbols
    each formula needs; realized maxima/minima of a concrete plan are accepted
    for K_max/K_min/E_max/E_min.
    """
    if regime.startswith("cor3.1-"):
        kind = regime[len("cor3.1-") :]
        B = _decaying_B_bound(kind, params)
        (b,) = _req(params, "batch")
        if b < 1:
            raise ValueError("batch must be >= 1")
        return B, 1.0 / b
    if regime.startswith("cor3.2-"):
        kind = regime[len("cor3.2-") :]
        return _decaying_B_bound(kind, params), _growing_batch_V_bound(kind, params)
    if regime == "cor3.3":
        return _joint_growth_bounds(params, "M")
    if regime in ("cor3.4-constant", "cor3.4-cosine"):
        B_w, V_w = _joint_growth_bounds(params, "M_w")
        T, T_w, gamma, lam0, M_w = _req(params, "T", "T_w", "gamma", "lambda0", "M_w")
        if T <= T_w:
            raise ValueError("warm-up bounds need at least one post-warm-up step (T > T_w)")
        lam_max = lam0 * gamma**M_w
        post = dict(params)
        post.update(T=T - T_w, lambda_max=lam_max)
        kind = regime[len("cor3.4-") :]
        if kind == "cosine":
            _req(params, "lambda_min")
        B = B_w + _decaying_B_bound(kind, post)
        V = V_w + _growing_batch_V_bound(kind, post)
        return B, V
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")


def build_report(
    constants: TheoremConstants,
    table: schedules.ScheduleTable,
    regime: str | None = None,
    regime_params: dict | None = None,
) -> TheoryReport:
    """theorem1_rhs plus the applicable corollary bounds, in one report."""
    report = theorem1_rhs(constants, table)
    if regime is not None:
        B_bound, V_bound = corollary_bounds(regime, **(regime_params or {}))
        report = replace(report, B_bound=B_bound, V_bound=V_bound, regime=regime)
    return report


def descent_inequality_rhs(
    eta_t: float, beta: float, sigma_sq: float, b_t: int, grad_norm_sq_expectation: float
) -> float:
    """Upper bound on E[L_{t+1} - L_t] for one admissible step:
    -(1/2)(1-beta) eta ||grad||^2-term + (1/2)(1-beta) eta sigma^2 / b."""
    if b_t < 1:
        raise ValueError("batch size must be >= 1")
    half = 0.5 * (1.0 - beta) * eta_t
    return -half * grad_norm_sq_expectation + half * sigma_sq / b_t
