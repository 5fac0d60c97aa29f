"""Closed-form convergence-bound machinery.

Evaluates the Lyapunov coefficient and function, the exact bias term
B_T = 1/sum(lr) and variance term V_T = sum(lr/b)/sum(lr), the unified
upper bound on the minimum expected squared gradient norm, the per-regime
closed-form bounds on B_T and V_T (each V bound is its B bound times a bound
on sum(lr/b); the warm-up bound cor3.4 is cor3.3 over the warm-up phases plus
cor3.2 over the tail), and the single-step descent inequality, whose two
terms ``descent_terms`` gives to it and to the audit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import schedules
from ._fmt import dumps17

__all__ = [
    "TheoremConstants",
    "TheoryReport",
    "lyapunov_coefficient_array",
    "lyapunov_value",
    "corollary_bounds",
    "build_report",
    "descent_terms",
    "descent_inequality_rhs",
    "REGIMES",
]

# every corollary name: one per regime and rate kind it takes
REGIMES = tuple(
    corollary.format(kind=kind)
    for corollary, kinds, _ in schedules._REGIMES.values()
    for kind in kinds or ("",)
)


@dataclass(frozen=True)
class TheoremConstants:
    """Problem/algorithm constants entering the unified bound."""

    L: float
    beta: float
    f0_minus_fstar: float
    sigma_sq: float
    alg: str

    def __post_init__(self):
        for name in ("L", "f0_minus_fstar", "sigma_sq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.L > 0:
            raise ValueError(f"L must be > 0, got {self.L}")
        schedules.check_beta(self.beta)
        if self.f0_minus_fstar < 0.0:
            raise ValueError("initial suboptimality must be >= 0")
        if self.sigma_sq < 0.0:
            raise ValueError("sigma_sq must be >= 0")
        object.__setattr__(self, "alg", schedules.check_alg(self.alg))

    @property
    def C_alg(self) -> float:
        """Algorithm constant: 1/(1-beta) for nshb, 1 for shb."""
        return 1.0 / (1.0 - self.beta) if self.alg == "nshb" else 1.0


def lyapunov_coefficient_array(eta: np.ndarray, L: float, beta: float) -> np.ndarray:
    """Momentum-norm coefficients A_t = (eta_t - L(1-beta) eta_t^2) / (2(1-beta)).

    Non-negative exactly for eta_t in [0, 1/(L(1-beta))]; there is no sign
    check, since waived runs may be inadmissible.
    """
    eta = np.asarray(eta, dtype=np.float64)
    with np.errstate(over="ignore"):  # absurd waived rates may overflow; fine
        return (eta - L * (1.0 - beta) * eta * eta) / (2.0 * (1.0 - beta))


def lyapunov_value(f_theta, momentum_norm_sq, A_prev, t):
    """f(theta_t) for t = 0, else f(theta_t) + A_{t-1} * ||m_{t-1}||^2.

    f_theta and momentum_norm_sq are floats or equal-shape arrays holding one
    entry per seed.  A_prev and t may also be arrays that broadcast against
    them, one entry per step, so one call evaluates a block of steps.  The
    result is an array of the broadcast shape (0-d for scalar arguments).
    """
    t = np.asarray(t)
    if (t < 0).any():
        raise ValueError("step index must be >= 0")
    return np.where(t == 0, f_theta, f_theta + A_prev * momentum_norm_sq)


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


def _req(params: dict, *names: str) -> list[float]:
    out = []
    for name in names:
        if name not in params or params[name] is None:
            raise ValueError(f"regime parameter {name!r} is required")
        value = float(params[name])
        if not math.isfinite(value):
            raise ValueError(f"regime parameter {name!r} must be finite, got {value}")
        out.append(value)
    return out


def _positive(value: float, symbols: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{symbols} must be positive and finite, got {value}")
    return value


def _decaying_B_bound(kind: str, params: dict) -> float:
    (T,) = _req(params, "T")
    if not T >= 1:
        raise ValueError("T must be >= 1")
    if kind == "constant":
        (lam,) = _req(params, "lambda_max")
        return 1.0 / _positive(lam * T, "lambda_max*T")
    if kind == "diminishing":
        (lam,) = _req(params, "lambda_max")
        rate_sum = 2.0 * lam * (math.sqrt(T + 1.0) - 1.0)
        return 1.0 / _positive(rate_sum, "2*lambda_max*(sqrt(T+1)-1)")
    if kind == "cosine":
        lam_min, lam_max = _req(params, "lambda_min", "lambda_max")
        return 2.0 / _positive((lam_min + lam_max) * T, "(lambda_min+lambda_max)*T")
    if kind == "polynomial":
        lam_min, lam_max, p = _req(params, "lambda_min", "lambda_max", "p")
        if not p > 0:
            raise ValueError("p must be > 0")
        return (p + 1.0) / _positive((p * lam_min + lam_max) * T, "(p*lambda_min+lambda_max)*T")
    raise ValueError(f"unknown decaying kind {kind!r}")


# the joint-growth symbols besides its exponent, M for cor3.3 and M_w for cor3.4
_JOINT = ("delta", "gamma", "lambda0", "b0", "K_min", "E_min", "K_max", "E_max")


def corollary_bounds(regime: str, **params) -> tuple[float, float]:
    """Closed-form (B_bound, V_bound) for one of the scheduling regimes.

    Regime names: cor3.1-{constant,diminishing,cosine,polynomial} (fixed batch),
    cor3.2-{...} (growing batch, decaying LR), cor3.3 (joint exponential
    growth), cor3.4-{constant,cosine} (warm-up: cor3.3 up to phase M_w plus
    cor3.2 over the T - T_w steps after it).  Parameters carry the symbols
    each formula needs; realized maxima/minima of a concrete plan are accepted
    for K_max/K_min/E_max/E_min.  A symbol that is missing, not finite or out of
    range, or a divisor that is not positive, is a ValueError naming it.
    """
    corollary, dash, kind = regime.partition("-")
    if dash and corollary in ("cor3.1", "cor3.2"):
        B = _decaying_B_bound(kind, params)
        if corollary == "cor3.2":
            # sum(lr/b) <= sum_m K_max E_max lambda_max / (b0 delta^m), a geometric series
            delta, b0, K_max, E_max, lam_max = _req(
                params, "delta", "b0", "K_max", "E_max", "lambda_max")
            if not delta > 1.0:
                raise ValueError(f"delta must be > 1, got {delta}")
            lr_over_b = lam_max * delta * K_max * E_max / ((delta - 1.0) * _positive(b0, "b0"))
            return B, B * lr_over_b
        (b,) = _req(params, "batch")
        if not b >= 1:
            raise ValueError("batch must be >= 1")
        return B, 1.0 / b
    if regime == "cor3.3":
        delta, gamma, lam0, b0, K_min, E_min, K_max, E_max, M = _req(params, *_JOINT, "M")
        if not delta > 1.0:
            raise ValueError(f"delta must be > 1, got {delta}")
        if not gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        gamma_hat = gamma / delta
        if not gamma_hat < 1.0:
            raise ValueError(f"need gamma/delta < 1, got {gamma_hat:.6g}")
        # sum(lr) > lambda0 K_min E_min gamma^M / delta^2; phase m's rate over its batch
        # is lambda0 gamma_hat^m / b0, so sum(lr/b) < lambda0 K_max E_max / (b0 (1-gamma_hat))
        B = delta**2 / _positive(lam0 * K_min * E_min * gamma**M, "lambda0*K_min*E_min*gamma^M")
        lr_over_b = lam0 * K_max * E_max / (_positive(b0, "b0") * (1.0 - gamma_hat))
        return B, B * lr_over_b
    if corollary == "cor3.4" and kind in ("constant", "cosine"):
        M_w = _req(params, *_JOINT, "M_w")[-1]  # a missing symbol is named in cor3.3's order
        B_w, V_w = corollary_bounds("cor3.3", **{**params, "M": M_w})
        T, T_w, gamma, lam0 = _req(params, "T", "T_w", "gamma", "lambda0")
        if not T > T_w:
            raise ValueError("warm-up bounds need at least one post-warm-up step (T > T_w)")
        lam_max = float(schedules.growth_rates(lam0, gamma, M_w)[-1])
        B, V = corollary_bounds(f"cor3.2-{kind}", **{**params, "T": T - T_w, "lambda_max": lam_max})
        return B_w + B, V_w + V
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")


def build_report(
    constants: TheoremConstants,
    table: schedules.ScheduleTable,
    regime: str | None = None,
    regime_params: dict | None = None,
) -> TheoryReport:
    """Exact B_T, V_T by direct summation, the bound
    2 * C_alg * (f(theta_0) - f*) * B_T + sigma^2 * V_T, and, given a regime,
    its corollary's closed-form (B_bound, V_bound).

    The gradient-norm (non-squared) form is the square root (``rhs_norm``).
    The growth constant c is the table's own.  A sum beyond the float range
    and a report value that is not finite (a subnormal rate sum makes B_T
    inf) are ValueErrors naming the value.
    """
    lam = [float(x) for x in table.lr]
    try:
        s_lam = math.fsum(lam)
        s_lam_b = math.fsum(l / float(b) for l, b in zip(lam, table.batch))
    except OverflowError:
        raise ValueError("sum of learning rates overflows the float range") from None
    if not s_lam > 0.0:
        raise ValueError("sum of learning rates must be positive")
    B_T = 1.0 / s_lam
    V_T = s_lam_b / s_lam
    rhs_sq = 2.0 * constants.C_alg * constants.f0_minus_fstar * B_T + constants.sigma_sq * V_T
    c = table.growth_constant_c
    try:
        bound = schedules.admissible_lr_bound(constants.beta, constants.L, c, constants.alg)
    except schedules.MomentumTooLarge:
        bound = None
    B_bound = V_bound = None
    if regime is not None:
        B_bound, V_bound = corollary_bounds(regime, **(regime_params or {}))
    report = TheoryReport(
        B_T=B_T,
        V_T=V_T,
        rhs_sq=rhs_sq,
        rhs_norm=math.sqrt(rhs_sq),
        B_bound=B_bound,
        V_bound=V_bound,
        regime=regime,
        admissible_lr_max=bound,
        c=c,
        C_alg=constants.C_alg,
    )
    for name, value in vars(report).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"theory report value {name} = {value} is not finite")
    return report


def descent_terms(eta_t, beta: float, sigma_sq: float, b_t):
    """The descent inequality's gradient coefficient (1/2)(1-beta) eta_t and
    noise term (1/2)(1-beta) eta_t sigma^2 / b_t, for floats or per-step arrays."""
    if np.any(b_t < 1):
        raise ValueError("batch size must be >= 1")
    half = 0.5 * (1.0 - beta) * eta_t
    return half, half * sigma_sq / b_t


def descent_inequality_rhs(eta_t, beta: float, sigma_sq: float, b_t, grad_norm_sq_expectation):
    """Upper bound on E[L_{t+1} - L_t] for one admissible step: -half * the
    ||grad||^2-term + noise, with (half, noise) the ``descent_terms``.  Floats,
    or arrays with one entry per step that give every step's bound at once."""
    half, noise = descent_terms(eta_t, beta, sigma_sq, b_t)
    return -half * grad_norm_sq_expectation + noise
