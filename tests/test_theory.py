"""Bound machinery: Lyapunov coefficient, exact bias/variance terms, corollary
bounds and their dominance over the exact sums."""

import json
import math

import numpy as np
import pytest

from sgdm_sched import schedules, theory
from sgdm_sched.schedules import LrSchedule, PhasePlan, build_constant_bs_table, build_increasing_bs_table
from sgdm_sched.theory import (
    TheoremConstants,
    corollary_bounds,
    descent_inequality_rhs,
    lyapunov_coefficient,
    lyapunov_value,
    theorem1_rhs,
)

from conftest import random_decaying_lr, random_plan

# float slack for dominance checks: constant-LR B_T EQUALS its bound in exact
# arithmetic, so pure roundoff must not count as a violation
REL_SLACK = 1 + 1e-12


def exact_terms(table):
    lam = [float(x) for x in table.lr]
    s = math.fsum(lam)
    return 1.0 / s, math.fsum(l / float(b) for l, b in zip(lam, table.batch)) / s


class TestLyapunovCoefficient:
    def test_zero_step_size(self):
        assert lyapunov_coefficient(0.0, L=3.0, beta=0.5) == 0.0

    def test_boundary_root(self):
        L, beta = 2.0, 0.5
        eta = 1.0 / (L * (1 - beta))
        assert lyapunov_coefficient(eta, L, beta) == pytest.approx(0.0, abs=1e-18)

    def test_interior_value(self):
        # (0.5 - 1*0.5*0.25) / (2*0.5) = 0.375
        assert lyapunov_coefficient(0.5, L=1.0, beta=0.5) == pytest.approx(0.375)

    def test_nonnegative_across_admissible_range(self):
        L, beta = 2.5, 0.7
        for eta in np.linspace(0.0, 1.0 / (L * (1 - beta)), 200):
            assert lyapunov_coefficient(float(eta), L, beta) >= 0.0

    def test_strict_rejects_oversized_eta(self):
        with pytest.raises(ValueError, match="negative"):
            lyapunov_coefficient(2.1, L=1.0, beta=0.5)  # bound is 2.0
        # non-strict evaluation returns the (negative) raw value
        assert lyapunov_coefficient(2.1, L=1.0, beta=0.5, strict=False) < 0.0


class TestLyapunovValue:
    def test_step_zero_is_f(self):
        assert lyapunov_value(3.0, momentum_norm_sq=123.0, A_prev=9.0, t=0) == 3.0

    def test_momentum_term_added(self):
        assert lyapunov_value(3.0, momentum_norm_sq=4.0, A_prev=0.375, t=5) == pytest.approx(4.5)

    def test_zero_coefficient(self):
        assert lyapunov_value(3.0, momentum_norm_sq=4.0, A_prev=0.0, t=7) == 3.0


class TestTheoremRhs:
    def test_constant_table_terms(self):
        table = build_constant_bs_table(LrSchedule("constant", lambda_max=0.1), b=10, T=100)
        constants = TheoremConstants(L=1.0, beta=0.0, c=1.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        rep = theorem1_rhs(constants, table)
        assert rep.B_T == pytest.approx(0.1, rel=1e-15)
        assert rep.V_T == pytest.approx(0.1, rel=1e-15)
        assert rep.rhs_sq == pytest.approx(0.3, rel=1e-15)
        assert rep.rhs_norm == pytest.approx(math.sqrt(0.3), rel=1e-15)

    def test_calg_scaling(self):
        table = build_constant_bs_table(LrSchedule("constant", lambda_max=0.1), b=10, T=100)
        constants = TheoremConstants(L=1.0, beta=0.5, c=1.0, f0_minus_fstar=1.0,
                                     sigma_sq=0.0, alg="nshb")
        rep = theorem1_rhs(constants, table)
        assert constants.C_alg == 2.0
        assert rep.rhs_sq == pytest.approx(0.4, rel=1e-15)  # 2 * 2 * 1 * 0.1

    def test_variance_term_is_inverse_batch_for_any_lr(self, rng):
        # power-of-two batch: exact; otherwise within a few ulp
        for b, tol in ((16, 0.0), (10, 1e-15)):
            for _ in range(5):
                lr = random_decaying_lr(rng)
                T = int(rng.integers(2, 50))
                if lr.kind == "cosine":
                    table = build_constant_bs_table(lr, b=b, T=4 * T, dataset_size=4 * b)
                else:
                    table = build_constant_bs_table(lr, b=b, T=T)
                rep = theorem1_rhs(
                    TheoremConstants(L=1.0, beta=0.0, c=1.0, f0_minus_fstar=0.0,
                                     sigma_sq=1.0, alg="shb"),
                    table,
                )
                if tol == 0.0:
                    assert rep.V_T == 1.0 / b
                else:
                    assert rep.V_T == pytest.approx(1.0 / b, rel=tol)

    def test_rejects_zero_lr_sum(self):
        table = schedules.ScheduleTable(lr=np.zeros(3), batch=np.ones(3, dtype=np.int64), T=3)
        constants = TheoremConstants(L=1.0, beta=0.0, c=1.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        with pytest.raises(ValueError, match="positive"):
            theorem1_rhs(constants, table)


class TestCorollaryBounds:
    def test_diminishing_bound_and_dominance(self):
        # bound = 1/(2 * 1 * (sqrt(4) - 1)) = 0.5; exact B_3 = 1/(1 + 1/sqrt2 + 1/sqrt3)
        B, V = corollary_bounds("cor3.1-diminishing", lambda_max=1.0, T=3, batch=2)
        assert B == pytest.approx(0.5)
        table = build_constant_bs_table(LrSchedule("diminishing", lambda_max=1.0), b=2, T=3)
        B_exact, _ = exact_terms(table)
        assert B_exact == pytest.approx(1.0 / (1.0 + 1.0 / math.sqrt(2) + 1.0 / math.sqrt(3)))
        assert B_exact <= B

    def test_polynomial_bound(self):
        B, V = corollary_bounds("cor3.1-polynomial", lambda_max=1.0, lambda_min=0.0,
                                p=1.0, T=10, batch=4)
        assert B == pytest.approx(0.2)
        assert V == 0.25

    def test_joint_growth_example(self):
        # delta^2 / (lambda0 K_min E_min gamma^M) = 4 / (0.1 * 4 * 1 * 1.5^3)
        B, V = corollary_bounds(
            "cor3.3", delta=2.0, gamma=1.5, lambda0=0.1, b0=8,
            K_min=4, K_max=4, E_min=1, E_max=1, M=3,
        )
        assert B == pytest.approx(4.0 / (0.1 * 4 * 1.5**3))
        assert B == pytest.approx(2.962962962962963)
        gamma_hat = 1.5 / 2.0
        # V is lr-dimensionless: K_max E_max delta^2 / (K_min E_min b0 (1-g) gamma^M)
        assert V == pytest.approx(4 * 1 * 4.0 / (4 * 1 * 8 * (1 - gamma_hat) * 1.5**3))

    def test_rejects_bad_growth_factors(self):
        with pytest.raises(ValueError):
            corollary_bounds("cor3.3", delta=1.0, gamma=0.9, lambda0=0.1, b0=8,
                             K_min=1, K_max=1, E_min=1, E_max=1, M=2)
        with pytest.raises(ValueError, match="gamma/delta"):
            corollary_bounds("cor3.3", delta=1.5, gamma=1.6, lambda0=0.1, b0=8,
                             K_min=1, K_max=1, E_min=1, E_max=1, M=2)

    def test_warmup_needs_post_warmup_steps(self):
        with pytest.raises(ValueError, match="T > T_w"):
            corollary_bounds("cor3.4-constant", delta=2.0, gamma=1.5, lambda0=0.1,
                             b0=8, K_min=1, K_max=1, E_min=1, E_max=1, M_w=2,
                             T=10, T_w=10)

    def test_exponential_decay_affine_in_M(self):
        # log B_bound falls by exactly log(gamma) per extra phase
        gamma = 1.5
        logs = [
            math.log(corollary_bounds(
                "cor3.3", delta=2.0, gamma=gamma, lambda0=0.05, b0=8,
                K_min=2, K_max=4, E_min=1, E_max=2, M=M,
            )[0])
            for M in range(0, 11)
        ]
        diffs = np.diff(logs)
        assert np.all(np.abs(diffs + math.log(gamma)) < 1e-9)


class TestBoundDominance:
    """Randomized: exact sums never exceed the closed-form bounds."""

    def test_cor31_dominance(self, rng):
        constants = TheoremConstants(L=1.0, beta=0.0, c=1.0, f0_minus_fstar=0.0,
                                     sigma_sq=1.0, alg="shb")
        for _ in range(60):
            lr = random_decaying_lr(rng)
            b = int(rng.integers(1, 65))
            if lr.kind == "cosine":
                K, E = int(rng.integers(1, 10)), int(rng.integers(1, 10))
                table = build_constant_bs_table(lr, b=b, T=K * E, dataset_size=K * b)
            else:
                table = build_constant_bs_table(lr, b=b, T=int(rng.integers(1, 400)))
            B_exact, V_exact = exact_terms(table)
            B, V = corollary_bounds(
                f"cor3.1-{lr.kind}", lambda_max=lr.lambda_max, lambda_min=lr.lambda_min,
                p=lr.p, T=table.T, batch=b,
            )
            assert B_exact <= B * REL_SLACK, lr
            assert V_exact <= V * REL_SLACK, lr

    def test_cor32_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)
            lr = random_decaying_lr(rng)
            table = build_increasing_bs_table(lr, plan)
            B_exact, V_exact = exact_terms(table)
            B, V = corollary_bounds(
                f"cor3.2-{lr.kind}", lambda_max=lr.lambda_max, lambda_min=lr.lambda_min,
                p=lr.p, T=table.T, delta=plan.delta, b0=plan.b0,
                K_max=max(plan.steps_per_epoch_all), E_max=max(plan.epochs_per_phase),
            )
            assert B_exact <= B * REL_SLACK, (lr, plan)
            assert V_exact <= V * REL_SLACK, (lr, plan)

    def test_cor33_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)
            gamma = float(rng.uniform(1.01, plan.delta - 1e-6))
            lr = LrSchedule("exp_growth", gamma=gamma, lambda0=float(rng.uniform(0.001, 0.2)))
            table = build_increasing_bs_table(lr, plan)
            B_exact, V_exact = exact_terms(table)
            B, V = corollary_bounds(
                "cor3.3", delta=plan.delta, gamma=gamma, lambda0=lr.lambda0, b0=plan.b0,
                K_min=min(plan.steps_per_epoch_all), K_max=max(plan.steps_per_epoch_all),
                E_min=min(plan.epochs_per_phase), E_max=max(plan.epochs_per_phase),
                M=plan.M,
            )
            assert B_exact <= B * REL_SLACK, (lr, plan)
            assert V_exact <= V * REL_SLACK, (lr, plan)

    def test_cor34_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)
            if plan.M < 1:
                continue
            gamma = float(rng.uniform(1.01, plan.delta - 1e-6))
            Mw = int(rng.integers(0, plan.M))  # strictly before the last phase
            kind = str(rng.choice(["constant", "cosine"]))
            lr = LrSchedule(f"warmup_{kind}", gamma=gamma,
                            lambda0=float(rng.uniform(0.001, 0.2)),
                            warmup_phases=Mw, lambda_min=0.0)
            table = build_increasing_bs_table(lr, plan)
            B_exact, V_exact = exact_terms(table)
            B, V = corollary_bounds(
                f"cor3.4-{kind}", delta=plan.delta, gamma=gamma, lambda0=lr.lambda0,
                b0=plan.b0, K_min=min(plan.steps_per_epoch_all),
                K_max=max(plan.steps_per_epoch_all),
                E_min=min(plan.epochs_per_phase), E_max=max(plan.epochs_per_phase),
                M_w=Mw, T=plan.total_steps, T_w=plan.warmup_steps(Mw), lambda_min=0.0,
            )
            assert B_exact <= B * REL_SLACK, (lr, plan)
            assert V_exact <= V * REL_SLACK, (lr, plan)


class TestVarianceTermDecay:
    def test_vanishing_variance_with_sustained_phases(self):
        # batch doubles each phase; epochs triple so that T grows geometrically
        # (with equal-length phases T is only linear in M and the 1/4 factor
        # is unreachable; see the epoch-tripling rationale in the README)
        def v_term(M):
            plan = PhasePlan(b0=8, delta=2.0,
                             epochs_per_phase=tuple(3**m for m in range(M + 1)),
                             dataset_size=8 * 2**M)
            table = build_increasing_bs_table(LrSchedule("constant", lambda_max=0.1), plan)
            return exact_terms(table)[1]

        assert v_term(8) < v_term(2) / 4.0


class TestRateClassSanity:
    def test_constant_lr_bias_scales_exactly(self):
        lam = 0.37
        values = []
        for T in (10, 100, 1000, 10_000):
            table = build_constant_bs_table(LrSchedule("constant", lambda_max=lam), b=1, T=T)
            B_exact, _ = exact_terms(table)
            values.append(B_exact * T)
        for v in values:
            assert abs(v - 1.0 / lam) <= 1e-12 * (1.0 / lam)

    def test_diminishing_bias_is_half_power(self):
        lam = 1.0
        for T in (100, 10_000, 1_000_000):
            lr = lam / np.sqrt(np.arange(T, dtype=np.float64) + 1.0)
            s = float(np.sum(lr))  # pairwise summation; plenty for a band check
            ratio = math.sqrt(T) / s
            assert 0.5 / lam <= ratio <= 0.56 / lam, T


class TestDescentInequalityRhs:
    def test_noise_free_is_nonpositive(self):
        assert descent_inequality_rhs(0.1, 0.5, sigma_sq=0.0, b_t=4,
                                      grad_norm_sq_expectation=2.0) < 0.0

    def test_noise_term_value(self):
        # (1/2)(1-0.5)(0.1)(4/4) = 0.025
        assert descent_inequality_rhs(0.1, 0.5, sigma_sq=4.0, b_t=4,
                                      grad_norm_sq_expectation=0.0) == pytest.approx(0.025)

    def test_balance_point(self):
        assert descent_inequality_rhs(0.2, 0.3, sigma_sq=2.0, b_t=8,
                                      grad_norm_sq_expectation=2.0 / 8) == pytest.approx(0.0)


class TestReportSerialization:
    def test_exact_field_names(self):
        table = build_constant_bs_table(LrSchedule("constant", lambda_max=0.1), b=10, T=100)
        constants = TheoremConstants(L=1.0, beta=0.0, c=1.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        rep = theory.build_report(constants, table, "cor3.1-constant",
                                  {"lambda_max": 0.1, "T": 100, "batch": 10})
        text = rep.to_json()
        assert list(json.loads(text).keys()) == [
            "B_T", "V_T", "rhs_sq", "rhs_norm", "B_bound", "V_bound",
            "regime", "admissible_lr_max", "c", "C_alg",
        ]
        assert '"regime": "cor3.1-constant"' in text
