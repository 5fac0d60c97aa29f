"""Bound machinery: Lyapunov coefficient, exact bias/variance terms, corollary
bounds and their dominance over the exact sums."""

import json
import math

import numpy as np
import pytest

from sgdm_sched import optim, schedules, theory
from sgdm_sched.problems import QuadraticMeanProblem
from sgdm_sched.schedules import ScheduleSpec
from sgdm_sched.theory import (
    TheoremConstants,
    build_report,
    corollary_bounds,
    descent_inequality_rhs,
    lyapunov_coefficient_array,
    lyapunov_value,
)

from conftest import constant_bs_table, random_decaying_lr, random_plan

# float slack for dominance checks: constant-LR B_T EQUALS its bound in exact
# arithmetic, so pure roundoff must not count as a violation
REL_SLACK = 1 + 1e-12


def exact_terms(table):
    lam = [float(x) for x in table.lr]
    s = math.fsum(lam)
    return 1.0 / s, math.fsum(l / float(b) for l, b in zip(lam, table.batch)) / s


def coefficient(eta, L, beta):
    """A_t of one step size, through the array form."""
    return float(lyapunov_coefficient_array(np.array([eta]), L, beta)[0])


class TestLyapunovCoefficient:
    def test_zero_step_size(self):
        assert coefficient(0.0, L=3.0, beta=0.5) == 0.0

    def test_boundary_root(self):
        L, beta = 2.0, 0.5
        eta = 1.0 / (L * (1 - beta))
        assert coefficient(eta, L, beta) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.pinned
    def test_interior_value(self):
        # A = (eta - L(1-beta) eta^2) / (2(1-beta)) = (0.5 - 1*0.5*0.25) / (2*0.5) = 0.375
        assert coefficient(0.5, L=1.0, beta=0.5) == pytest.approx(0.375)

    def test_nonnegative_across_admissible_range(self):
        L, beta = 2.5, 0.7
        eta = np.linspace(0.0, 1.0 / (L * (1 - beta)), 200)
        assert np.all(lyapunov_coefficient_array(eta, L, beta) >= 0.0)

    def test_negative_beyond_root(self):
        # no sign check: a waived run past 1/(L(1-beta)) = 2.0 gets a negative A_t
        assert coefficient(2.1, L=1.0, beta=0.5) < 0.0


class TestLyapunovValue:
    def test_step_zero_is_f(self):
        assert lyapunov_value(3.0, momentum_norm_sq=123.0, A_prev=9.0, t=0) == 3.0

    def test_momentum_term_added(self):
        assert lyapunov_value(3.0, momentum_norm_sq=4.0, A_prev=0.375, t=5) == pytest.approx(4.5)

    def test_zero_coefficient(self):
        assert lyapunov_value(3.0, momentum_norm_sq=4.0, A_prev=0.0, t=7) == 3.0


class TestTheoremRhs:
    @pytest.mark.pinned
    def test_constant_table_terms(self):
        table = constant_bs_table("constant", batch=10, T=100, lambda_max=0.1)
        constants = TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        rep = build_report(constants, table)
        assert rep.B_T == pytest.approx(0.1, rel=1e-15)
        assert rep.V_T == pytest.approx(0.1, rel=1e-15)
        assert rep.rhs_sq == pytest.approx(0.3, rel=1e-15)
        assert rep.rhs_norm == pytest.approx(math.sqrt(0.3), rel=1e-15)

    @pytest.mark.pinned
    def test_calg_scaling(self):
        table = constant_bs_table("constant", batch=10, T=100, lambda_max=0.1)
        constants = TheoremConstants(L=1.0, beta=0.5, f0_minus_fstar=1.0,
                                     sigma_sq=0.0, alg="nshb")
        rep = build_report(constants, table)
        assert constants.C_alg == 2.0
        assert rep.rhs_sq == pytest.approx(0.4, rel=1e-15)  # 2 * 2 * 1 * 0.1

    def test_variance_term_is_inverse_batch_for_any_lr(self, rng):
        # power-of-two batch: exact; otherwise within a few ulp
        for b, tol in ((16, 0.0), (10, 1e-15)):
            for _ in range(5):
                lr = random_decaying_lr(rng)
                T = int(rng.integers(2, 50))
                if lr["kind"] == "cosine":
                    table = constant_bs_table(batch=b, T=4 * T, dataset_size=4 * b, **lr)
                else:
                    table = constant_bs_table(batch=b, T=T, **lr)
                rep = build_report(
                    TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=0.0,
                                     sigma_sq=1.0, alg="shb"),
                    table,
                )
                if tol == 0.0:
                    assert rep.V_T == 1.0 / b
                else:
                    assert rep.V_T == pytest.approx(1.0 / b, rel=tol)

    def test_rejects_zero_lr_sum(self):
        table = schedules.ScheduleTable(lr=np.zeros(3), batch=np.ones(3, dtype=np.int64))
        constants = TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        with pytest.raises(ValueError, match="positive"):
            build_report(constants, table)

    def test_growth_constant_is_the_tables(self):
        table = schedules.ScheduleTable(lr=[0.25, 0.5], batch=[1, 1])
        constants = TheoremConstants(L=1.0, beta=0.5, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        rep = build_report(constants, table)
        assert rep.c == table.growth_constant_c == 2.0
        assert rep.admissible_lr_max == 1.0  # (1 - 2 * 0.25) / (1 * 0.5)

    def test_rejects_overflowing_lr_sum(self):
        # each rate is finite; their sum is not
        table = schedules.ScheduleTable(lr=np.full(2, 1e308), batch=np.ones(2, dtype=np.int64))
        constants = TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        with pytest.raises(ValueError, match="overflows"):
            build_report(constants, table)


    @pytest.mark.parametrize("name", ["L", "f0_minus_fstar", "sigma_sq"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_constants_must_be_finite(self, name, value):
        kwargs = dict(L=1.0, beta=0.0, f0_minus_fstar=1.0, sigma_sq=1.0, alg="nshb")
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            TheoremConstants(**{**kwargs, name: value})

    def test_rejects_non_finite_report_value(self):
        # a subnormal rate sum: B_T = 1/sum(lr) overflows to inf
        table = schedules.ScheduleTable(lr=[5e-324], batch=[1])
        constants = TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        with pytest.raises(ValueError, match="theory report value B_T = inf is not finite"):
            build_report(constants, table)


class TestTheorem1WeightedExact:
    """Theorem 1's weighted form, checked exactly where the run is exact.

    Summing the descent inequality over t < T (L_0 = f(theta_0), L_T >= f*)
    gives sum_t lr_t ||grad f(theta_t)||^2 / sum_t lr_t <= rhs_sq, which is
    at least the theorem's min over t.  At sigma^2 = 0 the identical anchors
    make every mini-batch gradient the full one, so one seed is the
    expectation.  At beta = 0 both algorithms are gradient descent on
    0.5||theta - abar||^2 (L = 1), where ||grad f(theta_t)||^2 =
    (1 - lr)^(2t) ||grad f(theta_0)||^2 and rhs_sq = ||grad f(theta_0)||^2 /
    (T lr), so the ratio is (1 - (1 - lr)^(2T)) / (2 - lr) in closed form.
    """

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    def test_weighted_average_is_below_rhs_sq(self, alg, beta, r):
        problem = QuadraticMeanProblem.generate(5, 16, sigma_sq=0.0, seed=3)
        lr = r * schedules.admissible_lr_bound(beta, problem.L, 1.0, alg)
        for T in (50, 400):
            table = schedules.ScheduleTable(np.full(T, lr), np.full(T, 4))
            trace = optim.run(alg, beta, table, problem, seed=0)
            constants = TheoremConstants(L=problem.L, beta=beta, sigma_sq=0.0, alg=alg,
                                         f0_minus_fstar=float(trace.f[0]) - problem.f_star)
            rhs_sq = build_report(constants, table).rhs_sq
            weighted = math.fsum(table.lr * trace.grad_norm_sq) / math.fsum(table.lr)
            assert weighted <= rhs_sq * (1 + 1e-12), (T, weighted / rhs_sq)
            if beta == 0.0:
                closed = rhs_sq * (1.0 - (1.0 - lr) ** (2 * T)) / (2.0 - lr)
                assert abs(weighted - closed) <= 1e-12 * closed, (T, weighted / closed)


class TestCorollaryBounds:
    def test_diminishing_bound_and_dominance(self):
        # bound = 1/(2 * 1 * (sqrt(4) - 1)) = 0.5; exact B_3 = 1/(1 + 1/sqrt2 + 1/sqrt3)
        B, V = corollary_bounds("cor3.1-diminishing", lambda_max=1.0, T=3, batch=2)
        assert B == pytest.approx(0.5)
        table = constant_bs_table("diminishing", batch=2, T=3, lambda_max=1.0)
        B_exact, _ = exact_terms(table)
        assert B_exact == pytest.approx(1.0 / (1.0 + 1.0 / math.sqrt(2) + 1.0 / math.sqrt(3)))
        assert B_exact <= B

    @pytest.mark.pinned
    def test_polynomial_bound(self):
        # B = (p + 1) / ((p lambda_min + lambda_max) T) = 2 / 10, V = 1 / batch = 1 / 4
        B, V = corollary_bounds("cor3.1-polynomial", lambda_max=1.0, lambda_min=0.0,
                                p=1.0, T=10, batch=4)
        assert B == pytest.approx(0.2)
        assert V == 0.25

    @pytest.mark.pinned
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

    @pytest.mark.parametrize("gamma", [1.1, 1.2, 1.3, 1.7])
    @pytest.mark.parametrize("lambda0", [0.05, 1.0])
    def test_warmup_peak_is_the_tables_last_warmup_rate(self, gamma, lambda0, monkeypatch):
        # numpy's power gives 1.2^4 = 2.0735999999999994 on AVX-512 and
        # Python's ** 2.0736: the bound must read the table's own peak
        peaks = []

        def spy(kind, params):
            peaks.append(params["lambda_max"])
            return decaying(kind, params)

        decaying = theory._decaying_B_bound
        monkeypatch.setattr(theory, "_decaying_B_bound", spy)
        for Mw in range(6):
            spec = ScheduleSpec("warmup", "cosine", gamma=gamma, lambda0=lambda0,
                                warmup_phases=Mw, lambda_min=0.0, b0=1, delta=2.0,
                                epochs_per_phase=(1,) * (Mw + 2), dataset_size=64)
            table, regime, symbols = spec.build(problem_n=None)
            peaks.clear()
            corollary_bounds(regime, **symbols)
            assert peaks == [table.lr[symbols["T_w"] - 1]]

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
    """Randomized: exact sums never exceed the closed-form bounds evaluated at
    the symbols ScheduleSpec.build passes to them."""

    @staticmethod
    def assert_dominated(spec):
        table, regime, symbols = spec.build(problem_n=None)
        B_exact, V_exact = exact_terms(table)
        B, V = corollary_bounds(regime, **symbols)
        assert B_exact <= B * REL_SLACK, spec
        assert V_exact <= V * REL_SLACK, spec

    def test_cor31_dominance(self, rng):
        for _ in range(60):
            lr = random_decaying_lr(rng)
            b = int(rng.integers(1, 65))
            if lr["kind"] == "cosine":
                K, E = int(rng.integers(1, 10)), int(rng.integers(1, 10))
                spec = ScheduleSpec("constant-bs", batch=b, T=K * E, dataset_size=K * b, **lr)
            else:
                spec = ScheduleSpec("constant-bs", batch=b, T=int(rng.integers(1, 400)), **lr)
            self.assert_dominated(spec)

    def test_cor32_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)
            self.assert_dominated(ScheduleSpec("increasing-bs", **random_decaying_lr(rng), **plan))

    def test_cor33_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)
            gamma = float(rng.uniform(1.01, plan["delta"] - 1e-6))
            self.assert_dominated(ScheduleSpec(
                "joint-growth", gamma=gamma, lambda0=float(rng.uniform(0.001, 0.2)), **plan))

    def test_cor34_dominance(self, rng):
        for _ in range(60):
            plan = random_plan(rng)  # M >= 1
            gamma = float(rng.uniform(1.01, plan["delta"] - 1e-6))
            M = len(plan["epochs_per_phase"]) - 1
            Mw = int(rng.integers(0, M))  # strictly before the last phase
            kind = str(rng.choice(["constant", "cosine"]))
            self.assert_dominated(ScheduleSpec(
                "warmup", kind, gamma=gamma, lambda0=float(rng.uniform(0.001, 0.2)),
                warmup_phases=Mw, lambda_min=0.0, **plan))


class TestVarianceTermDecay:
    def test_vanishing_variance_with_sustained_phases(self):
        # batch doubles each phase; epochs triple so that T grows geometrically
        # (with equal-length phases T is only linear in M and the 1/4 factor
        # is unreachable; see the epoch-tripling rationale in the README)
        def v_term(M):
            spec = ScheduleSpec("increasing-bs", lambda_max=0.1, b0=8, delta=2.0,
                                epochs_per_phase=tuple(3**m for m in range(M + 1)),
                                dataset_size=8 * 2**M)
            table = spec.build(problem_n=None)[0]
            return exact_terms(table)[1]

        assert v_term(8) < v_term(2) / 4.0


class TestRateClassSanity:
    def test_constant_lr_bias_scales_exactly(self):
        lam = 0.37
        values = []
        for T in (10, 100, 1000, 10_000):
            table = constant_bs_table("constant", batch=1, T=T, lambda_max=lam)
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

    @pytest.mark.pinned
    def test_noise_term_value(self):
        # (1/2)(1-beta) eta sigma^2 / b = (1/2)(1-0.5)(0.1)(4/4) = 0.025
        assert descent_inequality_rhs(0.1, 0.5, sigma_sq=4.0, b_t=4,
                                      grad_norm_sq_expectation=0.0) == pytest.approx(0.025)

    def test_balance_point(self):
        assert descent_inequality_rhs(0.2, 0.3, sigma_sq=2.0, b_t=8,
                                      grad_norm_sq_expectation=2.0 / 8) == pytest.approx(0.0)


class TestReportSerialization:
    def test_exact_field_names(self):
        table = constant_bs_table("constant", batch=10, T=100, lambda_max=0.1)
        constants = TheoremConstants(L=1.0, beta=0.0, f0_minus_fstar=1.0,
                                     sigma_sq=1.0, alg="nshb")
        rep = theory.build_report(constants, table, "cor3.1-constant",
                                  {"lambda_max": 0.1, "T": 100, "batch": 10})
        text = rep.to_json()
        assert list(json.loads(text).keys()) == [
            "B_T", "V_T", "rhs_sq", "rhs_norm", "B_bound", "V_bound",
            "regime", "admissible_lr_max", "c", "C_alg",
        ]
        assert '"regime": "cor3.1-constant"' in text
