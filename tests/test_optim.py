"""Optimizer state machines: update rules, sampling, traces, equivalences."""

import math

import numpy as np
import pytest

from sgdm_sched import schedules
from sgdm_sched.optim import (
    NumericalDivergence,
    OptimizerState,
    _bounded,
    _mix,
    batch_indices,
    run,
    step,
)
from sgdm_sched.problems import IterateOutsideCertifiedBox, LogCoshProblem, QuadraticMeanProblem
from sgdm_sched.schedules import LrSchedule, build_constant_bs_table


def const_table(lam, T, b=1):
    return build_constant_bs_table(LrSchedule("constant", lambda_max=lam), b=b, T=T)


class TestStep:
    def test_nshb_beta_zero_is_plain_sgd(self):
        state = OptimizerState.initial(np.array([1.0]), beta=0.0, alg="nshb")
        out = step(state, np.array([2.0]), lr=0.5)
        np.testing.assert_array_equal(out.theta, [0.0])
        np.testing.assert_array_equal(out.momentum, [2.0])
        assert out.t == 1

    def test_shb_buffer_update(self):
        # m = 0.5*4 + 2 = 4, theta = 0 - 0.1*4 = -0.4
        state = OptimizerState(np.array([0.0]), np.array([4.0]), t=3, beta=0.5, alg="shb")
        out = step(state, np.array([2.0]), lr=0.1)
        np.testing.assert_allclose(out.momentum, [4.0])
        np.testing.assert_allclose(out.theta, [-0.4])

    def test_nshb_buffer_update(self):
        # m = 0.5*4 + 0.5*2 = 3, theta = 0 - 0.1*3 = -0.3
        state = OptimizerState(np.array([0.0]), np.array([4.0]), t=3, beta=0.5, alg="nshb")
        out = step(state, np.array([2.0]), lr=0.1)
        np.testing.assert_allclose(out.momentum, [3.0])
        np.testing.assert_allclose(out.theta, [-0.3])

    def test_dimension_mismatch(self):
        state = OptimizerState.initial(np.zeros(3), beta=0.5, alg="nshb")
        with pytest.raises(ValueError, match="dimension"):
            step(state, np.zeros(2), lr=0.1)

    def test_nonfinite_gradient_diverges(self):
        state = OptimizerState.initial(np.zeros(2), beta=0.5, alg="nshb")
        with pytest.raises(NumericalDivergence):
            step(state, np.array([1.0, np.inf]), lr=0.1)

    def test_divergence_names_lowest_nonfinite_row(self):
        # row 2 has a non-finite gradient, row 1 overflows in the update
        state = OptimizerState(np.array([[0.0], [1e308], [0.0]]), np.zeros((3, 1)), t=4,
                               beta=0.0, alg="nshb")
        with pytest.raises(NumericalDivergence) as info:
            step(state, np.array([[1.0], [-1e308], [np.nan]]), lr=1.0)
        assert info.value.row == 1 and info.value.step_index == 4

    def test_momentum_starts_at_zero(self):
        state = OptimizerState.initial(np.ones(4), beta=0.9, alg="shb")
        np.testing.assert_array_equal(state.momentum, np.zeros(4))
        assert state.t == 0


class TestBatchIndices:
    def test_deterministic_per_key(self):
        a = batch_indices(7, 0, 5, b=16, n=100)
        b = batch_indices(7, 0, 5, b=16, n=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_steps_and_runs(self):
        assert not np.array_equal(batch_indices(7, 0, 5, 16, 100), batch_indices(7, 0, 6, 16, 100))
        assert not np.array_equal(batch_indices(7, 0, 5, 16, 100), batch_indices(7, 1, 5, 16, 100))

    def test_range(self):
        idx = batch_indices(3, 2, 1, b=1000, n=17)
        assert idx.min() >= 0 and idx.max() < 17

    # stream tests: R consecutive seeds with run indices 0..R-1, as in an experiment
    SEEDS = np.arange(64)

    @staticmethod
    def chi2_z(values, cells):
        """Wilson-Hilferty normal score of Pearson's chi-square against uniform cells."""
        counts = np.bincount(np.ravel(values), minlength=cells)
        expected = counts.sum() / cells
        df = cells - 1
        stat = float(np.sum((counts - expected) ** 2) / expected)
        return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))

    @pytest.mark.parametrize("n", [17, 1000, 4095])
    def test_uniform_at_non_power_of_two_n(self, n):
        idx = batch_indices(self.SEEDS, self.SEEDS, 3, b=50 * n // 64 + 1, n=n)
        assert abs(self.chi2_z(idx, n)) < 4.0

    def test_pairs_across_steps_are_independent(self):
        n = 17
        now = batch_indices(self.SEEDS, self.SEEDS, 5, b=500, n=n)
        nxt = batch_indices(self.SEEDS, self.SEEDS, 6, b=500, n=n)
        assert abs(self.chi2_z(now * n + nxt, n * n)) < 4.0

    def test_pairs_across_rows_are_independent(self):
        n = 17
        idx = batch_indices(self.SEEDS, self.SEEDS, 5, b=500, n=n)
        assert abs(self.chi2_z(idx[:-1] * n + idx[1:], n * n)) < 4.0

    def test_vectorized_rows_equal_scalar_calls(self):
        seeds = [11, 0, 2**64 - 1, 4, 4]
        runs = [0, 7, 2, 2**64 - 1, 3]
        idx = batch_indices(seeds, runs, 9, b=12, n=1000)
        assert idx.shape == (5, 12) and idx.dtype == np.int64
        for r, (s, i) in enumerate(zip(seeds, runs)):
            np.testing.assert_array_equal(idx[r], batch_indices(s, i, 9, 12, 1000))
        assert batch_indices(11, 0, 9, b=12, n=1000).shape == (12,)

    @pytest.mark.parametrize("n", [17, 1000, 2**32 - 1])
    def test_bounded_map_is_the_exact_multiply_high(self, n, rng):
        words = [int(w) for w in rng.integers(0, 2**64, size=2000, dtype=np.uint64)]
        assert all((w * n) % 2**64 >= 2**64 % n for w in words)  # none rejected
        got = _bounded(np.array(words, dtype=np.uint64), n)
        np.testing.assert_array_equal(got, [(w * n) >> 64 for w in words])

    def test_lemire_rejection_redraws(self):
        # n = 1000: x = 2^61 has low product word 2^61 * 1000 mod 2^64 = 0, below
        # 2^64 mod 1000 = 616, so it is rejected (else it would map to 125) and
        # redrawn as mix(x + G); x = 2^63 + 1 (low word 1000) maps to 500 directly
        x = np.array([2**61, 2**63 + 1], dtype=np.uint64)
        redraw = _bounded(_mix(np.array([2**61 + 0x9E3779B97F4A7C15], dtype=np.uint64)), 1000)
        assert redraw[0] != 125
        np.testing.assert_array_equal(_bounded(x, 1000), [redraw[0], 500])
        # a power-of-two n has nothing to reject
        np.testing.assert_array_equal(_bounded(x, 1024), [128, 512])

    def test_rejects_keys_outside_the_stream(self):
        for seed, run_index in [(-1, 0), (2**64, 0), (0, 2**64)]:
            with pytest.raises(ValueError, match=r"2\*\*64"):
                batch_indices(seed, run_index, 0, 4, 10)
        with pytest.raises(ValueError, match="run indices"):
            batch_indices([1, 2], [0], 0, 4, 10)
        with pytest.raises(ValueError, match="run indices"):
            run("nshb", 0.0, const_table(0.1, T=2), QuadraticMeanProblem.generate(2, 4, seed=0),
                [1, 2], run_index=2**64 - 1)

    @pytest.mark.parametrize("b", [1, 4, 16])
    def test_minibatch_variance_on_the_engine_stream(self, b):
        # E||g_B - grad f||^2 = sigma^2/b on the criterion-9 quadratic, with
        # batches drawn as the engine draws them: 1e5 rows of batch_indices
        prob = QuadraticMeanProblem.generate(20, 256, sigma_sq=1.0, seed=7)
        theta = np.random.default_rng((11,)).standard_normal(20)
        seeds = np.arange(10_000)
        thetas = np.tile(theta, (seeds.size, 1))
        dev = np.concatenate([
            prob.minibatch_gradient(thetas, batch_indices(seeds, seeds, t, b, prob.n))
            - prob.value_and_grad(theta)[1]
            for t in range(10)
        ])
        sq = np.einsum("ij,ij->i", dev, dev)
        stderr = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - prob.sigma_sq / b) <= 3.0 * stderr


class TestRun:
    def test_zero_noise_is_exact_descent(self):
        prob = QuadraticMeanProblem.generate(5, 8, sigma_sq=0.0, seed=1)
        table = const_table(0.3, T=50, b=2)
        trace = run("nshb", 0.0, table, prob, seed=0, theta0=np.full(5, 3.0))
        assert np.all(np.diff(trace.f) < 0)
        assert trace.final_f < trace.f[-1]
        assert trace.min_grad_norm_sq == trace.grad_norm_sq.min()

    def test_determinism_bit_identical(self):
        prob = QuadraticMeanProblem.generate(4, 16, sigma_sq=1.0, seed=2)
        table = const_table(0.1, T=40, b=4)
        a = run("shb", 0.5, table, prob, seed=11, theta0_seed=3)
        b = run("shb", 0.5, table, prob, seed=11, theta0_seed=3)
        np.testing.assert_array_equal(a.f, b.f)
        np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
        np.testing.assert_array_equal(a.lyapunov, b.lyapunov)
        assert a.final_f == b.final_f

    def test_lyapunov_first_row_is_f(self):
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        table = const_table(0.1, T=10, b=2)
        trace = run("nshb", 0.9, table, prob, seed=1)
        assert trace.lyapunov[0] == trace.f[0]
        # later rows add the non-negative momentum term
        assert np.all(trace.lyapunov[1:] >= trace.f[1:])

    def test_record_every_subsamples(self):
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        table = const_table(0.1, T=30, b=2)
        trace = run("nshb", 0.5, table, prob, seed=1, record_every=7)
        np.testing.assert_array_equal(trace.t, [0, 7, 14, 21, 28])

    def test_strict_rejects_inadmissible(self):
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        table = const_table(5.0, T=10, b=2)  # bound for beta=0.9, L=1 is 1.9
        # admissibility is the caller's gate (run_experiment); run only steps
        trace = run("nshb", 0.9, table, prob, seed=1)
        assert trace.rows == 10

    def test_divergence_carries_truncated_trace(self):
        prob = QuadraticMeanProblem.generate(2, 4, sigma_sq=0.0, seed=0)
        table = const_table(1e200, T=10, b=1)
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.0, table, prob, seed=1, theta0=np.array([1.0, 1.0]))
        exc = info.value
        assert exc.trace is not None and exc.trace.seed == 1
        assert exc.trace.t[-1] == exc.step_index
        assert exc.trace.rows <= 10

    def test_batch_sizes_follow_table(self):
        prob = QuadraticMeanProblem.generate(2, 32, sigma_sq=1.0, seed=5)
        plan = schedules.PhasePlan(b0=8, delta=2.0, epochs_per_phase=(1, 1, 1), dataset_size=32)
        table = schedules.build_increasing_bs_table(
            LrSchedule("constant", lambda_max=0.1), plan
        )
        trace = run("nshb", 0.0, table, prob, seed=1)
        np.testing.assert_array_equal(trace.batch, table.batch)


class TestAlgorithmEquivalences:
    def test_beta_zero_nshb_equals_shb(self):
        prob = QuadraticMeanProblem.generate(4, 16, sigma_sq=1.0, seed=6)
        table = const_table(0.2, T=60, b=4)
        a = run("nshb", 0.0, table, prob, seed=3, theta0_seed=1, record_theta=True)
        b = run("shb", 0.0, table, prob, seed=3, theta0_seed=1, record_theta=True)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_shb_reproduces_nshb_with_scaled_lr(self):
        # alpha_t = (1 - beta) * eta_t reproduces the nshb trajectory
        prob = QuadraticMeanProblem.generate(4, 16, sigma_sq=1.0, seed=6)
        beta = 0.9
        eta = build_constant_bs_table(
            LrSchedule("diminishing", lambda_max=0.15), b=4, T=80
        )
        alpha = schedules.ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch, T=eta.T)
        a = run("nshb", beta, eta, prob, seed=3, theta0_seed=1, record_theta=True)
        b = run("shb", beta, alpha, prob, seed=3, theta0_seed=1, record_theta=True)
        scale = np.maximum(1.0, np.abs(a.theta))
        assert np.max(np.abs(a.theta - b.theta) / scale) < 1e-10
        assert abs(a.final_f - b.final_f) < 1e-10 * max(1.0, abs(a.final_f))

    def test_two_term_rewrite_matches_buffer_form(self):
        # theta_{t+1} = theta_t - eta_t (1-beta) g_t + beta (eta_t/eta_{t-1}) (theta_t - theta_{t-1})
        prob = QuadraticMeanProblem.generate(3, 12, sigma_sq=0.5, seed=8)
        beta = 0.8
        table = build_constant_bs_table(
            LrSchedule("cosine", lambda_max=0.2, lambda_min=0.05), b=3, T=100, dataset_size=12
        )
        buffer_form = run("nshb", beta, table, prob, seed=5, theta0_seed=2, record_theta=True)

        theta = np.array(buffer_form.theta[0])
        theta_prev = theta.copy()
        eta_prev = None
        rewrite = [theta.copy()]
        for t in range(table.T):
            eta_t = float(table.lr[t])
            idx = batch_indices(5, 0, t, int(table.batch[t]), prob.n)
            g = prob.minibatch_gradient(theta, idx)
            momentum_term = 0.0 if eta_prev is None else beta * (eta_t / eta_prev) * (theta - theta_prev)
            theta_next = theta - eta_t * (1 - beta) * g + momentum_term
            theta_prev, theta, eta_prev = theta, theta_next, eta_t
            rewrite.append(theta.copy())
        rewrite = np.asarray(rewrite)

        recorded = np.vstack([buffer_form.theta, buffer_form.theta_final])
        scale = np.maximum(1.0, np.abs(recorded))
        assert np.max(np.abs(recorded - rewrite) / scale) < 1e-8

    def test_equivalence_random_tuples(self, rng):
        for trial in range(10):
            beta = float(rng.uniform(0.0, 0.93))
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 24))
            prob = QuadraticMeanProblem.generate(d, n, spread=float(rng.uniform(0.2, 2.0)),
                                                 seed=trial)
            T = int(rng.integers(5, 50))
            lam = float(rng.uniform(0.01, 0.3))
            eta = const_table(lam, T=T, b=int(rng.integers(1, 5)))
            alpha = schedules.ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch, T=T)
            seed = int(rng.integers(1000))
            a = run("nshb", beta, eta, prob, seed=seed, theta0_seed=7, record_theta=True)
            b = run("shb", beta, alpha, prob, seed=seed, theta0_seed=7, record_theta=True)
            scale = np.maximum(1.0, np.abs(a.theta))
            assert np.max(np.abs(a.theta - b.theta) / scale) < 1e-10


def reference_run(alg, beta, table, problem, seed, run_index, theta0):
    """Per-seed loop from batch_indices, minibatch_gradient and the explicit update.

    Returns per-step rows of (theta, f, ||grad f||^2, Lyapunov value) for
    t = 0..T, the last row being the post-run iterate.
    """
    theta, m = theta0.copy(), np.zeros_like(theta0)
    eta = table.lr if alg == "nshb" else table.lr / (1 - beta)
    rows = []
    for t in range(table.T + 1):
        f, g = problem.value_and_grad(theta)
        f = float(f)
        lyap = f
        if t > 0:
            m_eq = m if alg == "nshb" else (1 - beta) * m
            A_prev = (eta[t - 1] - problem.L * (1 - beta) * eta[t - 1] ** 2) / (2 * (1 - beta))
            lyap += A_prev * float(m_eq @ m_eq)
        rows.append((theta.copy(), f, float(g @ g), lyap))
        if t == table.T:
            break
        idx = batch_indices(seed, run_index, t, int(table.batch[t]), problem.n)
        g_batch = problem.minibatch_gradient(theta, idx)
        m = beta * m + ((1 - beta) * g_batch if alg == "nshb" else g_batch)
        theta = theta - table.lr[t] * m
    thetas, f, gns, lyap = zip(*rows)
    return np.array(thetas), np.array(f), np.array(gns), np.array(lyap)


def small_problem(family):
    if family == "quadratic":
        return QuadraticMeanProblem.generate(5, 24, sigma_sq=1.0, seed=3)
    return LogCoshProblem.generate(5, 24, spread=1.5, seed=3)


class TestLockstepEngine:
    SEEDS = (11, 4, 29, 0, 7)

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    def test_rows_match_per_seed_reference(self, family, alg):
        prob = small_problem(family)
        beta = 0.8
        lam = 0.2 if alg == "nshb" else 0.2 * (1 - beta)
        table = build_constant_bs_table(LrSchedule("diminishing", lambda_max=lam), b=3, T=60)
        theta0 = np.random.default_rng(5).uniform(-2, 2, size=prob.d)
        traces = run(alg, beta, table, prob, self.SEEDS, theta0=theta0, record_theta=True)
        assert [tr.seed for tr in traces] == list(self.SEEDS)
        for r, tr in enumerate(traces):
            assert tr.run_index == r
            thetas, f, gns, lyap = reference_run(alg, beta, table, prob, self.SEEDS[r], r, theta0)
            got = [
                (np.vstack([tr.theta, tr.theta_final]), thetas),
                (np.append(tr.f, tr.final_f), f),
                (np.append(tr.grad_norm_sq, tr.final_grad_norm_sq), gns),
                (np.append(tr.lyapunov, tr.final_lyapunov), lyap),
            ]
            for actual, expected in got:
                np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_row_depends_only_on_its_seed_and_run_index(self, family):
        # row r samples stream (seeds[r], run_index + r); the seeds beside it
        # must not change a single bit of its trace
        prob = small_problem(family)
        table = build_constant_bs_table(LrSchedule("constant", lambda_max=0.1), b=4, T=30)

        def rows(seeds, run_index=0):
            return run("nshb", 0.5, table, prob, seeds, run_index=run_index, theta0_seed=2,
                       record_theta=True)

        full = rows([11, 4, 29, 0])
        variants = [  # (row of full, traces, row of traces)
            (0, rows([11]), 0),
            (0, rows([11, 0, 29, 4, 8]), 0),  # the others reordered, one added
            (1, rows([4, 29], run_index=1), 0),
            (2, rows([4, 29], run_index=1), 1),
            (3, rows([29, 0], run_index=2), 1),
        ]
        for r, got, k in variants:
            tr, ref = got[k], full[r]
            assert (tr.seed, tr.run_index) == (ref.seed, ref.run_index)
            for field in ("theta", "f", "grad_norm_sq", "lyapunov"):
                np.testing.assert_array_equal(getattr(tr, field), getattr(ref, field))
            np.testing.assert_array_equal(tr.theta_final, ref.theta_final)
            assert tr.final_lyapunov == ref.final_lyapunov

    def test_single_seed_is_one_row_of_the_engine(self):
        prob = small_problem("quadratic")
        table = const_table(0.1, T=20, b=2)
        alone = run("shb", 0.3, table, prob, 4, run_index=1, theta0_seed=2)
        together = run("shb", 0.3, table, prob, [9, 4], theta0_seed=2)
        np.testing.assert_array_equal(alone.grad_norm_sq, together[1].grad_norm_sq)

    def test_divergence_reports_first_step_then_lowest_row(self):
        class Poisoned(QuadraticMeanProblem):
            """Non-finite mini-batch gradients for given rows at given steps."""

            def __init__(self, anchors, poison):
                super().__init__(anchors)
                self.poison, self.t = poison, 0

            def minibatch_gradient(self, theta, indices):
                g = super().minibatch_gradient(theta, indices)
                g[self.poison.get(self.t, [])] = np.inf
                self.t += 1
                return g

        base = small_problem("quadratic")
        # row 0 would diverge at step 9, rows 3 and 1 both go non-finite at step 5
        prob = Poisoned(base.anchors, {5: [3, 1], 9: [0]})
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.5, const_table(0.1, T=20, b=2), prob, [10, 11, 12, 13])
        exc = info.value
        assert (exc.step_index, exc.row, exc.trace.seed) == (5, 1, 11)
        np.testing.assert_array_equal(exc.trace.t, np.arange(6))

    def test_nonfinite_observation_diverges_at_its_step(self):
        class Overflowing(QuadraticMeanProblem):
            """f = inf for given rows at given observation calls."""

            def __init__(self, anchors, poison):
                super().__init__(anchors)
                self.poison, self.calls = poison, 0

            def value_and_grad(self, theta):
                f, g = super().value_and_grad(theta)
                f[self.poison.get(self.calls, [])] = np.inf
                self.calls += 1
                return f, g

        base = small_problem("quadratic")
        table = const_table(0.1, T=20, b=2)
        # observation k is made at step k; observation 20 at the post-run iterate
        for poison, step, row in (({4: [2, 1], 7: [0]}, 4, 1), ({20: [3]}, 20, 3)):
            with pytest.raises(NumericalDivergence) as info:
                run("nshb", 0.5, table, Overflowing(base.anchors, poison), [10, 11, 12, 13])
            exc = info.value
            assert (exc.step_index, exc.row, exc.trace.seed) == (step, row, 10 + row)
            np.testing.assert_array_equal(exc.trace.t, np.arange(min(step + 1, 20)))

    def test_iterate_outside_box_names_seed_and_step(self):
        prob = LogCoshProblem.generate(2, 16, spread=3.0, seed=0, box_radius=0.5)
        table = const_table(0.5, T=30, b=1)
        with pytest.raises(IterateOutsideCertifiedBox, match=r"^seed (\d+) at step (\d+): ") as info:
            run("nshb", 0.0, table, prob, [3, 1, 4], theta0=np.zeros(2))
        seed = int(str(info.value).split()[1])
        assert seed == [3, 1, 4][info.value.row]
