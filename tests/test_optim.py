"""Optimizer state machines: update rules, sampling, traces, equivalences."""

import math

import numpy as np
import pytest

from sgdm_sched import schedules, theory
from sgdm_sched.optim import (
    _BLOCK_WORDS,
    _OBSERVE_WORDS,
    NumericalDivergence,
    _bounded,
    _index_blocks,
    _indices,
    _mix,
    _stream_key,
    batch_indices,
    run,
    step,
)
from sgdm_sched.problems import (
    IterateOutsideCertifiedBox,
    LogCoshProblem,
    QuadraticMeanProblem,
)
from conftest import constant_bs_table


def const_table(lam, T, b=1):
    return constant_bs_table("constant", batch=b, T=T, lambda_max=lam)


def stepped(theta, m, grad, lr, beta, alg):
    """The (theta, momentum) that one ``step`` writes into new output buffers."""
    theta, m, grad = (np.asarray(a, dtype=np.float64) for a in (theta, m, grad))
    theta_out, m_out = np.empty_like(theta), np.empty_like(m)
    step(theta, m, grad, lr, beta, alg, theta_out, m_out)
    return theta_out, m_out


class TestStep:
    """The update ``step``, and how ``run`` treats a step that goes non-finite."""

    def test_nshb_beta_zero_is_plain_sgd(self):
        theta, m = stepped([1.0], [0.0], [2.0], lr=0.5, beta=0.0, alg="nshb")
        np.testing.assert_array_equal(theta, [0.0])
        np.testing.assert_array_equal(m, [2.0])

    def test_shb_buffer_update(self):
        # m = 0.5*4 + 2 = 4, theta = 0 - 0.1*4 = -0.4
        theta, m = stepped([0.0], [4.0], [2.0], lr=0.1, beta=0.5, alg="shb")
        np.testing.assert_allclose(m, [4.0])
        np.testing.assert_allclose(theta, [-0.4])

    def test_nshb_buffer_update(self):
        # m = 0.5*4 + 0.5*2 = 3, theta = 0 - 0.1*3 = -0.3
        theta, m = stepped([0.0], [4.0], [2.0], lr=0.1, beta=0.5, alg="nshb")
        np.testing.assert_allclose(m, [3.0])
        np.testing.assert_allclose(theta, [-0.3])

    def test_overflow_diverges_under_any_caller_error_state(self):
        # run sets its own error state: an overflow in the update (lr*m) is a
        # divergence, not a FloatingPointError or a warning
        prob = QuadraticMeanProblem.generate(2, 4, sigma_sq=0.0, seed=0)
        with np.errstate(all="raise"), pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.0, const_table(1e200, T=10), prob, seed=1, theta0=np.ones(2))
        assert info.value.step_index == 1 and info.value.seed == 1

    def test_nonfinite_gradient_diverges(self):
        # an inf gradient entry makes the same entry of the new iterate
        # non-finite, the premise of run's finiteness check
        theta, _ = stepped(np.zeros((2, 2)), np.zeros((2, 2)), [[1.0, 1.0], [1.0, np.inf]],
                           lr=0.1, beta=0.5, alg="nshb")
        np.testing.assert_array_equal(np.isfinite(theta), [[True, True], [True, False]])
        prob = Poisoned(QuadraticMeanProblem.generate(2, 4, seed=0), 1, grad={0: [0]})
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.5, const_table(0.1, T=3), prob, seed=1)
        assert info.value.step_index == 0

    def test_divergence_names_lowest_nonfinite_row(self):
        # at step 4 row 2 gets a NaN gradient and row 1 overflows in the update
        class Overflowing(Poisoned):
            def _poison(self, g):
                if self.steps == 4:
                    g[1], g[2] = -1e308, np.nan
                self.steps += 1
                return g

        prob = Overflowing(QuadraticMeanProblem.generate(1, 4, seed=0), 3)
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.0, const_table(2.0, T=10), prob, [10, 11, 12])
        exc = info.value
        assert (exc.step_index, exc.row, exc.seed) == (4, 1, 11)


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

    # powers of two included: the draw's shift for them is checked against
    # this map in TestStreamOracle
    @pytest.mark.parametrize("n", [17, 1000, 2**32 - 1, *(2**k for k in range(32))])
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
        # a power-of-two n has nothing to reject (2^64 mod n = 0), and the map
        # is the shift x >> (64 - log2 n): 2^61 >> 54 = 128, (2^63 + 1) >> 54 = 512
        np.testing.assert_array_equal(_bounded(x, 1024), [128, 512])

    def test_rejects_keys_outside_the_stream(self):
        # a non-integer key is refused, not truncated onto another seed's stream
        for seed, run_index in [(-1, 0), (2**64, 0), (0, 2**64), (1.5, 0), (0, 2.5),
                                (math.nan, 0), (0, math.inf), ("3", 0), ([1, 0.5], [0, 1])]:
            with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\) and be integers"):
                batch_indices(seed, run_index, 0, 4, 10)
        prob = QuadraticMeanProblem.generate(2, 4, seed=0)
        for seed, run_index in [(2.9, 0), ([1, 2.5], 0), (2, 0.5), (2, math.nan)]:
            with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\) and be integers"):
                run("nshb", 0.0, const_table(0.1, T=2), prob, seed, run_index=run_index)
        # whole numbers of any type key the same stream as the int
        for seed in (5.0, np.uint64(5), np.float64(5.0)):
            np.testing.assert_array_equal(batch_indices(seed, 1, 3, 4, 10),
                                          batch_indices(5, 1, 3, 4, 10))
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

    @pytest.mark.parametrize("t, b, n", [
        (2.5, 4, 256), (3, 4.9, 256), (3, 4, 256.7), (2**64, 4, 256), (-1, 4, 256),
        (3, -1, 256), (3, 4, 0), (3, 4, 2**32), (math.nan, 4, 256), (3, math.inf, 256),
        (3, 4, None), ("3", 4, 256),
    ])
    def test_refuses_a_step_batch_or_size_that_is_not_whole(self, t, b, n):
        # 2.5 would draw step 2's indices, b = 4.9 four of them and n = 256.7
        # from [0, 256)
        with pytest.raises(ValueError, match="must be a whole number"):
            batch_indices(3, 0, t, b, n)

    def test_whole_floats_draw_the_int_sample(self):
        ref = batch_indices([3, 4], [0, 1], 2, 4, 256)
        for t, b, n in [(2.0, 4, 256), (2, 4.0, 256), (2, 4, 256.0),
                        (np.float64(2.0), np.uint64(4), np.int32(256))]:
            np.testing.assert_array_equal(batch_indices([3, 4], [0, 1], t, b, n), ref)


# The sampling stream of the module docstring in Python ints: the reference
# the vectorized draw is checked against.
_M64, _G = 2**64, 0x9E3779B97F4A7C15
_MUL1_INT, _MUL2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def py_premix(x: int) -> int:
    x ^= x >> 30
    x = x * _MUL1_INT % _M64
    x ^= x >> 27
    return x * _MUL2_INT % _M64


def py_mix(x: int) -> int:
    x = py_premix(x)
    return x ^ (x >> 31)


def py_unpremix(y: int) -> int:
    """The word x with py_premix(x) == y."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    y = unshift(y * pow(_MUL2_INT, -1, _M64) % _M64, 27)
    return unshift(y * pow(_MUL1_INT, -1, _M64) % _M64, 30)


def py_bounded(x: int, n: int) -> int:
    while (x * n) % _M64 < _M64 % n:  # reject, redraw mix(x + G)
        x = py_mix((x + _G) % _M64)
    return (x * n) >> 64


def py_batch(seed: int, run_index: int, t: int, b: int, n: int) -> list[int]:
    key = py_mix((py_mix((seed + _G) % _M64) + run_index * _G) % _M64)
    step_key = py_mix((key + t * _G) % _M64)
    return [py_bounded(py_mix((step_key + (j + 1) * _G) % _M64), n) for j in range(b)]


ORACLE_SIZES = [1, 2, 256, 1024, 2**31, 17, 1000, 2**32 - 1]


class TestStreamOracle:
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_batch_indices_equal_the_python_stream(self, n):
        seeds, runs = [0, 2**64 - 1, 11], [5, 2**64 - 1, 0]
        for t in (0, 7, 2**64 - 1):
            idx = batch_indices(seeds, runs, t, 50, n)
            assert idx.dtype == np.int64
            assert idx.tolist() == [py_batch(s, i, t, 50, n) for s, i in zip(seeds, runs)]
        assert batch_indices(9, 3, 2, 1, n).tolist() == py_batch(9, 3, 2, 1, n)

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_index_blocks_equal_the_python_stream(self, n):
        # R = 2: b = 1 runs 2048 steps a block (K) and a key group (G), so its
        # 2100 steps cross a group; b = 5 ends in a short block; b = 2100 is a
        # K = 1 step of R*b > _BLOCK_WORDS words
        seeds = [4, 2**63]
        batch = np.repeat([1, 5, 2100], [2100, 30, 2])
        blocks = list(_index_blocks(_stream_key(seeds, range(2)), batch, n))
        steps = [step for blk in blocks for step in blk.transpose(0, 2, 1).tolist()]
        assert len(steps) == batch.size
        for t, got in enumerate(steps):
            assert got == [py_batch(s, r, t, int(batch[t]), n) for r, s in enumerate(seeds)]

    @pytest.mark.parametrize("k", range(32))
    def test_power_of_two_shortcut_equals_the_full_map(self, k, rng):
        # words y before mix's last step y ^ (y >> 31): random ones, and edges
        # where the low bits that step changes are all 0, all 1 or straddle 2^32
        n = 2**k
        edges = [0, 2**64 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33 - 1, 2**63]
        ys = edges + [int(w) for w in rng.integers(0, 2**64, size=500, dtype=np.uint64)]
        x = np.array([py_unpremix(y) for y in ys], dtype=np.uint64)
        full = _bounded(_mix(x.copy()), n)
        got = _indices(x.copy(), n)
        np.testing.assert_array_equal(got, full)
        assert got.tolist() == [(py_mix(py_unpremix(y)) * n) >> 64 for y in ys]
        assert got.tolist() == [y >> (64 - k) for y in ys]
        # the same edges as the hashed words x themselves
        x = np.array(edges, dtype=np.uint64)
        np.testing.assert_array_equal(_indices(x.copy(), n),
                                      _bounded(_mix(x.copy()), n))


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

    @pytest.mark.parametrize("record_every", [2.5, 0, -1, "2"])
    def test_record_every_must_be_a_positive_integer(self, record_every):
        # 2.5 would label step 5's observation as t = 2.5
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            run("nshb", 0.5, const_table(0.1, T=6, b=2), prob, seed=1,
                record_every=record_every)

    @pytest.mark.parametrize("whole", [2.0, np.float64(2.0), np.int64(2)],
                             ids=["float", "np.float64", "np.int64"])
    def test_whole_record_every_runs_as_its_int(self, whole):
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        table = const_table(0.1, T=7, b=2)
        got = run("nshb", 0.5, table, prob, seed=1, record_every=whole)
        ref = run("nshb", 0.5, table, prob, seed=1, record_every=2)
        assert got.t.dtype == ref.t.dtype and got.t.tolist() == [0, 2, 4, 6]
        for name in ("t", "f", "grad_norm_sq", "lyapunov"):
            assert_bits(getattr(got, name), getattr(ref, name))

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

    def test_theta0_length_must_match_the_problem(self):
        prob = QuadraticMeanProblem.generate(4, 8, sigma_sq=0.5, seed=4)
        with pytest.raises(ValueError, match=r"theta0 has length 3 but the problem has d = 4"):
            run("nshb", 0.5, const_table(0.1, T=5), prob, [1, 2], theta0=np.zeros(3))

    @pytest.mark.parametrize("seed", [2.7, -1, math.inf])
    def test_theta0_seed_that_is_not_whole_is_refused(self, seed):
        # 2.7 would run theta0_seed 2's trajectory
        prob = QuadraticMeanProblem.generate(2, 8, sigma_sq=0.5, seed=4)
        with pytest.raises(ValueError, match="theta0_seed must be a whole number >= 0"):
            run("nshb", 0.5, const_table(0.1, T=3), prob, 1, theta0_seed=seed)

    def test_default_theta0_is_the_seeded_normal_draw(self):
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.5, seed=4)
        table = const_table(0.1, T=3)
        theta0 = np.random.default_rng((2,)).standard_normal(3)
        ref = run("nshb", 0.5, table, prob, 1, theta0=theta0, record_theta=True)
        for seed in (2, 2.0, np.uint8(2)):
            got = run("nshb", 0.5, table, prob, 1, theta0_seed=seed, record_theta=True)
            np.testing.assert_array_equal(got.theta, ref.theta)

    def test_caller_error_state_changes_no_bit(self):
        # run decides non-finite values itself: under a caller's
        # all="raise", the harmless underflow of a converging run is no
        # FloatingPointError, and every bit of the trace stays the same
        prob = QuadraticMeanProblem.generate(3, 8, sigma_sq=0.0, seed=1)
        table = constant_bs_table("constant", batch=2, T=3000, lambda_max=0.9)
        ref = run("nshb", 0.5, table, prob, 0, theta0=prob.abar + 1.0, record_theta=True)
        with np.errstate(all="raise"):
            got = run("nshb", 0.5, table, prob, 0, theta0=prob.abar + 1.0, record_theta=True)
        for name in ("t", "theta", "f", "grad_norm_sq", "lyapunov", "theta_final",
                     "final_f", "final_grad_norm_sq", "final_lyapunov"):
            assert_bits(getattr(got, name), getattr(ref, name))

    def test_batch_sizes_follow_table(self, monkeypatch):
        # step t draws table.batch[t] indices per seed, through the
        # (K, b, R) index blocks the engine hands the problem
        prob = QuadraticMeanProblem.generate(2, 32, sigma_sq=1.0, seed=5)
        spec = schedules.ScheduleSpec("increasing-bs", lambda_max=0.1, b0=8, delta=2.0,
                                      epochs_per_phase=(1, 1, 1), dataset_size=32)
        table = spec.build(problem_n=None)[0]
        drawn, gradients = [], prob.minibatch_gradients

        def recording(indices):
            drawn.extend([indices.shape[1]] * indices.shape[0])
            return gradients(indices)

        monkeypatch.setattr(prob, "minibatch_gradients", recording)
        run("nshb", 0.0, table, prob, seed=1)
        assert drawn == table.batch.tolist()


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
        eta = constant_bs_table("diminishing", batch=4, T=80, lambda_max=0.15)
        alpha = schedules.ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch)
        a = run("nshb", beta, eta, prob, seed=3, theta0_seed=1, record_theta=True)
        b = run("shb", beta, alpha, prob, seed=3, theta0_seed=1, record_theta=True)
        scale = np.maximum(1.0, np.abs(a.theta))
        assert np.max(np.abs(a.theta - b.theta) / scale) < 1e-10
        assert abs(a.final_f - b.final_f) < 1e-10 * max(1.0, abs(a.final_f))

    def test_two_term_rewrite_matches_buffer_form(self):
        # theta_{t+1} = theta_t - eta_t (1-beta) g_t + beta (eta_t/eta_{t-1}) (theta_t - theta_{t-1})
        prob = QuadraticMeanProblem.generate(3, 12, sigma_sq=0.5, seed=8)
        beta = 0.8
        table = constant_bs_table("cosine", batch=3, T=100, dataset_size=12, lambda_max=0.2,
                                  lambda_min=0.05)
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
            alpha = schedules.ScheduleTable(lr=eta.lr * (1 - beta), batch=eta.batch)
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


def small_problem(family, d=5):
    if family == "quadratic":
        return QuadraticMeanProblem.generate(d, 24, sigma_sq=1.0, seed=3)
    return LogCoshProblem.generate(d, 24, spread=1.5, seed=3)


def observed_one_step_at_a_time(alg, beta, table, problem, seeds, theta0, record_every=1):
    """The engine's loop with every observation made in a call of its own.

    Returns (obs, final, stop): obs[k] holds (f, ||grad f||^2, Lyapunov
    value) per seed row at recorded step k, final the same at the last
    iterate, and stop the (step, row) of the divergence, or None.  Each
    iterate's box is checked before its step, and an exit is raised as the
    engine names it.  The update is the plain expression form, as in ``reference_run``, and the
    step that diverged is the first whose new iterate is non-finite, its
    lowest non-finite row the row that diverged.
    """
    R = len(seeds)
    eta = table.lr if alg == "nshb" else table.lr / (1 - beta)
    A = theory.lyapunov_coefficient_array(eta, problem.L, beta)
    theta, m = np.tile(theta0, (R, 1)), np.zeros((R, problem.d))

    def observe(theta, m, t):
        f, g = problem.value_and_grad(theta)
        m = m if alg == "nshb" else (1 - beta) * m
        A_prev = float(A[t - 1]) if t > 0 else 0.0
        lyap = theory.lyapunov_value(f, np.einsum("ij,ij->i", m, m), A_prev, t)
        return np.array([f, np.einsum("ij,ij->i", g, g), lyap])

    def bad_row(values, axis=0):
        bad = ~np.isfinite(values).all(axis=axis)
        return int(np.argmax(bad)) if bad.any() else None

    obs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(table.T):
            if t % record_every == 0:
                obs.append(observe(theta, m, t))
                if (row := bad_row(obs[-1])) is not None:
                    return np.array(obs), obs[-1], (t, row)
            try:
                problem.check_iterate(theta)
            except IterateOutsideCertifiedBox as exc:
                raise IterateOutsideCertifiedBox(
                    f"seed {seeds[exc.row]} at step {t}: {exc}", row=exc.row) from None
            idx = batch_indices(seeds, list(range(R)), t, int(table.batch[t]), problem.n)
            grad = problem.minibatch_gradient(theta, idx)
            m_next = beta * m + ((1 - beta) * grad if alg == "nshb" else grad)
            theta_next = theta - float(table.lr[t]) * m_next
            if (row := bad_row(theta_next, axis=1)) is not None:
                return np.array(obs), observe(theta, m, t), (t, row)
            theta, m = theta_next, m_next
        final = observe(theta, m, table.T)
    row = bad_row(final)
    return np.array(obs), final, None if row is None else (table.T, row)


def assert_bits(actual, expected):
    """Bit-for-bit equality of float arrays (so 0.0 != -0.0)."""
    a = np.ascontiguousarray(actual, dtype=np.float64)
    b = np.ascontiguousarray(expected, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_trace_is_row(trace, obs, final, r):
    """trace holds seed row r of observed_one_step_at_a_time's output."""
    for i, name in enumerate(("f", "grad_norm_sq", "lyapunov")):
        assert_bits(getattr(trace, name), obs[:, i, r])
    assert_bits([trace.final_f, trace.final_grad_norm_sq, trace.final_lyapunov], final[:, r])


class Poisoned:
    """A problem whose observations or mini-batch gradients go non-finite on cue.

    f = inf in the seed rows obs[k] of observation k, counting every row
    observed so far as k*R + r (run observes a block of steps per call), and
    the mini-batch gradient of step t is ``value`` (inf unless given) in the
    rows grad[t], whether it comes from ``minibatch_gradient`` or from a
    block's functions.
    """

    def __init__(self, problem, R, obs=None, grad=None, value=np.inf):
        self.problem, self.R, self.obs, self.grad = problem, R, obs or {}, grad or {}
        self.value = value
        self.rows = self.steps = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def value_and_grad(self, theta):
        f, g = self.problem.value_and_grad(theta)
        for i in range(f.size):
            k, r = divmod(self.rows + i, self.R)
            if r in self.obs.get(k, ()):
                f[i] = np.inf
        self.rows += f.size
        return f, g

    def minibatch_gradient(self, theta, indices):
        return self._poison(self.problem.minibatch_gradient(theta, indices))

    def minibatch_gradients(self, indices):
        return [lambda theta, gradient=gradient: self._poison(gradient(theta))
                for gradient in self.problem.minibatch_gradients(indices)]

    def _poison(self, g):
        g[self.grad.get(self.steps, [])] = self.value
        self.steps += 1
        return g


class TestLockstepEngine:
    SEEDS = (11, 4, 29, 0, 7)

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    def test_rows_match_per_seed_reference(self, family, alg):
        prob = small_problem(family)
        beta = 0.8
        lam = 0.2 if alg == "nshb" else 0.2 * (1 - beta)
        table = constant_bs_table("diminishing", batch=3, T=60, lambda_max=lam)
        theta0 = np.random.default_rng(5).uniform(-2, 2, size=prob.d)
        traces = run(alg, beta, table, prob, self.SEEDS, theta0=theta0, record_theta=True)
        assert [tr.seed for tr in traces] == list(self.SEEDS)
        for r, tr in enumerate(traces):
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
    @pytest.mark.parametrize("d, b", [(1, 4), (1, 40), (5, 4), (5, 40)])
    def test_row_depends_only_on_its_seed_and_run_index(self, family, d, b):
        # row r samples stream (seeds[r], run_index + r); the seeds beside it
        # must not change a single bit of its trace.  d = 1 with b >= 9 is
        # where a batch-major sum would stop matching a single row's sum.
        prob = small_problem(family, d)
        table = const_table(0.1, T=30, b=b)

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
            assert tr.seed == ref.seed
            for field in ("theta", "f", "grad_norm_sq", "lyapunov"):
                np.testing.assert_array_equal(getattr(tr, field), getattr(ref, field))
            np.testing.assert_array_equal(tr.theta_final, ref.theta_final)
            assert tr.final_lyapunov == ref.final_lyapunov

    def test_blocks_of_steps_match_per_step_draws(self):
        # run draws a block of equal-batch steps at a time; the per-seed
        # reference draws each step through batch_indices.  Neither phase is a
        # whole number of blocks, n = 1000 makes the bounded map reject words,
        # and the rate jump makes every row diverge inside a block.
        prob = QuadraticMeanProblem.generate(3, 1000, sigma_sq=1.0, seed=5)
        seeds, beta, record_every = [11, 4, 29, 0], 0.5, 3
        phases = {3: 700, 7: 800}  # batch: steps
        T = sum(phases.values())
        lr = np.where(np.arange(T) < 1000, 0.1, 20.0)
        table = schedules.ScheduleTable(lr=lr, batch=np.repeat(*zip(*phases.items())))
        block = {b: _BLOCK_WORDS // (len(seeds) * b) for b in phases}
        assert all(1 < steps / block[b] != steps // block[b] for b, steps in phases.items())
        theta0 = np.random.default_rng(5).uniform(-2, 2, size=prob.d)
        with np.errstate(over="ignore", invalid="ignore"):
            refs = [reference_run("nshb", beta, table, prob, s, r, theta0)
                    for r, s in enumerate(seeds)]
        # the engine's divergence rule: a non-finite observation on a recorded
        # step, else a non-finite new iterate, at the first such step and row
        bad_obs = ~np.isfinite(np.array([np.vstack(ref[1:]) for ref in refs])).all(axis=1)
        bad_theta = ~np.isfinite(np.array([ref[0][1:] for ref in refs])).all(axis=2)
        bad = bad_theta[:, :T] | (bad_obs[:, :T] & (np.arange(T) % record_every == 0))
        div_step = int(np.argmax(bad.any(axis=0)))
        div_row = int(np.argmax(bad[:, div_step]))
        assert 1000 < div_step < T and (div_step - 700) % block[7] != 0
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", beta, table, prob, seeds, theta0=theta0, record_every=record_every,
                record_theta=True)
        exc = info.value
        assert (exc.step_index, exc.row, exc.trace.seed) == (div_step, div_row, seeds[div_row])
        rec = np.arange(0, div_step + 1, record_every)
        np.testing.assert_array_equal(exc.trace.t, rec)
        thetas, f, gns, lyap = refs[div_row]
        np.testing.assert_array_equal(exc.trace.theta, thetas[rec])
        np.testing.assert_array_equal(exc.trace.f, f[rec])
        # the reference forms ||grad f||^2 as g @ g and A_{t-1} with eta**2
        np.testing.assert_allclose(exc.trace.grad_norm_sq, gns[rec], rtol=1e-12, atol=0)
        np.testing.assert_allclose(exc.trace.lyapunov, lyap[rec], rtol=1e-12, atol=0)

    def test_single_seed_is_one_row_of_the_engine(self):
        prob = small_problem("quadratic")
        table = const_table(0.1, T=20, b=2)
        alone = run("shb", 0.3, table, prob, 4, run_index=1, theta0_seed=2)
        together = run("shb", 0.3, table, prob, [9, 4], theta0_seed=2)
        np.testing.assert_array_equal(alone.grad_norm_sq, together[1].grad_norm_sq)

    def test_divergence_reports_first_step_then_lowest_row(self):
        base = small_problem("quadratic")
        # row 0 would diverge at step 9, rows 3 and 1 both go non-finite at step 5
        prob = Poisoned(base, 4, grad={5: [3, 1], 9: [0]})
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.5, const_table(0.1, T=20, b=2), prob, [10, 11, 12, 13])
        exc = info.value
        assert (exc.step_index, exc.row, exc.trace.seed) == (5, 1, 11)
        np.testing.assert_array_equal(exc.trace.t, np.arange(6))

    def test_nonfinite_observation_diverges_at_its_step(self):
        base = small_problem("quadratic")
        table = const_table(0.1, T=20, b=2)
        # observation k is made at step k; observation 20 at the post-run iterate
        for poison, step, row in (({4: [2, 1], 7: [0]}, 4, 1), ({20: [3]}, 20, 3)):
            with pytest.raises(NumericalDivergence) as info:
                run("nshb", 0.5, table, Poisoned(base, 4, obs=poison), [10, 11, 12, 13])
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


class TestBlockedObservation:
    # R*d = 180 does not divide 16384: blocks of J = 91 recorded steps
    SEEDS, D, T, BETA = [11, 4, 29, 0, 7], 36, 300, 0.8
    J = _OBSERVE_WORDS // (len(SEEDS) * D)

    def case(self, family, alg="nshb"):
        prob = small_problem(family, self.D)
        lam = 0.2 if alg == "nshb" else 0.2 * (1 - self.BETA)
        table = constant_bs_table("diminishing", batch=3, T=self.T, lambda_max=lam)
        theta0 = np.random.default_rng(5).uniform(-2, 2, size=prob.d)
        return prob, table, theta0

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_blocks_match_one_observation_at_a_time(self, family, alg, record_every):
        prob, table, theta0 = self.case(family, alg)
        observations = -(-self.T // record_every) + 1  # with the final one
        assert _OBSERVE_WORDS % (len(self.SEEDS) * self.D) and observations > self.J
        assert observations % self.J and self.T % self.J
        traces = run(alg, self.BETA, table, prob, self.SEEDS, theta0=theta0,
                     record_every=record_every)
        obs, final, stop = observed_one_step_at_a_time(
            alg, self.BETA, table, prob, self.SEEDS, theta0, record_every)
        assert stop is None
        for r, tr in enumerate(traces):
            assert_trace_is_row(tr, obs, final, r)

    @pytest.mark.parametrize("record_every", [1, 3])
    def test_step_divergence_mid_block_reports_the_pre_step_observation(self, record_every):
        # rows 3 and 1 get an inf gradient at step 130, 39 entries into the
        # second block (record_every = 1) or 44 into the first (3)
        prob, table, theta0 = self.case("quadratic")
        poison = {130: [3, 1]}
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", self.BETA, table, Poisoned(prob, 5, grad=poison), self.SEEDS,
                theta0=theta0, record_every=record_every)
        exc = info.value
        obs, final, stop = observed_one_step_at_a_time(
            "nshb", self.BETA, table, Poisoned(prob, 5, grad=poison), self.SEEDS, theta0,
            record_every)
        assert stop == (exc.step_index, exc.row) == (130, 1)
        assert_trace_is_row(exc.trace, obs, final, 1)
        if record_every == 1:  # step 130 was recorded: final_* repeat its row
            assert exc.trace.final_f == exc.trace.f[-1]

    def test_box_exit_after_a_nonfinite_observation_in_its_block_is_divergence(self):
        prob = LogCoshProblem.generate(2, 16, spread=3.0, seed=0, box_radius=0.5)
        table = const_table(0.5, T=30, b=1)
        seeds = [3, 1, 4]
        with pytest.raises(IterateOutsideCertifiedBox) as info:
            run("nshb", 0.0, table, prob, seeds, theta0=np.zeros(2))
        exit_step = int(str(info.value).split()[4].rstrip(":"))
        assert 2 <= exit_step < _OBSERVE_WORDS // 6  # one block holds every step
        poison = {exit_step - 2: [2]}
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", 0.0, table, Poisoned(prob, 3, obs=poison), seeds, theta0=np.zeros(2))
        exc = info.value
        assert (exc.step_index, exc.row, exc.trace.seed) == (exit_step - 2, 2, 4)
        obs, final, stop = observed_one_step_at_a_time(
            "nshb", 0.0, table, Poisoned(prob, 3, obs=poison), seeds, np.zeros(2))
        assert stop == (exit_step - 2, 2) and final[0, 2] == np.inf
        assert_trace_is_row(exc.trace, obs, final, 2)


class TestTrajectoryBlock:
    """run steps on to the end of a block of J steps past a divergence and
    finds it when it settles the block; every outcome must equal that of the
    per-step engine."""

    SEEDS, D, T, BETA = [11, 4, 29, 0, 7], 36, 300, 0.8
    J = _OBSERVE_WORDS // (len(SEEDS) * D)  # 91 steps per block

    def case(self, family="quadratic"):
        prob = small_problem(family, self.D)
        table = constant_bs_table("diminishing", batch=3, T=self.T, lambda_max=0.2)
        return prob, table, np.random.default_rng(5).uniform(-2, 2, size=prob.d)

    def assert_same_outcome(self, prob, table, theta0, poison, record_every=1):
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", self.BETA, table, Poisoned(prob, 5, grad=poison), self.SEEDS,
                theta0=theta0, record_every=record_every, record_theta=True)
        exc = info.value
        obs, final, stop = observed_one_step_at_a_time(
            "nshb", self.BETA, table, Poisoned(prob, 5, grad=poison), self.SEEDS, theta0,
            record_every)
        assert stop == (exc.step_index, exc.row)
        assert exc.trace.seed == self.SEEDS[exc.row]
        assert_trace_is_row(exc.trace, obs, final, exc.row)
        return exc

    @pytest.mark.parametrize("block, slot", [(0, 1), (1, 1), (0, "last"), (2, "last")])
    def test_divergence_at_the_first_and_last_slot_of_a_block(self, block, slot):
        # step t0 + s writes slot s + 1: slot 1 is the block's first new
        # iterate and slot J its last, which starts the next block
        s = self.J if slot == "last" else slot
        t = block * self.J + s - 1
        prob, table, theta0 = self.case()
        exc = self.assert_same_outcome(prob, table, theta0, {t: [4, 2]})
        assert (exc.step_index, exc.row) == (t, 2)
        # the trace ends at the step that diverged, and its final_* (and
        # theta_final) are those of the iterate the step started from
        np.testing.assert_array_equal(exc.trace.t, np.arange(t + 1))
        thetas = reference_run("nshb", self.BETA, table, prob, self.SEEDS[2], 2, theta0)[0]
        assert_bits(exc.trace.theta, thetas[: t + 1])
        assert_bits(exc.trace.theta_final, thetas[t])

    def test_divergence_at_a_step_that_is_not_recorded(self):
        # record_every = 3 records steps 0, 3, ...: step 131 is not recorded,
        # so the trace ends at step 129 and final_* observe step 131's iterate
        prob, table, theta0 = self.case()
        assert 131 % 3 and self.J < 131 < 2 * self.J
        exc = self.assert_same_outcome(prob, table, theta0, {131: [3]}, record_every=3)
        assert (exc.step_index, exc.row) == (131, 3)
        np.testing.assert_array_equal(exc.trace.t, np.arange(0, 130, 3))
        thetas = reference_run("nshb", self.BETA, table, prob, self.SEEDS[3], 3, theta0)[0]
        assert_bits(exc.trace.theta_final, thetas[131])

    def test_nan_iterate_that_the_box_check_lets_through(self):
        # lr = 0 from step 40 on turns row 1's inf gradient into a NaN iterate
        # (theta - 0*inf); the log-cosh box check passes NaN, so the block runs
        # on to its end before the finiteness pass reports step 40
        prob, table, theta0 = self.case("logcosh")
        lr = table.lr.copy()
        lr[40:] = 0.0  # a table refuses a zero rate followed by a positive one
        table = schedules.ScheduleTable(lr=lr, batch=table.batch)
        prob.check_iterate(np.full((2, self.D), np.nan))  # raises nothing
        exc = self.assert_same_outcome(prob, table, theta0, {40: [1]})
        assert (exc.step_index, exc.row) == (40, 1)

    def test_inf_iterate_is_divergence_before_its_box_exit(self):
        # an inf gradient at step 40 makes row 1's iterate -inf or +inf, which
        # fails step 41's box check; the divergence at step 40 comes first
        prob, table, theta0 = self.case("logcosh")
        with pytest.raises(IterateOutsideCertifiedBox):
            prob.check_iterate(np.full((1, self.D), -np.inf))
        exc = self.assert_same_outcome(prob, table, theta0, {40: [1]})
        assert (exc.step_index, exc.row) == (40, 1)

    def test_zero_rate_with_an_infinite_momentum_entry(self):
        # the inf gradient of step 12 makes one momentum entry infinite; at
        # lr = 0 the new iterate is theta - 0*inf = NaN, a divergence at step 12
        prob, table, theta0 = self.case()
        table = schedules.ScheduleTable(lr=np.zeros(self.T), batch=table.batch)
        exc = self.assert_same_outcome(prob, table, theta0, {12: [0]})
        assert (exc.step_index, exc.row) == (12, 0)


class TestBlockedBoxCheck:
    """run checks the certified box once per trajectory block, on the stack of
    iterates its steps ran on, and cuts the block at the first exit.  A large
    finite gradient pushes chosen rows out of the log-cosh box at a chosen
    step; every outcome must equal that of the per-step check."""

    SEEDS, D, T, BETA, KICK = [11, 4, 29, 0, 7], 36, 300, 0.8, 1e5
    J = _OBSERVE_WORDS // (len(SEEDS) * D)  # 91 steps per block; the last block has 27

    def outcome(self, kick, poison=None, obs=None):
        """run's exception and the per-step engine's outcome (its exception on
        a box exit), with step t's gradient KICK in the rows kick[t] and inf
        in the rows poison[t], and f = inf in the rows obs[t] of step t."""
        prob = small_problem("logcosh", self.D)
        table = constant_bs_table("diminishing", batch=3, T=self.T, lambda_max=0.2)
        theta0 = np.random.default_rng(5).uniform(-2, 2, size=self.D)

        def problem():
            return Poisoned(Poisoned(prob, 5, grad=kick, value=self.KICK), 5, obs, poison)

        with pytest.raises((IterateOutsideCertifiedBox, NumericalDivergence)) as info:
            run("nshb", self.BETA, table, problem(), self.SEEDS, theta0=theta0)
        try:
            ref = observed_one_step_at_a_time("nshb", self.BETA, table, problem(), self.SEEDS,
                                              theta0)
        except IterateOutsideCertifiedBox as exc:
            ref = exc
        return info.value, ref

    @pytest.mark.parametrize("exit_step", [J, J + 40, J - 1, T - 1],
                             ids=["slot-0-of-block-1", "mid-block", "last-slot-of-block-0",
                                  "last-slot-of-the-last-block"])
    def test_exit_matches_the_per_step_check(self, exit_step):
        # rows 4 and 2 leave the box at exit_step: the lower row is named
        exc, ref = self.outcome({exit_step - 1: [4, 2]})
        assert isinstance(exc, IterateOutsideCertifiedBox)
        assert isinstance(ref, IterateOutsideCertifiedBox)
        assert str(exc) == str(ref) and exc.row == ref.row == 2
        assert str(exc).startswith(f"seed 29 at step {exit_step}: |theta|_inf = ")
        assert float(str(exc).split()[7]) > self.KICK / 1e3

    def test_divergence_in_the_exit_slot_comes_first(self):
        # step t pushes row 2 out of the box and makes row 3 non-finite: both
        # show in the slot of theta_{t+1}, and step t's divergence comes first
        t = self.J + 40
        exc, (obs, final, stop) = self.outcome({t: [2]}, poison={t: [3]})
        assert isinstance(exc, NumericalDivergence)
        assert stop == (exc.step_index, exc.row) == (t, 3)
        assert exc.trace.seed == self.SEEDS[3]
        assert_trace_is_row(exc.trace, obs, final, 3)

    def test_nonfinite_observation_at_the_exit_comes_first(self):
        # row 2 leaves the box at step t, where row 4's recorded f is inf: the
        # observation of theta_t is checked before its box
        t = self.J + 40
        exc, (obs, final, stop) = self.outcome({t - 1: [2]}, obs={t: [4]})
        assert isinstance(exc, NumericalDivergence)
        assert stop == (exc.step_index, exc.row) == (t, 4)
        assert_trace_is_row(exc.trace, obs, final, 4)

    def test_exit_one_slot_before_a_nonfinite_iterate_comes_first(self):
        # row 3 leaves the box at the last slot block 0 checks, J - 1; row 1's
        # iterate goes non-finite one slot later, in slot J, which the block
        # stepped to but does not check
        exc, ref = self.outcome({self.J - 2: [3]}, poison={self.J - 1: [1]})
        assert isinstance(exc, IterateOutsideCertifiedBox)
        assert isinstance(ref, IterateOutsideCertifiedBox)
        assert str(exc) == str(ref) and exc.row == ref.row == 3
        assert str(exc).startswith(f"seed 0 at step {self.J - 1}: ")


class TestOneStepBlocks:
    """R*d > _OBSERVE_WORDS gives blocks of J = 1 step; with record_every = 3,
    two blocks of every three hold no recorded step, the last one of them
    just before the post-run observation."""

    R, D, T, EVERY, BETA = 60, 300, 11, 3, 0.8

    def case(self, family):
        assert _OBSERVE_WORDS // (self.R * self.D) == 0  # J = 1
        prob = small_problem(family, self.D)
        table = constant_bs_table("diminishing", batch=3, T=self.T, lambda_max=0.2)
        seeds = list(range(100, 100 + self.R))
        return prob, table, seeds, np.random.default_rng(5).uniform(-2, 2, size=self.D)

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_traces_equal_each_seed_run_alone(self, family):
        prob, table, seeds, theta0 = self.case(family)
        traces = run("nshb", self.BETA, table, prob, seeds, theta0=theta0,
                     record_every=self.EVERY, record_theta=True)
        for i, (seed, tr) in enumerate(zip(seeds, traces)):
            alone = run("nshb", self.BETA, table, prob, seed, run_index=i, theta0=theta0,
                        record_every=self.EVERY, record_theta=True)
            assert tr.seed == alone.seed == seed
            np.testing.assert_array_equal(tr.t, [0, 3, 6, 9])
            np.testing.assert_array_equal(alone.t, tr.t)
            for name in ("theta", "f", "grad_norm_sq", "lyapunov", "theta_final",
                         "final_f", "final_grad_norm_sq", "final_lyapunov"):
                assert_bits(getattr(tr, name), getattr(alone, name))

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_divergence_at_a_step_that_is_not_recorded(self, family):
        prob, table, seeds, theta0 = self.case(family)
        poison = {4: [7, 3]}  # step 4 is not recorded
        with pytest.raises(NumericalDivergence) as info:
            run("nshb", self.BETA, table, Poisoned(prob, self.R, grad=poison), seeds,
                theta0=theta0, record_every=self.EVERY)
        exc = info.value
        obs, final, stop = observed_one_step_at_a_time(
            "nshb", self.BETA, table, Poisoned(prob, self.R, grad=poison), seeds, theta0,
            self.EVERY)
        assert stop == (exc.step_index, exc.row) == (4, 3)
        assert exc.trace.seed == seeds[3]
        np.testing.assert_array_equal(exc.trace.t, [0, 3])
        assert_trace_is_row(exc.trace, obs, final, 3)


class TestBlockedGradients:
    @pytest.mark.parametrize("d", [1, 2, 10, 20])
    @pytest.mark.parametrize("R", [1, 5, 64])
    @pytest.mark.parametrize("b", [1, 3, 64])
    @pytest.mark.parametrize("K", [1, 7])
    def test_quadratic_block_means_equal_per_step_means(self, d, R, b, K, rng):
        prob = QuadraticMeanProblem.generate(d, 97, sigma_sq=2.0, seed=d)
        block = rng.integers(0, prob.n, size=(K, b, R))
        theta = rng.standard_normal((R, d))
        gradients = prob.minibatch_gradients(block)
        assert len(gradients) == K
        for k, gradient in enumerate(gradients):
            got = gradient(theta)
            # each row against that row's batch mean computed alone
            alone = [prob.anchors.take(block[k][:, r], axis=0).mean(axis=0) for r in range(R)]
            assert_bits(got, theta - np.stack(alone))
            assert_bits(got, prob.minibatch_gradient(theta, block[k].T))

    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_blocks_end_where_the_batch_changes(self, family):
        # b = 1000 gives blocks of K = 1 step; every other phase ends in a
        # block cut short by the next batch size or the end of the table
        prob = small_problem(family, 10)
        seeds = [11, 4, 29, 0, 7]
        batch = np.repeat([3, 1000, 1, 64], [50, 3, 300, 20])
        blocks = list(_index_blocks(_stream_key(seeds, range(5)), batch, prob.n))
        sizes = [(blk.shape[0], blk.shape[1]) for blk in blocks]
        assert sizes == [(50, 3), (1, 1000), (1, 1000), (1, 1000), (300, 1), (12, 64), (8, 64)]
        theta = np.random.default_rng(5).uniform(-2, 2, size=(5, prob.d))
        gradients = [g for blk in blocks for g in prob.minibatch_gradients(blk)]
        assert len(gradients) == batch.size
        for t, gradient in enumerate(gradients):
            idx = batch_indices(seeds, range(5), t, int(batch[t]), prob.n)
            assert_bits(gradient(theta), prob.minibatch_gradient(theta, idx))


    def test_collected_blocks_own_their_memory(self):
        # n = 1024 maps by the shift in place; b = 2048 at R = 4 is a K = 1 step
        # of 8192 > _BLOCK_WORDS words and b = 3 a run of K = 341 step blocks.
        # A buffer reused across blocks would show in the blocks kept by list()
        seeds, n = [11, 4, 29, 0], 1024
        batch = np.repeat([2048, 3, 2048], [4, 700, 2])
        assert 4 * 2048 > _BLOCK_WORDS
        blocks = list(_index_blocks(_stream_key(seeds, range(4)), batch, n))
        assert [blk.shape[:2] for blk in blocks] == [(1, 2048)] * 4 + [(341, 3)] * 2 + [
            (18, 3), (1, 2048), (1, 2048)]
        for i, a in enumerate(blocks):
            assert not any(np.shares_memory(a, c) for c in blocks[i + 1 :])
        steps = [step for blk in blocks for step in blk]
        for t, got in enumerate(steps):
            np.testing.assert_array_equal(got.T, batch_indices(seeds, range(4), t, int(batch[t]), n))


class TestStepInPlace:
    @pytest.mark.parametrize("alg", ["nshb", "shb"])
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_run_steps_as_a_loop_of_public_steps(self, alg, record_every):
        # run steps inside its trajectory block; its iterates and their
        # observations are those of a loop of step calls, bit for bit
        prob = QuadraticMeanProblem.generate(6, 64, sigma_sq=1.0, seed=8)
        table = constant_bs_table("diminishing", batch=3, T=40, lambda_max=0.3)
        seeds, beta = [5, 2, 9], 0.6
        theta0 = np.random.default_rng(2).standard_normal(prob.d)
        traces = run(alg, beta, table, prob, seeds, theta0=theta0, record_every=record_every,
                     record_theta=True)
        theta, m = np.tile(theta0, (len(seeds), 1)), np.zeros((len(seeds), prob.d))
        thetas = []
        for t in range(table.T):
            if t % record_every == 0:
                thetas.append(theta)
            idx = batch_indices(seeds, range(len(seeds)), t, int(table.batch[t]), prob.n)
            theta, m = stepped(theta, m, prob.minibatch_gradient(theta, idx),
                               float(table.lr[t]), beta, alg)
        for r, tr in enumerate(traces):
            np.testing.assert_array_equal(tr.t, np.arange(0, table.T, record_every))
            assert_bits(tr.theta, [theta_t[r] for theta_t in thetas])
            assert_bits(tr.theta_final, theta[r])
            f, g = prob.value_and_grad(np.vstack([tr.theta, tr.theta_final]))
            assert_bits(np.append(tr.f, tr.final_f), f)
            assert_bits(np.append(tr.grad_norm_sq, tr.final_grad_norm_sq),
                        np.einsum("ij,ij->i", g, g))

    def test_step_matches_the_expression_form(self, rng):
        for alg in ("nshb", "shb"):
            theta, m, g = rng.standard_normal((3, 4, 6))
            got_theta, got_m = theta, m
            for _ in range(3):
                m = 0.7 * m + ((1.0 - 0.7) * g if alg == "nshb" else g)
                theta = theta - 0.05 * m
                got_theta, got_m = stepped(got_theta, got_m, g, 0.05, 0.7, alg)
                assert_bits(got_theta, theta)
                assert_bits(got_m, m)
