"""Synthetic problem families: gradients, noise constants, certification."""

import ast
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sgdm_sched import optim, problems
from sgdm_sched.problems import (
    SIGMA_GRID_POINTS,
    IterateOutsideCertifiedBox,
    LogCoshProblem,
    QuadraticMeanProblem,
)
from sgdm_sched.optim import NumericalDivergence, empirical_minibatch_variance

from conftest import constant_bs_table


def test_problems_module_imports_nothing_from_the_package():
    # a leaf module: optim imports problems, so problems must not import back.
    # Its one package import is the seed rule of _counts, itself a leaf
    package = Path(__file__).parents[1] / "src" / "sgdm_sched"

    def relative_imports(name):
        tree = ast.parse((package / name).read_text())
        return [(node.module, [a.name for a in node.names]) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]

    assert relative_imports("problems.py") == [("_counts", ["_count"])]
    assert relative_imports("_counts.py") == []


@pytest.mark.parametrize("cls", [QuadraticMeanProblem, LogCoshProblem])
def test_generate_takes_a_whole_seed_and_refuses_the_rest(cls):
    # int(seed) used to truncate 2.9 onto seed 2's anchors
    np.testing.assert_array_equal(cls.generate(3, 8, seed=2.0).anchors,
                                  cls.generate(3, 8, seed=2).anchors)
    for seed in (2.9, -1, math.nan):
        with pytest.raises(ValueError, match=r"seed must be a whole number >= 0"):
            cls.generate(3, 8, seed=seed)


@pytest.mark.parametrize("cls", [QuadraticMeanProblem, LogCoshProblem])
@pytest.mark.parametrize("shape", [(4, 0), (0, 3), (0, 0)])
def test_anchors_without_rows_or_columns_are_refused(cls, shape):
    with pytest.raises(ValueError, match=r"non-empty \(n, d\) array"):
        cls(np.zeros(shape))


def _fd_gradient(fun, theta, h=1e-5):
    """Central finite differences, the independent gradient oracle."""
    g = np.empty_like(theta)
    for j in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[j] = h
        g[j] = (fun(theta + e) - fun(theta - e)) / (2 * h)
    return g


def _grad_norm_sq(prob, theta):
    g = prob.value_and_grad(theta)[1]
    return float(np.dot(g, g))


def _per_sample_gradients(prob, theta):
    """(n, d) array whose row i is sample i's gradient: one-index mini-batches."""
    return prob.minibatch_gradient(np.broadcast_to(theta, (prob.n, prob.d)),
                                   np.arange(prob.n)[:, None])


def _full_grid_max(prob):
    """sum_j max of v_j over every certificate grid point, in blocks of about
    2^18 values: the evaluation the pruned search replaces.  A row longer than
    2^13 goes alone, as the search evaluates it: einsum sums a lone row of
    that length in other pieces, and other bits, than a row in a block."""
    c = prob.amp / prob.scale
    grid = np.linspace(-prob.box_radius, prob.box_radius, SIGMA_GRID_POINTS)
    block = max(1, 2**18 // prob.n) if prob.n <= 2**13 else 1
    per_coord = []
    for j in range(prob.d):
        a_j = prob.anchors[None, :, j]
        v = np.empty(grid.size)
        for lo in range(0, grid.size, block):
            g = c * np.tanh((grid[lo : lo + block, None] - a_j) / prob.scale)
            v[lo : lo + block] = np.einsum("pi,pi->p", g, g) / prob.n - g.mean(axis=1) ** 2
        per_coord.append(v.max())
    return math.fsum(per_coord)


def _logcosh_expression(prob, theta):
    """f and g of one iterate as plain numpy expressions, allocating freely."""
    z = (theta[None, :] - prob.anchors) / prob.scale
    az = np.abs(z)
    logcosh = az + np.log1p(np.exp(-2.0 * az)) - math.log(2.0)
    f = prob.amp * float(logcosh.sum() / prob.n)
    g = (prob.amp / prob.scale * np.tanh(z)).mean(axis=0)
    return f, g


@pytest.fixture
def two_anchor_problem():
    return QuadraticMeanProblem(np.array([[0.0], [2.0]]))


class TestQuadraticClosedForms:
    def test_minimizer_and_fstar(self, two_anchor_problem):
        prob = two_anchor_problem
        assert prob.abar == pytest.approx([1.0])
        # f* = (1/n) sum ||a_i - abar||^2 / 2 = (1 + 1)/2/2
        assert prob.f_star == pytest.approx(0.5)
        assert prob.sigma_sq == pytest.approx(1.0)
        assert prob.value_and_grad(np.array([1.0]))[0] == pytest.approx(prob.f_star)

    def test_gradient_at_minimizer_is_zero(self, two_anchor_problem):
        assert _grad_norm_sq(two_anchor_problem, np.array([1.0])) == 0.0

    def test_grad_norm_sq_off_minimizer(self, two_anchor_problem):
        # grad f(0) = 0 - 1, squared norm 1
        assert _grad_norm_sq(two_anchor_problem, np.array([0.0])) == pytest.approx(1.0)

    def test_single_sample_gradient(self, two_anchor_problem):
        g = two_anchor_problem.minibatch_gradient(np.array([1.0]), np.array([0]))
        assert g == pytest.approx([1.0])  # theta - a_0 = 1 - 0

    def test_two_sample_average(self, two_anchor_problem):
        g = two_anchor_problem.minibatch_gradient(np.array([1.0]), np.array([0, 1]))
        assert g == pytest.approx([0.0])  # ((1-0) + (1-2)) / 2

    def test_full_batch_at_minimizer(self, two_anchor_problem):
        g = two_anchor_problem.minibatch_gradient(np.array([1.0]), np.array([0, 1]))
        np.testing.assert_array_equal(g, [0.0])

    def test_index_out_of_range(self, two_anchor_problem):
        with pytest.raises(IndexError):
            two_anchor_problem.minibatch_gradient(np.array([1.0]), np.array([2]))

    def test_sigma_dialing_is_tight(self):
        for target in (0.25, 1.0, 7.5):
            prob = QuadraticMeanProblem.generate(6, 64, sigma_sq=target, seed=3)
            assert prob.sigma_sq == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("spread", [1e200, np.inf])
    def test_spread_whose_variance_overflows_is_refused(self, spread):
        # an infinite deviation variance would rescale every anchor onto the mean
        with pytest.raises(ValueError, match="anchor variance non-finite"):
            QuadraticMeanProblem.generate(4, 32, sigma_sq=1.0, spread=spread, seed=3)

    def test_anchor_variance_that_overflows_is_refused(self):
        # finite anchors whose mean squared deviation is beyond the float range
        with pytest.raises(ValueError, match=r"sigma_sq = inf is not finite"):
            QuadraticMeanProblem.generate(4, 32, spread=1e200, seed=3)

    def test_zero_sigma_gives_identical_anchors(self):
        prob = QuadraticMeanProblem.generate(4, 16, sigma_sq=0.0, seed=3)
        assert prob.sigma_sq == 0.0
        np.testing.assert_array_equal(prob.anchors, np.tile(prob.abar, (16, 1)))


class TestUnbiasedness:
    def test_quadratic_all_samples_equals_full_gradient_exactly(self, rng):
        prob = QuadraticMeanProblem.generate(8, 33, spread=2.0, seed=1)
        theta = rng.standard_normal(8)
        avg = prob.minibatch_gradient(theta, np.arange(prob.n))
        np.testing.assert_array_equal(avg, prob.value_and_grad(theta)[1])

    @pytest.mark.parametrize(
        "d, scale, amp",
        [(5, 1.0, 1.0), (5, 0.7, 1.3), (1, 1.0, 1.0), (1, 0.7, 1.3)],
    )
    def test_logcosh_all_samples_equals_full_gradient_exactly(self, d, scale, amp, rng):
        prob = LogCoshProblem.generate(d, 17, spread=1.5, scale=scale, amp=amp, seed=2)
        theta = rng.standard_normal(d)
        avg = prob.minibatch_gradient(theta, np.arange(prob.n))
        np.testing.assert_array_equal(avg, prob.value_and_grad(theta)[1])


class TestSeedAxis:
    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_rows_equal_single_iterate_calls(self, family, rng):
        if family == "quadratic":
            prob = QuadraticMeanProblem.generate(4, 20, spread=1.5, seed=3)
        else:
            prob = LogCoshProblem.generate(4, 20, spread=1.5, seed=3)
        theta = rng.standard_normal((3, 4))
        idx = rng.integers(0, prob.n, size=(3, 7))
        f, g = prob.value_and_grad(theta)
        g_batch = prob.minibatch_gradient(theta, idx)
        assert f.shape == (3,) and g.shape == g_batch.shape == (3, 4)
        for r in range(3):
            f_r, g_r = prob.value_and_grad(theta[r])
            assert f[r] == f_r
            np.testing.assert_array_equal(g[r], g_r)
            np.testing.assert_array_equal(g_batch[r], prob.minibatch_gradient(theta[r], idx[r]))


class TestGradientCorrectness:
    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_per_sample_gradients_match_finite_differences(self, family, rng):
        # sample i's gradient against the one-anchor problem f_i, and the
        # full gradient against the full objective's own value
        if family == "quadratic":
            prob = QuadraticMeanProblem.generate(4, 12, spread=1.3, seed=5)
            single = [QuadraticMeanProblem(prob.anchors[i : i + 1]) for i in range(prob.n)]
        else:
            prob = LogCoshProblem.generate(4, 12, spread=1.3, scale=0.7, amp=1.4, seed=5)
            single = [LogCoshProblem(prob.anchors[i : i + 1], scale=0.7, amp=1.4)
                      for i in range(prob.n)]
        for _ in range(100):
            theta = rng.uniform(-2, 2, size=prob.d)
            i = int(rng.integers(prob.n))
            for analytic, fun in (
                (prob.minibatch_gradient(theta, np.array([i])), single[i].value_and_grad),
                (prob.value_and_grad(theta)[1], prob.value_and_grad),
            ):
                fd = _fd_gradient(lambda th: fun(th)[0], theta)
                err = np.linalg.norm(fd - analytic)
                assert err <= 1e-6 * max(1.0, np.linalg.norm(analytic))


class TestSmoothness:
    @pytest.mark.parametrize("family", ["quadratic", "logcosh"])
    def test_gradient_lipschitz_certificate(self, family, rng):
        if family == "quadratic":
            prob = QuadraticMeanProblem.generate(6, 24, spread=2.0, seed=9)
        else:
            prob = LogCoshProblem.generate(6, 24, spread=1.0, scale=0.8, amp=2.0, seed=9)
        for _ in range(10_000):
            t1 = rng.uniform(-4, 4, size=prob.d)
            t2 = rng.uniform(-4, 4, size=prob.d)
            lhs = np.linalg.norm(prob.value_and_grad(t1)[1] - prob.value_and_grad(t2)[1])
            assert lhs <= prob.L * np.linalg.norm(t1 - t2) * (1 + 1e-12)


class TestLogCosh:
    def test_smoothness_constant(self):
        prob = LogCoshProblem.generate(3, 8, scale=0.5, amp=2.0, seed=0)
        assert prob.L == pytest.approx(2.0 / 0.25)

    def test_loss_nonnegative_and_fstar_zero(self, rng):
        prob = LogCoshProblem.generate(3, 8, seed=0)
        assert prob.f_star == 0.0
        for _ in range(50):
            assert prob.value_and_grad(rng.uniform(-5, 5, size=3))[0] >= 0.0

    def test_common_anchor_is_stationary(self):
        anchor = np.array([0.3, -1.2, 0.8])
        prob = LogCoshProblem(np.tile(anchor, (6, 1)))
        assert _grad_norm_sq(prob, anchor) == 0.0

    def test_certified_sigma_covers_fresh_points(self, rng):
        # the proven bound must dominate the variance at arbitrary points
        # inside the box
        prob = LogCoshProblem.generate(3, 32, spread=2.0, scale=0.6, seed=11, box_radius=4.0)
        for _ in range(1000):
            theta = rng.uniform(-4.0, 4.0, size=3)
            g = _per_sample_gradients(prob, theta)
            gbar = g.mean(axis=0)
            v = float(np.einsum("ij,ij->", g, g) / prob.n - np.dot(gbar, gbar))
            assert v <= prob.sigma_sq

    def test_search_trace_persisted(self):
        # the certificate's terms add up to sigma_sq and follow their formulas
        prob = LogCoshProblem.generate(3, 8, scale=0.7, amp=1.3, seed=0)
        s = prob.sigma_certificate
        assert prob.sigma_sq == s["grid_max"] + s["curvature_slack"] + s["rounding_margin"]
        assert (s["box_radius"], s["grid_points_per_coord"]) == (6.0, 2048)
        M = (2 + 8 / (3 * math.sqrt(3))) * 1.3**2 / 0.7**4
        assert s["curvature_bound"] == pytest.approx(M, rel=1e-14)
        assert s["grid_spacing"] == pytest.approx(12.0 / 2047, rel=1e-12)
        assert s["curvature_slack"] == pytest.approx(3 * M * s["grid_spacing"] ** 2 / 8, rel=1e-14)
        margin = 3 * 4 * (8 + 4) * np.finfo(np.float64).eps * (1.3 / 0.7) ** 2
        assert s["rounding_margin"] == pytest.approx(margin, rel=1e-14)

    def test_certificate_memory_is_bounded_in_n(self):
        # a block holds at most max(d * n, 2^13) values, so set-up holds a
        # few hundred KB of temporaries however large n is
        tracemalloc.start()
        try:
            LogCoshProblem.generate(1, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_variance_curvature_is_bounded(self, rng):
        # central second differences of one coordinate's variance term
        # v(x) = mean(g^2) - mean(g)^2 stay within the certificate's |v''| <= M
        for _ in range(200):
            n = int(rng.integers(1, 40))
            scale, amp = rng.uniform(0.3, 2.0), rng.uniform(0.3, 3.0)
            anchors = rng.normal(0.0, rng.uniform(0.1, 4.0), size=n)
            M = LogCoshProblem(anchors[:, None], scale=scale, amp=amp).sigma_certificate[
                "curvature_bound"]

            def v(x):
                g = amp / scale * np.tanh((x[:, None] - anchors) / scale)
                return (g * g).mean(axis=1) - g.mean(axis=1) ** 2

            x, h = rng.uniform(-6.0, 6.0, size=20), 1e-3 * scale
            fd = (v(x + h) - 2 * v(x) + v(x - h)) / h**2
            assert np.all(np.abs(fd) <= M)

    def test_certified_sigma_against_refined_maximum(self):
        # the per-coordinate maxima on 2^16 points per coordinate lie below
        # the certified value, and it exceeds them by no more than its slack
        prob = LogCoshProblem.generate(4, 64, spread=2.0, scale=0.6, amp=1.5, seed=11,
                                       box_radius=4.0)
        s = prob.sigma_certificate
        fine = np.linspace(-4.0, 4.0, 2**16)
        refined = 0.0
        for j in range(prob.d):
            g = 1.5 / 0.6 * np.tanh((fine[:, None] - prob.anchors[:, j]) / 0.6)
            refined += float(((g * g).mean(axis=1) - g.mean(axis=1) ** 2).max())
        assert refined <= prob.sigma_sq
        # the fine grid's own cell slack is (2047/65535)^2 < 0.001 of the coarse one
        assert prob.sigma_sq <= refined + 1.001 * s["curvature_slack"] + 3 * s["rounding_margin"]

    def test_certified_sigma_is_tight_on_the_benchmark_problem(self):
        # the per-coordinate maxima on 2^16 points add up to 7.8908366; the
        # certificate adds the 2048-point grid's cell slack and rounding
        # margin to the maximum of that grid, found by the pruned search
        prob = LogCoshProblem.generate(20, 1024, seed=3)
        assert 7.890836 <= prob.sigma_sq <= 7.8915

    def test_pruned_grid_max_equals_the_full_grid(self):
        # bit for bit, also where v_j is nearly flat (tiny spread) and little
        # can be pruned, and at the sharp curvature of a small scale
        rng = np.random.default_rng(1972)
        for k in range(200):
            n = 1 if k < 10 else round(10 ** rng.uniform(0.0, math.log10(600.0)))
            prob = LogCoshProblem.generate(
                int(rng.integers(1, 3)), n,
                spread=float(10 ** rng.uniform(-2.0, 0.5)),
                scale=float(10 ** rng.uniform(math.log10(0.05), math.log10(3.0))),
                amp=float(10 ** rng.uniform(-1.0, 1.0)),
                box_radius=float(rng.uniform(0.5, 10.0)),
                seed=k,
            )
            assert prob.sigma_certificate["grid_max"] == _full_grid_max(prob), k

    def test_coordinates_finishing_at_different_levels(self):
        # a different spread per column puts nearly flat coordinates, which
        # prune little, and sharp ones, bisected to the last level, in one
        # search
        rng = np.random.default_rng(2113)
        for k in range(40):
            d = int(rng.integers(3, 13))
            n = round(10 ** rng.uniform(0.0, math.log10(600.0)))
            anchors = rng.standard_normal((n, d)) * 10 ** rng.uniform(-2.5, 0.5, size=d)
            prob = LogCoshProblem(
                anchors,
                scale=float(10 ** rng.uniform(math.log10(0.05), math.log10(3.0))),
                amp=float(10 ** rng.uniform(-1.0, 1.0)),
                box_radius=float(rng.uniform(0.5, 10.0)),
            )
            assert prob.sigma_certificate["grid_max"] == _full_grid_max(prob), k

    def test_one_search_for_all_coordinates(self, monkeypatch):
        # the d coordinates advance together: one call per level, so the
        # call count follows log2 of the grid size, not d
        calls = points = 0
        terms = LogCoshProblem._variance_terms

        def counting_terms(self, x, j):
            nonlocal calls, points
            calls += 1
            points += x.size
            return terms(self, x, j)

        monkeypatch.setattr(LogCoshProblem, "_variance_terms", counting_terms)
        LogCoshProblem.generate(20, 1024, seed=3)
        assert calls <= math.log2(SIGMA_GRID_POINTS) + 3
        assert points == 926

    def test_certificate_transient_memory_on_the_benchmark_problem(self):
        # the search gathers its blocks into the problem's work buffers and
        # holds per-level interval arrays (96 KB here); a dense (d, grid)
        # value array (320 KB here) or one fresh (d, n) array (160 KB), such
        # as a gathered block or a copy of the anchor columns, exceeds the bound
        anchors = np.random.default_rng((3,)).standard_normal((1024, 20))
        LogCoshProblem(anchors)
        tracemalloc.start()
        try:
            prob = LogCoshProblem(anchors)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.sigma_sq == LogCoshProblem.generate(20, 1024, seed=3).sigma_sq
        assert peak - kept <= 128 * 2**10

    @pytest.mark.parametrize("d, n, kwargs", [
        (3, 600, dict(spread=0.01, scale=0.05, box_radius=10.0, seed=7)),
        (3, 50, dict(spread=0.01, seed=1)),
    ])
    def test_flat_coordinates_match_the_full_grid(self, d, n, kwargs):
        # nearly flat v_j: little is pruned (the first problem evaluates the
        # whole grid), and the maximum is still the full grid's bit for bit
        prob = LogCoshProblem.generate(d, n, **kwargs)
        assert prob.sigma_certificate["grid_max"] == _full_grid_max(prob)

    @pytest.mark.parametrize("d, n", [(3, 8193), (3, 12000), (2, 20000)])
    def test_rows_longer_than_2_13_match_the_full_grid(self, d, n):
        # rows longer than 2^13 go one at a time; at n = 12000 and 20000 the
        # same rows evaluated in multi-row blocks give other bits
        prob = LogCoshProblem.generate(d, n, seed=5)
        assert prob.sigma_certificate["grid_max"] == _full_grid_max(prob)

    def test_bisection_prunes_flat_coordinates(self, monkeypatch):
        # nearly flat v_j still prunes: bisection evaluates 3,587 of the
        # 6,144 grid points here
        points = 0
        terms = LogCoshProblem._variance_terms

        def counting_terms(self, x, j):
            nonlocal points
            points += x.size
            return terms(self, x, j)

        monkeypatch.setattr(LogCoshProblem, "_variance_terms", counting_terms)
        prob = LogCoshProblem.generate(3, 50, spread=0.01, seed=1)
        assert points < prob.d * SIGMA_GRID_POINTS
        assert prob.sigma_certificate["grid_max"] == _full_grid_max(prob)

    def test_search_evaluates_few_grid_points(self, monkeypatch):
        # every grid value comes from one row of a tanh call; count the rows
        rows = 0
        tanh = np.tanh

        def counting_tanh(x, *args, **kwargs):
            nonlocal rows
            rows += x.shape[0]
            return tanh(x, *args, **kwargs)

        monkeypatch.setattr(np, "tanh", counting_tanh)
        LogCoshProblem.generate(20, 1024, seed=3)
        assert 0 < rows <= 128 * 20

    def test_box_check(self):
        prob = LogCoshProblem.generate(2, 4, seed=0, box_radius=1.5)
        prob.check_iterate(np.array([1.0, -1.4]))
        with pytest.raises(IterateOutsideCertifiedBox):
            prob.check_iterate(np.array([1.0, -1.6]))
        with pytest.raises(IterateOutsideCertifiedBox, match="1.7") as info:
            prob.check_iterate(np.array([[1.0, -1.4], [1.7, 0.0], [0.0, 1.6]]))
        assert info.value.row == 1


class TestLogCoshObservation:
    # (20, 0.7, 1.3) runs every pass; scale = 1 skips the divide, amp/scale = 1
    # the multiply, and d = 1 sums the column with mean instead of einsum
    @pytest.mark.parametrize(
        "d, scale, amp",
        [(20, 0.7, 1.3), (20, 1.0, 1.0), (20, 0.5, 0.5), (20, 1.0, 2.0), (1, 1.0, 1.0), (1, 0.7, 1.3)],
    )
    def test_buffered_equals_the_expression_form(self, d, scale, amp, rng):
        prob = LogCoshProblem.generate(d, 1024, scale=scale, amp=amp, seed=3)
        theta = rng.uniform(-6.0, 6.0, size=(16, d))
        f, g = prob.value_and_grad(theta)
        for r in range(16):
            f_r, g_r = _logcosh_expression(prob, theta[r])
            assert f[r] == f_r
            assert np.array_equal(g[r], g_r)
        f_1, g_1 = prob.value_and_grad(theta[5])
        f_ref, g_ref = _logcosh_expression(prob, theta[5])
        assert isinstance(f_1, float) and f_1 == f_ref
        assert np.array_equal(g_1, g_ref)

    @pytest.mark.parametrize("n", [1, 2, 17, 1024, 9000])
    @pytest.mark.parametrize("d", [2, 3, 20, 64])
    def test_einsum_column_sum_equals_mean(self, n, d):
        # value_and_grad sums the gradient columns with einsum at d >= 2 and
        # relies on it adding the rows in the order of mean's axis-0 reduce
        w = np.tanh(np.random.default_rng((n, d)).standard_normal((n, d)))
        by_einsum = np.einsum("ij->j", w) / n
        assert np.array_equal(by_einsum.view(np.int64), w.mean(axis=0).view(np.int64))

    @pytest.mark.parametrize("n, d", [(7, 3), (1024, 20)])
    def test_anchors_and_buffers_are_line_aligned(self, n, d, rng, monkeypatch):
        # n*d = 21 words is not a whole number of 64-byte lines: the buffers
        # are padded apart, so writing them leaves the anchors as they were.
        # Each lane that observes a row has its own two buffers
        anchors = rng.standard_normal((n, d))
        for lanes in (1, 3):
            monkeypatch.setattr(problems, "_cpus", lambda lanes=lanes: lanes)
            prob = LogCoshProblem(anchors, scale=0.7)
            assert not prob.anchors.flags.writeable
            theta = rng.uniform(-6.0, 6.0, size=(3, d))
            f, g = prob.value_and_grad(theta)
            buffers = [a for lane in prob._work for a in lane]
            assert len(buffers) == 2 * min(lanes, len(theta))
            assert all(a.shape == (n, d) for a in buffers)
            assert [a.ctypes.data % 64 for a in (prob.anchors, *buffers)] == [0] * (1 + len(buffers))
            assert np.array_equal(prob.anchors, anchors)
            for r in range(3):
                f_r, g_r = _logcosh_expression(prob, theta[r])
                assert f[r] == f_r and np.array_equal(g[r], g_r)

    def test_allocates_no_per_row_temporaries(self, rng):
        prob = LogCoshProblem.generate(20, 1024, seed=3)
        theta = rng.uniform(-6.0, 6.0, size=(16, 20))
        prob.value_and_grad(theta)
        tracemalloc.start()
        try:
            prob.value_and_grad(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prob.n * prob.d * 8

    def test_returned_arrays_outlive_the_next_call(self, rng):
        prob = LogCoshProblem.generate(6, 50, seed=4)
        theta = rng.uniform(-3.0, 3.0, size=(4, 6))
        f, g = prob.value_and_grad(theta)
        f_copy, g_copy = f.copy(), g.copy()
        _, g_1 = prob.value_and_grad(theta[0])
        g_1_copy = g_1.copy()
        prob.value_and_grad(rng.uniform(-3.0, 3.0, size=(4, 6)))
        prob.value_and_grad(-theta[0])
        assert np.array_equal(f, f_copy) and np.array_equal(g, g_copy)
        assert np.array_equal(g_1, g_1_copy)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class WorkerLanesOnly(LogCoshProblem):
    """Lane 0, the calling thread, takes no row when there are other lanes, so
    the worker lanes observe every row (each takes a row when it wakes)."""

    def _observe_rows(self, rows, f, g, claim, failed, z, w):
        lanes = min(problems._cpus(), len(rows))
        if lanes > 1 and threading.current_thread() is threading.main_thread():
            claim = partial(len, rows)
        super()._observe_rows(rows, f, g, claim, failed, z, w)


class TestObservationLanes:
    """value_and_grad spreads its rows over lanes: no value may depend on how many."""

    @pytest.mark.parametrize("d, n, scale, amp", [(20, 1024, 0.7, 1.3), (1, 300, 1.0, 1.0),
                                                  (3, 50, 0.5, 1.0), (4, 9, 1.0, 2.5)])
    @pytest.mark.parametrize("rows", [0, 1, 2, 7])
    def test_every_lane_count_gives_the_same_bits(self, d, n, scale, amp, rows, rng, monkeypatch):
        # 1 and 2 rows are fewer than 3 lanes; 0 rows is a (0, d) stack
        prob = WorkerLanesOnly.generate(d, n, scale=scale, amp=amp, seed=5)
        theta = rng.uniform(-6.0, 6.0, size=(rows, d))
        results = {}
        for lanes in (1, 2, 3):
            monkeypatch.setattr(problems, "_cpus", lambda lanes=lanes: lanes)
            f, g = prob.value_and_grad(theta)
            assert f.shape == (rows,) and g.shape == (rows, d)
            results[lanes] = (_bits(f), _bits(g))
            if rows:
                f_1, g_1 = prob.value_and_grad(theta[-1])  # a single vector
                f_ref, g_ref = _logcosh_expression(prob, theta[-1])
                assert isinstance(f_1, float) and _bits(f_1) == _bits(f_ref)
                assert np.array_equal(_bits(g_1), _bits(g_ref))
        for lanes in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(results[1], results[lanes]))
        for r in range(rows):
            f_r, g_r = _logcosh_expression(prob, theta[r])
            assert results[1][0][r] == _bits(f_r) and np.array_equal(results[1][1][r], _bits(g_r))

    def test_more_lanes_than_cpus_under_a_short_switch_interval(self, rng, monkeypatch):
        # every row is claimed by exactly one lane: a row claimed twice or
        # never would leave a wrong or an uninitialised value in f or g
        prob = LogCoshProblem.generate(3, 40, scale=0.7, amp=1.3, seed=6)
        theta = rng.uniform(-6.0, 6.0, size=(64, 3))
        monkeypatch.setattr(problems, "_cpus", lambda: 1)
        f_1, g_1 = prob.value_and_grad(theta)
        monkeypatch.setattr(problems, "_cpus", lambda: 5)  # more lanes than a small host has CPUs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                f, g = prob.value_and_grad(theta)
                assert np.array_equal(_bits(f), _bits(f_1)) and np.array_equal(_bits(g), _bits(g_1))
        finally:
            sys.setswitchinterval(interval)

    def test_one_lane_starts_no_thread(self, rng, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: 1)
        monkeypatch.setattr(problems, "_workers", [])
        before = threading.active_count()
        LogCoshProblem.generate(3, 40, seed=1).value_and_grad(rng.uniform(-1, 1, (9, 3)))
        assert threading.active_count() == before and problems._workers == []

    def test_idle_lanes_keep_no_problem_alive(self, rng, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: 2)
        prob = WorkerLanesOnly.generate(3, 40, seed=1)
        prob.value_and_grad(rng.uniform(-1.0, 1.0, size=(4, 3)))
        ref = weakref.ref(prob)
        del prob
        deadline = time.monotonic() + 10.0  # the worker drops its job after the token
        while ref() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert ref() is None

    # scale 0.5: row 1e308 overflows the divide, row 4e307 only underflows exp
    HUGE, UNDER = 1e308, 4e307

    def huge_rows(self, rng, where):
        theta = rng.uniform(-3.0, 3.0, size=(8, 3))
        for row, value in where.items():
            theta[row] = value
        return WorkerLanesOnly.generate(3, 40, scale=0.5, seed=2), theta

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_raise_gives_the_lowest_failing_rows_error(self, lanes, rng, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: lanes)
        for where, message in [({2: self.UNDER, 5: self.HUGE}, "underflow encountered in exp"),
                               ({1: self.HUGE, 6: self.UNDER}, "overflow encountered in divide"),
                               ({7: self.HUGE}, "overflow encountered in divide")]:
            prob, theta = self.huge_rows(rng, where)
            with np.errstate(all="raise"), pytest.raises(FloatingPointError, match=message):
                prob.value_and_grad(theta)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_warnings_as_errors_raise_the_warning(self, lanes, rng, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: lanes)
        prob, theta = self.huge_rows(rng, {4: self.HUGE})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow encountered in divide"):
                prob.value_and_grad(theta)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_ignore_gives_inf_and_the_other_rows(self, lanes, rng, monkeypatch):
        monkeypatch.setattr(problems, "_cpus", lambda: lanes)
        prob, theta = self.huge_rows(rng, {4: self.HUGE})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                f, g = prob.value_and_grad(theta)
                f_4, g_4 = _logcosh_expression(prob, theta[4])
        assert f[4] == f_4 == np.inf and np.array_equal(g[4], g_4)
        for r in (0, 1, 2, 3, 5, 6, 7):
            f_r, g_r = _logcosh_expression(prob, theta[r])
            assert f[r] == f_r and np.array_equal(g[r], g_r)

    def test_diverging_run_is_the_same_at_every_lane_count(self, monkeypatch):
        class Unboxed(WorkerLanesOnly):
            def check_iterate(self, theta):
                pass  # let the iterates grow until an observation overflows

        prob = Unboxed.generate(3, 32, seed=4)
        table = constant_bs_table("constant", batch=4, T=40, lambda_max=1e306)
        outcomes = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(problems, "_cpus", lambda lanes=lanes: lanes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the run lets no lane warn
                with pytest.raises(NumericalDivergence) as info:
                    optim.run("nshb", 0.9, table, prob, [7, 1, 5, 3], theta0=np.zeros(3))
            exc = info.value
            outcomes.append((exc.step_index, exc.row, exc.trace.seed, _bits(exc.trace.f).tolist(),
                             _bits(exc.trace.grad_norm_sq).tolist()))
        assert outcomes[0][0] > 0 and outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_observes_on_two_lanes(self):
        # the parent's worker thread does not exist in the child: without a
        # fresh one the child's call would wait for ever (alarm: 60 s)
        script = textwrap.dedent("""
            import os, signal, sys, warnings
            import numpy as np
            from sgdm_sched import problems
            problems._cpus = lambda: 2
            prob = problems.LogCoshProblem.generate(4, 64, seed=1)
            theta = np.random.default_rng(0).uniform(-3.0, 3.0, size=(9, 4))
            f, g = prob.value_and_grad(theta)
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with a thread
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                f_c, g_c = prob.value_and_grad(theta)
                os._exit(0 if np.array_equal(f, f_c) and np.array_equal(g, g_c) else 3)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestMinibatchVariance:
    def test_matches_closed_form_at_b1(self):
        prob = QuadraticMeanProblem.generate(6, 40, sigma_sq=2.0, seed=13)
        theta = np.zeros(6)
        est = empirical_minibatch_variance(prob, theta, b=1, trials=20_000, seed=99)
        assert abs(est.value - prob.sigma_sq) <= 3 * est.stderr

    def test_scaling_ratio_b1_vs_b4(self):
        prob = QuadraticMeanProblem.generate(6, 40, sigma_sq=2.0, seed=13)
        theta = np.full(6, 0.7)
        e1 = empirical_minibatch_variance(prob, theta, b=1, trials=40_000, seed=1)
        e4 = empirical_minibatch_variance(prob, theta, b=4, trials=40_000, seed=2)
        # var(b) = sigma^2/b for replacement sampling on the quadratic
        se_ratio = (e1.value / e4.value) * math.sqrt(
            (e1.stderr / e1.value) ** 2 + (e4.stderr / e4.value) ** 2
        )
        assert abs(e1.value / e4.value - 4.0) <= 3 * se_ratio

    def test_theta_independence(self):
        prob = QuadraticMeanProblem.generate(4, 32, sigma_sq=1.0, seed=21)
        a = empirical_minibatch_variance(prob, np.zeros(4), b=2, trials=20_000, seed=5)
        b = empirical_minibatch_variance(prob, np.full(4, 3.3), b=2, trials=20_000, seed=5)
        assert a.value == pytest.approx(b.value, rel=1e-12)  # same draws, same deviations

    def test_zero_variance_exact(self):
        prob = QuadraticMeanProblem.generate(4, 16, sigma_sq=0.0, seed=3)
        est = empirical_minibatch_variance(prob, np.ones(4), b=3, trials=1000, seed=0)
        assert est.value == 0.0

    def test_logcosh_matches_exact_variance_at_b1(self):
        # log-cosh has no centered anchors: its deviations are g_B - grad f
        prob = LogCoshProblem.generate(3, 32, spread=2.0, scale=0.6, seed=11)
        theta = np.array([0.4, -1.0, 0.7])
        g = _per_sample_gradients(prob, theta)
        exact = float(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1)))
        est = empirical_minibatch_variance(prob, theta, b=1, trials=20_000, seed=99)
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_logcosh_equals_the_batch_minus_full_gradient_form(self):
        prob = LogCoshProblem.generate(3, 32, spread=2.0, scale=0.6, seed=11)
        theta = np.array([0.4, -1.0, 0.7])
        trials, chunk = 5000, optim._VARIANCE_CHUNK
        assert chunk < trials  # the trials cross a chunk boundary
        est = empirical_minibatch_variance(prob, theta, b=3, trials=trials, seed=7)
        _, gbar = prob.value_and_grad(theta)
        sq = np.empty(trials)
        for lo in range(0, trials, chunk):
            runs = np.arange(lo, min(lo + chunk, trials))
            idx = optim.batch_indices([7] * runs.size, runs, 0, 3, prob.n)
            dev = prob.minibatch_gradient(np.broadcast_to(theta, (runs.size, 3)), idx) - gbar
            sq[lo : lo + runs.size] = np.einsum("ij,ij->i", dev, dev)
        assert est.value == float(sq.mean())
        assert est.stderr == float(sq.std(ddof=1) / math.sqrt(trials))

    @pytest.mark.parametrize("make", [
        lambda: QuadraticMeanProblem.generate(20, 4096, seed=0),
        lambda: LogCoshProblem.generate(20, 1024, seed=3),
    ], ids=["quadratic", "logcosh"])
    def test_gather_memory_is_bounded_in_trials_times_b(self, make):
        # one gather of 4096 trials at b = 256, d = 20 held 176 MB; a chunk
        # holds at most _VARIANCE_VALUES gathered values
        prob = make()
        tracemalloc.start()
        try:
            empirical_minibatch_variance(prob, np.full(20, 0.1), b=256, trials=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_chunk_size_does_not_change_the_estimate(self, monkeypatch):
        prob = LogCoshProblem.generate(5, 64, seed=2)
        theta = np.linspace(-0.5, 0.5, 5)
        whole = empirical_minibatch_variance(prob, theta, b=8, trials=1000, seed=4)
        monkeypatch.setattr(optim, "_VARIANCE_VALUES", 8 * 5 * 37)  # chunks of 37 trials
        assert empirical_minibatch_variance(prob, theta, b=8, trials=1000, seed=4) == whole

    def test_trials_floor_enforced(self):
        prob = QuadraticMeanProblem.generate(2, 8, seed=0)
        with pytest.raises(ValueError):
            empirical_minibatch_variance(prob, np.zeros(2), b=1, trials=999, seed=0)

    @pytest.mark.parametrize("b, trials", [
        (2.5, 1000), (1, 1000.5), (0, 1000), (math.nan, 1000), (1, math.inf), ("2", 1000),
    ])
    def test_refuses_counts_that_are_not_whole(self, b, trials):
        # b = 2.5 used to estimate the b = 2 variance; trials = 1000.5 was a TypeError
        prob = QuadraticMeanProblem.generate(2, 8, seed=0)
        with pytest.raises(ValueError, match="whole number"):
            empirical_minibatch_variance(prob, np.zeros(2), b=b, trials=trials, seed=0)

    def test_whole_float_counts_equal_the_ints(self):
        prob = QuadraticMeanProblem.generate(2, 8, seed=0)
        ref = empirical_minibatch_variance(prob, np.ones(2), b=2, trials=1000, seed=3)
        got = empirical_minibatch_variance(prob, np.ones(2), b=2.0, trials=1000.0, seed=3.0)
        assert got == ref and type(got.trials) is int
