"""Synthetic finite-sum problems with closed-form smoothness and noise constants.

Both families implement one problem protocol, so every constant entering the
convergence bounds is computable instead of estimated:

- ``value_and_grad(theta) -> (f, g)``: the exact objective and full gradient;
- ``minibatch_gradient(theta, indices)``: the mean of the per-sample
  gradients at ``indices``;
- the constants ``L`` (smoothness), ``sigma_sq`` (single-sample
  gradient-variance bound), ``f_star`` (the minimum for the quadratic
  family, the lower bound 0 for the log-cosh family), ``n`` and ``d``;
- ``check_iterate(theta)``, which raises IterateOutsideCertifiedBox for an
  iterate outside the region where ``sigma_sq`` is certified.

The methods take one iterate ``theta[d]`` or a leading seed axis
``theta[R, d]`` (with ``indices[R, b]``); each row is computed exactly as it
would be alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "IterateOutsideCertifiedBox",
    "QuadraticMeanProblem",
    "LogCoshProblem",
    "minibatch_gradient",
    "full_gradient_norm_sq",
    "empirical_minibatch_variance",
    "VarianceEstimate",
]


class IterateOutsideCertifiedBox(RuntimeError):
    """An iterate left the box over which sigma_sq was certified.

    ``row`` is the lowest offending row of a ``theta[R, d]`` batch (0 for a
    single iterate).
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class QuadraticMeanProblem:
    """Mean-anchored quadratic: f_i(theta) = 0.5 * ||theta - a_i||^2.

    The full objective is 0.5*||theta - abar||^2 + f_star with minimizer abar,
    L = 1, and a theta-independent single-sample gradient variance
    sigma_sq = (1/n) * sum_i ||a_i - abar||^2 (so f_star = sigma_sq / 2).
    """

    def __init__(self, anchors: np.ndarray):
        anchors = np.ascontiguousarray(np.asarray(anchors, dtype=np.float64))
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a non-empty (n, d) array")
        if not np.all(np.isfinite(anchors)):
            raise ValueError("anchors must be finite")
        anchors.flags.writeable = False
        self.anchors = anchors
        self.n, self.d = anchors.shape
        abar = anchors.mean(axis=0)
        if np.all(anchors == anchors[0]):
            abar = anchors[0].copy()  # keep sigma_sq exactly zero, not O(eps^2)
        abar.flags.writeable = False
        self.abar = abar
        self._dev = anchors - abar
        self._dev.flags.writeable = False
        self.sigma_sq = float(np.einsum("ij,ij->", self._dev, self._dev) / self.n)
        self.L = 1.0
        self.f_star = 0.5 * self.sigma_sq

    @classmethod
    def generate(
        cls,
        d: int,
        n: int,
        *,
        sigma_sq: float | None = None,
        spread: float = 1.0,
        seed: int = 0,
    ) -> "QuadraticMeanProblem":
        """Seeded Gaussian anchors; ``sigma_sq`` rescales deviations to hit the
        target single-sample variance exactly (up to roundoff)."""
        rng = np.random.default_rng((int(seed),))
        anchors = spread * rng.standard_normal((n, d))
        if sigma_sq is not None:
            if sigma_sq < 0:
                raise ValueError("sigma_sq must be >= 0")
            mean = anchors.mean(axis=0)
            dev = anchors - mean
            current = np.einsum("ij,ij->", dev, dev) / n
            if sigma_sq == 0.0 or current == 0.0:
                anchors = np.tile(mean, (n, 1))
            else:
                anchors = mean + dev * math.sqrt(sigma_sq / current)
        return cls(anchors)

    def value_and_grad(self, theta: np.ndarray):
        g = theta - self.abar
        return 0.5 * np.einsum("...j,...j->...", g, g) + self.f_star, g

    def minibatch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return theta - self.anchors[indices].mean(axis=-2)

    def minibatch_deviation_many(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Rows of grad f_B - grad f via centered anchors (cancellation-free)."""
        return -self._dev[indices].mean(axis=1)

    def check_iterate(self, theta: np.ndarray) -> None:
        pass  # sigma_sq is global; nothing to enforce


class LogCoshProblem:
    """Smooth bounded-gradient finite sum: f_i(theta) = amp * sum_j logcosh((theta_j - a_ij)/scale).

    Gradients are (amp/scale) * tanh((theta - a_i)/scale), so L = amp/scale^2
    (tanh is 1-Lipschitz) and every f_i >= 0, giving the lower bound
    f_star = 0.  The variance bound sigma_sq is certified by per-coordinate
    grid search plus random probes over the box [-box_radius, box_radius]^d,
    inflated by 10%; it is only claimed while iterates stay in that box, which
    ``check_iterate`` enforces at run time.  The search trace is kept in
    ``sigma_search``.
    """

    def __init__(
        self,
        anchors: np.ndarray,
        *,
        scale: float = 1.0,
        amp: float = 1.0,
        box_radius: float = 6.0,
        cert_points: int = 2048,
        cert_seed: int = 0,
    ):
        anchors = np.ascontiguousarray(np.asarray(anchors, dtype=np.float64))
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValueError("anchors must be a non-empty (n, d) array")
        if not (scale > 0 and amp > 0 and box_radius > 0):
            raise ValueError("scale, amp and box_radius must be > 0")
        anchors.flags.writeable = False
        self.anchors = anchors
        self.n, self.d = anchors.shape
        self.scale = float(scale)
        self.amp = float(amp)
        self.box_radius = float(box_radius)
        self.L = self.amp / self.scale**2
        self.f_star = 0.0  # lower bound: every per-sample loss is >= 0
        self.sigma_sq, self.sigma_search = self._certify_sigma(cert_points, cert_seed)

    @classmethod
    def generate(
        cls,
        d: int,
        n: int,
        *,
        spread: float = 1.0,
        scale: float = 1.0,
        amp: float = 1.0,
        seed: int = 0,
        box_radius: float = 6.0,
        cert_points: int = 2048,
        cert_seed: int = 0,
    ) -> "LogCoshProblem":
        rng = np.random.default_rng((int(seed),))
        anchors = spread * rng.standard_normal((n, d))
        return cls(
            anchors,
            scale=scale,
            amp=amp,
            box_radius=box_radius,
            cert_points=cert_points,
            cert_seed=cert_seed,
        )

    def _certify_sigma(self, cert_points: int, cert_seed: int):
        """Certify the single-sample gradient variance bound over the box.

        The variance (1/n) sum_i ||g_i(theta)||^2 - ||gbar(theta)||^2 is a sum
        of per-coordinate terms, each depending on one theta_j only, so the box
        maximum separates: a dense 1-D grid per coordinate locates each term's
        maximum, the coordinate maxima add up, and random full-dimensional
        probes double-check the combined point.  The certified value is the
        search maximum inflated by 10%.
        """
        rng = np.random.default_rng((int(cert_seed),))
        R = self.box_radius
        grid = np.linspace(-R, R, max(64, cert_points))
        per_coord_max = np.empty(self.d)
        argmax = np.empty(self.d)
        for j in range(self.d):
            z = (grid[:, None] - self.anchors[None, :, j]) / self.scale
            g = self.amp / self.scale * np.tanh(z)
            v_j = np.einsum("pi,pi->p", g, g) / self.n - g.mean(axis=1) ** 2
            k = int(np.argmax(v_j))
            per_coord_max[j] = v_j[k]
            argmax[j] = grid[k]
        raw_max = float(per_coord_max.sum())
        probes = rng.uniform(-R, R, size=(256, self.d))
        probes = np.vstack([probes, argmax, np.zeros(self.d)])
        probe_values = np.empty(probes.shape[0])
        for i, theta in enumerate(probes):
            g = self.amp / self.scale * np.tanh((theta[None, :] - self.anchors) / self.scale)
            gbar = g.mean(axis=0)
            probe_values[i] = np.einsum("ij,ij->", g, g) / self.n - float(np.dot(gbar, gbar))
        raw_max = max(raw_max, float(probe_values.max()))
        trace = {
            "box_radius": R,
            "grid_points_per_coord": int(grid.shape[0]),
            "probe_points": int(probes.shape[0]),
            "per_coordinate_max": per_coord_max,
            "argmax": argmax,
            "raw_max": raw_max,
            "inflation": 1.1,
        }
        return 1.1 * raw_max, trace

    def value_and_grad(self, theta: np.ndarray):
        # One seed row at a time, so that no more than one (n, d) temporary is
        # alive whatever the number of seeds.
        if theta.ndim == 1:
            return self._value_and_grad(theta)
        f = np.empty(theta.shape[0])
        g = np.empty_like(theta)
        for r, row in enumerate(theta):
            f[r], g[r] = self._value_and_grad(row)
        return f, g

    def _value_and_grad(self, theta: np.ndarray):
        z = (theta[None, :] - self.anchors) / self.scale
        f = self.amp * float(_logcosh(z).sum() / self.n)
        # the float path of an all-samples mini-batch, so the unbiasedness
        # identity holds bit-exactly
        g = (self.amp / self.scale * np.tanh(z)).mean(axis=0)
        return f, g

    def minibatch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        z = (theta[..., None, :] - self.anchors[indices]) / self.scale
        return (self.amp / self.scale * np.tanh(z)).mean(axis=-2)

    def check_iterate(self, theta: np.ndarray) -> None:
        worst = np.max(np.abs(theta), axis=-1)
        outside = np.flatnonzero(worst > self.box_radius)
        if outside.size:
            row = int(outside[0])
            raise IterateOutsideCertifiedBox(
                f"|theta|_inf = {float(np.ravel(worst)[row]):.6g} exceeds the sigma_sq "
                f"certification box radius {self.box_radius:.6g}",
                row=row,
            )


def _logcosh(x: np.ndarray) -> np.ndarray:
    # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log(2), stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def minibatch_gradient(problem, theta: np.ndarray, indices) -> np.ndarray:
    """Arithmetic mean of the per-sample gradients at the given indices."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be non-empty")
    if np.any(indices < 0) or np.any(indices >= problem.n):
        raise IndexError(f"sample index out of range [0, {problem.n})")
    return problem.minibatch_gradient(np.asarray(theta, dtype=np.float64), indices)


def full_gradient_norm_sq(problem, theta: np.ndarray) -> float:
    """Exact ||grad f(theta)||^2 via the problem's closed form."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    _, g = problem.value_and_grad(theta)
    return float(np.dot(g, g))


class VarianceEstimate(NamedTuple):
    value: float
    stderr: float
    trials: int


def empirical_minibatch_variance(
    problem, theta: np.ndarray, b: int, trials: int, seed: int, chunk: int = 4096
) -> VarianceEstimate:
    """Monte-Carlo estimate of E||grad f_B(theta) - grad f(theta)||^2.

    Batches of size ``b`` are drawn i.i.d. with replacement; the standard
    error of the mean comes from the same trials.
    """
    if b < 1:
        raise ValueError("batch size must be >= 1")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a usable estimate")
    theta = np.asarray(theta, dtype=np.float64)
    # the quadratic's deviations come from centered anchors, free of the
    # cancellation in g_B - gbar, so sigma_sq = 0 estimates exactly 0
    deviation_many = getattr(problem, "minibatch_deviation_many", None)
    if deviation_many is None:
        _, gbar = problem.value_and_grad(theta)
    rng = np.random.default_rng((int(seed),))
    sq = np.empty(trials)
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        idx = rng.integers(0, problem.n, size=(k, b))
        if deviation_many is not None:
            dev = deviation_many(theta, idx)
        else:
            dev = problem.minibatch_gradient(np.broadcast_to(theta, (k, problem.d)), idx) - gbar
        sq[done : done + k] = np.einsum("ij,ij->i", dev, dev)
        done += k
    value = float(sq.mean())
    stderr = float(sq.std(ddof=1) / math.sqrt(trials))
    return VarianceEstimate(value, stderr, trials)
