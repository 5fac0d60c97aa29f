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


def _anchor_array(anchors) -> np.ndarray:
    """Anchors as a read-only C-contiguous float64 array; ValueError unless
    they form a non-empty, finite (n, d) array."""
    anchors = np.ascontiguousarray(np.asarray(anchors, dtype=np.float64))
    if anchors.ndim != 2 or anchors.shape[0] < 1:
        raise ValueError("anchors must be a non-empty (n, d) array")
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors must be finite")
    anchors.flags.writeable = False
    return anchors


class QuadraticMeanProblem:
    """Mean-anchored quadratic: f_i(theta) = 0.5 * ||theta - a_i||^2.

    The full objective is 0.5*||theta - abar||^2 + f_star with minimizer abar,
    L = 1, and a theta-independent single-sample gradient variance
    sigma_sq = (1/n) * sum_i ||a_i - abar||^2 (so f_star = sigma_sq / 2).
    """

    def __init__(self, anchors: np.ndarray):
        self.anchors = anchors = _anchor_array(anchors)
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
        # a spread that is not finite or overflows is a ValueError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            anchors = spread * rng.standard_normal((n, d))
            if sigma_sq is not None:
                if sigma_sq < 0:
                    raise ValueError("sigma_sq must be >= 0")
                mean = anchors.mean(axis=0)
                dev = anchors - mean
                current = np.einsum("ij,ij->", dev, dev) / n
                if sigma_sq == 0.0 or current == 0.0:
                    anchors = np.tile(mean, (n, 1))
                elif math.isfinite(current):
                    anchors = mean + dev * math.sqrt(sigma_sq / current)
                else:  # a factor sqrt(sigma_sq / inf) = 0 would collapse the anchors
                    raise ValueError(f"spread={spread} leaves the anchor variance non-finite")
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


# Grid points per coordinate on which the log-cosh variance bound is certified.
SIGMA_GRID_POINTS = 2048


class LogCoshProblem:
    """Smooth bounded-gradient finite sum: f_i(theta) = amp * sum_j logcosh((theta_j - a_ij)/scale).

    Gradients are (amp/scale) * tanh((theta - a_i)/scale), so L = amp/scale^2
    (tanh is 1-Lipschitz) and every f_i >= 0, giving the lower bound
    f_star = 0.  The variance bound sigma_sq is proven over the box
    [-box_radius, box_radius]^d, and only claimed while iterates stay in it,
    which ``check_iterate`` enforces at run time.

    The single-sample variance is a sum of per-coordinate terms
    v_j(x) = mean_i(g_ij^2) - mean_i(g_ij)^2 with g_ij = c * tanh((x - a_ij)/scale)
    and c = amp/scale, so its box maximum is at most the sum of the maxima of
    the v_j on [-R, R].  Each v_j is bounded on a grid of SIGMA_GRID_POINTS
    points as follows.

    - Curvature.  With t = tanh, p = 1 - t^2 in (0, 1] and k = amp^2/scale^4,
      v_j'' = 2k(3 mean(p^2) - 2 mean(p) - mean(p)^2) - 2 mean(g) mean(g'').
      The bracket is at most max(3p^2 - 2p) = 1 and, as mean(p^2) >= m^2 for
      m = mean(p), at least min(2m^2 - 2m) = -1/2; and |g| <= c, |g''| =
      (c/scale^2) |2t(1 - t^2)| <= (c/scale^2) 4/(3 sqrt 3).  Hence
      |v_j''| <= M = (2 + 8/(3 sqrt 3)) k.
    - Cells.  As v_j'' >= -M, v_j + M x^2/2 is convex, so on a cell of width h
      v_j lies below its chord plus M (x - x0)(x1 - x)/2, which is at most
      the larger endpoint value plus M h^2/8.  The grid includes both ends of
      [-R, R], and h is its largest spacing.
    - Rounding.  Each computed g_ij is within 2 eps c of the exact one: tanh
      is within eps, the rounded argument moves g by at most
      c eps |z| sech^2 z <= 0.45 c eps, and the product by c adds c eps/2.
      A mean of n terms of size at most c^2 loses at most n eps c^2 to
      summation (Higham, Accuracy and Stability, 2002, sec. 4.2), so
      mean(g^2) and mean(g)^2 carry at most (n + 6) eps c^2 and
      (2n + 7) eps c^2, and each computed grid value of v_j is within
      (3n + 14) eps c^2 <= 4(n + 4) eps c^2 of the exact one, to first order.

    So sigma_sq = sum_j max_grid v_j + d M h^2/8 + d 4(n + 4) eps c^2.  The
    terms are kept in ``sigma_search``.
    """

    def __init__(
        self,
        anchors: np.ndarray,
        *,
        scale: float = 1.0,
        amp: float = 1.0,
        box_radius: float = 6.0,
    ):
        if not all(0 < v < math.inf for v in (scale, amp, box_radius)):
            raise ValueError("scale, amp and box_radius must be finite and > 0")
        self.anchors = _anchor_array(anchors)
        self.n, self.d = self.anchors.shape
        self.scale = float(scale)
        self.amp = float(amp)
        self.box_radius = float(box_radius)
        self.f_star = 0.0  # lower bound: every per-sample loss is >= 0
        try:  # huge or tiny constants overflow L or the certificate
            with np.errstate(over="raise", invalid="raise"):
                self.L = self.amp / self.scale**2
                self.sigma_search = s = self._certify_sigma()
        except ArithmeticError as exc:
            raise ValueError(f"log-cosh constants leave the float range: {exc}") from None
        self.sigma_sq = s["grid_max"] + s["curvature_slack"] + s["rounding_margin"]

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
    ) -> "LogCoshProblem":
        rng = np.random.default_rng((int(seed),))
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects inf/nan
            anchors = spread * rng.standard_normal((n, d))
        return cls(anchors, scale=scale, amp=amp, box_radius=box_radius)

    def _certify_sigma(self) -> dict:
        """The terms of the proven variance bound (see the class docstring)."""
        R = self.box_radius
        c = self.amp / self.scale
        grid = np.linspace(-R, R, SIGMA_GRID_POINTS)
        # blocks of grid points hold about 2^18 values (2 MB), whatever n is;
        # each point's value is computed exactly as over the whole grid
        block = max(1, 2**18 // self.n)
        per_coord_max = np.empty(self.d)
        v_j = np.empty(SIGMA_GRID_POINTS)
        for j in range(self.d):
            a_j = self.anchors[None, :, j]
            for lo in range(0, SIGMA_GRID_POINTS, block):
                g = c * np.tanh((grid[lo : lo + block, None] - a_j) / self.scale)
                v_j[lo : lo + block] = np.einsum("pi,pi->p", g, g) / self.n - g.mean(axis=1) ** 2
            per_coord_max[j] = v_j.max()
        M = (2.0 + 8.0 / (3.0 * math.sqrt(3.0))) * c * c / self.scale**2
        h = float(np.diff(grid).max())
        eps = float(np.finfo(np.float64).eps)
        return {
            "box_radius": R,
            "grid_points_per_coord": SIGMA_GRID_POINTS,
            "grid_max": math.fsum(per_coord_max),
            "curvature_bound": M,
            "grid_spacing": h,
            "curvature_slack": self.d * M * h * h / 8.0,
            "rounding_margin": self.d * 4.0 * (self.n + 4) * eps * c * c,
        }

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
