"""Synthetic finite-sum problems with closed-form smoothness and noise constants.

Both families implement one problem protocol, so every constant entering the
convergence bounds is computable instead of estimated:

- ``value_and_grad(theta) -> (f, g)``: the exact objective and full gradient;
- ``minibatch_gradient(theta, indices)``: the mean of the per-sample
  gradients at ``indices``;
- ``minibatch_deviation_many(theta, indices)``: for one iterate ``theta[d]``
  and K batches ``indices[K, b]``, the K rows of
  ``minibatch_gradient - value_and_grad(theta)[1]`` (the quadratic takes them
  from the gathered anchors, centred in place, free of that subtraction's
  cancellation, so sigma_sq = 0 gives exactly 0; it stores no centred copy);
- ``minibatch_gradients(indices)``: for a (K, b, R) block of K steps'
  indices, K functions of ``theta[R, d]``; function k gives
  ``minibatch_gradient(theta, indices[k].T)`` bit for bit (the quadratic
  gathers and reduces the whole block's batch means at once);
- the constants ``L`` (smoothness), ``sigma_sq`` (single-sample
  gradient-variance bound), ``f_star`` (the minimum for the quadratic
  family, the lower bound 0 for the log-cosh family), ``n`` and ``d``, and
  ``sigma_certificate``, the terms of a certified ``sigma_sq`` (None for the
  quadratic, whose sigma_sq is exact);
- ``check_iterate(theta)``, which raises IterateOutsideCertifiedBox for an
  iterate outside the region where ``sigma_sq`` is certified.

The methods take one iterate ``theta[d]`` or a leading seed axis
``theta[R, d]`` (with ``indices[R, b]``); each row is computed exactly as it
would be alone.  Every batch mean goes through ``_batch_means``.  The
Monte-Carlo estimate of the mini-batch variance,
``optim.empirical_minibatch_variance``, lives in ``optim``, next to the
sampling stream it draws from; this module imports nothing from the package
but ``_counts``, the leaf module of the whole-number rule for seeds.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ._counts import _count

__all__ = [
    "IterateOutsideCertifiedBox",
    "QuadraticMeanProblem",
    "LogCoshProblem",
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
    if anchors.ndim != 2 or min(anchors.shape) < 1:
        raise ValueError("anchors must be a non-empty (n, d) array")
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors must be finite")
    anchors.flags.writeable = False
    return anchors


def _batch_means(rows: np.ndarray, block: np.ndarray, per_sample=None, theta=None) -> np.ndarray:
    """One mean per step of ``rows[i]``, or of ``per_sample(rows[i], theta)``.

    ``block`` holds the indices of K steps: one batch each (K, b), or R
    batches each (K, b, R); the result is (K, d) or (K, R, d).  ``per_sample``
    may overwrite the gathered rows it gets.  The gather is batch-major,
    (K, b, R, d), so the sum runs over whole contiguous (R, d) slices, adding
    the b samples of every element in order, as a row-major (R, b, d) sum
    over the batch axis does; each row is thus computed as it would be alone.
    With d = 1 that row-major sum runs pairwise over the contiguous batch axis
    instead, so d = 1 keeps the row-major gather, (K, R, b, 1), for the same
    bits.
    """
    if rows.shape[1] == 1:
        x = rows.take(np.moveaxis(block, 1, -1), axis=0)
        if per_sample is not None:
            x = per_sample(x, theta[..., None, :])
        return x.mean(axis=-2)
    x = rows.take(block, axis=0)
    if per_sample is not None:
        x = per_sample(x, theta)
    total = np.add.reduce(x, axis=1)
    total /= x.shape[1]
    return total


def _aligned(count: int, shape: tuple) -> list:
    """``count`` empty float64 arrays of ``shape`` in one allocation, each
    starting on a 64-byte boundary (a cache line, and one AVX-512 vector)."""
    size = math.prod(shape)
    stride = -(-size // 8) * 8  # words, padded to whole 64-byte lines
    buf = np.empty(count * stride + 7)
    skip = (-buf.ctypes.data % 64) // 8
    return [buf[skip + i * stride : skip + i * stride + size].reshape(shape) for i in range(count)]


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
        dev = anchors - abar
        self.sigma_sq = float(np.einsum("ij,ij->", dev, dev) / self.n)
        if not math.isfinite(self.sigma_sq):
            raise ValueError(f"the anchors' variance sigma_sq = {self.sigma_sq} is not finite")
        self.L = 1.0
        self.f_star = 0.5 * self.sigma_sq
        self.sigma_certificate = None  # sigma_sq is exact

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
        rng = np.random.default_rng((_count(seed, "seed", 0),))
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
        return theta - _batch_means(self.anchors, np.transpose(indices)[None])[0]

    def minibatch_gradients(self, indices: np.ndarray) -> list:
        # the batch means do not depend on theta: gather and reduce all K at once
        return [lambda theta, mean=mean: theta - mean for mean in _batch_means(self.anchors, indices)]

    def minibatch_deviation_many(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Rows of grad f_B - grad f = abar - mean(a_B), from the gathered
        anchors centred in place (cancellation-free)."""
        means = _batch_means(self.anchors, np.transpose(indices)[None],
                             lambda a, abar: np.subtract(a, abar, out=a), self.abar)
        return -means[0]

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
    - Search.  The chord bound holds between any two grid points, not only
      neighbours: every grid point strictly between x_lo and x_hi has an
      exact value at most max(v_lo, v_hi) + M (x_hi - x_lo)^2/8.  With
      rho = 4(n + 4) eps c^2, one rho moves each computed end value to the
      exact one, one moves the exact inner value to its computed one, and a
      third covers the rounding of the bound itself (it is compared only
      while it is below max v_j <= c^2, so it carries a few eps c^2).  So
      an interval whose bound plus 3 rho is below the largest computed value
      so far holds no grid point whose computed value reaches it, and
      bisecting the index range of the grid, level by level, and dropping
      such intervals finds the exact computed grid maximum.  The d searches
      run together: all coordinates advance a level at a time, and one call
      evaluates the level's points of every coordinate.

    So sigma_sq = sum_j max_grid v_j + d M h^2/8 + d 4(n + 4) eps c^2.  The
    terms are kept in ``sigma_certificate``.
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
        anchors = _anchor_array(anchors)
        self.n, self.d = anchors.shape
        # the anchors and three work buffers, line-aligned: the ufuncs over
        # them run faster than at an arbitrary heap offset.  value_and_grad
        # works in all three; the certificate, which runs first, in two
        self.anchors, *self._work = _aligned(4, anchors.shape)
        self.anchors[...] = anchors
        self.anchors.flags.writeable = False
        self.scale = float(scale)
        self.amp = float(amp)
        self.box_radius = float(box_radius)
        self.f_star = 0.0  # lower bound: every per-sample loss is >= 0
        try:  # huge or tiny constants overflow L or the certificate
            with np.errstate(over="raise", invalid="raise"):
                self.L = self.amp / self.scale**2
                self.sigma_certificate = s = self._certify_sigma()
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
        rng = np.random.default_rng((_count(seed, "seed", 0),))
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects inf/nan
            anchors = spread * rng.standard_normal((n, d))
        return cls(anchors, scale=scale, amp=amp, box_radius=box_radius)

    def _certify_sigma(self) -> dict:
        """The terms of the proven variance bound (see the class docstring)."""
        R = self.box_radius
        c = self.amp / self.scale
        grid = np.linspace(-R, R, SIGMA_GRID_POINTS)
        M = (2.0 + 8.0 / (3.0 * math.sqrt(3.0))) * c * c / self.scale**2
        h = float(np.diff(grid).max())
        eps = float(np.finfo(np.float64).eps)
        margin = 3.0 * 4.0 * (self.n + 4) * eps * c * c  # the search's 3 rho
        return {
            "box_radius": R,
            "grid_points_per_coord": SIGMA_GRID_POINTS,
            "grid_max": math.fsum(self._grid_max(grid, M, margin)),
            "curvature_bound": M,
            "grid_spacing": h,
            "curvature_slack": self.d * M * h * h / 8.0,
            "rounding_margin": self.d * 4.0 * (self.n + 4) * eps * c * c,
        }

    def _grid_max(self, grid: np.ndarray, M: float, margin: float) -> np.ndarray:
        """The max of each computed v_j over ``grid``, by the search of the class docstring.

        All d coordinates advance together, a level at a time.  Each interval
        carries its coordinate, the grid indices lo < hi of its ends and their
        two values; ``best`` is kept per coordinate, so every coordinate
        prunes as it would alone, and one ``_variance_terms`` call evaluates
        the midpoints of the level's kept intervals of all coordinates.  The
        search first copies the anchor columns into the first work buffer,
        as the contiguous (d, n) array ``_variance_terms`` gathers from.
        """
        self._work[0].reshape(self.d, self.n)[...] = self.anchors.T
        d, last = self.d, grid.size - 1
        coord = np.arange(d)
        lo, hi = np.zeros(d, dtype=np.intp), np.full(d, last)
        ends = self._variance_terms(grid[np.concatenate((lo, hi))], np.concatenate((coord, coord)))
        v_lo, v_hi = ends[:d], ends[d:]
        best = np.maximum(v_lo, v_hi)
        while True:
            with np.errstate(over="ignore"):  # an infinite bound never prunes
                reach = np.maximum(v_lo, v_hi) + M * (grid[hi] - grid[lo]) ** 2 / 8.0 + margin
            keep = (hi - lo >= 2) & (reach >= best[coord])
            if not keep.any():
                return best
            coord, lo, hi, v_lo, v_hi = (a[keep] for a in (coord, lo, hi, v_lo, v_hi))
            mid = (lo + hi) // 2
            v_mid = self._variance_terms(grid[mid], coord)
            np.maximum.at(best, coord, v_mid)
            coord = np.concatenate((coord, coord))
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
            v_lo, v_hi = np.concatenate((v_lo, v_mid)), np.concatenate((v_mid, v_hi))

    def _variance_terms(self, x: np.ndarray, j: np.ndarray) -> np.ndarray:
        """v_j[k] at the points x[k], point k on coordinate j[k].

        Each point's value comes from its own contiguous row of g, computed in
        place from the point's anchor column, which ``_grid_max`` has copied
        into the first work buffer.  A block holds max(d, 2^13 // n) points,
        gathered into the second work buffer (or, when that is too small, one
        array per call), so no block allocates.  Up to n = 2^13 a row's
        value does not depend on the other points of its block.  einsum sums
        a longer row alone in 2^13-value pieces, and so gets other bits than
        for the same row in a block: such rows always go one at a time, and
        each value still does not depend on the other points.
        """
        n = self.n
        columns = self._work[0].reshape(self.d, n)
        block = max(self.d, 2**13 // n) if n <= 2**13 else 1
        rows = self._work[1].reshape(-1) if block <= self.d else np.empty(block * n)
        v = np.empty(x.size)
        for lo in range(0, x.size, block):
            hi = min(lo + block, x.size)
            g = rows[: (hi - lo) * n].reshape(hi - lo, n)
            columns.take(j[lo:hi], axis=0, out=g, mode="clip")  # "raise" writes via a copy
            self._sample_gradients(g, x[lo:hi, None])
            u = v[lo:hi]
            np.einsum("pi,pi->p", g, g, out=u)
            u /= n
            u -= (np.add.reduce(g, axis=1) / n) ** 2  # g.mean(axis=1)'s operations
        return v

    def value_and_grad(self, theta: np.ndarray):
        # One seed row at a time through the three preallocated (n, d) work
        # buffers: the ufuncs write into them, so a call allocates nothing of
        # size n.  f and g equal the expression form
        # f = amp * mean(|z| + log1p(exp(-2|z|)) - log 2), g = mean(c * tanh(z))
        # bit for bit: every step is the same operation on the same values,
        # except that the passes z / 1 and w * 1 are skipped (IEEE 754 makes
        # them exact) and that at d >= 2 the column sums come from einsum,
        # which adds the n rows of each column in order as the axis-0 reduce
        # of mean does.  einsum starts from +0.0, so a column of only -0.0
        # sums to +0.0 where mean gives -0.0; only ||g||^2 reaches an
        # artifact, so no artifact byte changes.  At d = 1 einsum sums the
        # contiguous column in its own unrolled order, so d = 1 keeps mean.
        rows = theta[None, :] if theta.ndim == 1 else theta
        f = np.empty(rows.shape[0])
        g = np.empty(rows.shape)
        z, w, u = self._work
        c = self.amp / self.scale
        for r, row in enumerate(rows):
            np.subtract(row, self.anchors, out=z)
            if self.scale != 1.0:
                np.divide(z, self.scale, out=z)
            # log(cosh(z)) = |z| + log1p(exp(-2|z|)) - log(2), stable for large |z|
            np.abs(z, out=w)
            np.multiply(w, -2.0, out=u)
            np.exp(u, out=u)
            np.log1p(u, out=u)
            np.add(w, u, out=u)
            np.subtract(u, math.log(2.0), out=u)
            f[r] = self.amp * float(u.sum() / self.n)
            # the float path of an all-samples mini-batch, so the unbiasedness
            # identity holds bit-exactly
            np.tanh(z, out=w)
            if c != 1.0:
                np.multiply(w, c, out=w)
            if self.d == 1:
                w.mean(axis=0, out=g[r])
            else:
                np.einsum("ij->j", w, out=g[r])
                g[r] /= self.n
        if theta.ndim == 1:
            return float(f[0]), g[0]
        return f, g

    def minibatch_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        block = np.transpose(indices)[None]
        return _batch_means(self.anchors, block, self._sample_gradients, theta)[0]

    def minibatch_gradients(self, indices: np.ndarray) -> list:
        # the per-sample gradients depend on theta: one gather per step
        return [partial(self.minibatch_gradient, indices=idx) for idx in indices.transpose(0, 2, 1)]

    def minibatch_deviation_many(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Rows of grad f_B - grad f at the one iterate ``theta[d]``."""
        batches = self.minibatch_gradient(np.broadcast_to(theta, (len(indices), self.d)), indices)
        return batches - self.value_and_grad(theta)[1]

    def _sample_gradients(self, a: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """(amp/scale) tanh((theta - a)/scale), computed in place over the gathered anchors a."""
        np.subtract(theta, a, out=a)
        if self.scale != 1.0:  # the passes /1 and *1 are exact: skip them
            a /= self.scale
        np.tanh(a, out=a)
        if (c := self.amp / self.scale) != 1.0:
            a *= c
        return a

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
