"""Weighted independence index.

The index probes local dependence: reweight the sample by a Gaussian
bump at a chosen point, take the covariance of the reweighted sample,
and score every coordinate pair by

    c_ij = 2 z_ij^2 / (z_ii^2 + z_jj^2)

which is 0 for uncorrelated pairs and at most rho_ij^2 in general, with
equality exactly when the two weighted standard deviations agree.  The
index is the average of c_ij over pairs, and over several weighting
points drawn near the origin of the normalized sample.

The diagnostics here and the training cost in trainer.py evaluate the
index with one kernel over a stack of K points: _points_forward makes
(K, n, d) centred rows and (K, d, d) covariances, _points_backward one
more (K, n, d) array and (n, K) @ (K, d) products over the points, and
both read which pairs count from _pair_terms, the one place that rule
is written.  Training passes its K points at once, wii_multi one at a
time, so that a diagnostic on a large sample holds one point's (n, d)
arrays rather than K of them.
"""

from __future__ import annotations

import numpy as np

from .core import (
    RngStream, _at_least, _int, _optional, _parse, _size, _weighted_moments, as_data,
    normalize_componentwise,
)
from .errors import DimensionError, WeightCollapseError

__all__ = [
    "wii_at_point",
    "sample_weighting_points",
    "wii_multi",
    "wii_index",
]


# the weight mass a weighting point must keep beyond its top row, in
# units of that row's weight; below it the point has collapsed
_MIN_EFFECTIVE_WEIGHT = 1e-12


# how many weighting points to draw; None, the default, means one per dimension
_NUM_POINTS = _optional(_size(_at_least(_int, 1)))


def _point_count(num_points, d: int) -> int:
    """num_points as _NUM_POINTS reads it, with None read as d."""
    num_points = _parse("num_points", _NUM_POINTS, num_points)
    return d if num_points is None else num_points


def _as_points(points, d: int) -> np.ndarray:
    """Weighting points as a checked (K, d) array."""
    points = as_data(points, name="weighting points")
    if points.shape[1] != d:
        raise DimensionError(f"weighting points must have {d} columns, got {points.shape[1]}")
    return points


def _log_weights(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(K, n) log weights of the n rows of y under each of K points: the log
    N(p, I) density less its constant, which cancels in every statistic."""
    diff = y - points[:, None, :]
    return -0.5 * np.einsum("kij,kij->ki", diff, diff)


def _weights(lw: np.ndarray):
    """Each row of lw exponentiated with its top weight shifted to 1, the
    row totals, and which rows collapsed.  The shift cancels downstream and
    keeps exp() from underflowing.  A NaN mass is not a collapse."""
    w = np.exp(lw - lw.max(axis=-1, keepdims=True))
    total = w.sum(axis=-1)
    return w, total, total - 1.0 < _MIN_EFFECTIVE_WEIGHT


def _pair_terms(z: np.ndarray):
    """The one rule for which pairs count, over a stack of (d, d)
    covariances: the variances, the denominators var_i^2 + var_j^2 (1 off
    the live pairs) and the live mask, off the diagonal with a denominator
    other than 0.  Two zero variances carry no evidence of linear
    dependence, so their pair is dead rather than 0/0, which keeps the
    index finite on flat latent channels; a NaN denominator stays live, so
    a NaN covariance gives a NaN index and gradient.
    """
    diag = np.arange(z.shape[-1])
    var = z[..., diag, diag]
    denom = var[..., :, None] ** 2 + var[..., None, :] ** 2
    live = (denom != 0.0) & ~np.eye(len(diag), dtype=bool)
    return var, np.where(live, denom, 1.0), live


def _coefficients(z: np.ndarray) -> np.ndarray:
    """Pairwise coefficients c_ij of every (d, d) covariance matrix of a
    stack, zero off the live pairs of _pair_terms."""
    _, safe, live = _pair_terms(z)
    return np.where(live, 2.0 * z * z / safe, 0.0)


def wii_at_point(y, p) -> float:
    """Index of the sample reweighted by a Gaussian bump at p: wii_multi at p."""
    return wii_multi(y, np.asarray(p, dtype=np.float64)[None])


def _points_forward(y: np.ndarray, points: np.ndarray):
    """Unchecked index of y (n, d) at each of K points (K, d), skipping the
    points whose weights collapse.

    Returns the survivors' values and the cache _points_backward needs,
    whose first entry is the surviving points; raises the last point's
    WeightCollapseError if every point collapses.  Each point's moments are
    matmul calls of its own (_weighted_moments), so its value is the same
    bytes in any stack.
    """
    w, total, collapsed = _weights(_log_weights(y, points))
    if collapsed.all():
        raise WeightCollapseError(points[-1], float(total[-1] - 1.0))
    live = ~collapsed
    points, w, total = points[live], w[live], total[live]
    _, centered, z = _weighted_moments(y, w, total)
    d = y.shape[1]
    # c is symmetric with zero diagonal; summing it all counts each pair twice
    values = _coefficients(z).sum(axis=(1, 2)) / (d * (d - 1))
    return values, (points, w, total, centered, z)


def _points_backward(y: np.ndarray, cache, coef: float) -> np.ndarray:
    """coef times the sum over the cached points of d(wii at p)/dY.

    Its pairs are the live pairs of _pair_terms.  The only (K, n, d)
    array it makes is d_c = centered @ (g + g^T), g = coef * dwii/dZ:
    dotted with the centred rows it gives the quadratic form of the weight
    path, then, scaled by w / total, the covariance path.  The mean and
    log-weight paths are (n, K) @ (K, d) products over the points.  The
    mean path h = (g + g^T) sum_i w_i c_i / total is zero in exact
    arithmetic but stays: near a collapse a large g turns the rounding in
    sum_i w_i c_i into a term as large as the gradient, which h cancels.
    """
    points, w, total, centered, z = cache
    d = y.shape[1]
    var, safe, live = _pair_terms(z)

    # coef * dwii/dZ: off-diagonal from c_ij = 2 z_ij^2 / denom, diagonal
    # from the two denominator appearances of each variance
    scale = coef / (d * (d - 1))
    g = np.where(live, scale * 4.0 * z / safe, 0.0)
    ratio = np.where(live, z * z / (safe * safe), 0.0)
    diag = np.arange(d)
    g[:, diag, diag] = -scale * 8.0 * var * ratio.sum(axis=2)

    # Z = centered^T diag(w) centered / total, one (n, d) slab per point;
    # c^T g c is half of c^T (g + g^T) c
    sym = g + g.transpose(0, 2, 1)
    w_rel = w / total[:, None]
    d_c = centered @ sym
    quad = 0.5 * np.einsum("kia,kia->ki", d_c, centered)
    d_c *= w_rel[:, :, None]
    h = ((w_rel[:, None, :] @ centered) @ sym)[:, 0]
    trace_gz = (g * z).sum(axis=(1, 2))
    total = total[:, None]
    d_w = (quad - trace_gz[:, None]) / total - (centered @ h[:, :, None])[:, :, 0] / total
    d_y = d_c.sum(axis=0)
    d_y -= w_rel.T @ h

    # w_i = exp(lw_i - max lw); the shift is exactly gradient-free, and
    # sum_k d_lw_k (y - p_k) is y sum_k d_lw_k - d_lw^T points
    d_lw = w * d_w
    d_y += d_lw.T @ points
    d_y -= d_lw.sum(axis=0)[:, None] * y
    return d_y


def sample_weighting_points(y, num_points: int | None, rng: RngStream) -> np.ndarray:
    """Draw num_points (None: d) weighting points as means of d distinct rows of y.

    For a normalized sample the mean of d rows is close to N(0, I/d), so
    the points concentrate where the Gaussian bump retains mass.
    """
    y = as_data(y, name="sample")
    n, d = y.shape
    num_points = _point_count(num_points, d)
    if n < d:
        raise DimensionError(f"need at least d={d} rows to build a weighting point, got {n}")
    gen = rng.generator()
    rows = np.empty((num_points, d), dtype=np.intp)
    for k in range(num_points):
        rows[k] = gen.choice(n, size=d, replace=False)
    # what y[rows[k]].mean(axis=0) computes for each point, in one call
    return np.add.reduce(y[rows], axis=1) / d


def wii_multi(y, points) -> float:
    """Mean of the single-point index over the given weighting points.

    Points where the Gaussian weights collapse are skipped; the error
    surfaces only when every point collapses, since then there is no
    index to report at all.
    """
    y = as_data(y, min_cols=2, name="sample")
    points = _as_points(points, y.shape[1])
    values = []
    for k in range(len(points)):
        try:
            values.append(_points_forward(y, points[k:k + 1])[0][0])
        except WeightCollapseError as exc:
            last_collapse = exc
    if not values:
        raise last_collapse
    return float(np.add.reduce(np.asarray(values)) / len(values))


def wii_index(x, num_points: int | None = None, rng: RngStream | None = None) -> float:
    """Normalize x, draw weighting points from it, average the index.

    This is the quantity reported by diagnostics and used to calibrate
    thresholds; the training cost calls the same kernel on the
    normalized code and differentiates it.
    """
    x = as_data(x, min_cols=2, name="sample")
    if rng is None:
        rng = RngStream(0)
    y = normalize_componentwise(x)
    points = sample_weighting_points(y, num_points, rng)
    return wii_multi(y, points)

