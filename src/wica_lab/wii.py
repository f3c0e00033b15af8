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
index with one kernel over a stack of K points, _points_forward, whose
centred rows are (K, n, d), weights (K, n) and covariances (K, d, d);
_points_backward differentiates the whole stack.  Training passes its K
points at once, wii_multi one at a time, so that a diagnostic on a large
sample holds one point's (n, d) arrays rather than K of them.
"""

from __future__ import annotations

import numpy as np

from .core import (
    RngStream, _at_least, _int, _optional, _parse, _size, _weighted_moments, as_data,
    normalize_componentwise,
)
from .errors import DimensionError, InsufficientDataError, WeightCollapseError

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


def _coefficients(z: np.ndarray) -> np.ndarray:
    """Pairwise coefficients c_ij of every (d, d) covariance matrix of a
    stack, zero diagonal.

    A pair whose variances are both zero carries no evidence of linear
    dependence, so its coefficient is 0 rather than 0/0; this is what
    lets the index stay finite on flat latent channels during training.
    """
    diag = np.arange(z.shape[-1])
    var = z[..., diag, diag]
    denom = var[..., :, None] ** 2 + var[..., None, :] ** 2
    dead = denom == 0.0
    c = 2.0 * z * z / np.where(dead, 1.0, denom)
    c[dead] = 0.0
    c[..., diag, diag] = 0.0
    return c


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
    if collapsed.any():
        live = ~collapsed
        points, w, total = points[live], w[live], total[live]
    _, centered, z = _weighted_moments(y, w, total)
    d = y.shape[1]
    # c is symmetric with zero diagonal; summing it all counts each pair twice
    values = _coefficients(z).sum(axis=(1, 2)) / (d * (d - 1))
    return values, (points, w, total, centered, z)


def _points_backward(y: np.ndarray, cache, coef: float) -> np.ndarray:
    """coef times the sum over the cached points of d(wii at p)/dY.
    Mirrors _points_forward exactly."""
    points, w, total, centered, z = cache
    d = y.shape[1]
    diag = np.arange(d)
    var = z[:, diag, diag]
    denom = var[:, :, None] ** 2 + var[:, None, :] ** 2
    live = denom > 0.0
    live[:, diag, diag] = False
    safe = np.where(live, denom, 1.0)

    # coef * dwii/dZ: off-diagonal from c_ij = 2 z_ij^2 / denom, diagonal
    # from the two denominator appearances of each variance
    scale = coef / (d * (d - 1))
    g = np.where(live, scale * 4.0 * z / safe, 0.0)
    ratio = np.where(live, z * z / (safe * safe), 0.0)
    g[:, diag, diag] = -scale * 8.0 * var * ratio.sum(axis=2)

    # Z = centered^T diag(w) centered / total, one (n, d) slab per point
    w_rel = (w / total[:, None])[:, :, None]
    d_y = centered @ (g + g.transpose(0, 2, 1))
    d_y *= w_rel
    quad = np.einsum("kia,kia->ki", centered @ g, centered)
    trace_gz = (g * z).sum(axis=(1, 2))
    h = d_y.sum(axis=1)
    total = total[:, None]
    d_w = (quad - trace_gz[:, None]) / total - (centered @ h[:, :, None])[:, :, 0] / total
    d_y -= w_rel * h[:, None, :]

    # w_i = exp(lw_i - max lw); the shift is exactly gradient-free
    diff = y - points[:, None, :]
    diff *= (w * d_w)[:, :, None]
    d_y -= diff
    return d_y.sum(axis=0)


def sample_weighting_points(y, num_points: int | None, rng: RngStream) -> np.ndarray:
    """Draw num_points (None: d) weighting points as means of d distinct rows of y.

    For a normalized sample the mean of d rows is close to N(0, I/d), so
    the points concentrate where the Gaussian bump retains mass.
    """
    y = as_data(y, name="sample")
    n, d = y.shape
    num_points = _point_count(num_points, d)
    if n < d:
        raise InsufficientDataError(
            f"need at least d={d} rows to build a weighting point, got {n}"
        )
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

