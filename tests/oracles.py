"""Brute-force and quadrature reference implementations.

Everything here exists to check the fast paths from the outside: plain
Python loops instead of vectorized statistics and ranks, exhaustive
search and row-by-row re-solves instead of the assignment solver,
finite differences instead of the hand-written backward pass, grid
quadrature beside the closed-form concentration value it checks.  None of it
shares code with the modules under test beyond the model's parameter
layout and the package's JSON file reader, except the earlier Spearman
path, kept as a composition of the public ranks and Pearson functions,
and the earlier gradient, whose per-layer lists are concatenated in
theta's order around the trainer's forward pass and the index kernel;
none of it is built for speed.  It is test-only and is not part of the
installed package.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wica_lab.core import _read_json_object, average_ranks, pearson_corr_matrix
from wica_lab.errors import DimensionError, FileFormatError, NumericalError
from wica_lab.trainer import AutoEncoderModel, _cost_inputs, _mlp_forward
from wica_lab.wii import _points_backward, _points_forward

__all__ = [
    "loop_weighted_mean",
    "loop_weighted_cov",
    "brute_assignment",
    "loop_average_ranks",
    "stacked_spearman_matrix",
    "rowwise_assignment",
    "loop_point_index",
    "loop_weighting_points",
    "loop_sine_mixture",
    "loop_polar_factor",
    "fd_gradient",
    "fd_jacobian",
    "model_param_vector",
    "with_param_vector",
    "fd_model_gradient",
    "list_mlp_backward",
    "concatenated_cost_gradient",
    "concentration",
    "quadrature_P",
    "ks_statistic",
    "linear_fit_residual",
    "CalibrationRecord",
    "save_record",
    "load_record",
    "csv_writer_save_csv",
]


# ---------------------------------------------------------------------------
# loop-based statistics


def loop_weighted_mean(x, w) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, d = x.shape
    out = np.zeros(d)
    wsum = 0.0
    for i in range(n):
        wsum += w[i]
        for j in range(d):
            out[j] += w[i] * x[i, j]
    return out / wsum


def loop_weighted_cov(x, w) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, d = x.shape
    m = loop_weighted_mean(x, w)
    out = np.zeros((d, d))
    wsum = 0.0
    for i in range(n):
        wsum += w[i]
        for a in range(d):
            for b in range(d):
                out[a, b] += w[i] * (x[i, a] - m[a]) * (x[i, b] - m[b])
    return out / wsum


# ---------------------------------------------------------------------------
# exhaustive assignment


def brute_assignment(cost) -> tuple[np.ndarray, float]:
    """Lexicographically first minimizer over all permutations; d <= 8."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cost matrix must be square, got shape {c.shape}")
    d = c.shape[0]
    if d > 8:
        raise DimensionError(f"exhaustive search is capped at d=8, got d={d}")
    best_perm: tuple[int, ...] | None = None
    best_total = np.inf
    for perm in itertools.permutations(range(d)):
        total = 0.0
        for i, k in enumerate(perm):
            total += float(c[i, k])
        if total < best_total:
            best_total = total
            best_perm = perm
    assert best_perm is not None
    return np.array(best_perm, dtype=int), best_total


# ---------------------------------------------------------------------------
# loop ranks and row-by-row assignment: the package's earlier solvers, kept
# as references that the vectorized ones must match bit for bit


def loop_average_ranks(v) -> np.ndarray:
    """Ranks 1..n of a vector, ties sharing their average rank, one tied
    block at a time."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"ranks are defined for vectors, got ndim={v.ndim}")
    n = v.shape[0]
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sv = v[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        # tied block [i, j] shares the mean of the ranks it occupies
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _loop_hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching, column index per row; O(n^3) with
    the column scans as Python loops."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=int)  # column j (1-based) -> assigned row
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    perm = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        perm[row_of[j] - 1] = j - 1
    return perm


def rowwise_assignment(cost) -> tuple[np.ndarray, float]:
    """Lexicographically smallest optimal permutation and its total, fixed
    row by row: a column is kept if the best completion of the remaining
    rows, re-solved from scratch, still reaches the optimum within
    1e-12 * (1 + |optimum|).  O(d^5); d <= 32 is practical."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cost matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    rows = np.arange(n)
    base = _loop_hungarian(c)
    best_total = float(c[rows, base].sum())
    tol = 1e-12 * (1.0 + abs(best_total))
    free = list(range(n))
    chosen: list[int] = []
    prefix = 0.0
    for i in range(n):
        for pos, k in enumerate(free):
            rest_cols = free[:pos] + free[pos + 1 :]
            if rest_cols:
                sub = c[np.ix_(np.arange(i + 1, n), rest_cols)]
                sub_perm = _loop_hungarian(sub)
                tail = float(sub[np.arange(n - i - 1), sub_perm].sum())
            else:
                tail = 0.0
            if prefix + c[i, k] + tail <= best_total + tol:
                chosen.append(k)
                prefix += float(c[i, k])
                free.pop(pos)
                break
        else:
            # float pathologies only; keep the base optimum's column
            k = int(base[i])
            chosen.append(k)
            prefix += float(c[i, k])
            free.remove(k)
    perm = np.array(chosen, dtype=int)
    return perm, float(c[rows, perm].sum())


# ---------------------------------------------------------------------------
# Spearman through column-stacked ranks: the package's earlier path, kept as
# the reference that metrics' row-matrix ranks must match bit for bit


def stacked_spearman_matrix(z, s) -> np.ndarray:
    """Spearman correlations of every column of z with every column of s
    as scoring once computed them: a list of rank columns, column-stacked,
    then pearson_corr_matrix, which copies and centres their transpose."""
    def ranks(x):
        return np.column_stack([average_ranks(x[:, j]) for j in range(x.shape[1])])

    return pearson_corr_matrix(ranks(z), ranks(s))


# ---------------------------------------------------------------------------
# the index and its weighting points one point at a time: the package's
# earlier per-point loops, kept as the references for the batched code in
# wii.py


def loop_point_index(y, points, coef: float = 1.0):
    """The index at each point of y, one point at a time.

    Returns the values of the points whose weights did not collapse, their
    indices into points, coef times the sum of their gradients d(wii at
    p)/dY, and (point, effective mass) of the last collapsed point, or
    None.  The arithmetic is the per-point forward and backward pass the
    training cost used before the points were batched.
    """
    y = np.asarray(y, dtype=np.float64)
    n, d = y.shape
    values, live, collapse = [], [], None
    d_y = np.zeros_like(y)
    for k, p in enumerate(np.asarray(points, dtype=np.float64)):
        diff = y - p
        lw = -0.5 * np.einsum("ij,ij->i", diff, diff)
        w = np.exp(lw - lw.max())
        if w.sum() - 1.0 < 1e-12:
            collapse = (p, float(w.sum() - 1.0))
            continue
        total = w.sum()
        centered = y - (w @ y) / total
        z = (centered.T * w) @ centered / total
        var = np.diag(z)
        denom = var[:, None] ** 2 + var[None, :] ** 2
        dead = denom == 0.0
        c = 2.0 * z * z / np.where(dead, 1.0, denom)
        c[dead] = 0.0
        np.fill_diagonal(c, 0.0)
        values.append(float(c.sum() / (d * (d - 1))))
        live.append(k)

        scale = 1.0 / (d * (d - 1))
        alive = denom > 0.0
        np.fill_diagonal(alive, False)
        safe = np.where(alive, denom, 1.0)
        g = np.where(alive, scale * 4.0 * z / safe, 0.0)
        ratio = np.where(alive, z * z / (safe * safe), 0.0)
        np.fill_diagonal(g, -scale * 8.0 * var * ratio.sum(axis=1))
        d_centered = (w / total)[:, None] * (centered @ (g + g.T))
        quad = np.einsum("ia,ab,ib->i", centered, g, centered)
        h = d_centered.sum(axis=0)
        d_w = (quad - float(np.sum(g * z))) / total - (centered @ h) / total
        grad = d_centered - np.outer(w, h) / total - (w * d_w)[:, None] * diff
        d_y += coef * grad
    return values, live, d_y, collapse


def loop_weighting_points(y, num_points: int, rng) -> np.ndarray:
    """Weighting points as means of d distinct rows of y, one point at a
    time: the package's earlier sampling loop.  rng is an RngStream."""
    y = np.asarray(y, dtype=np.float64)
    n, d = y.shape
    gen = rng.generator()
    points = np.empty((num_points, d))
    for k in range(num_points):
        rows = gen.choice(n, size=d, replace=False)
        points[k] = y[rows].mean(axis=0)
    return points


def loop_sine_mixture(spec, rng) -> np.ndarray:
    """sine_mixture sources before normalization, each candidate frequency
    checked against every accepted one: the package's earlier rejection
    loop, with its 1000 * d attempt cap.  rng is an RngStream."""
    p = spec.params
    gen = rng.generator()
    omegas: list[float] = []
    attempts = 0
    while len(omegas) < spec.d:
        if attempts == 1000 * spec.d:
            raise DimensionError("cannot fit frequencies")
        cand = float(gen.uniform(p["omega_min"], p["omega_max"]))
        attempts += 1
        if all(abs(cand - o) >= p["min_sep"] for o in omegas):
            omegas.append(cand)
    phases = gen.uniform(0.0, 2.0 * np.pi, size=spec.d)
    t = np.linspace(0.0, p["t_max"], spec.n)
    return np.sin(np.outer(t, np.array(omegas)) + phases)


# ---------------------------------------------------------------------------
# the polar iteration on Python floats, the reference that
# core._polar_factor must match bit for bit


def _pairwise_sum(v: list) -> float:
    """numpy's pairwise sum of a contiguous float64 vector, step by step:
    eight running sums over blocks of at most 128 values, halves above."""
    n = len(v)
    if n < 8:
        res = 0.0
        for t in v:
            res += t
        return res
    if n <= 128:
        r = v[:8]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += v[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in v[i:]:
            res += t
        return res
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def _loop_product(a: list, b: list) -> list:
    """a @ b with each entry summed over k = 0, 1, ... in turn."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            s = row[0] * b[0][j]
            for k in range(1, len(b)):
                s += row[k] * b[k][j]
            out_row.append(s)
        out.append(out_row)
    return out


def loop_polar_factor(a) -> np.ndarray:
    """Newton-Schulz polar factor: scale a to unit Frobenius norm, then
    x <- x - x (x.T x - I) / 2 until every entry of x.T x - I is within
    d * 1e-15, for at most 100 steps."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    norm = math.sqrt(_pairwise_sum([t * t for t in a.ravel().tolist()]))
    x = [[t / norm for t in row] for row in a.tolist()]
    for _ in range(100):
        xtx = _loop_product([list(col) for col in zip(*x)], x)
        r = [[v - (1.0 if i == j else 0.0) for j, v in enumerate(row)]
             for i, row in enumerate(xtx)]
        if all(abs(v) <= d * 1e-15 for row in r for v in row):
            return np.array(x)
        xr = _loop_product(x, r)
        x = [[u - 0.5 * v for u, v in zip(xrow, prow)] for xrow, prow in zip(x, xr)]
    raise NumericalError("polar iteration did not converge")


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(f: Callable[[np.ndarray], float], theta, h: float) -> np.ndarray:
    """Central differences (f(t+h e_k) - f(t-h e_k)) / 2h, one k at a time."""
    if h <= 0:
        raise DimensionError(f"h must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        bump = np.zeros_like(theta)
        bump.flat[k] = h
        hi = float(f(theta + bump))
        lo = float(f(theta - bump))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalError(f"non-finite objective near coordinate {k}")
        grad.flat[k] = (hi - lo) / (2.0 * h)
    return grad


def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], x, h: float) -> np.ndarray:
    """Central-difference Jacobian of a vector map at a single point."""
    if h <= 0:
        raise DimensionError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = h
        hi = np.asarray(f(x + bump), dtype=np.float64)
        lo = np.asarray(f(x - bump), dtype=np.float64)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise NumericalError(f"non-finite map value near coordinate {k}")
        cols.append((hi - lo) / (2.0 * h))
    return np.column_stack(cols)


def model_param_vector(model: AutoEncoderModel) -> np.ndarray:
    """A copy of all parameters: encoder weights, encoder biases, decoder
    weights, decoder biases, each in layer order."""
    return model.theta.copy()


def with_param_vector(model: AutoEncoderModel, theta: np.ndarray) -> AutoEncoderModel:
    """A new model with parameters replaced from the vector.  Built by the
    constructor: a deep copy's arrays would no longer be views of theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != model.theta.shape:
        raise DimensionError(f"need {model.theta.size} parameters, got shape {theta.shape}")
    out = AutoEncoderModel(model.encoder, model.decoder)
    out.theta[...] = theta
    return out


def fd_model_gradient(
    cost_of_model: Callable[[AutoEncoderModel], float],
    model: AutoEncoderModel,
    h: float,
) -> np.ndarray:
    theta = model_param_vector(model)
    return fd_gradient(lambda t: cost_of_model(with_param_vector(model, t)), theta, h)


# ---------------------------------------------------------------------------
# the backward pass as per-layer lists: the package's earlier path, kept as
# the reference for the gradient written into views of one vector


def list_mlp_backward(m, acts: list, d_out: np.ndarray) -> tuple[list, list, np.ndarray]:
    """Every layer's weight and bias gradients as fresh arrays in two lists,
    plus the gradient w.r.t. the input: the backward pass the trainer's
    in-place one replaced, with the same operations in the same order."""
    grad_w: list[np.ndarray] = [np.empty(0)] * len(m.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(m.weights)
    last = len(m.weights) - 1
    d_a = d_out
    for l in range(last, -1, -1):
        if l < last:
            d_pre = d_a * (1.0 - acts[l + 1] ** 2)
        else:
            d_pre = d_a
        grad_w[l] = acts[l].T @ d_pre
        grad_b[l] = d_pre.sum(axis=0)
        d_a = d_pre @ m.weights[l].T
    return grad_w, grad_b, d_a


def concatenated_cost_gradient(model: AutoEncoderModel, x, points, cfg) -> np.ndarray:
    """cost_gradient as list_mlp_backward's pieces concatenated in theta's
    order (encoder weights, encoder biases, decoder weights, decoder
    biases), each operand computed as cost_gradient computes it."""
    enc_acts, (y, u, sigma, denom), points = _cost_inputs(model, x, points)
    x = enc_acts[0]
    n = x.shape[0]
    values, cache = _points_forward(y, points)
    dec_acts: list[np.ndarray] = []
    resid = _mlp_forward(model.decoder, enc_acts[-1], dec_acts) - x
    dec_gw, dec_gb, d_enc_out = list_mlp_backward(model.decoder, dec_acts, 2.0 * resid / n)
    if cfg.beta != 0.0:
        d_y = _points_backward(y, cache, cfg.beta / len(values))
        g_mean = d_y.mean(axis=0)
        g_dot_u = np.einsum("ij,ij->j", d_y, u)
        d_enc_norm = (d_y - g_mean) / denom
        live = sigma > 0.0
        slope = np.where(live, g_dot_u / (n * np.where(live, sigma, 1.0) * denom ** 2), 0.0)
        d_enc_out = d_enc_out + d_enc_norm - u * slope
    enc_gw, enc_gb, _ = list_mlp_backward(model.encoder, enc_acts, d_enc_out)
    return np.concatenate([g.reshape(-1) for g in enc_gw + enc_gb + dec_gw + dec_gb])


# ---------------------------------------------------------------------------
# the concentration integral: closed form and quadrature


def concentration(p, *, normalized: bool = True) -> float:
    """How much standard-normal mass a unit Gaussian bump at p retains.

    The closed form is (3/4)^(D/2) * exp(-|p|^2 / 6); the normalized
    variant is scaled by its own value at the origin, so it reads as a
    fraction of the best case and is 1.0 at p = 0.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise DimensionError(f"point must be a vector, got ndim={p.ndim}")
    value = float(np.exp(-(p @ p) / 6.0))
    if normalized:
        return value
    return float((3.0 / 4.0) ** (p.shape[0] / 2.0)) * value


def quadrature_P(p, *, step: float = 0.02, bound: float = 8.0) -> float:
    """(integral of w*f)^2 / integral of w^2*f on a 2-D midpoint grid.

    w is the normalized N(p, I) density, f the standard normal density.
    The value is recomputed at half the step; a shift above 1e-3
    relative means the grid cannot be trusted and is reported as a
    numerical failure instead of a wrong answer.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2,):
        raise DimensionError(f"the quadrature oracle is 2-D only, got shape {p.shape}")

    def value(h: float) -> float:
        axis = np.arange(-bound + h / 2.0, bound, h)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        sq_p = (gx - p[0]) ** 2 + (gy - p[1]) ** 2
        sq_0 = gx ** 2 + gy ** 2
        w = np.exp(-0.5 * sq_p) / (2.0 * np.pi)
        f = np.exp(-0.5 * sq_0) / (2.0 * np.pi)
        cell = h * h
        num = (w * f).sum() * cell
        den = (w * w * f).sum() * cell
        return float(num * num / den)

    coarse = value(step)
    fine = value(step / 2.0)
    if abs(fine - coarse) > 1e-3 * max(abs(fine), 1e-300):
        raise NumericalError(
            f"quadrature not converged at step {step}: {coarse} vs {fine}"
        )
    return fine


# ---------------------------------------------------------------------------
# distribution checks


def ks_statistic(values, lo: float, hi: float) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(lo, hi)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n < 1 or hi <= lo:
        raise DimensionError("need a nonempty sample and hi > lo")
    cdf = (v - lo) / (hi - lo)
    upper = np.abs(cdf - np.arange(1, n + 1) / n).max()
    lower = np.abs(cdf - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def linear_fit_residual(s, x) -> float:
    """Relative residual of the best affine map from s to x.

    0 means x is exactly an affine image of s; values well above 0 mean
    no linear unmixing could explain the data.
    """
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    design = np.column_stack([s, np.ones(s.shape[0])])
    coef, _, _, _ = np.linalg.lstsq(design, x, rcond=None)
    resid = x - design @ coef
    spread = x - x.mean(axis=0)
    return float(np.linalg.norm(resid) / np.linalg.norm(spread))


# ---------------------------------------------------------------------------
# calibration fixtures


@dataclass(frozen=True)
class CalibrationRecord:
    """A measured quantity frozen with everything needed to redo it."""

    tag: str
    seed: int
    n: int
    d: int
    measured: dict[str, float] = field(default_factory=dict)
    threshold: float = 0.0
    recipe: str = ""

    def to_json(self) -> str:
        doc = {
            "tag": self.tag,
            "seed": self.seed,
            "n": self.n,
            "d": self.d,
            "measured": {k: float(v) for k, v in sorted(self.measured.items())},
            "threshold": self.threshold,
            "recipe": self.recipe,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_record(path, record: CalibrationRecord) -> None:
    Path(path).write_text(record.to_json())


def load_record(path) -> CalibrationRecord:
    path = Path(path)
    doc = _read_json_object(path)
    try:
        return CalibrationRecord(
            tag=str(doc["tag"]),
            seed=int(doc["seed"]),
            n=int(doc["n"]),
            d=int(doc["d"]),
            measured={k: float(v) for k, v in doc["measured"].items()},
            threshold=float(doc["threshold"]),
            recipe=str(doc.get("recipe", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad calibration record: {exc}") from None


# ---------------------------------------------------------------------------
# file formats


def csv_writer_save_csv(path, x) -> None:
    """core.save_csv's format through csv.writer, one repr(float(v)) per
    numpy scalar: header c0..c{d-1}, then one row per sample."""
    x = np.asarray(x, dtype=np.float64)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(x.shape[1])])
        for row in x:
            writer.writerow([repr(float(v)) for v in row])
