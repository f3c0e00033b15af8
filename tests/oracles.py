"""Brute-force and quadrature reference implementations.

Everything here exists to check the fast paths from the outside: plain
Python loops instead of vectorized statistics and ranks, exhaustive
search and row-by-row re-solves instead of the assignment solver,
finite differences instead of the hand-written backward pass, grid
quadrature instead of the closed-form concentration value.  None of it shares code with the modules under
test beyond the model's parameter layout, and none of it is built for
speed.  It is test-only and is not part of the installed package.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wica_lab.errors import DimensionError, FileFormatError, NumericalError
from wica_lab.trainer import AutoEncoderModel

__all__ = [
    "loop_weighted_mean",
    "loop_weighted_cov",
    "brute_assignment",
    "loop_average_ranks",
    "rowwise_assignment",
    "fd_gradient",
    "fd_jacobian",
    "model_param_vector",
    "with_param_vector",
    "fd_model_gradient",
    "quadrature_P",
    "ks_statistic",
    "linear_fit_residual",
    "CalibrationRecord",
    "save_record",
    "load_record",
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
# quadrature of the concentration integral


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
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from None
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
