"""Scoring retrieved signals against true sources.

Both measures search over one-to-one matchings of retrieved columns to
source columns, so neither cares about component order or sign:

* OTS works on |Spearman| and is therefore blind to any strictly
  monotone per-component distortion;
* max_corr works on |Pearson| and is the classical linear baseline.

The matching is a linear assignment problem; with one unit of supply
per column the LP relaxation is integral, so the Hungarian method gives
the exact optimum of the integer program in O(d^3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _read_json_object, as_data, average_ranks, pearson_corr_matrix
from .errors import DimensionError, FileFormatError, NonFiniteError

__all__ = [
    "ScoreReport",
    "spearman_distance_matrix",
    "solve_assignment",
    "ots",
    "max_corr",
    "score",
    "report_to_json",
    "save_report",
    "load_report",
]


def _rank_columns(x: np.ndarray) -> np.ndarray:
    return np.column_stack([average_ranks(x[:, j]) for j in range(x.shape[1])])


def spearman_distance_matrix(z, s) -> np.ndarray:
    """M[j, k] = 1 - |spearman(z column j, s column k)|, each in [0, 1]."""
    z = as_data(z, min_cols=1, name="retrieved signals")
    s = as_data(s, min_cols=1, name="sources")
    if z.shape != s.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {s.shape}")
    r = pearson_corr_matrix(_rank_columns(z), _rank_columns(s))
    return 1.0 - np.abs(r)


def _hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching; returns column index per row.

    Potentials-and-augmenting-paths formulation, O(n^3): rows enter one
    at a time, each via a shortest alternating path in reduced costs.
    """
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


def solve_assignment(cost) -> tuple[np.ndarray, float]:
    """Permutation minimizing sum cost[i, perm[i]], plus its total.

    Among equally cheap permutations the lexicographically smallest one
    is returned, fixed row by row: a column is kept if the best
    completion of the remaining rows still reaches the optimum.  Tie
    detection compares totals within 1e-12 of the optimum's scale.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("cost matrix contains non-finite values")
    n = c.shape[0]
    rows = np.arange(n)
    base = _hungarian(c)
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
                sub_perm = _hungarian(sub)
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


def ots(z, s) -> tuple[float, np.ndarray]:
    """Optimal transport score: 1 - mean matched Spearman distance.

    The returned permutation maps each source column j to its matched
    retrieved column.
    """
    m = spearman_distance_matrix(z, s)
    perm, total = solve_assignment(m.T)
    return 1.0 - total / m.shape[0], perm


def max_corr(z, s) -> tuple[float, np.ndarray]:
    """Assignment-maximized mean |Pearson| between matched columns."""
    z = as_data(z, min_cols=1, name="retrieved signals")
    s = as_data(s, min_cols=1, name="sources")
    if z.shape != s.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {s.shape}")
    p = pearson_corr_matrix(z, s)
    perm, total = solve_assignment(1.0 - np.abs(p).T)
    return 1.0 - total / p.shape[0], perm


@dataclass(frozen=True, eq=False)
class ScoreReport:
    """Both scores plus everything needed to recompute them.

    assignment_ots[j] and assignment_max_corr[j] give the retrieved
    column matched to source j; the matrices hold signed correlations
    with retrieved columns as rows and sources as columns.
    """

    ots: float
    max_corr: float
    assignment_ots: tuple[int, ...]
    assignment_max_corr: tuple[int, ...]
    spearman_matrix: np.ndarray
    pearson_matrix: np.ndarray

    def __post_init__(self) -> None:
        d = len(self.assignment_ots)
        for name in ("assignment_ots", "assignment_max_corr"):
            perm = getattr(self, name)
            if sorted(perm) != list(range(d)):
                raise DimensionError(f"{name} is not a permutation: {perm}")
        object.__setattr__(
            self, "spearman_matrix", np.asarray(self.spearman_matrix, dtype=np.float64)
        )
        object.__setattr__(
            self, "pearson_matrix", np.asarray(self.pearson_matrix, dtype=np.float64)
        )


def score(z, s) -> ScoreReport:
    """Assemble both measures against the true sources."""
    z = as_data(z, min_cols=2, name="retrieved signals")
    s = as_data(s, min_cols=2, name="sources")
    if z.shape != s.shape:
        raise DimensionError(f"shape mismatch: {z.shape} vs {s.shape}")
    rank_corr = pearson_corr_matrix(_rank_columns(z), _rank_columns(s))
    pearson = pearson_corr_matrix(z, s)
    ots_value, ots_perm = ots(z, s)
    mc_value, mc_perm = max_corr(z, s)
    return ScoreReport(
        ots=float(ots_value),
        max_corr=float(mc_value),
        assignment_ots=tuple(int(k) for k in ots_perm),
        assignment_max_corr=tuple(int(k) for k in mc_perm),
        spearman_matrix=rank_corr,
        pearson_matrix=pearson,
    )


def report_to_json(report: ScoreReport, *, matrices: bool = True) -> str:
    doc = {
        "ots": report.ots,
        "max_corr": report.max_corr,
        "assignment_ots": list(report.assignment_ots),
        "assignment_max_corr": list(report.assignment_max_corr),
    }
    if matrices:
        doc["spearman_matrix"] = report.spearman_matrix.tolist()
        doc["pearson_matrix"] = report.pearson_matrix.tolist()
    return json.dumps(doc, sort_keys=True) + "\n"


def save_report(path, report: ScoreReport, *, matrices: bool = True) -> None:
    Path(path).write_text(report_to_json(report, matrices=matrices))


def load_report(path) -> ScoreReport:
    doc = _read_json_object(
        path, ("ots", "max_corr", "assignment_ots", "assignment_max_corr")
    )
    try:
        d = len(doc["assignment_ots"])
        empty = np.full((d, d), np.nan)
        return ScoreReport(
            ots=float(doc["ots"]),
            max_corr=float(doc["max_corr"]),
            assignment_ots=tuple(int(k) for k in doc["assignment_ots"]),
            assignment_max_corr=tuple(int(k) for k in doc["assignment_max_corr"]),
            spearman_matrix=np.asarray(doc.get("spearman_matrix", empty), dtype=np.float64),
            pearson_matrix=np.asarray(doc.get("pearson_matrix", empty), dtype=np.float64),
        )
    except (TypeError, ValueError, DimensionError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None
