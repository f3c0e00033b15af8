"""Scoring retrieved signals against true sources.

Both measures search over one-to-one matchings of retrieved columns to
source columns, so neither cares about component order or sign:

* OTS works on |Spearman| and is therefore blind to any strictly
  monotone per-component distortion;
* max_corr works on |Pearson| and is the classical linear baseline.

The matching is a linear assignment problem; with one unit of supply
per column the LP relaxation is integral, so the Hungarian method gives
the exact optimum of the integer program in O(d^3).  Ties go to the
lexicographically smallest optimal permutation, found on the edges that
are tight under the Hungarian duals: an edge is tight when its reduced
cost is at most 1e-12 * (1 + |optimum|), a per-edge test where the
earlier row-by-row re-solves compared the total of each completion with
the optimum.  Finding it keeps the whole solve O(d^3).
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


def _hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching: column index per row, plus the duals.

    Potentials-and-augmenting-paths formulation, O(n^3): rows enter one
    at a time, each via a shortest alternating path in reduced costs.
    The returned duals u (rows) and v (columns) satisfy
    cost[i, j] - u[i] - v[j] >= 0 up to roundoff, with equality on the
    matching.  Each scan over the columns is one vector operation; its
    minimum is the first one, as a loop taking strict improvements finds.
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
            free = ~used
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            j1 = int(np.argmin(np.where(free, minv, np.inf)))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    perm = np.empty(n, dtype=int)
    perm[row_of[1:] - 1] = np.arange(n)
    return perm, u[1:], v[1:]


def solve_assignment(cost) -> tuple[np.ndarray, float]:
    """Permutation minimizing sum cost[i, perm[i]], plus its total.

    Among equally cheap permutations the lexicographically smallest one
    is returned.  One Hungarian solve gives an optimum and its duals
    u, v.  Under them a permutation is optimal exactly when every edge
    it uses is tight, cost[i, k] - u[i] - v[k] == 0 (Kuhn 1955; Jonker
    and Volgenant 1987), so the answer is the lexicographically smallest
    perfect matching on the tight edges.  Rows are fixed in order, each
    to the smallest column that still completes to such a matching: one
    alternating-path search per row, back from the row's current column
    over the rows not yet fixed, finds every column the row can take,
    and the current matching is re-routed along the path to the one
    chosen.  The whole solve is O(d^3).

    An edge is tight when its reduced cost is at most
    tol = 1e-12 * (1 + |optimum|).  The row-by-row re-solves this
    replaces applied tol to the total of each candidate completion; here
    it applies to each edge.  A matching's reduced costs sum to its
    excess over the optimum, so exact ties are resolved as before, while
    a near-tie whose edges each lie within tol but whose excess exceeds
    tol (at most d * tol) now also counts as a tie.  The edges of the
    Hungarian optimum count as tight whatever their roundoff, so the
    tight edges always hold a perfect matching and a row with no smaller
    column open to it keeps the one it holds.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("cost matrix contains non-finite values")
    n = c.shape[0]
    rows = np.arange(n)
    col_of, u, v = _hungarian(c)
    best_total = float(c[rows, col_of].sum())
    tol = 1e-12 * (1.0 + abs(best_total))
    tight = c - u[:, None] - v[None, :] <= tol
    tight[rows, col_of] = True
    row_of = np.empty(n, dtype=int)
    row_of[col_of] = rows
    for i in range(n - 1):
        # rows below i that can give up their column: walking back from
        # row i's column, a row joins when it has a tight edge to a column
        # that is free for it to move to; moves_to[r] is that column
        moves_to = np.full(n, -1)
        frontier = [col_of[i]]
        while frontier:
            k = frontier.pop()
            joined = np.flatnonzero(tight[i + 1 :, k] & (moves_to[i + 1 :] < 0)) + i + 1
            moves_to[joined] = k
            frontier.extend(col_of[joined])
        options = np.flatnonzero(tight[i, : col_of[i]] & (moves_to[row_of[: col_of[i]]] >= 0))
        if options.size == 0:
            continue
        # row i takes the column; its owner moves along the path, and so on
        # until a row moves into the column row i gave up
        k = int(options[0])
        r = row_of[k]
        col_of[i], row_of[k] = k, i
        while r != i:
            k = moves_to[r]
            col_of[r], row_of[k], r = k, r, row_of[k]
    return col_of, float(c[rows, col_of].sum())


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
