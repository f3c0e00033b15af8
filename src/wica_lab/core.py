"""Array contracts, weighted statistics, correlations, and random streams.

Conventions used across the package:

* data matrices are N x d float64, one sample per row;
* all variances and covariances are population quantities (ddof=0);
* randomness flows through RngStream so every artifact is reproducible
  from a single integer seed and a path of string tags.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateColumnError,
    DegenerateWeightsError,
    DimensionError,
    FileFormatError,
    NonFiniteError,
    NumericalError,
)

__all__ = [
    "Dataset",
    "RngStream",
    "as_data",
    "as_weights",
    "weighted_mean",
    "weighted_cov",
    "normalize_componentwise",
    "average_ranks",
    "pearson_corr_matrix",
    "polar_orthogonal",
    "sample_haar_orthogonal",
    "load_csv",
    "save_csv",
]


# ---------------------------------------------------------------------------
# validation


def as_data(x, *, min_cols: int = 1, name: str = "data") -> np.ndarray:
    """Coerce to a float64 N x d matrix and validate the array contract."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    n, d = arr.shape
    if n < 1:
        raise DimensionError(f"{name} must contain at least one row")
    if d < min_cols:
        raise DimensionError(f"{name} needs at least {min_cols} columns, got {d}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def as_weights(w, n: int) -> np.ndarray:
    """Validate a weight vector: length n, finite, nonnegative, positive sum."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (n,):
        raise DimensionError(f"weights must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateWeightsError("weights contain non-finite values")
    if np.any(arr < 0.0):
        raise DegenerateWeightsError("weights must be nonnegative")
    if arr.sum() <= 0.0:
        raise DegenerateWeightsError("weights sum to zero")
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """A validated sample matrix with at least two columns.

    Thin wrapper used at file boundaries; numerical routines take bare
    arrays so intermediate results never pay re-validation.
    """

    x: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_data(self.x, min_cols=2, name="dataset"))

    @classmethod
    def load(cls, path) -> "Dataset":
        return cls(load_csv(path))


# ---------------------------------------------------------------------------
# weighted statistics


def weighted_mean(x, w) -> np.ndarray:
    """Weight-normalized mean of the rows of x."""
    x = as_data(x)
    w = as_weights(w, x.shape[0])
    return (w @ x) / w.sum()


def weighted_cov(x, w) -> np.ndarray:
    """Population covariance of rows of x under weights w.

    The divisor is the total weight, never a Bessel-style correction:
    a two-row sample [[0], [2]] with equal weights has variance 1.
    """
    x = as_data(x)
    w = as_weights(w, x.shape[0])
    return _weighted_cov_parts(x, w)[0]


def _weighted_cov_parts(x: np.ndarray, w: np.ndarray):
    """Unchecked weighted_cov, plus the centred rows and the total weight."""
    s = w.sum()
    centered = x - (w @ x) / s
    return (centered.T * w) @ centered / s, centered, s


_NORMALIZE_FLOOR = 1e-8


def normalize_componentwise(x) -> np.ndarray:
    """Shift each column to mean 0 and scale it to unit std (ddof=0).

    Columns with std below 1e-8 are divided by (std + 1e-8) instead of
    erroring: a latent channel that has gone flat mid-training should
    yield zeros here, not abort the run.  Correlation routines remain
    strict about constant columns.
    """
    x = as_data(x)
    if x.shape[0] < 2:
        raise DimensionError("normalization needs at least 2 rows")
    return _normalize_parts(x)[0]


def _normalize_parts(x: np.ndarray):
    """Unchecked normalize_componentwise, plus the centred data, the column
    std and the divisor it used."""
    centered = x - x.mean(axis=0)
    sigma = x.std(axis=0)
    denom = np.where(sigma < _NORMALIZE_FLOOR, sigma + _NORMALIZE_FLOOR, sigma)
    return centered / denom, centered, sigma, denom


# ---------------------------------------------------------------------------
# correlation


def average_ranks(v) -> np.ndarray:
    """Ranks 1..n of a vector, with ties sharing their average rank.

    A stable sort lines the values up; a tie group starts wherever a
    sorted value differs from the one before it, so -0.0 and 0.0 tie and
    every NaN (which equals nothing) ranks alone, after all numbers.  The
    group occupying sorted positions [i, j] gets 0.5 * (i + j) + 1.0, a
    half-integer and so exact, scattered back through the sort order.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"ranks are defined for vectors, got ndim={v.ndim}")
    n = v.shape[0]
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_group = np.ones(n, dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=n)
    ends = starts + sizes - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, sizes)
    return ranks


def pearson_corr_matrix(z, s) -> np.ndarray:
    """Pearson correlations between every column of z and every column of s.

    Every moment (means, second moments, cross moments) is a pairwise sum by
    ``np.add.reduce`` along one column, held as a contiguous row of the
    transposed data, one row of cross products at a time.  The order is
    fixed by n alone: entry (j, k) depends only on ``z[:, j]`` and
    ``s[:, k]``, equals the single-column call on that pair bit for bit,
    and no BLAS kernel takes part.  A single square root on the product of
    second moments makes a column paired with itself score exactly 1.0.
    Constant columns are rejected because a correlation is undefined there.
    """
    z = as_data(z, name="left sample")
    s = as_data(s, name="right sample")
    if z.shape[0] != s.shape[0]:
        raise DimensionError(
            f"row counts differ: {z.shape[0]} vs {s.shape[0]}"
        )
    # constancy is decided on the raw columns; centering residue of a
    # constant column is roundoff, not variance
    for j in np.flatnonzero(z.max(axis=0) == z.min(axis=0)):
        raise DegenerateColumnError(int(j))
    for j in np.flatnonzero(s.max(axis=0) == s.min(axis=0)):
        raise DegenerateColumnError(int(j))
    zc, zsq = _centered_columns(z)
    sc, ssq = _centered_columns(s)
    cross = np.empty((zc.shape[0], sc.shape[0]))
    for j, col in enumerate(zc):
        cross[j] = np.add.reduce(col * sc, axis=1)
    r = cross / np.sqrt(np.outer(zsq, ssq))
    return np.clip(r, -1.0, 1.0)


def _centered_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered columns as contiguous rows (d x N) and their sums of squares,
    each a pairwise ``np.add.reduce`` along one row."""
    xc = np.array(x.T, order="C")  # always a copy: centered in place below
    xc -= (np.add.reduce(xc, axis=1) / x.shape[0])[:, None]
    return xc, np.add.reduce(xc * xc, axis=1)


# ---------------------------------------------------------------------------
# orthogonal matrices


_JACOBI_SWEEPS = 60
_JACOBI_TOL = 1e-14


def _jacobi_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a square matrix: a = u * diag(s) @ v.T.

    Rotates column pairs of a working copy until all pairs are mutually
    orthogonal, accumulating the rotations in v.  Quadratic convergence
    makes the sweep cap generous for any dimension this package meets.
    """
    u = np.array(a, dtype=np.float64, copy=True)
    d = u.shape[0]
    v = np.eye(d)
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                app = u[:, p] @ u[:, p]
                aqq = u[:, q] @ u[:, q]
                apq = u[:, p] @ u[:, q]
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or not np.isfinite(denom):
                    raise NumericalError("rank-deficient matrix in Jacobi sweep")
                ratio = abs(apq) / denom
                off = max(off, ratio)
                if ratio <= _JACOBI_TOL:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if off <= _JACOBI_TOL:
            break
    else:
        raise NumericalError("Jacobi SVD did not converge")
    sigma = np.sqrt(np.einsum("ij,ij->j", u, u))
    if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
        raise NumericalError("singular values collapsed in Jacobi SVD")
    return u / sigma, sigma, v


def polar_orthogonal(g) -> np.ndarray:
    """Orthogonal polar factor u @ v.T of a nonsingular square matrix."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("matrix contains non-finite values")
    u, _, v = _jacobi_svd(g)
    return u @ v.T


def sample_haar_orthogonal(d: int, rng: "RngStream | np.random.Generator") -> np.ndarray:
    """Draw a d x d orthogonal matrix from the Haar measure.

    The polar factor of a Gaussian matrix is Haar-distributed; the factor
    comes from the in-house Jacobi SVD so draws stay identical across
    numpy releases.
    """
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    g = gen.standard_normal((d, d))
    return polar_orthogonal(g)


# ---------------------------------------------------------------------------
# random streams


def _tag_key(tag: str) -> int:
    # crc32 is stable across platforms and python versions, unlike hash()
    return zlib.crc32(tag.encode("utf-8"))


class RngStream:
    """Named, splittable random stream on a counter-based generator.

    A stream is fully determined by (seed, path of tags).  Splitting never
    advances the parent, so adding a new consumer of randomness does not
    disturb the draws of existing ones.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            raise DimensionError(f"seed must be nonnegative, got {self.seed}")
        self.path = tuple(_path)
        entropy = [self.seed] + [_tag_key(t) for t in self.path]
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy))
        )

    def split(self, tag: str) -> "RngStream":
        """Independent child stream identified by an extra tag."""
        return RngStream(self.seed, self.path + (str(tag),))

    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self) -> str:
        joined = "/".join(self.path)
        return f"RngStream(seed={self.seed}, path={joined!r})"


# ---------------------------------------------------------------------------
# dataset files


def _column_header(d: int) -> list[str]:
    return [f"c{j}" for j in range(d)]


def save_csv(path, x) -> None:
    """Write a sample matrix as CSV with header c0..c{d-1}.

    Values are written with repr so a load/save round trip reproduces the
    float64 payload bit for bit.
    """
    x = as_data(x)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_column_header(x.shape[1]))
        for row in x:
            writer.writerow([repr(float(v)) for v in row])


def load_csv(path) -> np.ndarray:
    path = Path(path)
    try:
        with path.open("r", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FileFormatError(f"{path}: empty file") from None
            d = len(header)
            if header != _column_header(d):
                raise FileFormatError(
                    f"{path}: header must be c0..c{d - 1}, got {header!r}"
                )
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != d:
                    raise FileFormatError(
                        f"{path}:{lineno}: expected {d} fields, got {len(row)}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: non-finite values")
    return arr


# ---------------------------------------------------------------------------
# JSON files


def _read_json_object(path, fields=()) -> dict:
    """The JSON object in a file, checked to carry the given fields."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from None
    return _require_fields(doc, fields, str(path))


def _require_fields(obj, fields, where: str) -> dict:
    """obj itself, once it is known to be a dict holding every field."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: must be a JSON object")
    for name in fields:
        if name not in obj:
            raise FileFormatError(f"{where}: missing field {name!r}")
    return obj


def _array_from_json(obj, where: str, ndim: int) -> np.ndarray:
    """A float64 array of the given ndim read from a JSON value."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: {exc}") from None
    if arr.ndim != ndim:
        raise FileFormatError(f"{where}: expected {ndim}-dimensional array, got ndim={arr.ndim}")
    return arr


# ---------------------------------------------------------------------------
# option parsers: each reads a flag string or a JSON value.  A value of the
# wrong type raises FileFormatError; a value out of range, or a string
# outside a choice, raises DimensionError.  A parsed value parses to itself.


def _str(value) -> str:
    if isinstance(value, str):
        return value
    raise FileFormatError(f"expected a string, got {value!r}")


def _int(value) -> int:
    """A JSON integer, or a flag string that int() reads."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise FileFormatError(f"expected an integer, got {value!r}")


def _float(value) -> float:
    """A finite JSON number, or a flag string that float() reads as one."""
    try:
        if isinstance(value, (str, float)) or type(value) is int:
            out = float(value)
            if math.isfinite(out):
                return out
    except (ValueError, OverflowError):
        pass
    raise FileFormatError(f"expected a finite number, got {value!r}")


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise FileFormatError(f"expected true or false, got {value!r}")


def _list_of(parse):
    """A JSON list (or tuple) of values parse reads, or a comma-separated
    flag string of them; the result is a tuple."""
    def parse_list(value) -> tuple:
        if isinstance(value, str):
            value = value.split(",")
        if not isinstance(value, (list, tuple)):
            raise FileFormatError(f"expected a list, got {value!r}")
        return tuple(parse(v) for v in value)
    parse_list.metavar = "N,N,..."
    return parse_list


_int_list = _list_of(_int)


def _object(value) -> dict:
    """A JSON object, or a flag string that holds one."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(value, dict):
        raise FileFormatError(f"expected a JSON object, got {value!r}")
    return value


_object.metavar = "JSON"


def _choice(*names: str):
    def parse(value) -> str:
        if value in names:
            return value
        error = DimensionError if isinstance(value, str) else FileFormatError
        raise error(f"expected one of {', '.join(names)}, got {value!r}")
    parse.choices = names
    return parse


def _at_least(parse, low, *, strict: bool = False):
    """parse, then a DimensionError unless the value is >= low (> low if strict)."""
    def bounded(value):
        out = parse(value)
        if out < low or (strict and out == low):
            raise DimensionError(f"must be {'>' if strict else '>='} {low}, got {out}")
        return out
    return bounded


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _parse(key: str, parse, value):
    try:
        return parse(value)
    except (FileFormatError, DimensionError) as exc:
        raise type(exc)(f"{key}: {exc}") from None


def _parse_options(table: dict, given: dict) -> dict:
    """Every option of a table of (parser, default) entries: its parsed
    value if given, else its default."""
    for key in given:
        if key not in table:
            raise FileFormatError(f"unknown key {key!r}")
    return {
        key: _parse(key, parse, given[key]) if key in given else default
        for key, (parse, default) in table.items()
    }


def _parse_fields(obj, table: dict) -> None:
    """Replace each field of a frozen dataclass by its value as the table's
    parser for that field reads it."""
    for key, parse in table.items():
        object.__setattr__(obj, key, _parse(key, parse, getattr(obj, key)))
