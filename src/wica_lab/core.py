"""Array contracts, weighted statistics, correlations, and random streams.

Conventions used across the package:

* data matrices are N x d float64, one sample per row;
* all variances and covariances are population quantities (ddof=0);
* randomness flows through RngStream so every artifact is reproducible
  from a single integer seed and a path of string tags.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateColumnError,
    DimensionError,
    FileFormatError,
    NonFiniteError,
    NumericalError,
)

__all__ = [
    "RngStream",
    "as_data",
    "normalize_componentwise",
    "average_ranks",
    "pearson_corr_matrix",
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


# ---------------------------------------------------------------------------
# weighted statistics


def _weighted_moments(y: np.ndarray, w: np.ndarray, total: np.ndarray):
    """Unchecked (K, d) means, (K, n, d) centred rows and (K, d, d)
    covariances of y (n, d) under each row of the weights w (K, n), whose
    row sums are total.  Each row's products are matmul calls of its own,
    so its moments are the same bytes in any stack, one-row included."""
    scale = total[:, None, None]
    means = np.matmul(w[:, None, :], y) / scale
    centered = y - means
    cov = np.matmul(centered.transpose(0, 2, 1) * w[:, None, :], centered) / scale
    return means[:, 0], centered, cov


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
    with np.errstate(over="ignore", invalid="ignore"):
        out, _, sigma, _ = _normalize_parts(x)
    # an overflowing std would divide its column to zeros
    for j in np.flatnonzero(~np.isfinite(sigma)):
        raise NonFiniteError(f"column {j}: standard deviation overflows float64")
    return out


def _normalize_parts(x: np.ndarray):
    """Unchecked normalize_componentwise, plus the centred data, the column
    std (x.std's reductions, on the centred data) and the divisor it used."""
    centered = x - x.mean(axis=0)
    sigma = np.sqrt(np.add.reduce(centered * centered, axis=0) / len(x))
    denom = np.where(sigma < _NORMALIZE_FLOOR, sigma + _NORMALIZE_FLOOR, sigma)
    return centered / denom, centered, sigma, denom


# ---------------------------------------------------------------------------
# correlation


def average_ranks(v) -> np.ndarray:
    """Ranks 1..n of a vector, with ties sharing their average rank.

    A sort lines the values up; a tie group starts wherever a sorted
    value differs from the one before it, so -0.0 and 0.0 tie and every
    NaN (which equals nothing) ranks alone, after all numbers and in index
    order.  The group occupying sorted positions [i, j] gets
    0.5 * (i + j) + 1.0, a half-integer and so exact, scattered back
    through the sort order.  Every member of a group gets the same rank,
    so the sort need not be stable; only the NaN tail, one group per NaN,
    is put back in index order.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"ranks are defined for vectors, got ndim={v.ndim}")
    n = v.shape[0]
    order = np.argsort(v)
    nan_rows = np.flatnonzero(np.isnan(v))
    order[n - len(nan_rows):] = nan_rows
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
    transposed data; the products of one pair of rows go into one n-long
    buffer.  The order is fixed by n alone: entry (j, k) depends only on
    ``z[:, j]`` and ``s[:, k]``, equals the single-column call on that pair
    bit for bit, and no BLAS kernel takes part.  A single square root on the product of
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
    # a mean or moment that overflows is reported by the moment helper
    with np.errstate(over="ignore", invalid="ignore"):
        return _corr_of_centred_rows(_centre_rows(z.T.copy()), _centre_rows(s.T.copy()))


def _centre_rows(xc: np.ndarray) -> np.ndarray:
    """xc with each row centred in place on its mean, a pairwise
    ``np.add.reduce`` along the row."""
    xc -= (np.add.reduce(xc, axis=1) / xc.shape[1])[:, None]
    return xc


def _corr_of_centred_rows(zc: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """Pearson correlations of every centred row of zc with every centred
    row of sc, each moment a pairwise ``np.add.reduce`` over the products
    of one pair of rows in one n-long buffer.  A pair whose moments leave
    float64's range raises NonFiniteError: its quotient would read as 0 or
    a clipped +-1."""
    buf = np.empty(zc.shape[1])

    def moment(a: np.ndarray, b: np.ndarray) -> float:
        return np.add.reduce(np.multiply(a, b, out=buf))

    cross = np.array([[moment(a, b) for b in sc] for a in zc])
    zsq = np.array([moment(a, a) for a in zc])
    ssq = np.array([moment(b, b) for b in sc])
    den = np.outer(zsq, ssq)
    for j, k in np.argwhere(~(np.isfinite(cross) & np.isfinite(den) & (den > 0.0))):
        raise NonFiniteError(
            f"moments of left column {j} and right column {k} leave float64 range"
        )
    return np.clip(cross / np.sqrt(den), -1.0, 1.0)


# ---------------------------------------------------------------------------
# orthogonal matrices


_PRODUCT_BYTES = 4 * 2 ** 20  # of products that _product_in_order holds at once


def _product_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each entry summed over the inner index in order, with no BLAS.

    The products are one temporary per block of rows of a, of at most
    _PRODUCT_BYTES or one row's; a row's sums do not depend on its block, so
    the bytes are those of one call."""
    rows = max(_PRODUCT_BYTES // (8 * b.size), 1)
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.add.reduce(a[i:i + rows, :, None] * b[None, :, :], axis=1, out=out[i:i + rows])
    return out


def _polar_factor(a: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of a square matrix: Newton-Schulz steps
    x <- x - x (x.T x - I) / 2 from a at unit Frobenius norm (Higham,
    Functions of Matrices, ch. 8).  A singular or non-finite a never converges."""
    d = a.shape[0]
    x = a / np.sqrt(np.add.reduce(a.ravel() * a.ravel()))
    for _ in range(100):
        r = _product_in_order(np.ascontiguousarray(x.T), x) - np.eye(d)
        if np.max(np.abs(r)) <= d * 1e-15:
            return x
        x = x - 0.5 * _product_in_order(x, r)
    raise NumericalError("polar iteration did not converge")


def sample_haar_orthogonal(d: int, rng: RngStream) -> np.ndarray:
    """Draw a d x d orthogonal matrix from the Haar measure: the polar
    factor of a Gaussian matrix.  _polar_factor makes no BLAS or LAPACK
    call, so a draw repeats bit for bit on every x86 BLAS kernel."""
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    return _polar_factor(rng.generator().standard_normal((d, d)))


# ---------------------------------------------------------------------------
# random streams


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
        # crc32 is stable across platforms and python versions, unlike hash()
        entropy = [self.seed] + [zlib.crc32(t.encode("utf-8")) for t in self.path]
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
# files: CSV datasets and JSON documents


def _read_text(path) -> str:
    """The UTF-8 text of an input file, CSV or JSON, line ends as written."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _column_header(d: int) -> list[str]:
    return [f"c{j}" for j in range(d)]


def save_csv(path, x) -> None:
    """Write a sample matrix as CSV with header c0..c{d-1}.

    Values are written with repr so a load/save round trip reproduces the
    float64 payload bit for bit; lines end in CRLF, as csv.writer's do.
    """
    x = as_data(x)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_column_header(x.shape[1])) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in x.tolist())


def load_csv(path) -> np.ndarray:
    path = Path(path)
    # lines end at \r\n, \r or \n only, as in a file opened with newline=""
    reader = _records(path, csv.reader(io.StringIO(_read_text(path), newline="")))
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError(f"{path}: empty file") from None
    d = len(header)
    if header != _column_header(d):
        raise FileFormatError(f"{path}: header must be c0..c{d - 1}, got {header!r}")
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != d:
            raise FileFormatError(f"{path}:{lineno}: expected {d} fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{path}: non-finite values")
    return arr


def _records(path, reader):
    """The rows of a csv reader, a FileFormatError at the line where the
    reader fails, as on a field above csv's size limit."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _loads(text: str, path=None):
    """json.loads, a FileFormatError for text it cannot read: prefixed by the
    path and a syntax error's line and column if a path is given."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        at, why = f":{exc.lineno}:{exc.colno}", exc.msg
    except RecursionError:
        at, why = "", "nested too deeply"
    except ValueError as exc:  # an integer with more digits than int() reads
        at, why = "", exc
    prefix = "" if path is None else f"{path}{at}: "
    raise FileFormatError(f"{prefix}invalid JSON ({why})") from None


def _read_json_object(path, fields=()) -> dict:
    """The JSON object in a file, checked to carry the given fields."""
    path = Path(path)
    return _require_fields(_loads(_read_text(path), path), fields, str(path))


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
    except (TypeError, ValueError, OverflowError) as exc:
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


def _object(value) -> dict:
    """A JSON object, or a flag string that holds one."""
    if isinstance(value, str):
        value = _loads(value)
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
    parse.metavar = "{" + ",".join(names) + "}"
    return parse


_SIZE_MAX = int(np.iinfo(np.intp).max)


def _size(parse):
    """parse, then a DimensionError if the count it reads is above
    np.iinfo(np.intp).max, the largest array dimension numpy takes."""
    def size(value):
        out = parse(value)
        if out > _SIZE_MAX:
            raise DimensionError(f"must be <= {_SIZE_MAX}, got {out}")
        return out
    return size


def _at_least(parse, low, *, strict: bool = False):
    """parse, then a DimensionError unless the value is >= low (> low if strict)."""
    def bounded(value):
        out = parse(value)
        if out < low or (strict and out == low):
            raise DimensionError(f"must be {'>' if strict else '>='} {low}, got {out}")
        return out
    return bounded


# a seed as every option, config key and file reads it; RngStream keeps its
# own check for library callers, which may pass numpy integers
_SEED = _at_least(_int, 0)


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _distinct(parse):
    """parse, then a DimensionError if the list it reads repeats a value."""
    def distinct(value):
        out = parse(value)
        if len(set(out)) < len(out):
            raise DimensionError(f"repeats a value: {list(out)}")
        return out
    distinct.metavar = parse.metavar
    return distinct


class _where:
    """A context that re-raises a FileFormatError or DimensionError with
    prefix in front of its message, as into if given, else as its own type."""

    def __init__(self, prefix, into=None) -> None:
        self.prefix, self.into = prefix, into

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, (FileFormatError, DimensionError)):
            raise (self.into or kind)(f"{self.prefix}: {exc}") from None


def _parse(key: str, parse, value):
    with _where(key):
        return parse(value)


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


def _config_options(config_cls, *skip: str) -> dict:
    """The fields of a config dataclass as (parser, default) entries, typed
    by the dataclass's own parsers, with its defaults."""
    return {
        key: (config_cls._FIELDS[key], default)
        for key, default in asdict(config_cls()).items() if key not in skip
    }


def _parse_fields(obj, table: dict) -> None:
    """Replace each field of a frozen dataclass by its value as the table's
    parser for that field reads it."""
    for key, parse in table.items():
        object.__setattr__(obj, key, _parse(key, parse, getattr(obj, key)))
