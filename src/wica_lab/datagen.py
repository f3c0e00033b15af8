"""Synthetic source generation.

Five families, all componentwise normalized on the way out:

* lattice: the regular n-per-axis grid on [-1, 1]^d, the classic
  benchmark input whose mixed image makes distortion visible;
* uniform / laplace: i.i.d. non-Gaussian columns;
* sine_mixture: sinusoids with well-separated random frequencies over a
  long time window, so any two columns sweep out a filled rectangle
  rather than a closed curve;
* fig1_dependent: a 2-D sample with exactly zero empirical Pearson
  correlation but strong dependence (two arcs mirrored through the
  vertical axis), the canonical case where correlation-based checks
  fail and the weighted index does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from .core import (
    RngStream, _at_least, _float, _int, _object, _parse_fields, _parse_options,
    _size, _where, normalize_componentwise,
)
from .errors import DimensionError

__all__ = ["KINDS", "SourceSpec", "generate", "resolve_params"]

_LATTICE_ROW_CAP = 10 ** 6


def resolve_params(kind: str, params) -> dict:
    """Every param of a kind: its parsed value if given, else its default.

    A key the kind does not take or a value of the wrong type is a
    FileFormatError; a degenerate or inverted range is a DimensionError.
    """
    if kind not in KINDS:
        raise DimensionError(f"kind must be one of {KINDS}, got {kind!r}")
    with _where(f"{kind} params"):
        p = _parse_options(_KINDS[kind][1], _object(params))
    for low, high in (("omega_min", "omega_max"), ("radius_min", "radius_max")):
        if low in p and p[low] > p[high]:
            raise DimensionError(f"{low} {p[low]} exceeds {high} {p[high]}")
    return p


@dataclass(frozen=True)
class SourceSpec:
    """What to generate; the same spec always yields the same sample.

    d, n and seed are read by their parsers in _FIELDS, so a value of the
    wrong type is a FileFormatError and one out of range a DimensionError;
    params holds every param of the kind, resolved by resolve_params.
    """

    kind: str
    d: int
    n: int
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    _FIELDS: ClassVar[dict] = {
        "d": _size(_at_least(_int, 2)), "n": _size(_at_least(_int, 2)),
        "seed": _at_least(_int, 0),
    }

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", resolve_params(self.kind, self.params))
        _parse_fields(self, self._FIELDS)
        if self.kind == "fig1_dependent" and self.d != 2:
            raise DimensionError("fig1_dependent is a 2-D construction; set d=2")


def _lattice(spec: SourceSpec, rng: RngStream) -> np.ndarray:
    # n is the per-axis count; total rows are n^d; rng goes unused
    rows = spec.n ** spec.d
    if rows > _LATTICE_ROW_CAP:
        raise DimensionError(
            f"lattice with n={spec.n}, d={spec.d} has {rows} rows, "
            f"cap is {_LATTICE_ROW_CAP}"
        )
    axis = np.linspace(-1.0, 1.0, spec.n)
    grids = np.meshgrid(*([axis] * spec.d), indexing="ij")
    return np.column_stack([g.reshape(-1) for g in grids])


def _uniform(spec: SourceSpec, rng: RngStream) -> np.ndarray:
    return rng.generator().uniform(-1.0, 1.0, size=(spec.n, spec.d))


def _laplace(spec: SourceSpec, rng: RngStream) -> np.ndarray:
    return rng.generator().laplace(0.0, 1.0, size=(spec.n, spec.d))


def _sine_mixture(spec: SourceSpec, rng: RngStream) -> np.ndarray:
    p = spec.params
    gen = rng.generator()
    omegas: list[float] = []
    # rejection keeps frequencies apart; near-equal pairs would trace a
    # closed Lissajous figure and reintroduce dependence
    attempts = 0
    while len(omegas) < spec.d:
        cand = float(gen.uniform(p["omega_min"], p["omega_max"]))
        attempts += 1
        if attempts > 1000 * spec.d:
            raise DimensionError(
                "cannot fit frequencies: shrink min_sep or widen the omega range"
            )
        if all(abs(cand - o) >= p["min_sep"] for o in omegas):
            omegas.append(cand)
    phases = gen.uniform(0.0, 2.0 * np.pi, size=spec.d)
    t = np.linspace(0.0, p["t_max"], spec.n)
    return np.sin(np.outer(t, np.array(omegas)) + phases)


def _fig1_dependent(spec: SourceSpec, rng: RngStream) -> np.ndarray:
    p = spec.params
    gen = rng.generator()
    half = (spec.n + 1) // 2
    theta = gen.uniform(-p["half_angle"], p["half_angle"], size=half)
    radius = gen.uniform(p["radius_min"], p["radius_max"], size=half)
    arc = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    # mirroring through the vertical axis zeroes the empirical Pearson
    # correlation exactly while keeping the two arcs sharply dependent
    both = np.concatenate([arc, arc * np.array([-1.0, 1.0])])
    return both[: spec.n]


# each kind's generator, and its params as (parser, default) entries
_KINDS = {
    "lattice": (_lattice, {}),
    "uniform": (_uniform, {}),
    "laplace": (_laplace, {}),
    "sine_mixture": (_sine_mixture, {
        "t_max": (_at_least(_float, 0.0, strict=True), 200.0), "omega_min": (_float, 1.0),
        "omega_max": (_float, 4.0), "min_sep": (_float, 0.3),
    }),
    "fig1_dependent": (_fig1_dependent, {
        "half_angle": (_at_least(_float, 0.0, strict=True), np.pi / 4.0),
        "radius_min": (_float, 0.9), "radius_max": (_float, 1.1),
    }),
}

KINDS = tuple(_KINDS)


def generate(spec: SourceSpec) -> np.ndarray:
    """Build the sample for a spec, componentwise normalized."""
    rng = RngStream(spec.seed).split(f"datagen-{spec.kind}")
    return normalize_componentwise(_KINDS[spec.kind][0](spec, rng))
