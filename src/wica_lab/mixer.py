"""Invertible nonlinear mixing for benchmark construction.

A pipeline alternates two volume-preserving moves: a Haar-random
isometry, then an additive coupling step that shifts one half of the
coordinates by a frozen random tanh network of the other half.  Both
moves invert in closed form, so the true sources are always exactly
recoverable and any unmixing score has a well-defined ceiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    RngStream, _array_from_json, _read_json_object, _require_fields, as_data,
    sample_haar_orthogonal,
)
from .errors import DimensionError, FileFormatError

__all__ = [
    "CouplingNet",
    "MixingStage",
    "MixingPipeline",
    "build_pipeline",
    "stage_forward",
    "stage_inverse",
    "mix",
    "unmix_exact",
    "save_pipeline",
    "load_pipeline",
]

PARITIES = ("odd", "even")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


_NET_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass(frozen=True, eq=False)
class CouplingNet:
    """Fixed random feed-forward net: two tanh hidden layers, linear out."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self) -> None:
        for name in _NET_FIELDS:
            arr = _frozen(getattr(self, name))
            if not np.all(np.isfinite(arr)):
                raise DimensionError(f"coupling net {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2 or self.w3.ndim != 2:
            raise DimensionError("coupling net weights must be matrices")
        sizes = (
            self.w1.shape[1] == self.b1.shape[0] == self.w2.shape[0],
            self.w2.shape[1] == self.b2.shape[0] == self.w3.shape[0],
            self.w3.shape[1] == self.b3.shape[0],
        )
        if not all(sizes):
            raise DimensionError("coupling net layer sizes are inconsistent")

    @property
    def in_size(self) -> int:
        return self.w1.shape[0]

    @property
    def out_size(self) -> int:
        return self.w3.shape[1]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if u.ndim != 2 or u.shape[1] != self.in_size:
            raise DimensionError(
                f"coupling net expects (*, {self.in_size}) input, got {u.shape}"
            )
        h = np.tanh(u @ self.w1 + self.b1)
        h = np.tanh(h @ self.w2 + self.b2)
        return h @ self.w3 + self.b3


@dataclass(frozen=True, eq=False)
class MixingStage:
    """One isometry-plus-coupling step of the pipeline."""

    q: np.ndarray
    phi: CouplingNet
    parity: str

    def __post_init__(self) -> None:
        q = _frozen(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionError(f"stage matrix must be square, got {q.shape}")
        ortho = np.abs(q.T @ q - np.eye(q.shape[0])).max()
        if ortho > 1e-10:
            raise DimensionError(f"stage matrix is not orthogonal (defect {ortho:.2e})")
        if self.parity not in PARITIES:
            raise DimensionError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        d = q.shape[0]
        want_in, want_out = _coupling_sizes(d, self.parity)
        if (self.phi.in_size, self.phi.out_size) != (want_in, want_out):
            raise DimensionError(
                f"{self.parity} stage at d={d} needs phi {want_in}->{want_out}, "
                f"got {self.phi.in_size}->{self.phi.out_size}"
            )
        object.__setattr__(self, "q", q)

    @property
    def d(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class MixingPipeline:
    stages: tuple[MixingStage, ...]
    d: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise DimensionError("a pipeline needs at least one stage")
        for t, stage in enumerate(self.stages, start=1):
            if stage.d != self.d:
                raise DimensionError(
                    f"stage {t} has d={stage.d}, pipeline has d={self.d}"
                )
            want = _parity(t)
            if stage.parity != want:
                raise DimensionError(f"stage {t} must have {want} parity")

    def __len__(self) -> int:
        return len(self.stages)


def _split_sizes(d: int) -> tuple[int, int]:
    # first half gets the extra coordinate when d is odd
    hi = (d + 1) // 2
    return hi, d - hi


def _coupling_sizes(d: int, parity: str) -> tuple[int, int]:
    """(in, out) sizes of a stage's coupling net: an odd stage shifts the
    second half by a function of the first, an even stage the reverse."""
    hi, lo = _split_sizes(d)
    return (hi, lo) if parity == "odd" else (lo, hi)


def _parity(t: int) -> str:
    """Parity of stage t (1-based): stages alternate, starting odd."""
    return "odd" if t % 2 == 1 else "even"


def _random_coupling(in_size: int, hidden: int, out_size: int, rng: RngStream) -> CouplingNet:
    gen = rng.generator()
    # N(0, 1/fan_in) weights keep per-stage distortion O(1) over long pipelines
    w1 = gen.standard_normal((in_size, hidden)) / np.sqrt(in_size)
    w2 = gen.standard_normal((hidden, hidden)) / np.sqrt(hidden)
    w3 = gen.standard_normal((hidden, out_size)) / np.sqrt(hidden)
    zero = np.zeros
    return CouplingNet(w1, zero(hidden), w2, zero(hidden), w3, zero(out_size))


def build_pipeline(d: int, iterations: int, hidden: int, rng: RngStream) -> MixingPipeline:
    """Construct `iterations` alternating stages from the given stream.

    The result is a pure function of (d, iterations, hidden, stream
    identity): stages draw from named splits, so pipelines rebuilt from
    the same root seed are bit-identical.
    """
    if d < 2:
        raise DimensionError(f"mixing needs d >= 2, got d={d}")
    if iterations < 1:
        raise DimensionError(f"iterations must be >= 1, got {iterations}")
    if hidden < 1:
        raise DimensionError(f"hidden width must be >= 1, got {hidden}")
    stages = []
    for t in range(1, iterations + 1):
        branch = rng.split(f"stage-{t}")
        q = sample_haar_orthogonal(d, branch.split("isometry"))
        parity = _parity(t)
        in_size, out_size = _coupling_sizes(d, parity)
        phi = _random_coupling(in_size, hidden, out_size, branch.split("coupling"))
        stages.append(MixingStage(q, phi, parity))
    return MixingPipeline(tuple(stages), d, rng.seed)


def stage_forward(stage: MixingStage, x) -> np.ndarray:
    x = as_data(x, min_cols=2, name="stage input")
    if x.shape[1] != stage.d:
        raise DimensionError(f"stage expects d={stage.d}, got {x.shape[1]}")
    y = x @ stage.q.T
    hi, _ = _split_sizes(stage.d)
    out = y.copy()
    if stage.parity == "odd":
        out[:, hi:] += stage.phi(y[:, :hi])
    else:
        out[:, :hi] += stage.phi(y[:, hi:])
    return out


def stage_inverse(stage: MixingStage, y) -> np.ndarray:
    y = as_data(y, min_cols=2, name="stage input")
    if y.shape[1] != stage.d:
        raise DimensionError(f"stage expects d={stage.d}, got {y.shape[1]}")
    hi, _ = _split_sizes(stage.d)
    out = y.copy()
    if stage.parity == "odd":
        out[:, hi:] -= stage.phi(y[:, :hi])
    else:
        out[:, :hi] -= stage.phi(y[:, hi:])
    return out @ stage.q


def mix(pipeline: MixingPipeline, s) -> np.ndarray:
    x = as_data(s, min_cols=2, name="sources")
    for stage in pipeline.stages:
        x = stage_forward(stage, x)
    return x


def unmix_exact(pipeline: MixingPipeline, x) -> np.ndarray:
    y = as_data(x, min_cols=2, name="mixed data")
    for stage in reversed(pipeline.stages):
        y = stage_inverse(stage, y)
    return y


# ---------------------------------------------------------------------------
# serialization


def _net_to_json(net: CouplingNet) -> dict:
    return {name: getattr(net, name).tolist() for name in _NET_FIELDS}


def _net_from_json(obj, where: str) -> CouplingNet:
    obj = _require_fields(obj, _NET_FIELDS, where)
    parts = {
        name: _array_from_json(obj[name], f"{where}.{name}", 2 if name[0] == "w" else 1)
        for name in _NET_FIELDS
    }
    try:
        return CouplingNet(**parts)
    except DimensionError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def save_pipeline(path, pipeline: MixingPipeline) -> None:
    doc = {
        "d": pipeline.d,
        "seed": pipeline.seed,
        "stages": [
            {"q": st.q.tolist(), "phi": _net_to_json(st.phi), "parity": st.parity}
            for st in pipeline.stages
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_pipeline(path) -> MixingPipeline:
    doc = _read_json_object(path, ("d", "seed", "stages"))
    d, seed, raw_stages = doc["d"], doc["seed"], doc["stages"]
    if not isinstance(d, int) or not isinstance(seed, int):
        raise FileFormatError(f"{path}: 'd' and 'seed' must be integers")
    if not isinstance(raw_stages, list) or not raw_stages:
        raise FileFormatError(f"{path}: 'stages' must be a nonempty list")
    stages = []
    for t, raw in enumerate(raw_stages, start=1):
        where = f"{path}: stage {t}"
        raw = _require_fields(raw, ("q", "phi", "parity"), where)
        q = _array_from_json(raw["q"], f"{where}.q", 2)
        phi = _net_from_json(raw["phi"], f"{where}.phi")
        try:
            stages.append(MixingStage(q, phi, raw["parity"]))
        except DimensionError as exc:
            raise FileFormatError(f"{where}: {exc}") from None
    try:
        return MixingPipeline(tuple(stages), d, seed)
    except DimensionError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
