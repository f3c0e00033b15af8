"""Invertible nonlinear mixing for benchmark construction.

A pipeline alternates two volume-preserving moves: a Haar-random
isometry, then an additive coupling step that shifts one half of the
coordinates by a frozen random tanh network of the other half.  Both
moves invert in closed form, so the true sources are always exactly
recoverable and any unmixing score has a well-defined ceiling.  The
coupling networks are the trainer's MlpParams with two hidden layers,
drawn by init_mlp and stored in the model files' w1/b1..w3/b3 layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    _SEED, RngStream, _array_from_json, _at_least, _int, _parse, _read_json_object,
    _require_fields, _size, _where, as_data, sample_haar_orthogonal,
)
from .datagen import SourceSpec
from .errors import DimensionError, FileFormatError
from .trainer import MlpParams, _mlp_forward, _mlp_from_json, _mlp_to_json, init_mlp

__all__ = [
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
# a pipeline's stage count and its coupling nets' hidden width, as read from outside
_ITERATIONS = _at_least(_int, 1)
_HIDDEN = _size(_at_least(_int, 1))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MixingStage:
    """One isometry-plus-coupling step of the pipeline; phi is a copy of
    the given net with two hidden layers, read-only like q."""

    q: np.ndarray
    phi: MlpParams
    parity: str

    def __post_init__(self) -> None:
        q = _frozen(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionError(f"stage matrix must be square, got {q.shape}")
        ortho = np.abs(q.T @ q - np.eye(q.shape[0])).max()
        # written so that a NaN defect fails it too
        if not ortho <= 1e-10:
            raise DimensionError(f"stage matrix is not orthogonal (defect {ortho:.2e})")
        if self.parity not in PARITIES:
            raise DimensionError(f"parity must be one of {PARITIES}, got {self.parity!r}")
        phi = self.phi
        if len(phi.sizes) != 4:
            raise DimensionError(f"coupling net needs two hidden layers, got sizes {phi.sizes}")
        d = q.shape[0]
        want_in, want_out = _coupling_sizes(d, self.parity)
        if (phi.in_size, phi.out_size) != (want_in, want_out):
            raise DimensionError(
                f"{self.parity} stage at d={d} needs phi {want_in}->{want_out}, "
                f"got {phi.in_size}->{phi.out_size}"
            )
        frozen_net = MlpParams(phi.sizes, map(_frozen, phi.weights), map(_frozen, phi.biases))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "phi", frozen_net)

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


def _halves(d: int, parity: str) -> tuple[slice, slice]:
    """Slices of the half a stage's coupling net reads and of the half it
    shifts: an odd stage reads the first half and shifts the second, an
    even stage the reverse; the first half gets the extra coordinate when
    d is odd."""
    first, second = slice(None, (d + 1) // 2), slice((d + 1) // 2, None)
    return (first, second) if parity == "odd" else (second, first)


def _coupling_sizes(d: int, parity: str) -> tuple[int, int]:
    """(in, out) sizes of a stage's coupling net."""
    return tuple(len(range(d)[half]) for half in _halves(d, parity))


def _parity(t: int) -> str:
    """Parity of stage t (1-based): stages alternate, starting odd."""
    return "odd" if t % 2 == 1 else "even"


def build_pipeline(d: int, iterations: int, hidden: int, rng: RngStream) -> MixingPipeline:
    """Construct `iterations` alternating stages from the given stream.

    The result is a pure function of (d, iterations, hidden, stream
    identity): stages draw from named splits, so pipelines rebuilt from
    the same root seed are bit-identical.  A d below 2 is refused by the
    first Haar draw, and fewer than one stage by MixingPipeline.
    """
    hidden = _parse("hidden", _HIDDEN, hidden)
    stages = []
    for t in range(1, iterations + 1):
        branch = rng.split(f"stage-{t}")
        q = sample_haar_orthogonal(d, branch.split("isometry"))
        parity = _parity(t)
        in_size, out_size = _coupling_sizes(d, parity)
        # N(0, 1/fan_in) weights keep per-stage distortion O(1) over long pipelines
        phi = init_mlp((in_size, hidden, hidden, out_size), branch.split("coupling"))
        stages.append(MixingStage(q, phi, parity))
    return MixingPipeline(tuple(stages), d, rng.seed)


def _stage_input(stage: MixingStage, x) -> tuple[np.ndarray, slice, slice]:
    """x checked against the stage, then the stage's _halves."""
    x = as_data(x, min_cols=2, name="stage input")
    if x.shape[1] != stage.d:
        raise DimensionError(f"stage expects d={stage.d}, got {x.shape[1]}")
    return (x, *_halves(stage.d, stage.parity))


def stage_forward(stage: MixingStage, x) -> np.ndarray:
    x, read, shifted = _stage_input(stage, x)
    y = x @ stage.q.T
    y[:, shifted] += _mlp_forward(stage.phi, y[:, read])
    return y


def stage_inverse(stage: MixingStage, y) -> np.ndarray:
    y, read, shifted = _stage_input(stage, y)
    out = y.copy()
    out[:, shifted] -= _mlp_forward(stage.phi, y[:, read])
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


def save_pipeline(path, pipeline: MixingPipeline) -> None:
    doc = {
        "d": pipeline.d,
        "seed": pipeline.seed,
        "stages": [
            {"q": st.q.tolist(), "phi": _mlp_to_json(st.phi), "parity": st.parity}
            for st in pipeline.stages
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_pipeline(path) -> MixingPipeline:
    doc = _read_json_object(path, ("d", "seed", "stages"))
    if not isinstance(doc["stages"], list) or not doc["stages"]:
        raise FileFormatError(f"{path}: 'stages' must be a nonempty list")
    stages = []
    for t, raw in enumerate(doc["stages"], start=1):
        where = f"{path}: stage {t}"
        raw = _require_fields(raw, ("q", "phi", "parity"), where)
        q = _array_from_json(raw["q"], f"{where}.q", 2)
        phi = _mlp_from_json(raw["phi"], f"{where}.phi")
        with _where(where, FileFormatError):
            stages.append(MixingStage(q, phi, raw["parity"]))
    with _where(path, FileFormatError):
        d = _parse("d", SourceSpec._FIELDS["d"], doc["d"])
        return MixingPipeline(tuple(stages), d, _parse("seed", _SEED, doc["seed"]))
