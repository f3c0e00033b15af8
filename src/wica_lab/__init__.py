"""Weighted-independence nonlinear ICA toolkit.

The package turns the weighted independence index (wii) into a training
objective: synthesize independent sources, scramble them with an exactly
invertible nonlinear mixing, fit an autoencoder whose cost adds the wii
of the encoded batch to the reconstruction error, and score the encoder
output against the true sources with permutation-matched rank
correlations.
"""

from .core import (
    RngStream,
    load_csv,
    normalize_componentwise,
    pearson_corr_matrix,
    sample_haar_orthogonal,
    save_csv,
)
from .datagen import KINDS, SourceSpec, generate
from .errors import (
    DegenerateColumnError,
    DimensionError,
    FileFormatError,
    InsufficientDataError,
    NonFiniteError,
    NumericalError,
    TrainingDivergedError,
    WeightCollapseError,
    WicaError,
)
from .metrics import ScoreReport, ots, save_report, score, solve_assignment
from .mixer import (
    MixingPipeline,
    MixingStage,
    build_pipeline,
    load_pipeline,
    mix,
    save_pipeline,
    unmix_exact,
)
from .trainer import (
    AutoEncoderModel,
    MlpParams,
    TrainConfig,
    TrainTrace,
    cost_gradient,
    encode,
    load_model,
    save_model,
    save_trace,
    train,
    wica_cost,
)
from .wii import (
    WiiConfig,
    wii_at_point,
    wii_index,
    wii_multi,
)

__version__ = "0.1.0"

__all__ = [
    "AutoEncoderModel",
    "DegenerateColumnError",
    "DimensionError",
    "FileFormatError",
    "InsufficientDataError",
    "KINDS",
    "MixingPipeline",
    "MixingStage",
    "MlpParams",
    "NonFiniteError",
    "NumericalError",
    "RngStream",
    "ScoreReport",
    "SourceSpec",
    "TrainConfig",
    "TrainTrace",
    "TrainingDivergedError",
    "WeightCollapseError",
    "WicaError",
    "WiiConfig",
    "build_pipeline",
    "cost_gradient",
    "encode",
    "generate",
    "load_csv",
    "load_model",
    "load_pipeline",
    "mix",
    "normalize_componentwise",
    "ots",
    "pearson_corr_matrix",
    "sample_haar_orthogonal",
    "save_csv",
    "save_model",
    "save_pipeline",
    "save_report",
    "save_trace",
    "score",
    "solve_assignment",
    "train",
    "unmix_exact",
    "wica_cost",
    "wii_at_point",
    "wii_index",
    "wii_multi",
]
