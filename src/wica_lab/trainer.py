"""Autoencoder training against reconstruction error plus weighted
independence of the code.

The cost of a minibatch X with weighting points p_1..p_K is

    total = rec_error(X) + beta * wii(normalize(E(X)); p_1..p_K)

and every step minimizes it by exact reverse-mode differentiation
written out by hand: through the decoder, the componentwise
normalization (including its small-sigma guard), the Gaussian log
weights, the weighted covariance and the pair coefficients c_ij.  The
only quantities treated as constants are the weighting points and the
max-shift of the log weights; the shift is exactly gradient-free
because every weighted statistic is invariant to rescaling all weights.

The wii term is evaluated and differentiated by wii.py's kernel, the one
the diagnostics call.  All parameters live in one vector,
AutoEncoderModel.theta: encoder weights, encoder biases, decoder weights,
decoder biases, each in layer order and row-major; every weight and bias
is a view into it, and cost_gradient returns this layout.

Nothing here calls an autodiff framework; the gradient is validated
against central finite differences in the test suite.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np

from .core import (
    RngStream, _array_from_json, _at_least, _choice, _float, _int, _list_of, _normalize_parts,
    _optional, _parse_fields, _read_json_object, _require_fields, as_data,
)
from .errors import (
    DimensionError,
    FileFormatError,
    InsufficientDataError,
    TrainingDivergedError,
    WeightCollapseError,
)
from .wii import _map_surviving_points, _point_backward, _point_forward, sample_weighting_points

__all__ = [
    "MlpParams",
    "AutoEncoderModel",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "init_mlp",
    "init_model",
    "mlp_forward",
    "rec_error",
    "wica_cost",
    "cost_gradient",
    "train",
    "encode",
    "save_model",
    "load_model",
    "save_trace",
    "load_trace",
]

_COLLAPSE_RETRIES = 5


@dataclass(eq=False)
class MlpParams:
    """Feed-forward parameters, tanh hidden layers and a linear last layer;
    weights[l] maps sizes[l] -> sizes[l+1]."""

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.sizes) < 2:
            raise DimensionError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in self.sizes):
            raise DimensionError(f"layer sizes must be positive: {self.sizes}")
        n_layers = len(self.sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise DimensionError(
                f"{n_layers} layers need {n_layers} weight/bias pairs, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        for l in range(n_layers):
            w = np.asarray(self.weights[l], dtype=np.float64)
            b = np.asarray(self.biases[l], dtype=np.float64)
            if w.shape != (self.sizes[l], self.sizes[l + 1]) or b.shape != (self.sizes[l + 1],):
                raise DimensionError(
                    f"layer {l}: expected weight {self.sizes[l]}x{self.sizes[l + 1]} "
                    f"and bias {self.sizes[l + 1]}, got {w.shape} and {b.shape}"
                )
            self.weights[l] = w
            self.biases[l] = b

    @property
    def in_size(self) -> int:
        return self.sizes[0]

    @property
    def out_size(self) -> int:
        return self.sizes[-1]


@dataclass(eq=False)
class AutoEncoderModel:
    """Encoder and decoder over views into a fresh copy of their
    parameters, theta; the arguments are left untouched."""

    encoder: MlpParams
    decoder: MlpParams
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = self.encoder.in_size
        if self.encoder.out_size != d or self.decoder.in_size != d or self.decoder.out_size != d:
            raise DimensionError(
                "encoder and decoder must both map d -> d with the same d; got "
                f"encoder {self.encoder.sizes}, decoder {self.decoder.sizes}"
            )
        parts = [a for m in (self.encoder, self.decoder) for a in m.weights + m.biases]
        self.theta = np.concatenate([a.reshape(-1) for a in parts])
        views = iter(np.split(self.theta, np.cumsum([a.size for a in parts])[:-1]))
        self.encoder, self.decoder = (
            replace(
                m,
                weights=[next(views).reshape(w.shape) for w in m.weights],
                biases=[next(views).reshape(b.shape) for b in m.biases],
            )
            for m in (self.encoder, self.decoder)
        )

    @property
    def d(self) -> int:
        return self.encoder.in_size


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run depends on; two configs equal means two runs equal.

    num_weighting_points=None resolves to d.  rec_norm picks whether the
    reconstruction term is a batch mean ("mean", default, keeps beta
    comparable across batch sizes) or the raw sum ("sum").  Each field is
    read by its parser in _FIELDS, which the CLI's options share, so a
    value of the wrong type is a FileFormatError and a value out of range
    a DimensionError.
    """

    beta: float = 1.0
    batch_size: int = 256
    steps: int = 5000
    learning_rate: float = 1e-3
    seed: int = 0
    num_weighting_points: int | None = None
    optimizer: str = "adam"
    log_every: int = 50
    hidden_sizes: tuple[int, ...] = (128, 128, 128)
    rec_norm: str = "mean"

    _FIELDS: ClassVar[dict] = {
        "beta": _at_least(_float, 0.0), "batch_size": _at_least(_int, 2),
        "steps": _at_least(_int, 0), "learning_rate": _at_least(_float, 0.0, strict=True),
        "seed": _at_least(_int, 0), "num_weighting_points": _optional(_at_least(_int, 1)),
        "optimizer": _choice("adam", "sgd"), "log_every": _at_least(_int, 1),
        "hidden_sizes": _list_of(_at_least(_int, 1)), "rec_norm": _choice("mean", "sum"),
    }

    def __post_init__(self) -> None:
        _parse_fields(self, self._FIELDS)


class TraceRecord(NamedTuple):
    step: int
    rec_error: float
    wii: float
    total: float


@dataclass(frozen=True)
class TrainTrace:
    records: tuple[TraceRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "records", tuple(TraceRecord(*r) for r in self.records)
        )


# ---------------------------------------------------------------------------
# construction and forward passes


def init_mlp(sizes, rng: RngStream) -> MlpParams:
    """Weights N(0, 1/fan_in), biases zero, drawn in layer order."""
    sizes = tuple(int(s) for s in sizes)
    gen = rng.generator()
    weights = []
    biases = []
    for l in range(len(sizes) - 1):
        fan_in = sizes[l]
        weights.append(gen.standard_normal((fan_in, sizes[l + 1])) / np.sqrt(fan_in))
        biases.append(np.zeros(sizes[l + 1]))
    return MlpParams(sizes, weights, biases)


def init_model(d: int, hidden_sizes, rng: RngStream) -> AutoEncoderModel:
    if d < 2:
        raise DimensionError(f"need d >= 2, got {d}")
    sizes = (d, *tuple(int(h) for h in hidden_sizes), d)
    encoder = init_mlp(sizes, rng.split("encoder"))
    decoder = init_mlp(sizes, rng.split("decoder"))
    return AutoEncoderModel(encoder, decoder)


def _mlp_forward_cached(m: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    # caches activations per layer; tanh' is recovered as 1 - a^2
    acts = [x]
    a = x
    last = len(m.weights) - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        a = a @ w + b
        if l < last:
            a = np.tanh(a)
        acts.append(a)
    return a, acts


def mlp_forward(m: MlpParams, x) -> np.ndarray:
    """Affine / tanh chain with a linear last layer."""
    x = as_data(x, name="input")
    if x.shape[1] != m.in_size:
        raise DimensionError(f"expected {m.in_size} input columns, got {x.shape[1]}")
    out, _ = _mlp_forward_cached(m, x)
    return out


def _mlp_backward(
    m: MlpParams, acts: list[np.ndarray], d_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Gradients of all layers plus the gradient w.r.t. the input."""
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


def encode(model: AutoEncoderModel, x) -> np.ndarray:
    """The retrieved signals: encoder forward pass only."""
    return mlp_forward(model.encoder, x)


def rec_error(model: AutoEncoderModel, x, *, rec_norm: str = "mean") -> float:
    """Summed squared reconstruction error, optionally divided by N."""
    x = as_data(x, name="batch")
    recon = mlp_forward(model.decoder, mlp_forward(model.encoder, x))
    sq = float(((recon - x) ** 2).sum())
    return sq / x.shape[0] if rec_norm == "mean" else sq


# ---------------------------------------------------------------------------
# the cost and its exact gradient


def _cost_forward_backward(
    model: AutoEncoderModel, x: np.ndarray, points: np.ndarray,
    cfg: TrainConfig, *, need_grad: bool,
):
    n = x.shape[0]
    enc_out, enc_acts = _mlp_forward_cached(model.encoder, x)
    recon, dec_acts = _mlp_forward_cached(model.decoder, enc_out)
    resid = recon - x
    rec = float((resid ** 2).sum())
    if cfg.rec_norm == "mean":
        rec /= n

    y, u, sigma, denom = _normalize_parts(enc_out)
    survivors = _map_surviving_points(lambda p: (p, _point_forward(y, p)), points)
    wii_value = float(np.mean([out[0] for _, out in survivors]))
    total = rec + cfg.beta * wii_value
    if not need_grad:
        return total, rec, wii_value, None

    # reconstruction path
    d_recon = 2.0 * resid / (n if cfg.rec_norm == "mean" else 1)
    dec_gw, dec_gb, d_enc_out = _mlp_backward(model.decoder, dec_acts, d_recon)

    # independence path: accumulate dY over surviving points, then pull
    # back through the normalization
    if cfg.beta != 0.0:
        coef = cfg.beta / len(survivors)
        d_y = np.zeros_like(y)
        for p, (_, w, total_w, centered, z) in survivors:
            d_y += coef * _point_backward(y, p, w, total_w, centered, z)
        g_mean = d_y.mean(axis=0)
        g_dot_u = np.einsum("ij,ij->j", d_y, u)
        d_enc_norm = (d_y - g_mean) / denom
        live = sigma > 0.0
        slope = np.where(live, g_dot_u / (n * np.where(live, sigma, 1.0) * denom ** 2), 0.0)
        d_enc_out = d_enc_out + d_enc_norm - u * slope
    enc_gw, enc_gb, _ = _mlp_backward(model.encoder, enc_acts, d_enc_out)
    grad = np.concatenate([g.reshape(-1) for g in enc_gw + enc_gb + dec_gw + dec_gb])
    return total, rec, wii_value, grad


def _check_cost_inputs(model: AutoEncoderModel, x, points) -> tuple[np.ndarray, np.ndarray]:
    x = as_data(x, min_cols=2, name="batch")
    points = as_data(points, name="weighting points")
    if x.shape[1] != model.d:
        raise DimensionError(f"model has d={model.d}, batch has {x.shape[1]} columns")
    if points.shape[1] != model.d:
        raise DimensionError(
            f"weighting points must have {model.d} columns, got {points.shape[1]}"
        )
    return x, points


def wica_cost(
    model: AutoEncoderModel, x, points, cfg: TrainConfig
) -> tuple[float, float, float]:
    """(total, rec, wii) of a batch at fixed weighting points."""
    x, points = _check_cost_inputs(model, x, points)
    total, rec, wii_value, _ = _cost_forward_backward(
        model, x, points, cfg, need_grad=False
    )
    return total, rec, wii_value


def cost_gradient(model: AutoEncoderModel, x, points, cfg: TrainConfig) -> np.ndarray:
    """Exact gradient of wica_cost's total w.r.t. model.theta, in its layout."""
    x, points = _check_cost_inputs(model, x, points)
    _, _, _, grad = _cost_forward_backward(model, x, points, cfg, need_grad=True)
    return grad


# ---------------------------------------------------------------------------
# optimization


class _Adam:
    def __init__(self, theta: np.ndarray, lr: float) -> None:
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        theta -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


class _Sgd:
    def __init__(self, theta: np.ndarray, lr: float) -> None:
        self.lr = lr

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        theta -= self.lr * g


def train(x, cfg: TrainConfig) -> tuple[AutoEncoderModel, TrainTrace]:
    """Run the full minibatch loop; deterministic in (x, cfg).

    Weighting points are redrawn from the current normalized code at
    every step; a step whose points all collapse retries with fresh
    points up to 5 times before giving up.
    """
    x = as_data(x, min_cols=2, name="training data")
    n, d = x.shape
    if cfg.batch_size < d:
        raise DimensionError(
            f"batch_size {cfg.batch_size} is below d={d}: a weighting point "
            "is the mean of d distinct rows of a batch"
        )
    if cfg.batch_size > n:
        raise InsufficientDataError(
            f"batch_size {cfg.batch_size} exceeds the {n} available rows"
        )
    root = RngStream(cfg.seed)
    model = init_model(d, cfg.hidden_sizes, root.split("init"))
    batch_gen = root.split("batches").generator()
    points_rng = root.split("points")
    num_points = cfg.num_weighting_points or d

    opt = (_Adam if cfg.optimizer == "adam" else _Sgd)(model.theta, cfg.learning_rate)
    records: list[TraceRecord] = []
    for step in range(1, cfg.steps + 1):
        idx = batch_gen.choice(n, size=cfg.batch_size, replace=False)
        xb = x[idx]
        outcome = None
        for _ in range(1 + _COLLAPSE_RETRIES):
            code = mlp_forward(model.encoder, xb)
            y = _normalize_parts(code)[0]
            points = sample_weighting_points(y, num_points, points_rng)
            try:
                outcome = _cost_forward_backward(model, xb, points, cfg, need_grad=True)
                break
            except WeightCollapseError as exc:
                last = exc
        if outcome is None:
            raise last
        total, rec, wii_value, grad = outcome
        if not np.isfinite(total):
            raise TrainingDivergedError(step, total)
        opt.step(model.theta, grad)
        if not np.isfinite(model.theta).all():
            raise TrainingDivergedError(step, float("nan"))
        if step == 1 or step % cfg.log_every == 0 or step == cfg.steps:
            records.append(TraceRecord(step, float(rec), float(wii_value), float(total)))
    return model, TrainTrace(tuple(records))


# ---------------------------------------------------------------------------
# serialization


def _mlp_to_json(m: MlpParams) -> dict:
    doc: dict = {}
    for l, (w, b) in enumerate(zip(m.weights, m.biases), start=1):
        doc[f"w{l}"] = w.tolist()
        doc[f"b{l}"] = b.tolist()
    return doc


def save_model(path, model: AutoEncoderModel, cfg: TrainConfig) -> None:
    doc = {
        "d": model.d,
        "config": asdict(cfg),
        "encoder": _mlp_to_json(model.encoder),
        "decoder": _mlp_to_json(model.decoder),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _mlp_from_json(obj, where: str) -> MlpParams:
    n_layers = len(_require_fields(obj, (), where)) // 2
    layers = range(1, n_layers + 1)
    if n_layers < 1 or len(obj) != 2 * n_layers:
        raise FileFormatError(f"{where}: expected w1/b1..wL/bL fields")
    _require_fields(obj, [f"{p}{l}" for l in layers for p in "wb"], where)
    weights = [_array_from_json(obj[f"w{l}"], f"{where}.w{l}", 2) for l in layers]
    biases = [_array_from_json(obj[f"b{l}"], f"{where}.b{l}", 1) for l in layers]
    sizes = (weights[0].shape[0], *(w.shape[1] for w in weights))
    try:
        return MlpParams(sizes, weights, biases)
    except DimensionError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def load_model(path) -> tuple[AutoEncoderModel, TrainConfig]:
    doc = _read_json_object(path, ("d", "config", "encoder", "decoder"))
    try:
        cfg = TrainConfig(**_require_fields(doc["config"], (), f"{path}: config"))
    except (TypeError, ValueError, FileFormatError) as exc:
        raise FileFormatError(f"{path}: bad config: {exc}") from None
    encoder = _mlp_from_json(doc["encoder"], f"{path}: encoder")
    decoder = _mlp_from_json(doc["decoder"], f"{path}: decoder")
    try:
        model = AutoEncoderModel(encoder, decoder)
    except DimensionError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if model.d != doc["d"]:
        raise FileFormatError(f"{path}: 'd' is {doc['d']} but nets have d={model.d}")
    for name, net in (("encoder", model.encoder), ("decoder", model.decoder)):
        if net.sizes[1:-1] != cfg.hidden_sizes:
            raise FileFormatError(
                f"{path}: config.hidden_sizes is {list(cfg.hidden_sizes)} but the "
                f"{name} has layer sizes {list(net.sizes)}"
            )
    return model, cfg


def save_trace(path, trace: TrainTrace) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "rec_error", "wii", "total"])
        for r in trace.records:
            writer.writerow([r.step, repr(r.rec_error), repr(r.wii), repr(r.total)])


def load_trace(path) -> TrainTrace:
    path = Path(path)
    try:
        with path.open("r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["step", "rec_error", "wii", "total"]:
                raise FileFormatError(f"{path}: bad trace header {header!r}")
            records = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise FileFormatError(f"{path}:{lineno}: expected 4 fields")
                try:
                    records.append(
                        TraceRecord(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
                    )
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    return TrainTrace(tuple(records))
