"""Autoencoder training against reconstruction error plus weighted
independence of the code.

The cost of a minibatch X with weighting points p_1..p_K is

    total = rec(X) + beta * wii(normalize(E(X)); p_1..p_K)

and every step minimizes it by exact reverse-mode differentiation
written out by hand: through the decoder, the componentwise
normalization (including its small-sigma guard), the Gaussian log
weights, the weighted covariance and the pair coefficients c_ij.  The
only quantities treated as constants are the weighting points and the
max-shift of the log weights; the shift is exactly gradient-free
because every weighted statistic is invariant to rescaling all weights.

The wii term is evaluated and differentiated by wii.py's kernel, the one
the diagnostics call, once per step on the stack of all K points as
(K, n, d) arrays; its values equal the diagnostics' one point at a time
bit for bit.  A step runs the encoder once, through the public
mlp_forward: the code it returns is normalized once, the points are drawn
from it, and the cost and its gradient reuse that code's activations and
normalization, so a retry after the points collapse redraws only the
points.  wica_cost and cost_gradient set up their inputs through the same
mlp_forward call, so their batch is checked where train's is.

All parameters live in one vector, AutoEncoderModel.theta: encoder
weights, encoder biases, decoder weights, decoder biases, each in layer
order and row-major; every weight and bias is a view into it, and
cost_gradient returns this layout.  The one feed-forward net, MlpParams
with init_mlp, its forward pass and its JSON layout, is also the mixer's
coupling net.

Every forward pass is one layer loop over blocks of rows; _mlp_forward's
docstring gives the block layout and why its bytes are those of one call.

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
    RngStream, _array_from_json, _at_least, _choice, _config_options, _float, _int, _list_of,
    _normalize_parts, _parse, _parse_fields, _parse_options, _read_json_object, _require_fields,
    _size, _where, as_data, normalize_componentwise,
)
from .errors import (
    DimensionError,
    FileFormatError,
    InsufficientDataError,
    TrainingDivergedError,
    WeightCollapseError,
)
from .wii import _NUM_POINTS, _as_points, _points_backward, _points_forward, sample_weighting_points

__all__ = [
    "MlpParams",
    "AutoEncoderModel",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "init_mlp",
    "init_model",
    "mlp_forward",
    "wica_cost",
    "cost_gradient",
    "train",
    "encode",
    "save_model",
    "load_model",
    "save_trace",
]

_COLLAPSE_RETRIES = 5
# rows x width of a block in a forward pass that keeps no activations
_BLOCK_ELEMENTS = 2 ** 19
# multiply-adds of the smallest gemm a sub-block may run: above OpenBLAS's
# small-matrix kernel (M*N*K <= 1e6), which rounds differently
_GEMM_FLOOR = 2 ** 20


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Feed-forward parameters, tanh hidden layers and a linear last layer;
    weights[l] maps sizes[l] -> sizes[l+1].  Entries must be finite."""

    sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "weights", tuple(np.asarray(w, np.float64) for w in self.weights))
        object.__setattr__(self, "biases", tuple(np.asarray(b, np.float64) for b in self.biases))
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
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.sizes[l], self.sizes[l + 1]) or b.shape != (self.sizes[l + 1],):
                raise DimensionError(
                    f"layer {l}: expected weight {self.sizes[l]}x{self.sizes[l + 1]} "
                    f"and bias {self.sizes[l + 1]}, got {w.shape} and {b.shape}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DimensionError(f"layer {l} has non-finite entries")

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
        if d < 2 or {self.encoder.out_size, self.decoder.in_size, self.decoder.out_size} != {d}:
            raise DimensionError(
                "encoder and decoder must both map d -> d with the same d >= 2; got "
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
    read by its parser in _FIELDS, which the CLI's options and load_model
    share, so a value of the wrong type is a FileFormatError and a value
    out of range a DimensionError.
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
        "seed": _at_least(_int, 0), "num_weighting_points": _NUM_POINTS,
        "optimizer": _choice("adam", "sgd"), "log_every": _at_least(_int, 1),
        "hidden_sizes": _list_of(_size(_at_least(_int, 1))), "rec_norm": _choice("mean", "sum"),
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


def _edges(n: int, rows: int) -> list[int]:
    """Starts of the row blocks of an n-row input, then n: blocks of `rows`
    rows, the remainder joining the last; one block if rows is 0 or n < 2*rows."""
    count = max(n // rows, 1) if rows else 1
    return [k * rows for k in range(count)] + [n]


def _mlp_forward(m: MlpParams, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The affine / tanh chain, one layer loop over blocks of rows.

    Given a list, acts collects the input and each layer's output, the
    cache the backward pass reads (tanh' is recovered as 1 - a^2), and
    all rows run as one block, each layer into a fresh array.  Without
    one, a block has _BLOCK_ELEMENTS // max(m.sizes) rows (4096 at width
    128; one block if the width exceeds _BLOCK_ELEMENTS), the remainder
    joining the last, and each hidden layer writes the view buf[:r, :width]
    of a 2-D buffer: the first layer of the block buffer; the middle layers,
    in sub-blocks of rows // 8 rows (512 at width 128, 4096 for the mixer's
    width-16 nets), of a pair of sub-block buffers, the last of them back
    into the block-buffer rows it has just read.  Either way the output
    layer writes into one (n, out_size) array.

    Rows of a gemm do not depend on each other, so the bytes are those of
    one call, as long as every call runs the same BLAS kernel: OpenBLAS
    takes a small-matrix kernel for M*N*K <= 1e6, which the d=2 output
    layer (M x 128)(128 x 2) reaches below 3907 rows.  No block of a larger
    input is that small, the first and output layers run on whole blocks,
    and a sub-block grows until every middle layer does at least
    _GEMM_FLOOR multiply-adds, up to the whole block (hidden (128, 8, 8)).
    A width-1 hidden layer is the known exception at more than one BLAS
    thread: with hidden (128, 128, 1, 128), d=16 and 17618 rows, two rows
    differ from the one call at two threads, likely where OpenBLAS splits
    the 128 -> 1 product across threads by row count; at one thread the
    bytes agree.
    """
    n, hidden, last = x.shape[0], m.sizes[1:-1], len(m.weights) - 1
    out = np.empty((n, m.out_size))
    if acts is not None:
        acts.append(x)
        blocks, sub, block, pair = [0, n], n, None, (None, None)
    else:
        rows = _BLOCK_ELEMENTS // max(m.sizes)
        sub = max([rows // 8] + [-(-_GEMM_FLOOR // (a * b)) for a, b in zip(hidden, hidden[1:])])
        blocks = _edges(n, rows)
        # the largest sub-block ends a first-sized or the last block
        most = max(r - _edges(r, sub)[-2] for r in (blocks[1], n - blocks[-2]))
        block = np.empty((n - blocks[-2], max(hidden[:1] + hidden[-1:], default=0)))
        pair = np.empty((2, most, max(hidden[1:-1], default=0)))

    def rows_of(buf, r: int, width: int) -> np.ndarray:
        # a layer's output: fresh when collecting, else r x width of buf
        return np.empty((r, width)) if buf is None else buf[:r, :width]

    def layer(l: int, a: np.ndarray, dest: np.ndarray) -> np.ndarray:
        # in place, so that a layer writes one array of its output's size
        a = np.matmul(a, m.weights[l], out=dest)
        a += m.biases[l]
        if l < last:
            np.tanh(a, out=a)
        if acts is not None:
            acts.append(a)
        return a

    for start, stop in zip(blocks, blocks[1:]):
        r = stop - start
        a = x[start:stop]
        if last:
            a = layer(0, a, rows_of(block, r, hidden[0]))
        if last > 1:
            back = rows_of(block, r, hidden[-1])
            subs = _edges(r, sub)
            for i, j in zip(subs, subs[1:]):
                # a lone middle layer writes over the rows it reads: numpy's
                # matmul then reads a copy of the sub-block
                h = a[i:j]
                for l in range(1, last):
                    dest = back[i:j] if l == last - 1 else rows_of(pair[l % 2], j - i, hidden[l])
                    h = layer(l, h, dest)
            a = back
        layer(last, a, out[start:stop])
    return out


def mlp_forward(m: MlpParams, x, *, return_activations: bool = False):
    """Affine / tanh chain with a linear last layer.

    With return_activations=True the result is (out, acts): acts[0] is the
    input and acts[l + 1] the output of layer l, the cache the backward
    pass reads.  train takes it so that a step runs its encoder once, for
    drawing the weighting points and for the cost and gradient alike.
    Without it the rows run in blocks through two reused buffers
    (_mlp_forward), and no layer's output is kept.
    """
    x = as_data(x, name="input")
    if x.shape[1] != m.in_size:
        raise DimensionError(f"expected {m.in_size} input columns, got {x.shape[1]}")
    if not return_activations:
        return _mlp_forward(m, x)
    acts: list[np.ndarray] = []
    return _mlp_forward(m, x, acts), acts


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


# ---------------------------------------------------------------------------
# the cost and its exact gradient


def _cost_forward_backward(
    model: AutoEncoderModel, enc_acts: list[np.ndarray], norm, points: np.ndarray,
    cfg: TrainConfig, *, need_grad: bool,
):
    """The cost of a batch, and its gradient if need_grad, given the
    encoder's activations on the batch (enc_acts[0] is the batch,
    enc_acts[-1] the code) and _normalize_parts of the code.  The index
    comes first, so a step whose points all collapse raises before the
    decoder runs."""
    x = enc_acts[0]
    n = x.shape[0]
    y, u, sigma, denom = norm
    values, cache = _points_forward(y, points)
    wii_value = float(np.add.reduce(values) / len(values))
    dec_acts: list[np.ndarray] = []
    recon = _mlp_forward(model.decoder, enc_acts[-1], dec_acts)
    resid = recon - x
    rec = float((resid ** 2).sum())
    if cfg.rec_norm == "mean":
        rec /= n
    total = rec + cfg.beta * wii_value
    if not need_grad:
        return total, rec, wii_value, None

    # reconstruction path
    d_recon = 2.0 * resid / (n if cfg.rec_norm == "mean" else 1)
    dec_gw, dec_gb, d_enc_out = _mlp_backward(model.decoder, dec_acts, d_recon)

    # independence path: dY summed over the surviving points, then pulled
    # back through the normalization
    if cfg.beta != 0.0:
        d_y = _points_backward(y, cache, cfg.beta / len(values))
        g_mean = d_y.mean(axis=0)
        g_dot_u = np.einsum("ij,ij->j", d_y, u)
        d_enc_norm = (d_y - g_mean) / denom
        live = sigma > 0.0
        slope = np.where(live, g_dot_u / (n * np.where(live, sigma, 1.0) * denom ** 2), 0.0)
        d_enc_out = d_enc_out + d_enc_norm - u * slope
    enc_gw, enc_gb, _ = _mlp_backward(model.encoder, enc_acts, d_enc_out)
    grad = np.concatenate([g.reshape(-1) for g in enc_gw + enc_gb + dec_gw + dec_gb])
    return total, rec, wii_value, grad


def _cost_inputs(model: AutoEncoderModel, x, points):
    """Check the points, run the encoder on the batch as train does and
    normalize the code: the inputs of _cost_forward_backward after the model."""
    points = _as_points(points, model.d)
    code, enc_acts = mlp_forward(model.encoder, x, return_activations=True)
    return enc_acts, _normalize_parts(code), points


def wica_cost(
    model: AutoEncoderModel, x, points, cfg: TrainConfig
) -> tuple[float, float, float]:
    """(total, rec, wii) of a batch at fixed weighting points."""
    total, rec, wii_value, _ = _cost_forward_backward(
        model, *_cost_inputs(model, x, points), cfg, need_grad=False
    )
    return total, rec, wii_value


def cost_gradient(model: AutoEncoderModel, x, points, cfg: TrainConfig) -> np.ndarray:
    """Exact gradient of wica_cost's total w.r.t. model.theta, in its layout."""
    _, _, _, grad = _cost_forward_backward(
        model, *_cost_inputs(model, x, points), cfg, need_grad=True
    )
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
    points up to 5 times before giving up.  The encoder runs once per step.
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
    # an overflowing std would diverge at step 1; n * range**2 bounds the sum
    # of squares, so only where it overflows does the full check run
    with np.errstate(over="ignore"):
        if not np.isfinite(n * (x.max(axis=0) - x.min(axis=0)) ** 2).all():
            normalize_componentwise(x)
    root = RngStream(cfg.seed)
    model = init_model(d, cfg.hidden_sizes, root.split("init"))
    batch_gen = root.split("batches").generator()
    points_rng = root.split("points")

    opt = (_Adam if cfg.optimizer == "adam" else _Sgd)(model.theta, cfg.learning_rate)
    records: list[TraceRecord] = []
    for step in range(1, cfg.steps + 1):
        idx = batch_gen.choice(n, size=cfg.batch_size, replace=False)
        code, enc_acts = mlp_forward(model.encoder, x[idx], return_activations=True)
        norm = _normalize_parts(code)
        outcome = None
        for _ in range(1 + _COLLAPSE_RETRIES):
            points = sample_weighting_points(norm[0], cfg.num_weighting_points, points_rng)
            try:
                outcome = _cost_forward_backward(
                    model, enc_acts, norm, points, cfg, need_grad=True
                )
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
    with _where(where, FileFormatError):
        return MlpParams(sizes, weights, biases)


def load_model(path) -> tuple[AutoEncoderModel, TrainConfig]:
    doc = _read_json_object(path, ("d", "config", "encoder", "decoder"))
    given = _require_fields(doc["config"], (), f"{path}: config")
    with _where(f"{path}: bad config", FileFormatError):
        cfg = TrainConfig(**_parse_options(_config_options(TrainConfig), given))
    encoder = _mlp_from_json(doc["encoder"], f"{path}: encoder")
    decoder = _mlp_from_json(doc["decoder"], f"{path}: decoder")
    with _where(path, FileFormatError):
        d = _parse("d", _at_least(_int, 2), doc["d"])
        model = AutoEncoderModel(encoder, decoder)
    if model.d != d:
        raise FileFormatError(f"{path}: 'd' is {d} but nets have d={model.d}")
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
