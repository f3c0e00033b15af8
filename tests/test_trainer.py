"""Autoencoder cost, hand-written gradient, and the training loop."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wica_lab import trainer
from wica_lab.core import RngStream, normalize_componentwise, sample_haar_orthogonal
from wica_lab.errors import (
    DimensionError,
    FileFormatError,
    InsufficientDataError,
    TrainingDivergedError,
    WeightCollapseError,
)
from wica_lab.trainer import (
    AutoEncoderModel,
    MlpParams,
    TraceRecord,
    TrainConfig,
    TrainTrace,
    cost_gradient,
    encode,
    init_mlp,
    init_model,
    load_model,
    mlp_forward,
    save_model,
    save_trace,
    train,
    wica_cost,
)
from wica_lab.wii import sample_weighting_points, wii_multi

from oracles import (
    fd_model_gradient,
    loop_weighted_cov,
    model_param_vector,
    with_param_vector,
)


def _identity_mlp(d: int) -> MlpParams:
    return MlpParams((d, d), [np.eye(d)], [np.zeros(d)])


def _identity_model(d: int) -> AutoEncoderModel:
    return AutoEncoderModel(_identity_mlp(d), _identity_mlp(d))


def _loop_mlp_forward(m: MlpParams, x: np.ndarray) -> np.ndarray:
    """Row-by-row scalar re-evaluation of the affine/tanh chain."""
    out = np.empty((x.shape[0], m.out_size))
    last = len(m.weights) - 1
    for i in range(x.shape[0]):
        a = list(x[i])
        for l, (w, b) in enumerate(zip(m.weights, m.biases)):
            nxt = []
            for k in range(w.shape[1]):
                s = b[k]
                for j in range(w.shape[0]):
                    s += a[j] * w[j, k]
                nxt.append(math.tanh(s) if l < last else s)
            a = nxt
        out[i] = a
    return out


# ---------------------------------------------------------------------------
# construction


def test_init_mlp_shapes_and_zero_biases():
    m = init_mlp((3, 5, 2), RngStream(0).split("m"))
    assert m.sizes == (3, 5, 2)
    assert m.weights[0].shape == (3, 5) and m.weights[1].shape == (5, 2)
    assert np.array_equal(m.biases[0], np.zeros(5))
    assert np.array_equal(m.biases[1], np.zeros(2))


def test_init_mlp_fan_in_scaling():
    # a 400 -> 300 layer has enough entries to pin the 1/sqrt(fan_in) std
    m = init_mlp((400, 300), RngStream(1).split("m"))
    std = m.weights[0].std()
    assert abs(std - 1.0 / 20.0) < 0.005


def test_init_model_is_deterministic():
    a = init_model(3, (8, 8), RngStream(5).split("init"))
    b = init_model(3, (8, 8), RngStream(5).split("init"))
    for pa, pb in zip(
        a.encoder.weights + a.decoder.weights, b.encoder.weights + b.decoder.weights
    ):
        assert np.array_equal(pa, pb)


def test_init_model_encoder_and_decoder_differ():
    m = init_model(3, (8,), RngStream(5).split("init"))
    assert not np.array_equal(m.encoder.weights[0], m.decoder.weights[0])


def test_init_model_rejects_small_d():
    with pytest.raises(DimensionError):
        init_model(1, (8,), RngStream(0))


def test_mlp_params_validation():
    with pytest.raises(DimensionError):
        MlpParams((3,), [], [])
    with pytest.raises(DimensionError):
        MlpParams((2, 2), [np.eye(2), np.eye(2)], [np.zeros(2)])
    with pytest.raises(DimensionError):
        MlpParams((2, 3), [np.eye(2)], [np.zeros(3)])


def test_autoencoder_requires_matching_d():
    with pytest.raises(DimensionError):
        AutoEncoderModel(_identity_mlp(2), _identity_mlp(3))
    with pytest.raises(DimensionError):
        AutoEncoderModel(
            MlpParams((2, 3), [np.zeros((2, 3))], [np.zeros(3)]), _identity_mlp(2)
        )


def test_train_config_validation():
    bad = [
        dict(beta=-0.1),
        dict(batch_size=1),
        dict(steps=-1),
        dict(learning_rate=0.0),
        dict(seed=-1),
        dict(num_weighting_points=0),
        dict(optimizer="rmsprop"),
        dict(log_every=0),
        dict(hidden_sizes=(0,)),
        dict(rec_norm="median"),
    ]
    for kwargs in bad:
        with pytest.raises(DimensionError):
            TrainConfig(**kwargs)
    # a value of the wrong type, never truncated or cast
    for kwargs in [dict(beta=float("nan")), dict(steps=1.5), dict(beta=True),
                   dict(hidden_sizes=(2.7,))]:
        with pytest.raises(FileFormatError):
            TrainConfig(**kwargs)
    assert TrainConfig().num_weighting_points is None
    assert TrainConfig(hidden_sizes=[16, 16]).hidden_sizes == (16, 16)


# ---------------------------------------------------------------------------
# forward passes


def test_mlp_forward_single_linear_layer():
    m = MlpParams((2, 2), [np.array([[2.0, 0.0], [0.0, 3.0]])], [np.array([1.0, -1.0])])
    y = mlp_forward(m, np.array([[1.0, 1.0], [0.5, -2.0]]))
    assert np.array_equal(y, np.array([[3.0, 2.0], [2.0, -7.0]]))


def test_mlp_forward_matches_loop_oracle():
    for seed, sizes in [(0, (2, 5, 4, 3)), (1, (4, 3, 4)), (2, (3, 3))]:
        m = init_mlp(sizes, RngStream(seed).split("m"))
        x = RngStream(seed).split("x").generator().standard_normal((17, sizes[0]))
        assert np.max(np.abs(mlp_forward(m, x) - _loop_mlp_forward(m, x))) <= 1e-12


def test_mlp_forward_rejects_wrong_width():
    m = init_mlp((3, 4, 2), RngStream(0).split("m"))
    with pytest.raises(DimensionError):
        mlp_forward(m, np.zeros((5, 2)))


def test_mlp_forward_returns_its_activations_on_request():
    m = init_mlp((3, 8, 5, 3), RngStream(5).split("m"))
    x = RngStream(6).split("x").generator().standard_normal((40, 3))
    before = x.copy()
    out, acts = mlp_forward(m, x, return_activations=True)
    assert out.tobytes() == mlp_forward(m, x).tobytes()
    assert [a.shape for a in acts] == [(40, 3), (40, 8), (40, 5), (40, 3)]
    assert acts[0].tobytes() == before.tobytes() and acts[-1].tobytes() == out.tobytes()
    assert x.tobytes() == before.tobytes()


def test_encode_is_encoder_forward():
    model = init_model(3, (8, 8), RngStream(3).split("init"))
    x = RngStream(4).split("x").generator().standard_normal((50, 3))
    assert np.array_equal(encode(model, x), mlp_forward(model.encoder, x))


# ---------------------------------------------------------------------------
# reconstruction error


def _rec(model: AutoEncoderModel, x: np.ndarray, rec_norm: str = "mean") -> float:
    """The reconstruction term of the cost, as wica_cost returns it."""
    return wica_cost(model, x, np.zeros((1, x.shape[1])), TrainConfig(rec_norm=rec_norm))[1]


def test_rec_error_identity_is_zero():
    x = RngStream(0).split("x").generator().standard_normal((30, 3))
    assert _rec(_identity_model(3), x) == 0.0


def test_rec_error_known_shift():
    # decoder adds (1, 0): every row contributes squared error exactly 1
    model = AutoEncoderModel(
        _identity_mlp(2),
        MlpParams((2, 2), [np.eye(2)], [np.array([1.0, 0.0])]),
    )
    x = RngStream(1).split("x").generator().standard_normal((40, 2))
    assert _rec(model, x, rec_norm="mean") == 1.0
    assert _rec(model, x, rec_norm="sum") == 40.0


def test_rec_error_matches_loop_oracle():
    model = init_model(3, (6,), RngStream(7).split("init"))
    x = RngStream(8).split("x").generator().standard_normal((25, 3))
    recon = _loop_mlp_forward(model.decoder, _loop_mlp_forward(model.encoder, x))
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total += (recon[i, j] - x[i, j]) ** 2
    assert abs(_rec(model, x, rec_norm="sum") - total) <= 1e-9 * (1.0 + total)
    assert abs(_rec(model, x) - total / 25.0) <= 1e-9


# ---------------------------------------------------------------------------
# the cost


def test_cost_beta_zero_total_is_rec_exactly():
    model = init_model(2, (8,), RngStream(2).split("init"))
    x = RngStream(3).split("x").generator().standard_normal((64, 2))
    points = np.zeros((1, 2))
    total, rec, wii_value = wica_cost(model, x, points, TrainConfig(beta=0.0))
    assert total == rec
    assert np.isfinite(wii_value)


def test_cost_matches_independent_route():
    """Recompute rec + beta * wii from loop oracles and raw formulas."""
    model = init_model(2, (6,), RngStream(11).split("init"))
    x = RngStream(12).split("x").generator().standard_normal((60, 2))
    points = np.array([[0.0, 0.0], [0.5, -0.25]])
    cfg = TrainConfig(beta=0.7)
    total, rec, wii_value = wica_cost(model, x, points, cfg)

    e = mlp_forward(model.encoder, x)
    sigma = e.std(axis=0)
    assert sigma.min() > 1e-6  # stay clear of the normalization floor
    y = (e - e.mean(axis=0)) / sigma

    values = []
    for p in points:
        w = np.exp(-0.5 * ((y - p) ** 2).sum(axis=1))
        z = loop_weighted_cov(y, w)
        acc = 0.0
        d = y.shape[1]
        for i in range(d):
            for j in range(d):
                if i != j:
                    acc += 2.0 * z[i, j] ** 2 / (z[i, i] ** 2 + z[j, j] ** 2)
        values.append(acc / (d * (d - 1)))
    expect_wii = float(np.mean(values))
    expect_rec = float(((mlp_forward(model.decoder, e) - x) ** 2).sum()) / 60.0

    assert abs(rec - expect_rec) <= 1e-12
    assert abs(wii_value - expect_wii) <= 1e-12
    assert abs(total - (expect_rec + 0.7 * expect_wii)) <= 1e-12


def test_cost_skips_collapsed_points():
    model = _identity_model(2)
    x = RngStream(4).split("x").generator().standard_normal((128, 2))
    near = np.zeros((1, 2))
    far = np.full((1, 2), 1e8)
    alone = wica_cost(model, x, near, TrainConfig())
    mixed = wica_cost(model, x, np.vstack([far, near]), TrainConfig())
    assert mixed == alone
    with pytest.raises(WeightCollapseError):
        wica_cost(model, x, far, TrainConfig())


def test_cost_wii_is_the_diagnostic_index():
    """Training and the diagnostics evaluate one index: the cost's wii term
    equals wii_multi on the normalized code exactly, skipped points too."""
    model = init_model(3, (8,), RngStream(13).split("init"))
    x = RngStream(14).split("x").generator().standard_normal((96, 3))
    y = normalize_componentwise(encode(model, x))
    near = 0.3 * RngStream(15).split("p").generator().standard_normal((3, 3))
    far = np.full((1, 3), 1e8)
    for points in (near, np.vstack([near[:1], far, near[1:]])):
        expect = wii_multi(y, points)
        assert wica_cost(model, x, points, TrainConfig())[2] == expect
    with pytest.raises(WeightCollapseError):  # so the second case skips one point
        wii_multi(y, far)


def test_cost_input_validation():
    model = _identity_model(2)
    x = np.zeros((10, 3))
    with pytest.raises(DimensionError):
        wica_cost(model, x, np.zeros((1, 2)), TrainConfig())
    with pytest.raises(DimensionError):
        wica_cost(model, np.zeros((10, 2)), np.zeros((1, 3)), TrainConfig())


# ---------------------------------------------------------------------------
# the gradient


def test_identity_autoencoder_is_stationary_at_beta_zero():
    """Perfect reconstruction leaves literally zero gradient anywhere."""
    model = _identity_model(3)
    x = RngStream(5).split("x").generator().standard_normal((50, 3))
    grad = cost_gradient(model, x, np.zeros((1, 3)), TrainConfig(beta=0.0))
    assert np.abs(grad).max() == 0.0


def test_gradient_matches_finite_differences():
    points_gen = RngStream(100).split("p").generator()
    cases = [
        (0, TrainConfig(beta=1.0)),
        (1, TrainConfig(beta=0.5, rec_norm="sum")),
        (2, TrainConfig(beta=2.0)),
    ]
    for seed, cfg in cases:
        model = init_model(2, (4, 4), RngStream(seed).split("init"))
        x = RngStream(seed).split("x").generator().standard_normal((16, 2))
        points = 0.5 * points_gen.standard_normal((2, 2))
        analytic = cost_gradient(model, x, points, cfg)

        def total_of(m):
            return wica_cost(m, x, points, cfg)[0]

        fd = fd_model_gradient(total_of, model, 1e-5)
        rel = np.abs(fd - analytic) / np.maximum(np.abs(fd) + np.abs(analytic), 1e-6)
        assert rel.max() <= 1e-4, f"seed {seed}: max rel err {rel.max():.3e}"


def test_independence_term_gradient_vanishes_on_symmetric_code():
    """With the code exactly sign-symmetric around the weighting point at
    the origin, every weighted cross-covariance cancels in sign pairs, so
    the independence term contributes no gradient.  The term's gradient is
    isolated as grad(beta=1) - grad(beta=0)."""
    base = RngStream(7).split("base").generator().standard_normal((25000, 2))
    signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
    y0 = np.concatenate([base * np.array(s) for s in signs])
    q = sample_haar_orthogonal(2, RngStream(8).split("q"))
    x = y0 @ q.T  # encoder applies q, so the code is y0 up to roundoff
    model = AutoEncoderModel(
        MlpParams((2, 2), [q.copy()], [np.zeros(2)]),
        MlpParams((2, 2), [q.T.copy()], [np.zeros(2)]),
    )
    points = np.zeros((1, 2))
    g1 = cost_gradient(model, x, points, TrainConfig(beta=1.0))
    g0 = cost_gradient(model, x, points, TrainConfig(beta=0.0))
    assert np.max(np.abs(g1 - g0)) < 1e-3


def test_gradient_memory_stays_within_a_few_point_stacks():
    """The batched index holds a few (K, n, d) stacks at a time: one
    gradient at d=32, batch 256 and K=32 peaks below 16 of them, where a
    single (K, n, d, d) intermediate would take 32."""
    d, n, k = 32, 256, 32
    model = init_model(d, (128, 128, 128), RngStream(16).split("init"))
    x = RngStream(17).split("x").generator().standard_normal((n, d))
    points = sample_weighting_points(normalize_componentwise(encode(model, x)), k, RngStream(18))
    tracemalloc.start()
    try:
        cost_gradient(model, x, points, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (k * n * d * 8)


@pytest.mark.parametrize(
    "forward", [encode, lambda model, x: mlp_forward(model.encoder, x)], ids=["encode", "mlp_forward"]
)
def test_forward_pass_holds_at_most_two_layer_outputs(forward):
    """A forward pass that returns no activations keeps no layer's output:
    4096 rows through (128, 128, 128) hold one layer output in the block
    buffer and two 512-row sub-blocks, below 1.5 layer outputs, where
    keeping every layer's output would take 3 and two buffers of the whole
    block 2."""
    model = init_model(2, (128, 128, 128), RngStream(19).split("init"))
    x = RngStream(20).split("x").generator().standard_normal((4096, 2))
    tracemalloc.start()
    try:
        forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (4096 * 128 * 8)


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("n", [1, 255, 4095, 8191, 8192, 9000, 17618])
def test_blocked_encode_equals_one_call_bit_for_bit(d, n):
    """encode runs 4096-row blocks at width 128 once the input has two
    blocks (up to 8191 rows: one block through the reused buffers; 8192
    and 9000: two blocks, the second taking the remainder; 17618: four).
    The collecting forward is one call over all rows, so it is the
    reference.  OpenBLAS takes a small-matrix kernel when M*N*K < 1e6:
    below 3907 rows the d=2 output layer, (M x 128)(128 x 2), rounds
    differently, which the 4096-row floor of a block avoids."""
    model = init_model(d, (128, 128, 128), RngStream(21).split("init"))
    x = RngStream(22).split("x").generator().standard_normal((n, d))
    assert encode(model, x).tobytes() == trainer._mlp_forward(model.encoder, x, []).tobytes()


@pytest.mark.parametrize("blocks", [0.9, 2.6])
@pytest.mark.parametrize(
    "sizes",
    [(2, 128, 128, 2), (16, 128, 128, 16), (16, 128, 16), (2, 128, 8, 8, 2), (2, 128, 4, 128, 2),
     (2, 8, 128, 2), (2, 5, 4, 3)],
    ids=lambda sizes: "x".join(map(str, sizes)),
)
def test_streaming_forward_equals_collecting_pass_bit_for_bit(sizes, blocks):
    """The streaming pass runs its first and output layers on whole blocks
    and its middle layers in sub-blocks of at least 2**20 multiply-adds,
    so on one block (0.9 of a block's rows) or three (2.6, the remainder
    joining the last) it gives the one-call collecting pass's bytes: with
    no middle layer (128,); with one, which writes over the block-buffer
    rows it reads; with narrow middle layers that run on the whole block
    (128, 8, 8) or in 2048-row sub-blocks (128, 4, 128), where 512 rows
    through 128 -> 4 would take the small-matrix kernel; and with first and
    last hidden widths that differ (8, 128) and (5, 4)."""
    m = init_mlp(sizes, RngStream(27).split("init"))
    n = int(blocks * (trainer._BLOCK_ELEMENTS // max(sizes)))
    x = RngStream(28).split("x").generator().standard_normal((n, sizes[0]))
    assert trainer._mlp_forward(m, x).tobytes() == trainer._mlp_forward(m, x, []).tobytes()


_HASWELL_SCRIPT = """
import ctypes, glob, os
import numpy as np
from wica_lab import trainer
from wica_lab.core import RngStream

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())
for d in (2, 16):
    model = trainer.init_model(d, (128, 128, 128), RngStream(21).split("init"))
    x = RngStream(22).split("x").generator().standard_normal((17618, d))
    same = trainer.encode(model, x).tobytes() == trainer._mlp_forward(model.encoder, x, []).tobytes()
    print(d, same)
"""


def _run_child(script: str, **env: str) -> list[str]:
    """stdout lines of script run in a child process with env added:
    OpenBLAS reads its kernel and thread count when it loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(trainer.__file__).resolve().parents[1]), **env)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")


def test_blocked_encode_equals_one_call_on_the_haswell_kernel():
    """OpenBLAS picks its gemm kernel per process (OPENBLAS_CORETYPE), so a
    child process checks the blocked encode against the one-call pass on
    the AVX2 Haswell kernel too, at one BLAS thread: with two, Haswell
    splits a 17618-row call across threads so that some rows round
    differently from any 4096-row block."""
    out = _run_child(_HASWELL_SCRIPT, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    assert out == ["Haswell", "2 True", "16 True", ""]


_WIDTH_ONE_SCRIPT = """
from wica_lab import trainer
from wica_lab.core import RngStream

m = trainer.init_mlp((16, 128, 128, 1, 128, 16), RngStream(27).split("init"))
x = RngStream(28).split("x").generator().standard_normal((17618, 16))
print(trainer._mlp_forward(m, x).tobytes() == trainer._mlp_forward(m, x, []).tobytes())
"""


def test_streaming_forward_through_a_width_one_layer_at_one_blas_thread():
    """The known exception of _mlp_forward's docstring: through a width-1
    hidden layer the streaming pass gives the collecting pass's bytes at
    one BLAS thread, in a child process, while at two threads two of these
    17618 rows differ."""
    assert _run_child(_WIDTH_ONE_SCRIPT, OPENBLAS_NUM_THREADS="1") == ["True", ""]


@pytest.mark.parametrize(
    "hidden,blocks", [((128, 128, 128), 8), ((8, 128), 2.6), ((128, 8), 2.6)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"{v}-blocks",
)
def test_blocked_encode_holds_one_block_of_layer_outputs(hidden, blocks):
    """32768 rows through (128, 128, 128) run as eight 4096-row blocks, the
    middle layer in 512-row sub-blocks: the pass peaks below one and a half
    block-sized layer outputs plus the (n, d) result, where one call over
    all rows holds two 32 MB layer outputs and two block buffers 8 MB.
    With first and last hidden widths that differ, (8, 128) and (128, 8)
    at 2.6 blocks (the last block 6553 rows), the narrow layer's output is
    a strided view of the 128-wide block buffer, and the same bound on the
    last block pins that no view is copied whole."""
    n, d = int(blocks * 4096), 2
    model = init_model(d, hidden, RngStream(23).split("init"))
    x = RngStream(24).split("x").generator().standard_normal((n, d))
    tracemalloc.start()
    try:
        encode(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = n - trainer._edges(n, 4096)[-2]
    assert peak < 1.5 * (rows * 128 * 8) + n * d * 8


def test_parameters_are_views_of_theta(tmp_path: Path):
    def shares_theta(model: AutoEncoderModel) -> bool:
        arrays = (
            model.encoder.weights + model.encoder.biases
            + model.decoder.weights + model.decoder.biases
        )
        return all(np.shares_memory(a, model.theta) for a in arrays)

    cfg = TrainConfig(steps=1, batch_size=32, hidden_sizes=(6, 5), seed=3)
    before = init_model(2, cfg.hidden_sizes, RngStream(cfg.seed).split("init"))
    assert shares_theta(before)
    assert before.theta.size == sum(
        a.size for m in (before.encoder, before.decoder) for a in m.weights + m.biases
    )
    model, _ = train(_toy_data(8, n=64), cfg)
    assert shares_theta(model)
    assert not np.array_equal(model.encoder.weights[0], before.encoder.weights[0])
    path = tmp_path / "model.json"
    save_model(path, model, cfg)
    assert shares_theta(load_model(path)[0])


def test_gradient_layout_matches_param_vector():
    model = init_model(2, (4,), RngStream(9).split("init"))
    x = RngStream(9).split("x").generator().standard_normal((32, 2))
    grad = cost_gradient(model, x, np.zeros((1, 2)), TrainConfig())
    assert grad.shape == model_param_vector(model).shape
    # with_param_vector round-trips the layout
    theta = model_param_vector(model)
    again = model_param_vector(with_param_vector(model, theta))
    assert np.array_equal(theta, again)


# ---------------------------------------------------------------------------
# training loop


def _toy_data(seed: int, n: int = 512, d: int = 2) -> np.ndarray:
    return RngStream(seed).split("toy").generator().standard_normal((n, d))


def test_train_zero_steps_returns_untouched_init():
    x = _toy_data(0)
    cfg = TrainConfig(steps=0, hidden_sizes=(8,), seed=3)
    model, trace = train(x, cfg)
    ref = init_model(2, (8,), RngStream(3).split("init"))
    for a, b in zip(
        model.encoder.weights + model.decoder.weights,
        ref.encoder.weights + ref.decoder.weights,
    ):
        assert np.array_equal(a, b)
    assert trace.records == ()


def test_train_same_seed_is_bit_identical():
    x = _toy_data(1)
    cfg = TrainConfig(
        steps=30, batch_size=64, hidden_sizes=(8, 8), seed=4, log_every=10
    )
    m1, t1 = train(x, cfg)
    m2, t2 = train(x, cfg)
    for a, b in zip(
        m1.encoder.weights + m1.encoder.biases + m1.decoder.weights + m1.decoder.biases,
        m2.encoder.weights + m2.encoder.biases + m2.decoder.weights + m2.decoder.biases,
    ):
        assert np.array_equal(a, b)
    assert t1.records == t2.records


def _counting(monkeypatch, name: str, calls: list, override=None):
    """Replace trainer.<name> with a wrapper that logs each call's first
    argument; override may answer a call instead of the real function
    (None: pass through)."""
    real = getattr(trainer, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        answer = override(*args) if override is not None else None
        return real(*args, **kwargs) if answer is None else answer

    monkeypatch.setattr(trainer, name, wrapper)


def _far_points(y, num_points, rng):
    # every weight but the nearest row's underflows, so each point collapses
    return np.full((num_points, y.shape[1]), 1e3)


def test_train_runs_the_encoder_once_per_step(monkeypatch):
    forwards: list = []
    nets: list = []
    _counting(monkeypatch, "mlp_forward", forwards)
    _counting(monkeypatch, "_mlp_forward", nets)
    model, _ = train(_toy_data(5), TrainConfig(steps=5, batch_size=64, hidden_sizes=(8,), seed=2))
    # one public call per step, and no other encoder pass beside it
    assert len(forwards) == 5
    assert sum(net is model.encoder for net in nets) == 5


def test_collapse_retry_redraws_the_points_only(monkeypatch):
    x = _toy_data(6)
    cfg = TrainConfig(steps=6, batch_size=64, hidden_sizes=(8,), seed=5, log_every=1)
    ref_model, ref_trace = train(x, cfg)
    forwards: list = []
    draws: list = []
    _counting(monkeypatch, "mlp_forward", forwards)
    # step 3's first draw collapses without touching the points stream
    _counting(monkeypatch, "sample_weighting_points", draws,
              lambda *args: _far_points(*args) if len(draws) == 3 else None)
    model, trace = train(x, cfg)
    assert len(draws) == cfg.steps + 1 and len(forwards) == cfg.steps
    assert model.theta.tobytes() == ref_model.theta.tobytes()
    assert trace == ref_trace


def test_train_gives_up_when_every_draw_collapses(monkeypatch):
    draws: list = []
    _counting(monkeypatch, "sample_weighting_points", draws, _far_points)
    with pytest.raises(WeightCollapseError):
        train(_toy_data(7), TrainConfig(steps=3, batch_size=64, hidden_sizes=(8,)))
    assert len(draws) == 1 + trainer._COLLAPSE_RETRIES


def test_trace_totals_are_consistent():
    x = _toy_data(2)
    cfg = TrainConfig(steps=40, batch_size=64, hidden_sizes=(8,), seed=0,
                      beta=0.5, log_every=10)
    _, trace = train(x, cfg)
    assert trace.records
    steps = [r.step for r in trace.records]
    assert steps == sorted(steps) and steps[0] == 1 and steps[-1] == 40
    for r in trace.records:
        assert abs(r.total - (r.rec_error + 0.5 * r.wii)) <= 1e-10


def test_train_diverges_on_absurd_learning_rate():
    x = _toy_data(3)
    cfg = TrainConfig(
        steps=50, batch_size=64, hidden_sizes=(8,), seed=0,
        learning_rate=1e6, optimizer="sgd",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(x, cfg)


def test_train_beta_zero_reduces_reconstruction():
    x = _toy_data(4)
    cfg = TrainConfig(
        steps=200, batch_size=64, hidden_sizes=(8,), seed=1,
        beta=0.0, learning_rate=1e-2, log_every=20,
    )
    _, trace = train(x, cfg)
    assert trace.records[-1].rec_error < trace.records[0].rec_error


def test_train_rejects_batch_smaller_than_d():
    # a weighting point is the mean of d distinct rows of the batch
    with pytest.raises(DimensionError):
        train(_toy_data(5, n=32, d=4), TrainConfig(batch_size=3, steps=1))


def test_train_rejects_oversized_batch():
    with pytest.raises(InsufficientDataError):
        train(_toy_data(5, n=32), TrainConfig(batch_size=64, steps=1))


# ---------------------------------------------------------------------------
# serialization


def test_model_json_round_trip(tmp_path: Path):
    cfg = TrainConfig(steps=5, batch_size=32, hidden_sizes=(6, 6), seed=2)
    model, _ = train(_toy_data(6, n=128), cfg)
    path = tmp_path / "model.json"
    save_model(path, model, cfg)
    loaded, loaded_cfg = load_model(path)
    assert loaded_cfg == cfg
    assert loaded.d == model.d
    for a, b in zip(
        model.encoder.weights + model.encoder.biases
        + model.decoder.weights + model.decoder.biases,
        loaded.encoder.weights + loaded.encoder.biases
        + loaded.decoder.weights + loaded.decoder.biases,
    ):
        assert np.array_equal(a, b)


def test_load_model_rejects_bad_files(tmp_path: Path):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json\n")
    with pytest.raises(FileFormatError):
        load_model(broken)

    missing = tmp_path / "missing.json"
    missing.write_text('{"d": 2, "config": {}, "encoder": {"w1": [[1.0]]}}\n')
    with pytest.raises(FileFormatError):
        load_model(missing)

    cfg = TrainConfig(steps=0, batch_size=32, hidden_sizes=(4,))
    model, _ = train(_toy_data(7, n=64), cfg)
    good = tmp_path / "good.json"
    save_model(good, model, cfg)
    doc = good.read_text().replace('"d": 2', '"d": 3')
    bad_d = tmp_path / "bad_d.json"
    bad_d.write_text(doc)
    with pytest.raises(FileFormatError):
        load_model(bad_d)


def test_trace_round_trip(tmp_path: Path):
    """A trace is written with the repr of each float, which reads back exactly."""
    trace = TrainTrace((
        TraceRecord(1, 0.1234567890123456, 1e-300, 0.5),
        TraceRecord(50, 2.0 / 3.0, 0.25, 2.0 / 3.0 + 0.25),
    ))
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    written = path.read_bytes()
    assert written == (
        b"step,rec_error,wii,total\r\n"
        b"1,0.1234567890123456,1e-300,0.5\r\n"
        b"50,0.6666666666666666,0.25,0.9166666666666666\r\n"
    )
    rows = [line.split(",") for line in written.decode().splitlines()[1:]]
    assert [(int(r[0]), *map(float, r[1:])) for r in rows] == list(trace.records)
