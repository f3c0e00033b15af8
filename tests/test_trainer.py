"""Autoencoder cost, hand-written gradient, and the training loop."""

import ctypes
import glob
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wica_lab import trainer
from wica_lab.core import RngStream, normalize_componentwise, sample_haar_orthogonal
from wica_lab.errors import (
    DimensionError,
    FileFormatError,
    NonFiniteError,
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
    concatenated_cost_gradient,
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
    # nor can a model be built by hand at d=1, so no cost sees a 1-column batch
    with pytest.raises(DimensionError):
        _identity_model(1)


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
        dict(log_every=0),
        dict(hidden_sizes=(0,)),
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


def _rec(model: AutoEncoderModel, x: np.ndarray) -> float:
    """The reconstruction term of the cost, as wica_cost returns it."""
    return wica_cost(model, x, np.zeros((1, x.shape[1])), TrainConfig())[1]


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
    assert _rec(model, x) == 1.0


def test_rec_error_matches_loop_oracle():
    model = init_model(3, (6,), RngStream(7).split("init"))
    x = RngStream(8).split("x").generator().standard_normal((25, 3))
    recon = _loop_mlp_forward(model.decoder, _loop_mlp_forward(model.encoder, x))
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            total += (recon[i, j] - x[i, j]) ** 2
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


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 33])
def test_cost_wii_is_np_mean_of_the_point_values(k):
    """The cost's index is np.mean's bytes over its points' values, each of
    which is the cost's index at that point alone."""
    model = _identity_model(2)
    x = RngStream(5).split("x").generator().standard_normal((128, 2))
    points = sample_weighting_points(normalize_componentwise(x), k, RngStream(6))
    alone = [wica_cost(model, x, p[None], TrainConfig())[2] for p in points]
    assert wica_cost(model, x, points, TrainConfig())[2] == float(np.mean(alone))


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
    """A batch or points of the wrong width, or with a non-finite entry, fail
    in the cost and its gradient alike."""
    model = _identity_model(2)
    x = RngStream(41).split("x").generator().standard_normal((10, 2))
    bad_x, bad_p = x.copy(), np.zeros((1, 2))
    bad_x[3, 1], bad_p[0, 0] = np.nan, np.inf
    cases = [
        (np.zeros((10, 3)), np.zeros((1, 2)), DimensionError),
        (x, np.zeros((1, 3)), DimensionError),
        (bad_x, np.zeros((1, 2)), NonFiniteError),
        (x, bad_p, NonFiniteError),
    ]
    for batch, points, error in cases:
        for call in (wica_cost, cost_gradient):
            with pytest.raises(error):
                call(model, batch, points, TrainConfig())


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
        (1, TrainConfig(beta=0.5)),
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


@pytest.mark.parametrize("hidden", [(128, 128, 128), (8, 5), (8,)], ids=str)
@pytest.mark.parametrize("d", [2, 16])
def test_gradient_equals_the_concatenated_layer_gradients_bit_for_bit(d, hidden):
    """The backward pass writes each layer's gradient into its view of one
    vector; the bytes are those of per-layer arrays concatenated in theta's
    order, at beta 0 and 1."""
    model = init_model(d, hidden, RngStream(d).split("init"))
    x = RngStream(d).split("x").generator().standard_normal((256, d))
    points = sample_weighting_points(normalize_componentwise(encode(model, x)), d, RngStream(3))
    for beta in (0.0, 1.0):
        cfg = TrainConfig(beta=beta)
        want = concatenated_cost_gradient(model, x, points, cfg)
        assert cost_gradient(model, x, points, cfg).tobytes() == want.tobytes()


def test_each_gradient_is_a_fresh_vector():
    model = init_model(3, (8, 5), RngStream(4).split("init"))
    x = RngStream(4).split("x").generator().standard_normal((64, 3))
    points = np.zeros((2, 3))
    g1 = cost_gradient(model, x, points, TrainConfig())
    g2 = cost_gradient(model, x, points, TrainConfig())
    assert g1.tobytes() == g2.tobytes()
    assert not np.shares_memory(g1, g2)
    assert not (np.shares_memory(g1, model.theta) or np.shares_memory(g2, model.theta))


def test_layout_cuts_the_views_the_model_exposes():
    """_layout, the one place theta's order is written, cuts from theta the
    very arrays the model holds: same shapes, same memory, same offsets."""
    model = init_model(2, (6, 5), RngStream(5).split("init"))
    nets = (model.encoder, model.decoder)
    views = trainer._layout(nets, model.theta)
    cut = [v for weights, biases in views for v in weights + biases]
    held = [a for m in nets for a in m.weights + m.biases]
    assert len(cut) == len(held) == 12
    for v, a in zip(cut, held):
        assert v.shape == a.shape and v.strides == a.strides
        assert np.shares_memory(v, model.theta)
        assert v.__array_interface__["data"][0] == a.__array_interface__["data"][0]
    # the views tile theta in order, end to end
    base = model.theta.__array_interface__["data"][0]
    offsets = [v.__array_interface__["data"][0] - base for v in cut]
    assert offsets == list(np.cumsum([0] + [v.nbytes for v in cut[:-1]]))
    assert offsets[-1] + cut[-1].nbytes == model.theta.nbytes


@pytest.mark.parametrize("hidden", [(128, 128, 128), (8, 5)], ids=str)
def test_backward_pass_spends_only_the_hidden_activations(hidden):
    """The gradient leaves the batch, the caller's array and the code (the
    encoder's last activation, the decoder's input) as they were, and
    turns each hidden activation a of the encoder into tanh' = 1 - a^2."""
    model = init_model(3, hidden, RngStream(31).split("init"))
    x = RngStream(31).split("x").generator().standard_normal((256, 3))
    kept = x.tobytes()
    enc_acts, norm, points = trainer._cost_inputs(model, x, np.zeros((2, 3)))
    before = [a.copy() for a in enc_acts]
    trainer._cost_forward_backward(model, enc_acts, norm, points, TrainConfig(), need_grad=True)
    assert x.tobytes() == kept
    assert enc_acts[0].tobytes() == before[0].tobytes()
    assert enc_acts[-1].tobytes() == before[-1].tobytes()
    for a, b in zip(enc_acts[1:-1], before[1:-1]):
        assert a.tobytes() == (1.0 - b ** 2).tobytes()


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


def _openblas():
    """numpy's bundled OpenBLAS through ctypes, or None where it is not
    found."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    )
    try:
        return ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None


def _corename() -> str | None:
    """The name of the kernel numpy's OpenBLAS runs, or None where the
    library or the symbol is missing."""
    corename = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS,
    through ctypes; None where the library or either symbol is missing."""
    lib = _openblas()
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


_PASSES_SCRIPT = """
import sys
import numpy as np
from wica_lab import trainer

with np.load(sys.argv[1]) as case:
    x, layers = case["x"], range(len(case.files) // 2)
    weights, biases = [case[f"w{l}"] for l in layers], [case[f"b{l}"] for l in layers]
m = trainer.MlpParams((x.shape[1], *(w.shape[1] for w in weights)), weights, biases)
print(trainer.mlp_forward(m, x).tobytes() == trainer._mlp_forward(m, x, []).tobytes())
"""


def _passes_agree_at_one_blas_thread(m: MlpParams, x: np.ndarray) -> bool:
    """Whether mlp_forward's streamed pass of m on x (what encode runs)
    gives the bytes of the one-call collecting pass at one BLAS thread.
    OpenBLAS's Haswell kernel splits a threaded gemm's rows across threads
    by the call's row count, so at two threads a row's bytes depend on how
    many rows its call holds; at one thread they do not.  The count is
    pinned in-process around both passes and restored after; where numpy's
    OpenBLAS does not export the setter, both passes run in a child process
    at OPENBLAS_NUM_THREADS=1."""
    threads = _blas_threads()
    if threads is None:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.npz")
            layers = {f"w{l}": w for l, w in enumerate(m.weights)}
            layers.update({f"b{l}": b for l, b in enumerate(m.biases)})
            np.savez(path, x=x, **layers)
            return _run_child(_PASSES_SCRIPT, path, OPENBLAS_NUM_THREADS="1") == ["True", ""]
    get_threads, set_threads = threads
    old = get_threads()
    set_threads(1)
    try:
        return mlp_forward(m, x).tobytes() == trainer._mlp_forward(m, x, []).tobytes()
    finally:
        set_threads(old)


def test_one_thread_passes_run_in_a_child_without_the_thread_setter(monkeypatch):
    """The fallback of _passes_agree_at_one_blas_thread: with no setter
    the passes run in a child process, and still compare bytes."""
    m = init_mlp((3, 128, 8, 128, 3), RngStream(29).split("init"))
    x = RngStream(30).split("x").generator().standard_normal((10649, 3))
    monkeypatch.setitem(globals(), "_blas_threads", lambda: None)
    assert _passes_agree_at_one_blas_thread(m, x)


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("n", [1, 255, 4095, 8191, 8192, 9000, 17618])
def test_blocked_encode_equals_one_call_bit_for_bit(d, n):
    """encode runs 4096-row blocks at width 128 once the input has two
    blocks (up to 8191 rows: one block through the reused buffers; 8192
    and 9000: two blocks, the second taking the remainder; 17618: four).
    The collecting forward is one call over all rows, so it is the
    reference.  OpenBLAS takes a small-matrix kernel when M*N*K < 1e6:
    below 3907 rows the d=2 output layer, (M x 128)(128 x 2), rounds
    differently, which the 4096-row floor of a block avoids.  Both run at
    one BLAS thread, which the bytes of every x86 kernel need."""
    model = init_model(d, (128, 128, 128), RngStream(21).split("init"))
    x = RngStream(22).split("x").generator().standard_normal((n, d))
    assert _passes_agree_at_one_blas_thread(model.encoder, x)


_STREAMED_SIZES = [
    (2, 128, 128, 2), (16, 128, 128, 16), (16, 128, 16), (2, 128, 8, 8, 2), (2, 128, 4, 128, 2),
    (2, 8, 128, 2), (2, 5, 4, 3),
]


def _sizes_id(sizes) -> str:
    return "x".join(map(str, sizes))


@pytest.mark.parametrize("blocks", [0.9, 2.6])
@pytest.mark.parametrize("sizes", _STREAMED_SIZES, ids=_sizes_id)
def test_streaming_forward_equals_collecting_pass_bit_for_bit(sizes, blocks):
    """The streaming pass runs its first and output layers on whole blocks
    and its middle layers in sub-blocks of at least 2**20 multiply-adds,
    so on one block (0.9 of a block's rows) or three (2.6, the remainder
    joining the last) it gives the one-call collecting pass's bytes: with
    no middle layer (128,); with one, which writes over the block-buffer
    rows it reads; with narrow middle layers that run on the whole block
    (128, 8, 8) or in 2048-row sub-blocks (128, 4, 128), where 512 rows
    through 128 -> 4 would take the small-matrix kernel; and with first and
    last hidden widths that differ (8, 128) and (5, 4), whose rows are
    placed in the block buffer so that none is written before it is read.
    Both passes run at one BLAS thread."""
    m = init_mlp(sizes, RngStream(27).split("init"))
    n = int(blocks * (trainer._BLOCK_ELEMENTS // max(sizes)))
    x = RngStream(28).split("x").generator().standard_normal((n, sizes[0]))
    assert _passes_agree_at_one_blas_thread(m, x)


@pytest.mark.skipif(
    _corename() != "SkylakeX", reason="other kernels keep these bytes only at one BLAS thread"
)
@pytest.mark.parametrize(
    "sizes", [(2, 128, 128, 128, 2), (16, 128, 128, 128, 16), *_STREAMED_SIZES], ids=_sizes_id
)
def test_streamed_pass_equals_one_call_at_default_blas_threads_on_skylakex(sizes):
    """encode and mix run at numpy's default BLAS thread count.  On the
    SkylakeX kernel the streamed pass keeps the one-call bytes there too,
    with no pinned thread count: the encoder's net and the nets above,
    over 2.6 blocks.  Haswell's threaded gemm does not (see
    _passes_agree_at_one_blas_thread)."""
    m = init_mlp(sizes, RngStream(27).split("init"))
    n = int(2.6 * (trainer._BLOCK_ELEMENTS // max(sizes)))
    x = RngStream(28).split("x").generator().standard_normal((n, sizes[0]))
    assert mlp_forward(m, x).tobytes() == trainer._mlp_forward(m, x, []).tobytes()


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


def _run_child(script: str, *args: str, **env: str) -> list[str]:
    """stdout lines of script run with args in a child process with env
    added: OpenBLAS reads its kernel and thread count when it loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(trainer.__file__).resolve().parents[1]), **env)
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120,
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


def test_streaming_forward_through_a_width_one_layer_at_one_blas_thread():
    """The known exception of _mlp_forward's docstring: through a width-1
    hidden layer the streaming pass gives the collecting pass's bytes at
    one BLAS thread, while at two threads two of these 17618 rows differ."""
    m = init_mlp((16, 128, 128, 1, 128, 16), RngStream(27).split("init"))
    x = RngStream(28).split("x").generator().standard_normal((17618, 16))
    assert _passes_agree_at_one_blas_thread(m, x)


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
    a contiguous view of the flat block buffer, and the same bound on the
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


def test_streamed_pass_of_unequal_widths_holds_only_its_buffers():
    """(128, 8) at 2.6 blocks: the narrow layer's rows are contiguous in
    the flat block buffer, so its bias add and tanh allocate nothing, and
    the pass peaks at its block buffer and output plus numpy's buffered
    read of the middle layer's input where its output overlaps it, at most
    two ufunc buffers (np.getbufsize() elements each).  On a strided view
    of a 128-wide buffer the add and tanh buffered 130-200 KB each."""
    n, d = int(2.6 * 4096), 2
    model = init_model(d, (128, 8), RngStream(23).split("init"))
    x = RngStream(24).split("x").generator().standard_normal((n, d))
    tracemalloc.start()
    try:
        encode(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = (n - trainer._edges(n, 4096)[-2]) * 128 * 8
    assert peak < block + n * d * 8 + 2 * np.getbufsize() * 8


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
    # every weight but the nearest row's underflows, so each point collapses;
    # train passes its config's num_weighting_points, None meaning d
    return np.full((num_points or y.shape[1], y.shape[1]), 1e3)


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


def test_collapse_retry_runs_the_backward_pass_once_per_step(monkeypatch):
    """A retried step runs each net's backward pass once, after the draw
    that survives, so the spent activations are never read twice."""
    cfg = TrainConfig(steps=6, batch_size=64, hidden_sizes=(8,), seed=5)
    backward: list = []
    draws: list = []
    _counting(monkeypatch, "_mlp_backward", backward)
    _counting(monkeypatch, "sample_weighting_points", draws,
              lambda *args: _far_points(*args) if len(draws) == 3 else None)
    model, _ = train(_toy_data(6), cfg)
    assert len(draws) == cfg.steps + 1
    assert sum(net is model.encoder for net in backward) == cfg.steps
    assert sum(net is model.decoder for net in backward) == cfg.steps


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
        learning_rate=1e300,
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
    with pytest.raises(DimensionError, match="batch_size 64 exceeds the 32 available rows"):
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
