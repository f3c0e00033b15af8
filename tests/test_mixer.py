"""Invertible nonlinear mixing: stages, pipelines, serialization."""

from pathlib import Path

import numpy as np
import pytest

from wica_lab import trainer
from wica_lab.core import RngStream
from wica_lab.datagen import SourceSpec, generate
from wica_lab.errors import DimensionError, FileFormatError
from wica_lab.mixer import (
    MixingPipeline,
    MixingStage,
    build_pipeline,
    load_pipeline,
    mix,
    save_pipeline,
    stage_forward,
    stage_inverse,
    unmix_exact,
)
from wica_lab.trainer import MlpParams

from oracles import fd_jacobian, linear_fit_residual, load_record

DATA = Path(__file__).parent / "data"


def _zero_net(d_in: int, d_out: int, hidden: int = 4) -> MlpParams:
    sizes = (d_in, hidden, hidden, d_out)
    weights = [np.zeros(shape) for shape in zip(sizes, sizes[1:])]
    return MlpParams(sizes, weights, [np.zeros(s) for s in sizes[1:]])


def _constant_net(d_in: int, d_out: int, value: float) -> MlpParams:
    net = _zero_net(d_in, d_out)
    return MlpParams(net.sizes, net.weights, (*net.biases[:2], np.full(d_out, value)))


# ---------------------------------------------------------------------------
# single stage


def test_zero_coupling_identity_q_is_identity():
    stage = MixingStage(q=np.eye(2), phi=_zero_net(1, 1), parity="odd")
    g = RngStream(1).split("x").generator()
    x = g.standard_normal((20, 2))
    assert np.array_equal(stage_forward(stage, x), x)


def test_constant_coupling_shifts_active_half():
    stage = MixingStage(q=np.eye(2), phi=_constant_net(1, 1, 3.0), parity="odd")
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    y = stage_forward(stage, x)
    assert np.allclose(y[:, 0], x[:, 0], atol=0)
    assert np.allclose(y[:, 1], x[:, 1] + 3.0, atol=0)


def test_even_parity_shifts_first_half():
    stage = MixingStage(q=np.eye(2), phi=_constant_net(1, 1, -2.0), parity="even")
    x = np.array([[1.0, 2.0]])
    y = stage_forward(stage, x)
    assert y[0, 0] == -1.0 and y[0, 1] == 2.0


def test_stage_inverse_is_two_sided():
    g = RngStream(2)
    pipe = build_pipeline(6, 2, 8, g)
    gen = RngStream(3).split("x").generator()
    x = gen.standard_normal((100, 6))
    for stage in pipe.stages:
        y = stage_forward(stage, x)
        assert np.max(np.abs(stage_inverse(stage, y) - x)) < 1e-9
        z = stage_inverse(stage, x)
        assert np.max(np.abs(stage_forward(stage, z) - x)) < 1e-9


def test_stage_jacobian_determinant_is_one():
    """Isometry times additive coupling preserves volume exactly."""
    pipe = build_pipeline(4, 1, 8, RngStream(4))
    stage = pipe.stages[0]
    g = RngStream(5).split("pt").generator()
    for _ in range(3):
        x0 = g.standard_normal(4)
        jac = fd_jacobian(lambda v: stage_forward(stage, v[None, :])[0], x0, h=1e-5)
        assert abs(abs(np.linalg.det(jac)) - 1.0) <= 1e-4


def test_stage_rejects_wrong_width():
    pipe = build_pipeline(4, 1, 8, RngStream(6))
    with pytest.raises(DimensionError):
        stage_forward(pipe.stages[0], np.zeros((5, 3)))


@pytest.mark.parametrize("n", [300, 70000])
def test_coupling_net_streams_a_column_slice_bit_for_bit(n):
    """A stage feeds its width-16 coupling net the non-contiguous half
    y[:, read]; the streaming forward (one block up to 65535 rows, then
    32768-row blocks, each running its one middle layer in 4096-row
    sub-blocks) gives the collecting pass's bytes."""
    stage = build_pipeline(5, 1, 16, RngStream(25)).stages[0]
    x = RngStream(26).split("x").generator().standard_normal((n, 5))
    half = (x @ stage.q.T)[:, :3]
    assert not half.flags.c_contiguous
    assert trainer._mlp_forward(stage.phi, half).tobytes() == (
        trainer._mlp_forward(stage.phi, half, []).tobytes()
    )


def test_odd_dimension_splits_ceil_floor():
    pipe = build_pipeline(5, 2, 8, RngStream(7))
    g = RngStream(8).split("x").generator()
    x = g.standard_normal((40, 5))
    y = mix(pipe, x)
    assert y.shape == x.shape
    assert np.max(np.abs(unmix_exact(pipe, y) - x)) < 1e-9


# ---------------------------------------------------------------------------
# pipelines


def test_build_pipeline_single_stage_is_odd():
    pipe = build_pipeline(3, 1, 4, RngStream(9))
    assert len(pipe.stages) == 1
    assert pipe.stages[0].parity == "odd"


def test_build_pipeline_parities_alternate():
    pipe = build_pipeline(3, 5, 4, RngStream(10))
    assert [s.parity for s in pipe.stages] == ["odd", "even", "odd", "even", "odd"]


def test_build_pipeline_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        build_pipeline(1, 3, 4, RngStream(0))
    with pytest.raises(DimensionError):
        build_pipeline(3, 0, 4, RngStream(0))
    with pytest.raises(DimensionError):
        build_pipeline(3, 3, 0, RngStream(0))
    with pytest.raises(DimensionError, match="a pipeline needs at least one stage"):
        MixingPipeline((), 2, 0)
    with pytest.raises(DimensionError, match="stage 1 has d=3, pipeline has d=2"):
        MixingPipeline(build_pipeline(3, 1, 4, RngStream(0)).stages, 2, 0)


def test_same_seed_same_pipeline():
    p1 = build_pipeline(4, 3, 8, RngStream(11))
    p2 = build_pipeline(4, 3, 8, RngStream(11))
    for s1, s2 in zip(p1.stages, p2.stages):
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.phi.weights[0], s2.phi.weights[0])
        assert np.array_equal(s1.phi.weights[2], s2.phi.weights[2])


def test_mix_is_pure():
    pipe = build_pipeline(3, 4, 8, RngStream(12))
    g = RngStream(13).split("x").generator()
    x = g.standard_normal((50, 3))
    assert np.array_equal(mix(pipe, x), mix(pipe, x))


def test_roundtrip_deep_pipeline():
    # 50 stages at d=10: the acceptance bound, checked here at module level
    pipe = build_pipeline(10, 50, 16, RngStream(14))
    g = RngStream(15).split("x").generator()
    x = g.standard_normal((200, 10))
    err = np.max(np.abs(unmix_exact(pipe, mix(pipe, x)) - x))
    assert err < 1e-6


def test_mixing_is_measurably_nonlinear():
    rec = load_record(DATA / "mixing_nonlinearity.json")
    s = generate(SourceSpec(kind="sine_mixture", d=2, n=4096, seed=11))
    pipe = build_pipeline(2, 10, 16, RngStream(21))
    residual = linear_fit_residual(s, mix(pipe, s))
    assert residual > rec.threshold
    assert abs(residual - rec.measured["residual"]) < 1e-12


def test_warped_lattice_variance_stays_in_band():
    rec = load_record(DATA / "mixing_variance_band.json")
    lat = generate(SourceSpec(kind="lattice", d=2, n=64, seed=0))
    pipe = build_pipeline(2, 70, 16, RngStream(2))
    v = mix(pipe, lat).var(axis=0)
    assert np.all(v >= rec.measured["band_low"])
    assert np.all(v <= rec.measured["band_high"])


# ---------------------------------------------------------------------------
# serialization


def test_pipeline_json_round_trip(tmp_path):
    pipe = build_pipeline(3, 4, 8, RngStream(16))
    path = tmp_path / "pipe.json"
    save_pipeline(path, pipe)
    back = load_pipeline(path)
    g = RngStream(17).split("x").generator()
    x = g.standard_normal((30, 3))
    assert np.array_equal(mix(pipe, x), mix(back, x))
    assert pipe.seed == back.seed


def test_pipeline_file_round_trips_byte_for_byte(tmp_path):
    path, again = tmp_path / "pipe.json", tmp_path / "again.json"
    save_pipeline(path, build_pipeline(5, 3, 8, RngStream(16)))
    save_pipeline(again, load_pipeline(path))
    assert again.read_bytes() == path.read_bytes()


def test_loaded_pipeline_equals_rebuilt(tmp_path):
    pipe = build_pipeline(4, 3, 8, RngStream(18))
    path = tmp_path / "pipe.json"
    save_pipeline(path, pipe)
    rebuilt = build_pipeline(4, 3, 8, RngStream(18))
    back = load_pipeline(path)
    for s1, s2 in zip(back.stages, rebuilt.stages):
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.phi.weights[1], s2.phi.weights[1])


def test_truncated_pipeline_file_rejected(tmp_path):
    pipe = build_pipeline(3, 2, 8, RngStream(19))
    path = tmp_path / "pipe.json"
    save_pipeline(path, pipe)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(FileFormatError):
        load_pipeline(path)


def test_pipeline_file_with_missing_field_rejected(tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text('{"d": 3, "seed": 0}')
    with pytest.raises(FileFormatError):
        load_pipeline(path)


def test_coupling_net_is_frozen():
    net = MixingStage(q=np.eye(4), phi=_zero_net(2, 2), parity="odd").phi
    with pytest.raises((AttributeError, TypeError)):
        net.weights = (np.ones((2, 4)),)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0  # arrays are read-only copies
    assert not any(a.flags.writeable for a in net.weights + net.biases)
