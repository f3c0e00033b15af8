"""Weighted independence index: weights, coefficients, estimator."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wica_lab.core import RngStream, _weighted_moments, normalize_componentwise
from wica_lab.errors import (
    DimensionError,
    FileFormatError,
    NonFiniteError,
    WeightCollapseError,
    WicaError,
)
from wica_lab.trainer import TrainConfig
from wica_lab.wii import (
    sample_weighting_points,
    wii_at_point,
    wii_index,
    wii_multi,
    _coefficients,
    _log_weights,
    _pair_terms,
    _points_backward,
    _points_forward,
    _weights,
)

from oracles import load_record, loop_point_index, loop_weighting_points

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# weights


def test_log_weights_at_the_point_are_zero():
    y = np.array([[1.0, -2.0], [0.0, 0.0]])
    lw = _log_weights(y, np.array([[1.0, -2.0]]))[0]
    assert lw[0] == 0.0
    assert abs(lw[1] - (-2.5)) < 1e-15  # -(1+4)/2


def test_log_weights_monotone_in_distance():
    g = RngStream(3).split("lw").generator()
    y = g.standard_normal((100, 3))
    p = np.zeros(3)
    lw = _log_weights(y, p[None])[0]
    dist = np.sum(y**2, axis=1)
    order = np.argsort(dist)
    assert np.all(np.diff(lw[order]) <= 1e-15)


def test_weights_from_log_shift_invariance():
    # adding a constant to every log-weight must not change the weights
    lw = np.array([-1.0, -2.0, -3.5])
    w1 = _weights(lw[None])[0][0]
    w2 = _weights((lw - 500.0)[None])[0][0]
    assert np.max(np.abs(w1 - w2)) < 1e-15


def test_weights_from_log_survives_huge_negative_logs():
    # raw exp would underflow to all zeros; the max shift keeps one weight at 1
    lw = np.array([-50000.0, -50001.0, -50002.0])
    w, _, collapsed = _weights(lw[None])
    assert not collapsed[0]
    w = w[0]
    assert w.max() == 1.0
    assert np.all(w > 0.0)


def test_weight_collapse_raises_with_context():
    # log weights 0, -800 and -882 at the point: all mass on the first row
    p = np.array([4.0, 4.0])
    y = np.array([[4.0, 4.0], [44.0, 4.0], [4.0, -38.0]])
    with pytest.raises(WeightCollapseError) as err:
        wii_at_point(y, p)
    assert np.array_equal(err.value.point, p)
    assert err.value.effective_mass < 1e-12


# ---------------------------------------------------------------------------
# dependence coefficients


def test_coefficients_zero_for_diagonal_covariance():
    c = _coefficients(np.diag([2.0, 0.5, 1.0]))
    assert np.max(np.abs(c)) == 0.0


def test_coefficients_reach_one_at_equal_variances():
    # z12^2 = z11*z22 and z11 = z22 forces c = 2z12^2/(2 z11^2) = 1
    z = np.array([[1.0, 1.0], [1.0, 1.0]])
    c = _coefficients(z)
    assert abs(c[0, 1] - 1.0) < 1e-15


def test_coefficients_dead_pair_is_zero_not_error():
    z = np.zeros((2, 2))
    c = _coefficients(z)
    assert np.all(c == 0.0)


def test_pair_terms_live_pairs():
    """Off the diagonal, a pair is dead only when both variances are 0; a
    NaN variance keeps its pairs live, so the coefficients there are NaN."""
    z = np.stack([np.diag([0.0, 0.0, 2.0]), np.diag([np.nan, 1.0, 0.0])])
    var, safe, live = _pair_terms(z)
    assert np.array_equal(var, [[0.0, 0.0, 2.0], [np.nan, 1.0, 0.0]], equal_nan=True)
    assert not live[:, [0, 1, 2], [0, 1, 2]].any()
    assert not live[0, 0, 1] and not live[0, 1, 0] and safe[0, 0, 1] == 1.0
    assert live[0, 0, 2] and live[0, 1, 2] and safe[0, 0, 2] == 4.0
    assert live[1, 1, 2] and safe[1, 1, 2] == 1.0
    assert live[1, 0, 1] and live[1, 0, 2] and live[1, 2, 0]
    c = _coefficients(z)
    assert np.isnan(c[1, 0, 1:]).all() and np.isnan(c[1, 1:, 0]).all()
    assert not np.isnan(c[0]).any() and not np.isnan(c[1, 1:, 1:]).any()


def test_coefficient_bounded_by_squared_correlation():
    """c_ij <= rho_ij^2 on 1000 random weighted covariances (AM-GM)."""
    g = RngStream(31).split("bound").generator()
    for _ in range(1000):
        n = int(g.integers(3, 30))
        d = int(g.integers(2, 5))
        x = g.standard_normal((n, d))
        w = g.random(n) + 1e-6
        z = _weighted_moments(x, w[None], w.sum(keepdims=True))[2][0]
        var = np.diag(z)
        if np.any(var <= 0.0):
            continue
        c = _coefficients(z)
        rho2 = z**2 / np.outer(var, var)
        np.fill_diagonal(rho2, 0.0)
        assert np.all(c <= rho2 + 1e-12)


def test_equal_variance_scaling_achieves_equality():
    g = RngStream(32).split("eq").generator()
    for _ in range(50):
        x = g.standard_normal((40, 2))
        x[:, 1] = 0.6 * x[:, 0] + 0.8 * x[:, 1]
        w = g.random(40) + 0.05
        z = _weighted_moments(x, w[None], w.sum(keepdims=True))[2][0]
        x[:, 1] *= np.sqrt(z[0, 0] / z[1, 1])
        z = _weighted_moments(x, w[None], w.sum(keepdims=True))[2][0]
        c = _coefficients(z)[0, 1]
        rho2 = z[0, 1] ** 2 / (z[0, 0] * z[1, 1])
        assert abs(c - rho2) < 1e-10


# ---------------------------------------------------------------------------
# wii at a point and the multi-point estimator


def test_wii_at_point_in_unit_interval():
    g = RngStream(33).split("unit").generator()
    for _ in range(50):
        x = normalize_componentwise(g.standard_normal((60, 3)))
        p = g.standard_normal(3) * 0.5
        v = wii_at_point(x, p)
        assert 0.0 <= v <= 1.0


def test_wii_at_point_detects_linear_dependence():
    g = RngStream(34).split("dep").generator()
    t = g.standard_normal(2000)
    x = normalize_componentwise(np.column_stack([t, t + 0.01 * g.standard_normal(2000)]))
    assert wii_at_point(x, np.zeros(2)) > 0.9


# ---------------------------------------------------------------------------
# the batched kernel against the per-point loop


def _kernel_case(d: int, k: int):
    g = RngStream(70 + d).split(f"kernel{k}").generator()
    y = normalize_componentwise(g.laplace(size=(256, d)) @ g.standard_normal((d, d)))
    return y, sample_weighting_points(y, k, RngStream(71 + k))


@pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
@pytest.mark.parametrize("per_dim", [0, 1, 3])
def test_points_kernel_matches_per_point_loop(d, per_dim):
    k = per_dim * d or 1
    y, points = _kernel_case(d, k)
    values, cache = _points_forward(y, points)
    d_y = _points_backward(y, cache, 0.7 / len(values))
    expect, expect_live, expect_d_y, _ = loop_point_index(y, points, 0.7 / len(values))
    assert expect_live == list(range(k))
    assert np.array_equal(cache[0], points[expect_live])
    assert np.max(np.abs(values - expect) / np.abs(expect)) < 1e-13
    assert np.max(np.abs(d_y - expect_d_y)) < 1e-12 * np.max(np.abs(expect_d_y))
    # each point's value is its own: the same alone as in the stack
    alone = [_points_forward(y, points[j:j + 1])[0][0] for j in range(k)]
    assert np.array_equal(values, alone)


@pytest.mark.parametrize("d", [2, 8])
def test_points_kernel_skips_the_loops_collapsed_points(d):
    y, points = _kernel_case(d, 2 * d)
    points[::3] = 1e4  # far out on the diagonal: all weight on one row
    values, cache = _points_forward(y, points)
    expect, expect_live, expect_d_y, collapse = loop_point_index(y, points)
    assert collapse is not None
    assert np.array_equal(cache[0], points[expect_live])
    assert np.max(np.abs(values - expect) / np.abs(expect)) < 1e-13
    d_y = _points_backward(y, cache, 1.0)
    assert np.max(np.abs(d_y - expect_d_y)) < 1e-12 * np.max(np.abs(expect_d_y))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than float64")
@pytest.mark.parametrize("d", [2, 16])
def test_points_backward_matches_long_double_near_a_collapse(d):
    """Points from radius 1 out to 30, where the survivors' mass beyond
    the top row falls to 1e-6 and below: the gradient keeps float64's
    accuracy against the same kernel in long double.  Dropping the
    kernel's mean-path term, zero but for rounding, fails this."""
    g = RngStream(80 + d).split("collapse").generator()
    y = normalize_componentwise(g.laplace(size=(256, d)) @ g.standard_normal((d, d)))
    u = g.standard_normal((30, d))
    points = u / np.linalg.norm(u, axis=1, keepdims=True) * np.linspace(1.0, 30.0, 30)[:, None]
    values, cache = _points_forward(y, points)
    _, ref_cache = _points_forward(y.astype(np.longdouble), points.astype(np.longdouble))
    assert np.array_equal(cache[0], ref_cache[0].astype(np.float64))
    mass = cache[2] - 1.0
    assert mass.min() <= 1e-6 and mass.max() >= 1e1
    d_y = _points_backward(y, cache, 0.7 / len(values))
    ref = _points_backward(y.astype(np.longdouble), ref_cache, 0.7 / len(values)).astype(np.float64)
    assert np.max(np.abs(d_y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [3, 8])
def test_points_kernel_matches_the_loop_on_dead_pairs(d):
    """Two flat columns give dead pairs (both variances 0) and live pairs
    with one variance 0: the kernel divides by no zero and matches the
    loop, whose every value is 0 at d=3."""
    g = RngStream(90 + d).split("dead").generator()
    x = g.laplace(size=(256, d))
    x[:, :2] = 3.0
    y = normalize_componentwise(x)
    assert np.all(y[:, :2] == 0.0)
    points = sample_weighting_points(y, 2 * d, RngStream(91 + d))
    with np.errstate(divide="raise", invalid="raise"):
        values, cache = _points_forward(y, points)
        d_y = _points_backward(y, cache, 0.7 / len(values))
        expect, expect_live, expect_d_y, _ = loop_point_index(y, points, 0.7 / len(values))
    assert expect_live == list(range(2 * d))
    assert np.max(np.abs(values - expect)) < 1e-15
    assert np.all(np.isfinite(d_y))
    assert np.max(np.abs(d_y - expect_d_y)) < 1e-15
    if d == 3:
        assert not np.any(expect)


def test_points_kernel_raises_the_loops_last_collapse():
    y, _ = _kernel_case(3, 1)
    points = 1e4 * np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    _, live, _, (point, mass) = loop_point_index(y, points)
    assert live == []
    with pytest.raises(WeightCollapseError) as err:
        _points_forward(y, points)
    assert np.array_equal(err.value.point, point)
    assert err.value.effective_mass == mass


def test_wii_at_point_is_the_one_point_kernel():
    y, points = _kernel_case(4, 4)
    for p in points:
        assert wii_at_point(y, p) == _points_forward(y, p[None])[0][0]


@pytest.mark.parametrize("d", [2, 5])
def test_weighted_cov_is_the_kernels_covariance(d):
    """The moment kernel on a one-row weight stack: under each point's
    Gaussian weights it gives the covariance the K-point stack caches, bit
    for bit."""
    y, points = _kernel_case(d, 2 * d)
    w = _weights(_log_weights(y, points))[0]
    z = _points_forward(y, points)[1][4]
    for k in range(len(points)):
        one = w[k][None]
        assert _weighted_moments(y, one, one.sum(axis=1))[2][0].tobytes() == z[k].tobytes()


def test_sample_weighting_points_shape_and_determinism():
    g = RngStream(35).split("pts").generator()
    x = g.standard_normal((50, 3))
    pts1 = sample_weighting_points(x, 4, RngStream(9))
    pts2 = sample_weighting_points(x, 4, RngStream(9))
    assert len(pts1) == 4
    assert all(p.shape == (3,) for p in pts1)
    assert all(np.array_equal(a, b) for a, b in zip(pts1, pts2))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_sample_weighting_points_equal_the_point_loop(d):
    """One gather and one reduce give the bytes of the per-point
    y[rows].mean(axis=0), from the same draws in the same order."""
    for seed in range(20):
        y = RngStream(seed).split("y").generator().standard_normal((256, d))
        got = sample_weighting_points(y, 16, RngStream(seed).split("p"))
        want = loop_weighting_points(y, 16, RngStream(seed).split("p"))
        assert got.tobytes() == want.tobytes(), (d, seed)


def test_sample_weighting_points_needs_enough_rows():
    with pytest.raises(DimensionError, match="need at least d=3 rows .*, got 2"):
        sample_weighting_points(np.zeros((2, 3)), 1, RngStream(0))


def test_wii_multi_skips_collapsed_points():
    g = RngStream(36).split("skip").generator()
    x = normalize_componentwise(g.standard_normal((400, 2)))
    good = np.zeros(2)
    clean = wii_multi(x, [good])
    # a far-away point collapses onto the single nearest sample and is skipped
    far = np.array([1e6, 1e6])
    mixed = wii_multi(x, [good, far])
    assert mixed == clean


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 33])
def test_wii_multi_is_np_mean_of_the_point_values(k):
    """The mean over points is np.mean's bytes, pairwise sum included from
    eight points on."""
    y, points = _kernel_case(2, k)
    assert wii_multi(y, points) == float(np.mean([wii_at_point(y, p) for p in points]))


def test_wii_multi_raises_when_every_point_collapses():
    g = RngStream(37).split("all").generator()
    x = normalize_componentwise(g.standard_normal((400, 2)))
    with pytest.raises(WeightCollapseError):
        wii_multi(x, [np.array([1e6, 1e6]), np.array([-1e6, 1e6])])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [wii_at_point, lambda y, p: wii_multi(y, [p])])
def test_non_finite_weighting_point_is_rejected(call, bad):
    y = RngStream(40).split("nan").generator().standard_normal((100, 2))
    with pytest.raises(NonFiniteError):
        call(y, [bad, 0.0])


@pytest.mark.parametrize("point", [np.zeros(3), np.zeros((1, 2)), np.float64(0.0)],
                         ids=["d+1", "1xd", "scalar"])
def test_wii_at_point_rejects_a_point_as_wii_multi_does(point):
    """wii_at_point is wii_multi at one point: a point of the wrong shape,
    a scalar included, fails with the same error in both."""
    y = RngStream(40).split("shape").generator().standard_normal((100, 2))
    raised = []
    for call in (wii_at_point, lambda y, p: wii_multi(y, [p])):
        with pytest.raises(WicaError) as err:
            call(y, point)
        raised.append(type(err.value))
    assert raised == [DimensionError, DimensionError]


def test_wii_at_point_collapses_as_wii_multi_does():
    p = np.array([4.0, 4.0])
    y = np.array([[4.0, 4.0], [44.0, 4.0], [4.0, -38.0]])
    with pytest.raises(WeightCollapseError) as one:
        wii_at_point(y, p)
    with pytest.raises(WeightCollapseError) as multi:
        wii_multi(y, [p])
    assert np.array_equal(one.value.point, multi.value.point)
    assert one.value.effective_mass == multi.value.effective_mass


def test_wii_multi_holds_one_point_at_a_time():
    """Per-point weighted samples are dropped as soon as their value is
    taken: 16 points held together would need 16 times the sample."""
    y = normalize_componentwise(RngStream(38).split("big").generator().standard_normal((4096, 16)))
    points = sample_weighting_points(y, 16, RngStream(39))
    tracemalloc.start()
    try:
        wii_multi(y, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * y.nbytes


def test_wii_index_deterministic_and_affine_invariant():
    g = RngStream(38).split("det").generator()
    x = g.standard_normal((800, 3))
    v1 = wii_index(x, rng=RngStream(5))
    v2 = wii_index(x, rng=RngStream(5))
    assert v1 == v2
    y = x * np.array([4.0, 0.2, 7.0]) + np.array([3.0, -1.0, 0.5])
    v3 = wii_index(y, rng=RngStream(5))
    assert abs(v3 - v1) < 1e-10


def test_num_points_defaults_to_dimension():
    x = RngStream(40).split("default").generator().standard_normal((300, 3))
    y = normalize_componentwise(x)
    assert (sample_weighting_points(y, None, RngStream(8)).tobytes()
            == sample_weighting_points(y, 3, RngStream(8)).tobytes())
    assert sample_weighting_points(y, 5, RngStream(8)).shape == (5, 3)
    assert wii_index(x, None, RngStream(8)) == wii_index(x, 3, RngStream(8))
    assert wii_index(x, rng=RngStream(8)) == wii_index(x, 3, RngStream(8))


@pytest.mark.parametrize("value,error", [
    (0, DimensionError), (-2, DimensionError), (1.5, FileFormatError), (True, FileFormatError),
])
def test_num_points_reads_like_num_weighting_points(value, error):
    """One parser reads the point count for wii_index, sample_weighting_points
    and TrainConfig, and each names its own key."""
    x = RngStream(41).split("bad").generator().standard_normal((64, 2))
    with pytest.raises(error, match="^num_points: "):
        wii_index(x, value, RngStream(0))
    with pytest.raises(error, match="^num_points: "):
        sample_weighting_points(x, value, RngStream(0))
    with pytest.raises(error, match="^num_weighting_points: "):
        TrainConfig(num_weighting_points=value)


def test_independent_data_stays_below_calibrated_threshold():
    rec = load_record(DATA / "wii_independent.json")
    from wica_lab.datagen import SourceSpec, generate

    u = generate(SourceSpec(kind="uniform", d=2, n=10_000, seed=101))
    value = wii_index(u, rng=RngStream(202))
    assert value < rec.threshold
    assert abs(value - rec.measured["wii"]) < 1e-12


def test_independence_holds_at_every_weighting_point():
    """Not just on average: all 100 seeded points stay under the threshold."""
    rec = load_record(DATA / "wii_every_point.json")
    g = RngStream(55).split("normal").generator()
    x = normalize_componentwise(g.standard_normal((10_000, 2)))
    pts = sample_weighting_points(x, 100, RngStream(66))
    values = [wii_at_point(x, p) for p in pts]
    assert max(values) < rec.threshold
    assert abs(max(values) - rec.measured["max_over_points"]) < 1e-12
