"""Core numerics: weighted statistics, normalization, correlations, Haar draws."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wica_lab import core
from wica_lab.cli import _load_dataset
from wica_lab.core import (
    RngStream,
    average_ranks,
    load_csv,
    normalize_componentwise,
    pearson_corr_matrix,
    sample_haar_orthogonal,
    save_csv,
    _polar_factor,
    _product_in_order,
    _weighted_moments,
)
from wica_lab.errors import (
    DegenerateColumnError,
    DimensionError,
    FileFormatError,
    NonFiniteError,
    NumericalError,
)
from wica_lab.metrics import spearman_distance_matrix

from oracles import (
    csv_writer_save_csv,
    ks_statistic,
    loop_average_ranks,
    loop_polar_factor,
    loop_weighted_cov,
    loop_weighted_mean,
)


# ---------------------------------------------------------------------------
# weighted statistics


def _mean_and_cov(x, w):
    """The moment kernel of the index on a one-row weight stack."""
    means, _, cov = _weighted_moments(x, w[None], w.sum(keepdims=True))
    return means[0], cov[0]


def test_weighted_mean_uniform_weights_is_plain_mean():
    g = RngStream(1).split("x").generator()
    x = g.standard_normal((50, 3))
    w = np.ones(50)
    assert np.allclose(_mean_and_cov(x, w)[0], x.mean(axis=0), atol=1e-14)


def test_weighted_mean_single_heavy_weight_picks_that_row():
    x = np.array([[1.0, 2.0], [5.0, -3.0], [0.0, 0.0]])
    w = np.array([0.0, 7.0, 0.0])
    assert np.allclose(_mean_and_cov(x, w)[0], x[1], atol=0)


def test_weighted_cov_two_point_example():
    # [[0],[2]] with equal weights: mean 1, variance 1 (ddof=0 convention)
    x = np.array([[0.0], [2.0]])
    w = np.array([1.0, 1.0])
    cov = _mean_and_cov(x, w)[1]
    assert cov.shape == (1, 1)
    assert abs(cov[0, 0] - 1.0) < 1e-15


def test_weighted_stats_match_loop_oracle():
    g = RngStream(7).split("oracle").generator()
    for _ in range(100):
        n = int(g.integers(2, 40))
        d = int(g.integers(1, 6))
        x = g.standard_normal((n, d)) * 3.0
        w = g.random(n) + 1e-3
        mean, cov = _mean_and_cov(x, w)
        assert np.max(np.abs(mean - loop_weighted_mean(x, w))) <= 1e-12
        assert np.max(np.abs(cov - loop_weighted_cov(x, w))) <= 1e-12


def test_weighted_stats_invariant_to_weight_rescaling():
    g = RngStream(8).split("scale").generator()
    x = g.standard_normal((30, 4))
    w = g.random(30) + 0.01
    mean, cov = _mean_and_cov(x, w)
    for factor in (1e-6, 3.0, 1e8):
        scaled_mean, scaled_cov = _mean_and_cov(x, w * factor)
        assert np.allclose(mean, scaled_mean, atol=1e-12)
        assert np.allclose(cov, scaled_cov, atol=1e-10)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_zero_mean_unit_variance():
    g = RngStream(4).split("norm").generator()
    x = g.standard_normal((500, 3)) * np.array([2.0, 0.5, 9.0]) + np.array([1.0, -4.0, 0.3])
    z = normalize_componentwise(x)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-12
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-12


def test_normalize_constant_column_stays_finite():
    # a constant column divides by the 1e-8 floor instead of erroring
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z = normalize_componentwise(x)
    assert np.all(np.isfinite(z))
    assert np.allclose(z[:, 1], 0.0, atol=0)


def test_normalize_needs_two_rows():
    with pytest.raises(DimensionError):
        normalize_componentwise(np.array([[1.0, 2.0]]))
    with pytest.raises(DimensionError, match="data must contain at least one row"):
        normalize_componentwise(np.empty((0, 2)))


def test_normalize_rejects_a_column_whose_std_overflows():
    # finite values whose variance overflows: the column would be divided
    # by an infinite std into zeros
    x = np.column_stack([np.where(np.arange(64) % 2, -1e308, 1e308), np.arange(64.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="column 0: standard deviation overflows"):
            normalize_componentwise(x)


_HUGE_COLUMN = np.where(np.arange(64) % 2, -1e308, 1e308)


@pytest.mark.parametrize("case", ["random", "flat", "two-rows", "negative-zero", "overflow"])
def test_normalize_parts_equal_numpy_centring_and_std_bit_for_bit(case):
    """sigma is taken from the centred data by the reductions x.std runs,
    so the centred data and sigma are numpy's own bytes."""
    g = RngStream(6).split(case).generator()
    x = {
        "random": g.standard_normal((517, 4)) * np.array([3.0, 1e-3, 1e5, 1.0]) + 7.0,
        "flat": np.column_stack([np.full(33, 0.1), g.standard_normal(33)]),
        "two-rows": g.standard_normal((2, 3)),
        "negative-zero": np.array([[-0.0, 1.0], [-0.0, -0.0], [0.0, 2.5]]),
        "overflow": np.column_stack([_HUGE_COLUMN, np.arange(64.0)]),
    }[case]
    with np.errstate(over="ignore", invalid="ignore"):
        _, centered, sigma, _ = core._normalize_parts(x)
        want_centered, want_sigma = x - x.mean(axis=0), x.std(axis=0)
    assert centered.tobytes() == want_centered.tobytes()
    assert sigma.tobytes() == want_sigma.tobytes()
    if case == "overflow":
        assert np.isinf(sigma[0])
        with pytest.raises(NonFiniteError, match="column 0: standard deviation overflows"):
            normalize_componentwise(x)


def test_normalize_affine_invariance():
    g = RngStream(5).split("aff").generator()
    x = g.standard_normal((200, 2))
    y = x * np.array([3.0, 0.25]) + np.array([-7.0, 2.0])
    assert np.max(np.abs(normalize_componentwise(x) - normalize_componentwise(y))) < 1e-12


# ---------------------------------------------------------------------------
# correlations


def test_pearson_matrix_self_correlation_is_identity_diag():
    g = RngStream(11).split("p").generator()
    x = g.standard_normal((2048, 8)) * np.arange(1.0, 9.0) + np.arange(8.0)
    p = pearson_corr_matrix(x, x)
    # the docstring promises exactly 1.0, not 1.0 up to roundoff
    assert np.all(np.diag(p) == 1.0)
    assert np.all(p <= 1.0) and np.all(p >= -1.0)


def test_pearson_matrix_entry_depends_only_on_its_two_columns():
    # a BLAS gemm sums each entry in an order set by the kernel and the
    # other columns; a fixed-order reduction gives every entry the bytes of
    # the single-pair call
    g = RngStream(14).split("pairs").generator()
    for n, dz, ds in ((3000, 4, 5), (9000, 6, 4)):
        z = g.standard_normal((n, dz)) * 2.0 + 1.5
        s = 0.4 * z[:, :1] + g.standard_normal((n, ds))
        p = pearson_corr_matrix(z, s)
        for j in range(dz):
            for k in range(ds):
                assert p[j, k] == pearson_corr_matrix(z[:, [j]], s[:, [k]])[0, 0], (n, j, k)


def test_pearson_matrix_sign_flip():
    g = RngStream(12).split("p2").generator()
    x = g.standard_normal((80, 2))
    p = pearson_corr_matrix(x, -x)
    assert np.allclose(np.diag(p), -1.0, atol=1e-12)


def test_pearson_matrix_matches_numpy_corrcoef():
    g = RngStream(13).split("p3").generator()
    z = g.standard_normal((60, 3))
    s = g.standard_normal((60, 4))
    p = pearson_corr_matrix(z, s)
    full = np.corrcoef(np.hstack([z, s]).T)
    assert np.max(np.abs(p - full[:3, 3:])) < 1e-12


@pytest.mark.parametrize("z_scale,s_scale,pair", [
    (1e160, 1.0, "left column 2 and right column 0"),  # a second moment overflows
    (1e100, 1e100, "left column 0 and right column 0"),  # only their product does
    (1e-100, 1e-100, "left column 0 and right column 0"),  # their product underflows
], ids=["moment", "product", "underflow"])
def test_pearson_matrix_names_the_pair_whose_moments_leave_float64(z_scale, s_scale, pair):
    # each case would otherwise read 0, nan or a clipped +-1
    g = RngStream(15).split("range").generator()
    z, s = g.standard_normal((100, 3)), g.standard_normal((100, 2))
    if s_scale == 1.0:
        z[:, 2] *= z_scale
    else:
        z, s = z * z_scale, s * s_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=pair):
            pearson_corr_matrix(z, s)


def test_pearson_matrix_rejects_constant_column():
    z = np.ones((10, 2))
    s = np.arange(20.0).reshape(10, 2)
    with pytest.raises(DegenerateColumnError):
        pearson_corr_matrix(z, s)
    with pytest.raises(DimensionError, match="row counts differ: 10 vs 9"):
        pearson_corr_matrix(s, s[:9])


def _spearman_distance(a, b) -> float:
    """1 - |spearman(a, b)| through the one-column distance matrix."""
    return float(spearman_distance_matrix(a[:, None], b[:, None])[0, 0])


def test_spearman_perfect_monotone():
    x = np.linspace(0.0, 1.0, 50)
    assert abs(_spearman_distance(x, np.exp(3.0 * x))) < 1e-14
    assert abs(_spearman_distance(x, -x**3)) < 1e-14


def test_spearman_handles_ties_via_average_ranks():
    # hand case: [1,2,2,3] vs [1,2,3,4]; tied ranks average to 2.5
    a = np.array([1.0, 2.0, 2.0, 3.0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    ra = np.array([1.0, 2.5, 2.5, 4.0])
    rb = np.array([1.0, 2.0, 3.0, 4.0])
    expect = 1.0 - abs(np.corrcoef(ra, rb)[0, 1])
    assert abs(_spearman_distance(a, b) - expect) < 1e-14


def test_spearman_monotone_invariance():
    g = RngStream(14).split("sp").generator()
    for _ in range(20):
        a = g.standard_normal(40)
        b = g.standard_normal(40)
        base = _spearman_distance(a, b)
        assert abs(_spearman_distance(np.exp(a), b) - base) < 1e-12
        assert abs(_spearman_distance(a, b**3) - base) < 1e-12


def test_average_ranks_match_loop_oracle_bit_for_bit():
    g = RngStream(15).split("ranks").generator()
    cases = [
        np.zeros(0), np.array([3.5]), np.full(1000, 2.0),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
        np.array([np.nan, 1.0, np.nan, -np.inf, 1.0, np.inf, -0.0, 0.0]),
        np.full(50, np.nan),
    ]
    ascending = np.sort(g.choice([-1.5, -0.0, 0.0, 1.0, 2.5, np.nan], size=2000))
    cases += [ascending, ascending[::-1]]  # sorted and reverse-sorted
    for n in (2, 17, 1000, 20000):
        cases += [
            g.standard_normal(n),
            g.integers(0, 3, size=n).astype(float),  # heavy ties
            np.round(g.standard_normal(n), 1),
            g.choice([-0.0, 0.0, 1.0, np.nan], size=n),
        ]
    for v in cases:
        assert average_ranks(v).tobytes() == loop_average_ranks(v).tobytes(), v
    with pytest.raises(DimensionError):
        average_ranks(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# orthogonal sampling


def test_polar_orthogonal_is_orthogonal():
    g = RngStream(15).split("po")
    for d in (2, 3, 5, 8):
        q = sample_haar_orthogonal(d, g)
        assert np.max(np.abs(q.T @ q - np.eye(d))) < 1e-12


@pytest.mark.parametrize("d", [2, 80, 96])
def test_product_in_row_blocks_equals_one_block_bit_for_bit(d):
    """Up to d=80 the products are one block of rows, from d=81 on several;
    every entry keeps its sum, so the bytes are those of the one call."""
    g = RngStream(d).split("product").generator()
    a, b = g.standard_normal((d, d)), g.standard_normal((d, d))
    one_call = np.add.reduce(a[:, :, None] * b[None], axis=1)
    assert np.array_equal(_product_in_order(a, b), one_call)


def test_haar_draw_at_d256_holds_a_bounded_temporary():
    """The products of one (256, 256) step would take 128 MiB at once."""
    tracemalloc.start()
    try:
        q = sample_haar_orthogonal(256, RngStream(21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    assert np.max(np.abs(q.T @ q - np.eye(256))) < 1e-12


def test_polar_orthogonal_of_orthogonal_is_itself():
    q0 = sample_haar_orthogonal(4, RngStream(17))
    assert np.max(np.abs(_polar_factor(q0) - q0)) < 1e-12


def _polar_cases():
    for d in (2, 3, 4, 5, 8, 16, 24, 32):
        for seed in range(8):
            yield RngStream(seed).split(f"jacobi{d}").generator().standard_normal((d, d))
    yield sample_haar_orthogonal(6, RngStream(19))


def test_polar_factor_equals_the_scalar_loop_bit_for_bit():
    """Same scale, same products summed in the same order, same stopping
    rule: the factor equals the Python-float loop's, and the input is not
    written."""
    for a in _polar_cases():
        before = a.copy()
        got = _polar_factor(a)
        assert np.array_equal(a, before)
        assert np.array_equal(got, loop_polar_factor(a)), a.shape


@pytest.mark.parametrize("bad", ["zero_column", "nan"])
def test_polar_factor_rejects_a_singular_or_nonfinite_matrix(bad):
    """A zero singular value stays zero and a NaN spreads, so the iteration
    never converges and gives up after its step cap."""
    a = RngStream(20).split("bad").generator().standard_normal((5, 5))
    if bad == "zero_column":
        a[:, 2] = 0.0
    else:
        a[3, 1] = np.nan
    with pytest.raises(NumericalError, match="polar iteration did not converge"):
        _polar_factor(a)
    with pytest.raises(NumericalError, match="polar iteration did not converge"):
        loop_polar_factor(a)


_KERNEL_SCRIPT = """
import ctypes, glob, hashlib, os
import numpy as np
from wica_lab.core import RngStream, sample_haar_orthogonal

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())
for d in (2, 16, 32):
    h = hashlib.sha256()
    for seed in range(5):
        h.update(sample_haar_orthogonal(d, RngStream(seed).split("kernel")).tobytes())
    print(d, h.hexdigest())
"""


def test_haar_draws_are_the_same_bytes_on_every_blas_kernel():
    """OpenBLAS picks its kernels per process (OPENBLAS_CORETYPE), so each
    kernel draws in a child process; a draw that called BLAS would round
    differently on the AVX-512, AVX2 and AVX kernels."""
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).resolve().parents[1]))
    outs = {}
    for kernel in ("SkylakeX", "Haswell", "Sandybridge"):
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_SCRIPT], env=dict(env, OPENBLAS_CORETYPE=kernel),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        name, *hashes = done.stdout.splitlines()
        assert name == kernel
        outs[kernel] = hashes
    assert outs["SkylakeX"] == outs["Haswell"] == outs["Sandybridge"]


def test_haar_requires_d_at_least_two():
    with pytest.raises(DimensionError):
        sample_haar_orthogonal(1, RngStream(0))


def test_haar_rotation_angle_uniform():
    """At d=2 the Haar measure puts a uniform angle on the rotation part.

    1000 seeded draws, two-sided KS against uniform on [-pi, pi), compared
    at the 1 percent critical value; the fixture haar_angle_ks.json records
    the same statistic.
    """
    stream = RngStream(77).split("haar")
    angles = np.array([
        float(np.arctan2(q[1, 0], q[0, 0]))
        for q in (sample_haar_orthogonal(2, stream) for _ in range(1000))
    ])
    ks = ks_statistic(angles, -np.pi, np.pi)
    assert ks < 1.63 / np.sqrt(1000)


def test_haar_determinism_across_fresh_streams():
    q1 = sample_haar_orthogonal(3, RngStream(123).split("q"))
    q2 = sample_haar_orthogonal(3, RngStream(123).split("q"))
    assert np.array_equal(q1, q2)


# ---------------------------------------------------------------------------
# rng streams


def test_split_does_not_advance_parent():
    root = RngStream(5)
    a = root.split("a").generator().standard_normal(4)
    _ = root.split("b").generator().standard_normal(4)
    c = RngStream(5).split("a").generator().standard_normal(4)
    assert np.array_equal(a, c)


def test_distinct_tags_give_distinct_streams():
    root = RngStream(5)
    a = root.split("a").generator().standard_normal(8)
    b = root.split("b").generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_nested_split_paths_are_stable():
    v1 = RngStream(9).split("x").split("y").generator().random(3)
    v2 = RngStream(9).split("x").split("y").generator().random(3)
    assert np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# csv round trip


def test_csv_round_trip_is_bit_exact(tmp_path):
    g = RngStream(21).split("csv").generator()
    x = g.standard_normal((37, 4)) * 1e3
    x[0, 0] = 1e-300
    x[1, 1] = -0.1  # not exactly representable; repr must round-trip it
    path = tmp_path / "data.csv"
    save_csv(path, x)
    back = load_csv(path)
    assert np.array_equal(back, x)


def test_save_csv_writes_csv_writer_bytes(tmp_path):
    g = RngStream(23).split("csv").generator()
    x = g.standard_normal((50, 3)) * 1e3
    x[0] = [-0.0, 5e-324, 1e-300]
    x[1] = [1e16, -1e16, 0.0]
    x[2, 0] = -0.1
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    save_csv(ours, x)
    csv_writer_save_csv(oracle, x)
    sha = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (ours, oracle)]
    assert sha[0] == sha[1]
    assert np.array_equal(load_csv(ours), x)


def test_dataset_load_save(tmp_path):
    g = RngStream(22).split("ds").generator()
    x = g.standard_normal((10, 2))
    path = tmp_path / "d.csv"
    save_csv(path, x)
    assert np.array_equal(_load_dataset(path), x)
    save_csv(path, x[:, :1])
    with pytest.raises(DimensionError, match="dataset needs at least 2 columns, got 1"):
        _load_dataset(path)


def test_csv_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c0,c1\n1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError):
        load_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c0,c1\n1.0,hello\n")
    with pytest.raises(FileFormatError):
        load_csv(path)
