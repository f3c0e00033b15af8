"""The reference implementations must themselves be trustworthy."""

import math

import numpy as np
import pytest

from wica_lab.core import RngStream
from wica_lab.errors import DimensionError, FileFormatError, NumericalError

from oracles import (
    CalibrationRecord,
    brute_assignment,
    fd_gradient,
    fd_jacobian,
    ks_statistic,
    linear_fit_residual,
    load_record,
    loop_average_ranks,
    loop_weighted_cov,
    loop_weighted_mean,
    quadrature_P,
    rowwise_assignment,
    save_record,
)


# ---------------------------------------------------------------------------
# loop statistics


def test_loop_mean_two_point_closed_form():
    x = np.array([[0.0, 10.0], [4.0, -2.0]])
    w = np.array([1.0, 3.0])
    m = loop_weighted_mean(x, w)
    assert np.allclose(m, [3.0, 1.0], atol=1e-15)


def test_loop_cov_two_point_closed_form():
    # weights (1, 3) put the mean at 3/4 of the way; cov is w-weighted
    x = np.array([[0.0, 0.0], [4.0, 2.0]])
    w = np.array([1.0, 3.0])
    c = loop_weighted_cov(x, w)
    # var(c0) = (1*(0-3)^2 + 3*(4-3)^2)/4 = 3, var(c1) = 3/4, cov = 3/2
    assert np.allclose(c, [[3.0, 1.5], [1.5, 0.75]], atol=1e-14)


def test_loop_cov_equal_weights_match_population_cov():
    g = RngStream(0).split("x").generator()
    x = g.standard_normal((40, 3))
    c = loop_weighted_cov(x, np.ones(40))
    assert np.allclose(c, np.cov(x.T, bias=True), atol=1e-12)


# ---------------------------------------------------------------------------
# exhaustive assignment


def test_brute_zero_diagonal_picks_identity():
    c = 1.0 - np.eye(4)
    perm, total = brute_assignment(c)
    assert np.array_equal(perm, [0, 1, 2, 3])
    assert total == 0.0


def test_brute_single_entry():
    perm, total = brute_assignment(np.array([[2.5]]))
    assert np.array_equal(perm, [0]) and total == 2.5


def test_brute_constant_costs_break_ties_lexicographically():
    perm, total = brute_assignment(np.full((4, 4), 7.0))
    assert np.array_equal(perm, [0, 1, 2, 3])
    assert total == 28.0


def test_brute_known_three_by_three():
    c = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    perm, total = brute_assignment(c)
    assert np.array_equal(perm, [1, 0, 2])
    assert total == 5.0


def test_brute_rejects_big_and_nonsquare():
    with pytest.raises(DimensionError):
        brute_assignment(np.zeros((9, 9)))
    with pytest.raises(DimensionError):
        brute_assignment(np.zeros((2, 3)))


def test_rowwise_assignment_matches_brute_on_ties():
    g = RngStream(52).split("rowwise").generator()
    for _ in range(50):
        cost = g.integers(0, 3, size=(5, 5)).astype(float)
        perm, total = rowwise_assignment(cost)
        bperm, btotal = brute_assignment(cost)
        assert np.array_equal(perm, bperm) and abs(total - btotal) < 1e-12


def test_loop_ranks_hand_case():
    # [2, 1, 2, 3]: the two 2s occupy ranks 2 and 3 and share 2.5
    assert loop_average_ranks([2.0, 1.0, 2.0, 3.0]).tolist() == [2.5, 1.0, 2.5, 4.0]


# ---------------------------------------------------------------------------
# finite differences


def test_fd_gradient_is_exact_on_quadratics():
    # central differences have no second-order error term on a quadratic
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -2.0])

    def f(t):
        return 0.5 * float(t @ a @ t) + float(b @ t)

    theta = np.array([0.3, -1.2])
    grad = fd_gradient(f, theta, 1e-4)
    assert np.allclose(grad, a @ theta + b, atol=1e-9)


def test_fd_gradient_handles_transcendental():
    theta = np.array([0.2, 0.7])
    grad = fd_gradient(lambda t: math.sin(t[0]) * math.exp(t[1]), theta, 1e-6)
    expect = np.array(
        [math.cos(0.2) * math.exp(0.7), math.sin(0.2) * math.exp(0.7)]
    )
    assert np.abs(grad - expect).max() < 1e-8


def test_fd_gradient_rejects_bad_h_and_nonfinite():
    with pytest.raises(DimensionError):
        fd_gradient(lambda t: 0.0, np.zeros(2), 0.0)
    with pytest.raises(NumericalError):
        fd_gradient(lambda t: float("inf"), np.zeros(2), 1e-5)


def test_fd_jacobian_on_linear_map():
    a = np.array([[1.0, 2.0, 0.0], [-1.0, 0.5, 3.0]])
    jac = fd_jacobian(lambda v: a @ v, np.array([0.4, -0.8, 1.5]), 1e-5)
    assert np.allclose(jac, a, atol=1e-9)


def test_fd_jacobian_rejects_nonfinite():
    with pytest.raises(NumericalError):
        fd_jacobian(lambda v: np.array([float("nan")]), np.zeros(2), 1e-5)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_at_origin():
    # closed form at the origin in 2-D: (3/4)^(2/2) = 0.75
    assert abs(quadrature_P(np.zeros(2)) - 0.75) < 1e-4


def test_quadrature_decay_at_known_radius():
    # |p|^2 = 6 sits exactly one e-fold down from the origin value
    value = quadrature_P(np.array([math.sqrt(6.0), 0.0]))
    assert abs(value / 0.75 - math.exp(-1.0)) < 1e-3


def test_quadrature_is_grid_stable():
    a = quadrature_P(np.array([0.5, -1.0]), step=0.04)
    b = quadrature_P(np.array([0.5, -1.0]), step=0.02)
    assert abs(a - b) < 1e-4 * abs(b)


def test_quadrature_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        quadrature_P(np.zeros(3))


# ---------------------------------------------------------------------------
# distribution checks


def test_ks_statistic_on_ideal_sample():
    n = 1000
    v = (np.arange(n) + 0.5) / n
    assert abs(ks_statistic(v, 0.0, 1.0) - 0.5 / n) < 1e-12


def test_ks_statistic_flags_point_mass():
    assert ks_statistic(np.full(100, 0.5), 0.0, 1.0) == 0.5


def test_ks_statistic_validation():
    with pytest.raises(DimensionError):
        ks_statistic(np.array([]), 0.0, 1.0)
    with pytest.raises(DimensionError):
        ks_statistic(np.array([0.5]), 1.0, 0.0)


def test_linear_fit_residual_separates_affine_from_not():
    g = RngStream(1).split("s").generator()
    s = g.standard_normal((500, 3))
    affine = s @ g.standard_normal((3, 3)) + np.array([1.0, -2.0, 0.5])
    assert linear_fit_residual(s, affine) < 1e-10
    warped = np.column_stack([s[:, 0] ** 2, np.tanh(3.0 * s[:, 1]), s[:, 2] ** 3])
    assert linear_fit_residual(s, warped) > 0.1


# ---------------------------------------------------------------------------
# calibration records


def test_record_round_trip(tmp_path):
    record = CalibrationRecord(
        tag="demo",
        seed=42,
        n=1000,
        d=3,
        measured={"value": 0.123456789, "spread": 1e-9},
        threshold=0.5,
        recipe="how the numbers were produced",
    )
    path = tmp_path / "record.json"
    save_record(path, record)
    assert load_record(path) == record
    # a rewrite of the same record is byte-identical
    text = path.read_text()
    save_record(path, load_record(path))
    assert path.read_text() == text


def test_record_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3\n")
    with pytest.raises(FileFormatError):
        load_record(bad)
    partial = tmp_path / "partial.json"
    partial.write_text('{"tag": "x", "seed": 0}\n')
    with pytest.raises(FileFormatError):
        load_record(partial)
    with pytest.raises(FileFormatError):
        load_record(tmp_path / "nope.json")
