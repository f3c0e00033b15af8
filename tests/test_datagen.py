"""Synthetic source families and their advertised properties."""

from pathlib import Path

import numpy as np
import pytest

from wica_lab.core import RngStream, normalize_componentwise, pearson_corr_matrix
from wica_lab.datagen import KINDS, SourceSpec, generate
from wica_lab.errors import DimensionError, FileFormatError
from wica_lab.wii import WiiConfig, wii_index

from oracles import load_record

DATA = Path(__file__).parent / "data"


def _offdiag_max(corr: np.ndarray) -> float:
    c = np.abs(corr.copy())
    np.fill_diagonal(c, 0.0)
    return float(c.max())


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        SourceSpec(kind="gaussian", d=2, n=10)
    with pytest.raises(DimensionError):
        SourceSpec(kind="uniform", d=1, n=10)
    with pytest.raises(DimensionError):
        SourceSpec(kind="uniform", d=2, n=1)
    with pytest.raises(DimensionError):
        SourceSpec(kind="uniform", d=2, n=10, seed=-1)
    with pytest.raises(DimensionError):
        SourceSpec(kind="fig1_dependent", d=3, n=10)
    # degenerate or inverted param ranges
    for kind, params in [
        ("sine_mixture", {"t_max": 0}),
        ("sine_mixture", {"omega_min": 5, "omega_max": 1}),
        ("fig1_dependent", {"half_angle": 0}),
        ("fig1_dependent", {"half_angle": -1}),
        ("fig1_dependent", {"radius_min": 2, "radius_max": 1}),
    ]:
        with pytest.raises(DimensionError):
            SourceSpec(kind=kind, d=2, n=10, params=params)
    # a param of the wrong type, or one the kind does not take
    for kind, params in [
        ("sine_mixture", {"t_max": "x"}),
        ("sine_mixture", {"tmax": 5}),
        ("uniform", {"t_max": 5}),
        ("fig1_dependent", {"half_angle": True}),
    ]:
        with pytest.raises(FileFormatError):
            SourceSpec(kind=kind, d=2, n=10, params=params)
    # d, n and seed of the wrong type
    for args in [{"d": 2.5, "n": 10}, {"d": True, "n": 10}, {"d": 2, "n": 10.0},
                 {"d": 2, "n": 10, "seed": None}]:
        with pytest.raises(FileFormatError):
            SourceSpec(kind="uniform", **args)


def test_every_kind_is_normalized_and_deterministic():
    for kind in KINDS:
        d = 2 if kind == "fig1_dependent" else 3
        n = 4 if kind == "lattice" else 600
        spec = SourceSpec(kind=kind, d=d, n=n, seed=9)
        x = generate(spec)
        assert x.shape == ((n ** d, d) if kind == "lattice" else (n, d))
        assert np.abs(x.mean(axis=0)).max() < 1e-12
        assert np.abs(x.std(axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(x, generate(spec))


def test_random_kinds_depend_on_seed():
    for kind in ("uniform", "laplace", "sine_mixture", "fig1_dependent"):
        d = 2 if kind == "fig1_dependent" else 3
        a = generate(SourceSpec(kind=kind, d=d, n=200, seed=0))
        b = generate(SourceSpec(kind=kind, d=d, n=200, seed=1))
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# lattice


def test_lattice_is_the_normalized_grid():
    x = generate(SourceSpec(kind="lattice", d=2, n=3))
    axis = np.linspace(-1.0, 1.0, 3)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    expected = normalize_componentwise(
        np.column_stack([gx.reshape(-1), gy.reshape(-1)])
    )
    assert x.shape == (9, 2)
    assert np.array_equal(x, expected)


def test_lattice_ignores_seed():
    a = generate(SourceSpec(kind="lattice", d=2, n=5, seed=0))
    b = generate(SourceSpec(kind="lattice", d=2, n=5, seed=7))
    assert np.array_equal(a, b)


def test_lattice_row_cap():
    with pytest.raises(DimensionError):
        generate(SourceSpec(kind="lattice", d=3, n=101))  # 101^3 > 10^6


def test_lattice_columns_are_independent():
    x = generate(SourceSpec(kind="lattice", d=2, n=20))
    assert _offdiag_max(pearson_corr_matrix(x, x)) < 1e-12


# ---------------------------------------------------------------------------
# i.i.d. families


def test_uniform_columns_are_uncorrelated():
    x = generate(SourceSpec(kind="uniform", d=4, n=100000, seed=3))
    assert _offdiag_max(pearson_corr_matrix(x, x)) < 0.01
    assert np.abs(x).max() < 2.0  # normalized U(-1, 1) stays inside sqrt(3)+eps


def test_laplace_has_heavy_tails():
    x = generate(SourceSpec(kind="laplace", d=2, n=100000, seed=4))
    kurt = (x ** 4).mean(axis=0)  # columns are already zero-mean unit-std
    assert kurt.min() > 4.5  # laplace kurtosis is 6, gaussian is 3


# ---------------------------------------------------------------------------
# sine mixture


def test_sine_mixture_columns_are_nearly_uncorrelated():
    x = generate(SourceSpec(kind="sine_mixture", d=4, n=8192, seed=5))
    assert _offdiag_max(pearson_corr_matrix(x, x)) < 0.1


def test_sine_mixture_params_change_output():
    base = SourceSpec(kind="sine_mixture", d=2, n=500, seed=6)
    other = SourceSpec(
        kind="sine_mixture", d=2, n=500, seed=6, params={"t_max": 50.0}
    )
    assert not np.array_equal(generate(base), generate(other))


def test_sine_mixture_rejects_unfittable_frequencies():
    spec = SourceSpec(
        kind="sine_mixture", d=3, n=100, seed=0,
        params={"omega_min": 1.0, "omega_max": 1.5, "min_sep": 10.0},
    )
    with pytest.raises(DimensionError):
        generate(spec)


# ---------------------------------------------------------------------------
# dependent arcs


def test_dependent_arcs_have_zero_pearson():
    x = generate(SourceSpec(kind="fig1_dependent", d=2, n=10000, seed=303))
    assert abs(pearson_corr_matrix(x, x)[0, 1]) < 1e-10


def test_dependent_arcs_trip_the_weighted_index():
    """Zero correlation but a large index; the frozen record pins both the
    measured values and the ratio over the independent-uniform baseline."""
    record = load_record(DATA / "wii_fig1.json")
    baseline = load_record(DATA / "wii_independent.json")

    x = generate(SourceSpec(kind="fig1_dependent", d=2, n=record.n, seed=record.seed))
    value = wii_index(x, WiiConfig(), RngStream(202))
    assert abs(value - record.measured["wii"]) < 1e-12

    base = generate(SourceSpec(kind="uniform", d=2, n=baseline.n, seed=baseline.seed))
    base_value = wii_index(base, WiiConfig(), RngStream(202))
    assert abs(base_value - record.measured["baseline_wii"]) < 1e-12

    assert value / base_value >= record.threshold


def test_dependent_arcs_params_change_output():
    base = SourceSpec(kind="fig1_dependent", d=2, n=400, seed=1)
    other = SourceSpec(
        kind="fig1_dependent", d=2, n=400, seed=1, params={"half_angle": 0.3}
    )
    assert not np.array_equal(generate(base), generate(other))
