"""Assignment solver and the two permutation-matched recovery scores."""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from wica_lab.core import RngStream, pearson_corr_matrix
from wica_lab.errors import DegenerateColumnError, DimensionError, NonFiniteError
from wica_lab.metrics import (
    ScoreReport,
    load_report,
    max_corr,
    ots,
    report_to_json,
    save_report,
    score,
    solve_assignment,
    spearman_distance_matrix,
)

from oracles import brute_assignment, load_record, rowwise_assignment

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# assignment


def test_zero_diagonal_picks_identity():
    cost = np.ones((4, 4)) - np.eye(4)
    perm, total = solve_assignment(cost)
    assert list(perm) == [0, 1, 2, 3]
    assert total == 0.0


def test_two_by_two_symmetric_prefers_identity():
    perm, total = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert list(perm) == [0, 1]
    assert total == 0.0


def test_assignment_matches_brute_force_on_random_instances():
    g = RngStream(41).split("hung").generator()
    for _ in range(100):
        cost = g.random((6, 6))
        perm, total = solve_assignment(cost)
        bperm, btotal = brute_assignment(cost)
        assert abs(total - btotal) < 1e-12
        assert np.array_equal(perm, bperm)


def test_assignment_tie_break_is_lexicographic():
    # every permutation of a constant matrix is optimal: identity must win
    perm, total = solve_assignment(np.full((5, 5), 2.0))
    assert list(perm) == [0, 1, 2, 3, 4]
    assert abs(total - 10.0) < 1e-12
    # two optima {0->0,1->1} and {0->1,1->0}: lexicographic keeps identity
    perm2, _ = solve_assignment(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert list(perm2) == [0, 1]


def test_assignment_tie_break_matches_brute_on_discrete_costs():
    # integer-valued costs force frequent exact ties
    g = RngStream(42).split("ties").generator()
    for _ in range(200):
        cost = g.integers(0, 3, size=(5, 5)).astype(float)
        perm, total = solve_assignment(cost)
        bperm, btotal = brute_assignment(cost)
        assert abs(total - btotal) < 1e-12
        assert np.array_equal(perm, bperm), (cost, perm, bperm)


def _oracle_instances():
    g = RngStream(47).split("rowwise").generator()
    for d in [*range(1, 13), 16, 24, 32]:
        yield g.random((d, d))
        yield g.integers(0, 3, size=(d, d)).astype(float)
        yield np.full((d, d), float(g.integers(0, 3)))
        # 1 - |corr| against sources drawn with repeats, every other copy
        # noisy: repeated exact copies give identical rows, hence ties
        s = g.standard_normal((200, d))
        z = s[:, g.integers(0, d, size=d)]
        z[:, ::2] += 0.1 * g.standard_normal((200, (d + 1) // 2))
        yield 1.0 - np.abs(pearson_corr_matrix(z, s))


def test_assignment_matches_rowwise_resolve_oracle():
    # the solver replaced row-by-row re-solves; exact ties must resolve
    # the same, and the totals must agree to the bit
    for cost in _oracle_instances():
        perm, total = solve_assignment(cost)
        operm, ototal = rowwise_assignment(cost)
        assert np.array_equal(perm, operm), cost
        assert total == ototal


def test_assignment_at_d64_is_fast():
    g = RngStream(48).split("d64").generator()
    for cost in (g.random((64, 64)), g.integers(0, 3, size=(64, 64)).astype(float)):
        start = time.perf_counter()
        perm, _ = solve_assignment(cost)
        assert time.perf_counter() - start < 1.0
        assert sorted(perm) == list(range(64))


def test_assignment_never_beats_identity_bound():
    g = RngStream(43).split("bound").generator()
    for _ in range(50):
        cost = g.standard_normal((6, 6))
        _, total = solve_assignment(cost)
        assert total <= float(np.trace(cost)) + 1e-12


def test_assignment_rejects_bad_input():
    with pytest.raises(DimensionError):
        solve_assignment(np.zeros((3, 4)))
    with pytest.raises(NonFiniteError):
        solve_assignment(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# ots


def test_ots_identity_is_one():
    g = RngStream(44).split("ots").generator()
    s = g.standard_normal((300, 4))
    value, perm = ots(s, s)
    assert value == 1.0
    assert list(perm) == [0, 1, 2, 3]


def test_ots_invariant_to_permutation_monotone_and_sign():
    g = RngStream(45).split("inv").generator()
    s = g.standard_normal((1000, 4))
    z = s[:, [2, 0, 3, 1]].copy()
    z[:, 0] = np.exp(z[:, 0])
    z[:, 1] = z[:, 1] ** 3
    z[:, 2] = -z[:, 2]
    z[:, 3] = np.arctan(z[:, 3])
    value, perm = ots(z, s)
    assert abs(value - 1.0) < 1e-12
    # column j of z is source perm-inverse; the report convention is checked
    # in test_report below, here only exact recovery matters
    assert sorted(perm) == [0, 1, 2, 3]


def test_ots_null_level_is_low():
    rec = load_record(DATA / "ots_null.json")
    worst = 0.0
    for k in range(20):
        g = RngStream(400 + k)
        z = g.split("z").generator().standard_normal((1000, 4))
        s = g.split("s").generator().standard_normal((1000, 4))
        value, _ = ots(z, s)
        worst = max(worst, value)
    assert worst < rec.threshold
    assert abs(worst - rec.measured["max"]) < 1e-12


def test_spearman_distance_matrix_range():
    g = RngStream(46).split("sd").generator()
    m = spearman_distance_matrix(g.standard_normal((100, 3)), g.standard_normal((100, 3)))
    assert np.all(m >= 0.0) and np.all(m <= 1.0)


# ---------------------------------------------------------------------------
# max_corr


def test_max_corr_identity_is_one():
    g = RngStream(47).split("mc").generator()
    s = g.standard_normal((200, 3))
    value, perm = max_corr(s, s)
    assert abs(value - 1.0) < 1e-12
    assert list(perm) == [0, 1, 2]


def test_max_corr_swapped_negated_columns():
    g = RngStream(48).split("mc2").generator()
    s = g.standard_normal((200, 2))
    z = -s[:, [1, 0]]
    value, _ = max_corr(z, s)
    assert abs(value - 1.0) < 1e-12


def test_max_corr_equals_brute_force_over_permutations():
    g = RngStream(49).split("mc3").generator()
    for d in (2, 4, 6):
        z = g.standard_normal((80, d))
        s = g.standard_normal((80, d))
        value, _ = max_corr(z, s)
        p = np.abs(pearson_corr_matrix(z, s))
        best = max(
            float(np.mean([p[pi[j], j] for j in range(d)]))
            for pi in itertools.permutations(range(d))
        )
        assert abs(value - best) < 1e-12


def test_max_corr_affine_invariance():
    g = RngStream(50).split("mc4").generator()
    s = g.standard_normal((300, 3))
    z = g.standard_normal((300, 3)) + 0.5 * s
    v1, _ = max_corr(z, s)
    v2, _ = max_corr(z * np.array([2.0, -0.3, 10.0]) + 1.0, s)
    assert abs(v1 - v2) < 1e-10


def test_max_corr_rejects_constant_column():
    g = RngStream(51).split("mc5").generator()
    s = g.standard_normal((50, 2))
    z = s.copy()
    z[:, 0] = 3.14
    with pytest.raises(DegenerateColumnError):
        max_corr(z, s)


# ---------------------------------------------------------------------------
# score report


def test_score_identity_report():
    g = RngStream(52).split("sc").generator()
    s = g.standard_normal((150, 3))
    rep = score(s, s)
    assert rep.ots == 1.0
    assert abs(rep.max_corr - 1.0) < 1e-12
    assert rep.assignment_ots == (0, 1, 2)
    assert rep.assignment_max_corr == (0, 1, 2)


def test_report_assignment_convention():
    # assignment_ots[j] names the z column matched to source j
    g = RngStream(53).split("conv").generator()
    s = g.standard_normal((400, 3))
    z = s[:, [1, 2, 0]]  # z column 0 is source 1, column 1 is source 2, ...
    rep = score(z, s)
    assert rep.assignment_ots == (2, 0, 1)
    assert rep.assignment_max_corr == (2, 0, 1)


def test_report_values_recomputable_from_matrices():
    """The stored scalars must follow from the stored matrices and assignments."""
    g = RngStream(54).split("rec").generator()
    z = g.standard_normal((200, 4))
    s = g.standard_normal((200, 4)) + 0.3 * z
    rep = score(z, s)
    d = 4
    ots_again = float(np.mean([
        abs(rep.spearman_matrix[rep.assignment_ots[j], j]) for j in range(d)
    ]))
    mc_again = float(np.mean([
        abs(rep.pearson_matrix[rep.assignment_max_corr[j], j]) for j in range(d)
    ]))
    assert abs(rep.ots - ots_again) < 1e-12
    assert abs(rep.max_corr - mc_again) < 1e-12


def test_report_bounds_always_hold():
    g = RngStream(55).split("b").generator()
    for _ in range(10):
        z = g.standard_normal((60, 3))
        s = g.standard_normal((60, 3))
        rep = score(z, s)
        assert 0.0 <= rep.ots <= 1.0
        assert 0.0 <= rep.max_corr <= 1.0


def test_report_json_round_trip(tmp_path):
    g = RngStream(56).split("json").generator()
    z = g.standard_normal((100, 3))
    s = g.standard_normal((100, 3))
    rep = score(z, s)
    path = tmp_path / "report.json"
    save_report(path, rep, matrices=True)
    back = load_report(path)
    assert back.ots == rep.ots
    assert back.max_corr == rep.max_corr
    assert back.assignment_ots == rep.assignment_ots
    assert np.array_equal(back.spearman_matrix, rep.spearman_matrix)
    # serialization itself is deterministic
    assert report_to_json(back, matrices=True) == report_to_json(rep, matrices=True)


def test_report_without_matrices(tmp_path):
    g = RngStream(57).split("nm").generator()
    z = g.standard_normal((50, 2))
    s = g.standard_normal((50, 2))
    rep = score(z, s)
    path = tmp_path / "lean.json"
    save_report(path, rep, matrices=False)
    back = load_report(path)
    assert back.ots == rep.ots
    assert np.all(np.isnan(back.spearman_matrix))


def test_score_report_validates_permutations():
    with pytest.raises(DimensionError):
        ScoreReport(
            ots=0.5, max_corr=0.5,
            assignment_ots=(0, 0), assignment_max_corr=(0, 1),
            spearman_matrix=np.zeros((2, 2)), pearson_matrix=np.zeros((2, 2)),
        )
