"""The ten gate criteria, one test and one printed verdict line each.

Every criterion re-derives its quantities from seeds; the frozen records
under tests/data/ supply thresholds and cross-check values, never the
computation itself.  Criteria 9 and 10 share one set of end-to-end
training runs through a module-scoped fixture because those runs
dominate the suite's wall time; the fixture trains them two at a time in
worker processes.
"""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wica_lab.core import RngStream, _weighted_moments, normalize_componentwise
from wica_lab.datagen import SourceSpec, generate
from wica_lab.metrics import ots, report_to_json, score, solve_assignment
from wica_lab.mixer import build_pipeline, mix, stage_forward, unmix_exact
from wica_lab.trainer import TrainConfig, cost_gradient, encode, init_model, train, wica_cost
from wica_lab.wii import _coefficients, wii_index

from oracles import (
    brute_assignment,
    fd_jacobian,
    fd_model_gradient,
    load_record,
    loop_weighted_cov,
    loop_weighted_mean,
)

DATA = Path(__file__).parent / "data"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. weighted statistics against loop oracles


def test_criterion_01_weighted_statistics_match_loop_oracles():
    gen = RngStream(9001).split("cases").generator()
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(5, 60))
        d = int(gen.integers(2, 6))
        x = gen.standard_normal((n, d)) * gen.uniform(0.5, 3.0)
        w = gen.uniform(0.1, 2.0, size=n)
        means, _, cov = _weighted_moments(x, w[None], w.sum(keepdims=True))
        worst = max(
            worst,
            float(np.abs(means[0] - loop_weighted_mean(x, w)).max()),
            float(np.abs(cov[0] - loop_weighted_cov(x, w)).max()),
        )
    _verdict(1, worst <= 1e-12,
             f"weighted mean/cov vs loop oracles on 100 instances, "
             f"max abs err {worst:.3e} (bound 1e-12)")


# ---------------------------------------------------------------------------
# 2. the pair coefficient is bounded by the squared weighted correlation


def test_criterion_02_coefficient_bounded_by_squared_correlation():
    gen = RngStream(9002).split("cases").generator()
    worst_excess = -np.inf
    worst_equality = 0.0
    for _ in range(1000):
        n = int(gen.integers(10, 50))
        x = gen.standard_normal((n, 2)) @ gen.standard_normal((2, 2))
        w = gen.uniform(0.05, 1.0, size=n)
        z = _weighted_moments(x, w[None], w.sum(keepdims=True))[2][0]
        if z[0, 0] <= 0.0 or z[1, 1] <= 0.0:
            continue
        c = _coefficients(z)[0, 1]
        rho_sq = z[0, 1] ** 2 / (z[0, 0] * z[1, 1])
        worst_excess = max(worst_excess, c - rho_sq)
        # equal weighted stds turn the bound into an identity
        scaled = x / np.sqrt(np.diag(z))
        zs = _weighted_moments(scaled, w[None], w.sum(keepdims=True))[2][0]
        cs = _coefficients(zs)[0, 1]
        rs = zs[0, 1] ** 2 / (zs[0, 0] * zs[1, 1])
        worst_equality = max(worst_equality, abs(cs - rs))
    ok = worst_excess <= 1e-12 and worst_equality <= 1e-10
    _verdict(2, ok,
             f"c_ij <= rho_ij^2 on 1000 weighted samples "
             f"(max excess {worst_excess:.3e}, bound 1e-12); equality at "
             f"equal stds within {worst_equality:.3e} (bound 1e-10)")


# ---------------------------------------------------------------------------
# 3. index calibration: independent data low, dependent arcs high


def test_criterion_03_index_separates_independence_from_dependence():
    base_rec = load_record(DATA / "wii_independent.json")
    arcs_rec = load_record(DATA / "wii_fig1.json")
    u = generate(SourceSpec(kind="uniform", d=2, n=base_rec.n, seed=base_rec.seed))
    low = wii_index(u, rng=RngStream(202))
    f = generate(SourceSpec(kind="fig1_dependent", d=2, n=arcs_rec.n, seed=arcs_rec.seed))
    high = wii_index(f, rng=RngStream(202))
    ok = low < base_rec.threshold and high >= arcs_rec.threshold * low
    _verdict(3, ok,
             f"independent-uniform index {low:.3e} < {base_rec.threshold}; "
             f"dependent-arcs index {high:.3e} is {high / low:.1f}x the "
             f"baseline (needs >= {arcs_rec.threshold}x)")


# ---------------------------------------------------------------------------
# 4. mixing is numerically invertible and volume preserving


def test_criterion_04_mixing_invertibility_and_unit_jacobian():
    pipe = build_pipeline(10, 50, 16, RngStream(9004))
    x = RngStream(9005).split("x").generator().standard_normal((1000, 10))
    roundtrip = float(np.abs(unmix_exact(pipe, mix(pipe, x)) - x).max())

    small = build_pipeline(4, 5, 8, RngStream(9006))
    pt_gen = RngStream(9007).split("pts").generator()
    worst_det = 0.0
    for stage in small.stages:
        point = pt_gen.standard_normal(4)
        jac = fd_jacobian(lambda v: stage_forward(stage, v[None, :])[0], point, 1e-5)
        worst_det = max(worst_det, abs(abs(float(np.linalg.det(jac))) - 1.0))
    ok = roundtrip < 1e-6 and worst_det <= 1e-4
    _verdict(4, ok,
             f"d=10/50-stage round trip err {roundtrip:.3e} (bound 1e-6); "
             f"max | |det J| - 1 | over 5 stages at d=4 is {worst_det:.3e} "
             f"(bound 1e-4)")


# ---------------------------------------------------------------------------
# 5. the assignment solver is exact, ties included


def test_criterion_05_assignment_matches_exhaustive_search():
    gen = RngStream(9008).split("costs").generator()
    checked = 0
    for d, count in ((6, 100), (7, 20)):
        for k in range(count):
            if k % 2 == 0:
                cost = gen.uniform(0.0, 1.0, size=(d, d))
            else:
                # small integer costs force massive tie sets
                cost = gen.integers(0, 4, size=(d, d)).astype(np.float64)
            perm, total = solve_assignment(cost)
            bperm, btotal = brute_assignment(cost)
            assert np.array_equal(perm, bperm), (d, k, perm, bperm)
            assert abs(total - btotal) <= 1e-12
            checked += 1
    _verdict(5, checked == 120,
             "solver == exhaustive search (permutation and value) on "
             "100 random 6x6 and 20 random 7x7 costs, ties included")


# ---------------------------------------------------------------------------
# 6. OTS identities and the independence null


def test_criterion_06_ots_identities_and_null_level():
    s = generate(SourceSpec(kind="uniform", d=4, n=1000, seed=9009))
    self_score, _ = ots(s, s)

    warped = np.column_stack([
        np.exp(s[:, 2]),          # strictly increasing
        s[:, 0] ** 3,             # strictly increasing
        -s[:, 3],                 # sign flip
        np.arctan(2.0 * s[:, 1]), # strictly increasing
    ])
    warped_score, _ = ots(warped, s)

    null_rec = load_record(DATA / "ots_null.json")
    worst_null = 0.0
    for k in range(20):
        g = RngStream(400 + k)
        z = g.split("z").generator().standard_normal((1000, 4))
        t = g.split("s").generator().standard_normal((1000, 4))
        value, _ = ots(z, t)
        worst_null = max(worst_null, value)
    ok = self_score == 1.0 and warped_score == 1.0 and worst_null < null_rec.threshold
    _verdict(6, ok,
             f"ots(s, s) = {self_score}; permuted/warped/flipped ots = "
             f"{warped_score}; max null ots over 20 pairs {worst_null:.4f} "
             f"(bound {null_rec.threshold})")


# ---------------------------------------------------------------------------
# 7. the two measures order swap trials and agree on full mixtures


def test_criterion_07_measure_ordering_on_swap_and_mixed_trials():
    swap_rec = load_record(DATA / "swap_trials.json")
    n = int(swap_rec.measured["n"])
    iters = int(swap_rec.measured["iterations"])
    min_margin = np.inf
    for d in (4, 6):
        for k in range(10):
            seed = 1000 * d + k
            s = generate(SourceSpec(kind="laplace", d=d, n=n, seed=seed))
            pipe = build_pipeline(d, iters, 16, RngStream(seed + 7000))
            x = normalize_componentwise(mix(pipe, s))
            swapped = x.copy()
            swapped[:, seed % d] = s[:, seed % d]
            rep = score(swapped, s)
            margin = rep.max_corr - rep.ots
            assert abs(margin - swap_rec.measured[f"margin_d{d}_s{seed}"]) < 1e-9
            min_margin = min(min_margin, margin)

    band_rec = load_record(DATA / "band_trials.json")
    within = 0
    worst_gap = 0.0
    for k in range(20):
        seed = 8000 + k
        s = generate(SourceSpec(kind="laplace", d=4, n=8192, seed=seed))
        pipe = build_pipeline(4, 10, 16, RngStream(seed + 7000))
        rep = score(normalize_componentwise(mix(pipe, s)), s)
        gap = abs(rep.max_corr - rep.ots)
        worst_gap = max(worst_gap, gap)
        within += gap <= band_rec.threshold
    ok = min_margin >= 0.0 and within >= 18
    _verdict(7, ok,
             f"max_corr >= ots on all 20 swap trials (min margin "
             f"{min_margin:+.4f}); fully mixed |max_corr - ots| <= "
             f"{band_rec.threshold} on {within}/20 trials (needs >= 18, "
             f"worst gap {worst_gap:.3f})")


# ---------------------------------------------------------------------------
# 8. the hand-written gradient against finite differences


def test_criterion_08_gradient_matches_finite_differences():
    point_gen = RngStream(9010).split("pts").generator()
    cfg = TrainConfig(beta=1.0)
    worst = 0.0
    for seed in range(20):
        model = init_model(2, (4,), RngStream(seed).split("init"))
        x = RngStream(seed).split("batch").generator().standard_normal((16, 2))
        points = 0.5 * point_gen.standard_normal((2, 2))
        analytic = cost_gradient(model, x, points, cfg)
        fd = fd_model_gradient(
            lambda m: wica_cost(m, x, points, cfg)[0], model, 1e-5
        )
        rel = np.abs(fd - analytic) / np.maximum(np.abs(fd) + np.abs(analytic), 1e-6)
        worst = max(worst, float(rel.max()))
    _verdict(8, worst <= 1e-4,
             f"analytic vs central-difference gradient on 20 models "
             f"(d=2, hidden 4, batch 16): max rel err {worst:.3e} "
             f"(bound 1e-4)")


# ---------------------------------------------------------------------------
# 9 and 10. end-to-end unmixing, shared across both criteria


def _train_run(x, s, seed: int, eval_seed: int) -> dict:
    """One 5000-step training of seed on x: its score report against s as
    JSON, and the encoded index at initialization and after training."""
    init, _ = train(x, TrainConfig(beta=1.0, batch_size=256, steps=0, seed=seed))
    w_init = wii_index(encode(init, x), rng=RngStream(eval_seed))
    model, _ = train(x, TrainConfig(beta=1.0, batch_size=256, steps=5000, seed=seed))
    z = encode(model, x)
    w_final = wii_index(z, rng=RngStream(eval_seed))
    return {"report": report_to_json(score(z, s), matrices=True),
            "w_init": w_init, "w_final": w_final}


@pytest.fixture(scope="module")
def e2e_runs():
    """The three full training runs behind criteria 9 and 10, and criterion
    10's fresh rerun of the reference's winning seed, trained two at a time
    in spawned workers."""
    ref = load_record(DATA / "unmix_reference.json")
    s = generate(SourceSpec(kind="sine_mixture", d=2, n=16384,
                            seed=int(ref.measured["source_seed"])))
    pipe = build_pipeline(2, 10, 16, RngStream(int(ref.measured["pipeline_seed"])))
    x = mix(pipe, s)
    eval_seed = int(ref.measured["eval_seed"])
    rerun_seed = int(ref.measured["winning_seed"])
    # a spawned worker first imports numpy when it unpickles its first task,
    # after the initializer has run, so OpenBLAS starts with one thread: two
    # workers then share the two cores without oversubscribing them
    with ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn"),
        initializer=os.putenv, initargs=("OPENBLAS_NUM_THREADS", "1"),
    ) as pool:
        futures = {seed: pool.submit(_train_run, x, s, seed, eval_seed) for seed in (0, 1, 2)}
        rerun = pool.submit(_train_run, x, s, rerun_seed, eval_seed)
        runs = {seed: future.result() for seed, future in futures.items()}
        rerun_report = rerun.result()["report"]
    for run in runs.values():
        run["ots"] = json.loads(run["report"])["ots"]
    return {"ref": ref, "runs": runs, "rerun_seed": rerun_seed, "rerun_report": rerun_report}


def test_criterion_09_end_to_end_unmixing(e2e_runs):
    ref = e2e_runs["ref"]
    runs = e2e_runs["runs"]
    for seed, run in runs.items():
        # the frozen reference pins every per-seed value; drift means the
        # numerical pipeline changed, not just an unlucky seed
        assert abs(run["ots"] - ref.measured[f"ots_s{seed}"]) < 1e-9
        assert abs(run["w_init"] - ref.measured[f"wii_init_s{seed}"]) < 1e-9
        assert abs(run["w_final"] - ref.measured[f"wii_final_s{seed}"]) < 1e-9
    best_seed = max(runs, key=lambda k: runs[k]["ots"])
    best = runs[best_seed]
    ratio = best["w_final"] / best["w_init"]
    ok = best["ots"] >= ref.threshold and ratio <= 0.1
    _verdict(9, ok,
             f"best-of-3 ots {best['ots']:.4f} (needs >= "
             f"{ref.threshold}) at seed {best_seed}; encoded index fell "
             f"{best['w_init']:.3e} -> {best['w_final']:.3e} "
             f"(ratio {ratio:.3f}, needs <= 0.1)")


def test_criterion_10_winning_seed_report_is_reproducible(e2e_runs):
    runs = e2e_runs["runs"]
    best_seed = max(runs, key=lambda k: runs[k]["ots"])
    # the rerun is a fresh end-to-end training of the seed the reference
    # names, not the fixture's run of it
    assert e2e_runs["rerun_seed"] == best_seed
    produced = e2e_runs["rerun_report"]
    golden = (DATA / "golden_score_report.json").read_text()
    _verdict(10, produced == golden,
             f"rerun of winning seed {best_seed} reproduced the frozen "
             f"score report byte for byte ({len(golden)} bytes)")
