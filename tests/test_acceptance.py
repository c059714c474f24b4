"""Acceptance gate: one test per acceptance criterion.

Each test prints a single "ACCEPTANCE <name>: PASS/FAIL" line (visible
even under pytest capture) and asserts the criterion at its stated
tolerance.  The end-to-end and ablation tests share one training run
via module-scoped fixtures.
"""

import itertools
import os
import time

import numpy as np
import pytest

from gdasum.cli import run_gradcheck_instance
from gdasum.data import SplitSetting, intervals_to_mask, load_manifest, make_splits
from gdasum.kts import SegmentCostTable, kts_changepoints, shots_from_changepoints
from gdasum.losses import dpp_log_prob
from gdasum.metrics import EvalProtocol, diversity_zeta, fscore, video_fscore
from gdasum.model import HyperParams, forward, init_params
from gdasum.summarize import knapsack_select, summary_from_scores, generate_summary
from gdasum.synthetic import PlantedSpec, make_planted_dataset
from gdasum.train import TrainConfig, train

BENCHMARK_ENV_VAR = "GDASUM_BENCHMARK_MANIFEST"


def report(capsys, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


# ---------------------------------------------------------------- gradients


def test_acceptance_gradient_check(capsys):
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        for mode in ("supervised", "unsupervised"):
            err = run_gradcheck_instance(seed=i, mode=mode)
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    report(capsys, "gradient-check", worst <= 1e-4 and elapsed < 60.0)


# ---------------------------------------------------------------- DPP


def test_acceptance_dpp_normalization(capsys):
    ok = True

    # hand example: unit-quality pair with similarity 0.5
    L = np.array([[1.0, 0.5], [0.5, 1.0]])
    for subset, want in ((), 1 / 3.75), ((0,), 1 / 3.75), ((1,), 1 / 3.75), ((0, 1), 0.75 / 3.75):
        got = np.exp(dpp_log_prob(L, list(subset)))
        ok = ok and abs(got - want) < 1e-12

    # subset probabilities must sum to one for any valid kernel
    for n in (2, 4, 8, 12):
        rng = np.random.default_rng(n)
        y = rng.uniform(0.2, 0.9, size=n)
        phi = rng.standard_normal((n, 3))
        # L_ij = y_i y_j exp(-beta ||phi_i - phi_j||^2), beta = 1
        L = np.outer(y, y) * np.exp(-((phi[:, None] - phi[None, :]) ** 2).sum(axis=2))
        total = 0.0
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                total += np.exp(dpp_log_prob(L, list(subset)))
        ok = ok and abs(total - 1.0) < 1e-10

    report(capsys, "dpp-normalization", ok)


# ---------------------------------------------------------------- knapsack


def exhaustive_knapsack_value(values, lengths, budget):
    n = len(values)
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    feasible = bits @ lengths <= budget
    return float((bits @ values)[feasible].max())


def test_acceptance_knapsack_exact(capsys):
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(1, 21))
        values = rng.integers(1, 65, size=t).astype(float) / 64.0
        lengths = rng.integers(1, 9, size=t)
        budget = int(rng.integers(0, int(lengths.sum()) + 2))
        chosen = knapsack_select(values, lengths, budget)
        got = sum(values[i] for i in chosen)
        best = exhaustive_knapsack_value(values, lengths, budget)
        ok = ok and abs(got - best) < 1e-12
        ok = ok and sum(lengths[i] for i in chosen) <= budget
        ok = ok and chosen == knapsack_select(values, lengths, budget)
    # deterministic tie-break: equal-value disjoint optima, earliest wins
    ok = ok and knapsack_select(np.array([0.5, 0.5]), np.array([2, 2]), 2) == [0]
    report(capsys, "knapsack-exact", ok)


# ---------------------------------------------------------------- KTS


def enumerate_best_cost(cost, n, m):
    best = np.inf
    for bounds in itertools.combinations(range(1, n), m - 1):
        edges = (0,) + bounds + (n,)
        val = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            val = val + cost[a, b]
        best = min(best, val)
    return best


def test_acceptance_kts_exact(capsys):
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(8, 31))
        x = rng.standard_normal((n, 3)) * rng.uniform(0.5, 3.0)
        kmax = int(rng.integers(2, 5))
        cost = SegmentCostTable(x, kernel="linear").costs_by_end(0, n + 1).T
        boundaries = kts_changepoints(x, max_segments=kmax, penalty_coeff=0.0)
        edges = [0] + boundaries + [n]
        got = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            got = got + cost[a, b]
        best = min(enumerate_best_cost(cost, n, m) for m in range(1, kmax + 1))
        ok = ok and abs(got - best) < 1e-9 * max(1.0, abs(best))

    rng = np.random.default_rng(0)
    planted = np.concatenate([
        rng.standard_normal((10, 3)) * 0.1,
        rng.standard_normal((10, 3)) * 0.1 + 10.0,
    ])
    ok = ok and kts_changepoints(planted, max_segments=4) == [10]
    report(capsys, "kts-exact", ok)


# ---------------------------------------------------------------- forward


def test_acceptance_forward_invariants(capsys):
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 25))
        d = int(rng.integers(2, 12))
        x = rng.standard_normal((n, d))
        hyper = HyperParams(hidden=8, embed=4)
        params = init_params(d, hyper, seed)
        trace = forward(x, params, hyper, mode="eval")

        ok = ok and np.all(trace.alpha >= 0.0)
        ok = ok and np.allclose(trace.alpha.sum(axis=0), 1.0, atol=1e-12)
        ok = ok and np.all(trace.d >= 0.0)
        ok = ok and abs(trace.d.sum() - 1.0) < 1e-12
        ok = ok and np.all((trace.y > 0.0) & (trace.y < 1.0))

        perm = rng.permutation(n)
        permuted = forward(x[perm], params, hyper, mode="eval")
        ok = ok and np.allclose(permuted.y, trace.y[perm], atol=1e-9)
        ok = ok and np.allclose(permuted.d, trace.d[perm], atol=1e-9)
        ok = ok and np.allclose(permuted.phi, trace.phi[perm], atol=1e-9)
    report(capsys, "forward-invariants", ok)


# ---------------------------------------------------------------- end to end


SEED_BASELINE = (101, 202, 303, 404, 505)


@pytest.fixture(scope="module")
def planted_setup():
    records = make_planted_dataset(PlantedSpec())
    split = make_splits(records, SplitSetting.CANONICAL, seed=0)[0]
    hyper = HyperParams(hidden=64, embed=16)
    return records, split, hyper


def mean_test_fscore(records, split, params, hyper, ratio=0.15):
    by_id = {r.id: r for r in records}
    scores = []
    for vid in split.test_ids:
        rec = by_id[vid]
        summary = generate_summary(
            rec.features.matrix,
            params,
            hyper,
            list(rec.annotations.change_points),
            ratio=ratio,
            video_id=vid,
        )
        _, _, f = fscore(summary["frame_mask"], rec.annotations.keyframe_labels)
        scores.append(f)
    return float(np.mean(scores))


@pytest.fixture(scope="module")
def trained_full(planted_setup):
    records, split, hyper = planted_setup
    config = TrainConfig(mode="supervised", epochs=200, learning_rate=1e-4, seed=0)
    started = time.perf_counter()
    params, _ = train(records, split, config, hyper)
    return params, time.perf_counter() - started


def test_acceptance_end_to_end_synthetic(capsys, planted_setup, trained_full):
    records, split, hyper = planted_setup
    params, train_wall = trained_full

    started = time.perf_counter()
    trained_f = mean_test_fscore(records, split, params, hyper)
    eval_wall = time.perf_counter() - started

    by_id = {r.id: r for r in records}
    baseline_means = []
    for seed in SEED_BASELINE:
        rng = np.random.default_rng(seed)
        fs = []
        for vid in split.test_ids:
            rec = by_id[vid]
            n = rec.features.n_frames
            shots = shots_from_changepoints(list(rec.annotations.change_points), n)
            summary = summary_from_scores(vid, rng.uniform(size=n), shots, ratio=0.15)
            _, _, f = fscore(summary["frame_mask"], rec.annotations.keyframe_labels)
            fs.append(f)
        baseline_means.append(float(np.mean(fs)))
    baseline_f = float(np.mean(baseline_means))

    ok = trained_f >= 60.0 and baseline_f <= 25.0 and (train_wall + eval_wall) < 600.0
    with capsys.disabled():
        print(
            f"  end-to-end: trained F {trained_f:.2f} (need >= 60), "
            f"random baseline F {baseline_f:.2f} (need <= 25), "
            f"wall {train_wall + eval_wall:.1f}s (need < 600)"
        )
    report(capsys, "end-to-end-synthetic", ok)


def test_acceptance_ablation_variation_helps(capsys, planted_setup, trained_full):
    records, split, hyper = planted_setup
    full_params, _ = trained_full
    config = TrainConfig(
        mode="supervised",
        epochs=200,
        learning_rate=1e-4,
        seed=0,
        variation_weight=0.0,
    )
    key_only_params, _ = train(records, split, config, hyper)

    f_full = mean_test_fscore(records, split, full_params, hyper)
    f_key_only = mean_test_fscore(records, split, key_only_params, hyper)
    with capsys.disabled():
        print(f"  ablation: full F {f_full:.2f} vs keyframe-only F {f_key_only:.2f}")
    report(capsys, "ablation-variation", f_full >= f_key_only)


# ---------------------------------------------------------------- diversity


def test_acceptance_diversity_metric(capsys):
    ok = True
    feats = np.array([[0.0], [1.0], [10.0]])
    ok = ok and abs(diversity_zeta([(feats, [0, 2])]) - 1.0 / 3.0) < 1e-12
    ok = ok and diversity_zeta([(feats, [0, 1, 2])]) == 0.0

    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        t = int(rng.integers(2, 15))
        shot_feats = rng.standard_normal((t, 4))
        k = int(rng.integers(1, t))
        sel = sorted(rng.choice(t, size=k, replace=False).tolist())
        extra = int(rng.integers(0, t))
        z_small = diversity_zeta([(shot_feats, sel)])
        z_large = diversity_zeta([(shot_feats, sorted(set(sel + [extra])))])
        ok = ok and z_large <= z_small + 1e-12
    report(capsys, "diversity-metric", ok)


# ---------------------------------------------------------------- real data


def test_acceptance_real_benchmark(capsys):
    # five-fold supervised training on user-supplied benchmark features;
    # best-user protocol, mean F expected near the published operating
    # point (52.8 +/- 3)
    manifest = os.environ.get(BENCHMARK_ENV_VAR)
    if not manifest:
        with capsys.disabled():
            print(f"ACCEPTANCE real-benchmark: SKIP (set {BENCHMARK_ENV_VAR} to run)")
        pytest.skip(f"{BENCHMARK_ENV_VAR} not set")
    records = load_manifest(manifest)
    by_id = {r.id: r for r in records}
    hyper = HyperParams()
    fold_scores = []
    for split in make_splits(records, SplitSetting.CANONICAL, seed=0):
        config = TrainConfig(mode="supervised", epochs=200, seed=0)
        params, _ = train(records, split, config, hyper)
        fs = []
        for vid in split.test_ids:
            rec = by_id[vid]
            x = rec.features.matrix
            cps = rec.annotations.change_points
            summary = generate_summary(
                x,
                params,
                hyper,
                kts_changepoints(x) if cps is None else list(cps),
                ratio=0.15,
                video_id=vid,
            )
            masks = [
                intervals_to_mask(user, rec.features.n_frames)
                for user in rec.annotations.user_summaries
            ]
            _, _, f = video_fscore(
                summary["frame_mask"], masks, EvalProtocol.MAX_OVER_USERS
            )
            fs.append(f)
        fold_scores.append(float(np.mean(fs)))
    mean_f = float(np.mean(fold_scores))
    with capsys.disabled():
        print(f"  real benchmark: fold F {np.round(fold_scores, 2)}, mean {mean_f:.2f}")
    report(capsys, "real-benchmark", abs(mean_f - 52.8) <= 3.0)
