import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdasum.kts import Shot
from gdasum.model import HyperParams, init_params
from gdasum.summarize import (
    ShotScores,
    Summary,
    generate_summary,
    knapsack_select,
    shot_scores,
    summary_from_scores,
)


def exhaustive_knapsack(values, lengths, budget):
    """All 2^n subsets, vectorized; ties -> smallest sorted index tuple.

    Values must be small multiples of a power of two so subset sums are
    exact in binary floats and the optimum set comparison needs no
    tolerance.
    """
    n = len(values)
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    tot_w = bits @ lengths
    tot_v = bits @ values
    feasible = tot_w <= budget
    best_val = tot_v[feasible].max()
    optima = np.nonzero(feasible & (tot_v == best_val))[0]
    best_set = min(tuple(np.nonzero(bits[m])[0].tolist()) for m in optima)
    return float(best_val), list(best_set)


def test_shot_scores_mean_examples():
    frame_scores = np.array([0.2, 0.4, 0.9, 0.1, 0.5])
    shots = [Shot(0, 2), Shot(2, 3), Shot(3, 5)]
    ss = shot_scores(frame_scores, shots)
    assert np.allclose(ss.values, [0.3, 0.9, 0.3])
    assert ss.lengths.tolist() == [2, 1, 2]


def test_shot_scores_loop_oracle():
    rng = np.random.default_rng(0)
    frame_scores = rng.uniform(0, 1, size=30)
    bounds = [0, 4, 9, 17, 22, 30]
    shots = [Shot(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    ss = shot_scores(frame_scores, shots)
    for k, s in enumerate(shots):
        acc = 0.0
        for t in range(s.start, s.end):
            acc += frame_scores[t]
        assert abs(ss.values[k] - acc / s.length) < 1e-12


def test_shot_scores_requires_tiling():
    frame_scores = np.zeros(10)
    with pytest.raises(ValueError):
        shot_scores(frame_scores, [Shot(0, 4), Shot(5, 10)])
    with pytest.raises(ValueError):
        shot_scores(frame_scores, [Shot(0, 4), Shot(4, 9)])
    with pytest.raises(ValueError):
        shot_scores(frame_scores, [])


def test_knapsack_worked_example():
    values = np.array([0.9, 0.5, 0.6])
    lengths = np.array([3, 2, 2])
    assert knapsack_select(values, lengths, 4) == [1, 2]


def test_knapsack_budget_covers_everything():
    values = np.array([0.1, 0.2, 0.3])
    lengths = np.array([5, 5, 5])
    assert knapsack_select(values, lengths, 15) == [0, 1, 2]
    assert knapsack_select(values, lengths, 100) == [0, 1, 2]


def test_knapsack_zero_budget():
    values = np.array([0.9, 0.9])
    lengths = np.array([1, 1])
    assert knapsack_select(values, lengths, 0) == []


def test_knapsack_single_shot_too_long():
    assert knapsack_select(np.array([1.0]), np.array([10]), 9) == []


def test_knapsack_matches_exhaustive():
    # positive dyadic scores: subset sums exact, tie-break well defined
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 21))
        values = rng.integers(1, 65, size=t).astype(float) / 64.0
        lengths = rng.integers(1, 9, size=t)
        budget = int(rng.integers(0, int(lengths.sum()) + 2))
        got = knapsack_select(values, lengths, budget)
        best_val, best_set = exhaustive_knapsack(values, lengths, budget)
        got_val = sum(values[i] for i in got)
        assert abs(got_val - best_val) < 1e-12
        assert sum(lengths[i] for i in got) <= budget
        assert got == best_set


def test_knapsack_prefers_lexicographically_smallest_tie():
    # two disjoint optima {0} and {1}: earliest index wins
    values = np.array([0.5, 0.5])
    lengths = np.array([2, 2])
    assert knapsack_select(values, lengths, 2) == [0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 40))
def test_knapsack_budget_invariant(seed, budget):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 15))
    values = rng.uniform(0, 1, size=t)
    lengths = rng.integers(1, 9, size=t)
    chosen = knapsack_select(values, lengths, budget)
    assert sum(lengths[i] for i in chosen) <= budget
    assert chosen == sorted(set(chosen))


def test_knapsack_value_monotone_in_budget():
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 1, size=12)
    lengths = rng.integers(1, 7, size=12)
    prev = -1.0
    for budget in range(0, int(lengths.sum()) + 1):
        sel = knapsack_select(values, lengths, budget)
        val = sum(values[i] for i in sel)
        assert val >= prev - 1e-12
        prev = val


def test_knapsack_validates_input():
    with pytest.raises(ValueError):
        knapsack_select(np.array([1.0]), np.array([0]), 3)
    with pytest.raises(ValueError):
        knapsack_select(np.array([1.0, 2.0]), np.array([1]), 3)
    with pytest.raises(ValueError):
        knapsack_select(np.array([np.nan]), np.array([1]), 3)


def test_summary_budget_is_floor_of_ratio():
    frame_scores = np.linspace(0, 1, 10)
    shots = [Shot(i, i + 1) for i in range(10)]
    summary = summary_from_scores("v", frame_scores, shots, ratio=0.35)
    # floor(0.35 * 10) = 3 frames
    assert int(summary.frame_mask.sum()) == 3
    assert summary.frame_mask[[7, 8, 9]].all()


def test_summary_ratio_one_selects_everything():
    frame_scores = np.array([0.5, 0.1, 0.9, 0.2])
    shots = [Shot(0, 2), Shot(2, 4)]
    summary = summary_from_scores("v", frame_scores, shots, ratio=1.0)
    assert summary.frame_mask.all()
    assert summary.selected == (0, 1)


def test_summary_mask_matches_selected_shots():
    rng = np.random.default_rng(3)
    frame_scores = rng.uniform(0, 1, size=24)
    bounds = [0, 5, 9, 16, 24]
    shots = [Shot(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    summary = summary_from_scores("v", frame_scores, shots, ratio=0.4)
    mask = np.zeros(24, dtype=bool)
    for k in summary.selected:
        mask[shots[k].start : shots[k].end] = True
    assert (summary.frame_mask == mask).all()
    assert int(summary.frame_mask.sum()) <= int(0.4 * 24)


def test_summary_validates_ratio():
    shots = [Shot(0, 4)]
    with pytest.raises(ValueError):
        summary_from_scores("v", np.zeros(4), shots, ratio=0.0)
    with pytest.raises(ValueError):
        summary_from_scores("v", np.zeros(4), shots, ratio=1.5)


def test_summary_to_dict_round_trip():
    summary = Summary(
        video_id="vid-7",
        ratio=0.15,
        shots=(Shot(0, 3), Shot(3, 8)),
        selected=(1,),
        frame_scores=np.array([0.1, 0.2, 0.3, 0.9, 0.8, 0.7, 0.6, 0.5]),
        frame_mask=np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=bool),
    )
    blob = json.dumps(summary.to_dict())
    data = json.loads(blob)
    assert data["video_id"] == "vid-7"
    assert data["ratio"] == 0.15
    assert data["frame_mask"] == [0, 0, 0, 1, 1, 1, 1, 1]
    assert data["shots"] == [[0, 3], [3, 8]]
    assert data["selected"] == [1]
    assert data["selected_shots"] == [[3, 8]]
    assert np.allclose(data["frame_scores"], summary.frame_scores)


def test_generate_summary_uses_given_changepoints():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 6))
    hyper = HyperParams(hidden=8, embed=4)
    params = init_params(6, hyper, rng)
    summary = generate_summary(x, params, hyper, ratio=0.5, video_id="v", change_points=[10])
    assert [(s.start, s.end) for s in summary.shots] == [(0, 10), (10, 20)]
    assert summary.frame_scores.shape == (20,)
    assert int(summary.frame_mask.sum()) <= 10


def test_generate_summary_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 5))
    hyper = HyperParams(hidden=8, embed=4)
    params = init_params(5, hyper, rng)
    a = generate_summary(x, params, hyper, change_points=[5, 10])
    b = generate_summary(x, params, hyper, change_points=[5, 10])
    assert (a.frame_mask == b.frame_mask).all()
    assert np.array_equal(a.frame_scores, b.frame_scores)


def test_shot_scores_container_consistency():
    ss = ShotScores(
        shots=[Shot(0, 2), Shot(2, 5)],
        values=np.array([0.5, 0.25]),
        lengths=np.array([2, 3]),
    )
    assert len(ss.shots) == len(ss.values) == len(ss.lengths)
