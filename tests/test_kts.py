import itertools
import math

import numpy as np
import pytest

from gdasum.kts import (
    DP_BLOCK,
    MAX_FRAMES,
    SegmentCostTable,
    Shot,
    kts_changepoints,
    segment_penalty,
    shots_from_changepoints,
)
from gdasum.model import HyperParams, init_params
from gdasum.summarize import generate_summary
from gdasum.synthetic import PlantedSpec, make_planted_dataset


def scatter_oracle(x, a, b):
    """Within-segment scatter by direct double loop."""
    seg = x[a:b]
    mu = seg.mean(axis=0)
    return float(((seg - mu) ** 2).sum())


def rbf_cost_oracle(x, a, b, gamma):
    seg = x[a:b]
    m = b - a
    gram = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.exp(-gamma * ((seg[i] - seg[j]) ** 2).sum())
    return float(np.trace(gram) - gram.sum() / m)


def reference_costs_by_end(table):
    """Every segment cost at once, by end: C[t, s] = cost(s, t), +inf where s >= t.

    The (N+1)^2 build the DP once read its costs from; ``costs_by_end``
    must give its rows bit for bit.
    """
    blk = table._block
    corner = np.diagonal(blk)
    by_end = np.empty_like(blk)  # by_end[t, s] = cost(s, t)
    np.subtract(corner[:, None], blk.T, out=by_end)
    by_end -= blk
    by_end += corner[None, :]
    idx = np.arange(table.n + 1, dtype=np.float64)
    tmp = np.subtract.outer(idx, idx)  # segment lengths t - s
    empty = tmp <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        by_end /= tmp
    np.subtract.outer(table._diag, table._diag, out=tmp)
    np.subtract(tmp, by_end, out=by_end)
    by_end[empty] = np.inf
    np.fill_diagonal(by_end[1:], 0.0)  # one-frame segments
    return by_end


def costs(x, kernel="linear"):
    """The segment cost matrix C[s, t] = cost(s, t), checked for its lower triangle."""
    n = x.shape[0]
    matrix = SegmentCostTable(x, kernel=kernel).costs_by_end(0, n + 1).T
    assert matrix.shape == (n + 1, n + 1)
    assert np.all(matrix[np.tril_indices(n + 1)] == np.inf)
    return matrix


def enumerate_best(cost, n, m):
    """Optimal m-segmentation by brute force over interior boundaries.

    Costs are accumulated left to right, like the dynamic program, so
    equal solutions produce identical floating-point objective values.
    """
    best_val = np.inf
    best_bounds = None
    for bounds in itertools.combinations(range(1, n), m - 1):
        edges = (0,) + bounds + (n,)
        val = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            val = val + cost[a, b]
        if val < best_val:
            best_val = val
            best_bounds = bounds
    return best_val, best_bounds


def test_constant_features_zero_cost():
    x = np.ones((10, 3)) * 2.5
    cost = costs(x)
    for a in range(10):
        for b in range(a + 1, 11):
            assert abs(cost[a, b]) < 1e-9


def test_single_frame_segments_zero():
    x = np.random.default_rng(0).standard_normal((8, 4))
    cost = costs(x)
    for a in range(8):
        assert cost[a, a + 1] == 0.0


def test_linear_cost_matches_scatter_oracle():
    x = np.random.default_rng(1).standard_normal((20, 5))
    cost = costs(x)
    for a in range(20):
        for b in range(a + 1, 21):
            assert abs(cost[a, b] - scatter_oracle(x, a, b)) < 1e-9


def test_rbf_cost_matches_gram_oracle():
    x = np.random.default_rng(2).standard_normal((12, 3))
    cost = costs(x, kernel="rbf")  # gamma = 1/D
    for a in range(12):
        for b in range(a + 2, 13):
            assert abs(cost[a, b] - rbf_cost_oracle(x, a, b, 1.0 / 3)) < 1e-9


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize(
    "n", [1, 2, DP_BLOCK - 1, DP_BLOCK, DP_BLOCK + 1, 2 * DP_BLOCK + 1]
)
def test_costs_by_end_equals_the_reference_rows_bit_for_bit(n, kernel):
    # every block the DP asks for, and the whole table at once
    x = np.random.default_rng(n).standard_normal((n, 16))
    table = SegmentCostTable(x, kernel=kernel)
    by_end = reference_costs_by_end(table)
    blocks = [(t0, min(t0 + DP_BLOCK, n + 1)) for t0 in range(1, n + 1, DP_BLOCK)]
    for t0, t1 in blocks + [(0, n + 1)]:
        got = table.costs_by_end(t0, t1)
        assert got.shape == (t1 - t0, t1) and got.flags.c_contiguous, (t0, t1)
        assert got.tobytes() == np.ascontiguousarray(by_end[t0:t1, :t1]).tobytes(), (t0, t1)


def test_cost_table_rejects_bad_input():
    with pytest.raises(ValueError):
        SegmentCostTable(np.zeros((0, 3)), kernel="linear")
    with pytest.raises(ValueError):
        SegmentCostTable(np.array([[np.inf, 0.0]]), kernel="linear")
    with pytest.raises(ValueError):
        SegmentCostTable(np.zeros((4, 2)), kernel="cubic")


def test_constant_features_no_changepoints():
    x = np.full((30, 4), 1.5)
    assert kts_changepoints(x) == []


def test_two_cluster_boundary_recovered():
    rng = np.random.default_rng(4)
    x = np.concatenate([
        rng.standard_normal((10, 3)) * 0.1,
        rng.standard_normal((10, 3)) * 0.1 + 10.0,
    ])
    assert kts_changepoints(x, max_segments=4) == [10]


def test_max_segments_one_forces_empty():
    x = np.random.default_rng(5).standard_normal((20, 3))
    assert kts_changepoints(x, max_segments=1) == []


def test_dp_matches_exhaustive_enumeration():
    # 50 random instances per kernel, N <= 30, up to 4 segments, zero
    # penalty so the chosen segment count is purely cost-driven
    for kernel, seed in itertools.product(("linear", "rbf"), range(50)):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        x = rng.standard_normal((n, 3)) * rng.uniform(0.5, 3.0)
        kmax = int(rng.integers(2, 5))
        cost = costs(x, kernel)

        boundaries = kts_changepoints(
            x, max_segments=kmax, penalty_coeff=0.0, kernel=kernel
        )
        edges = [0] + boundaries + [n]
        got = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            got = got + cost[a, b]

        best = min(enumerate_best(cost, n, m)[0] for m in range(1, kmax + 1))
        assert abs(got - best) < 1e-9 * max(1.0, abs(best))


def test_penalized_objective_matches_enumeration():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 25))
        x = rng.standard_normal((n, 2)) * 2.0
        kmax = 3
        coeff = 1.0
        cost = costs(x)

        boundaries = kts_changepoints(x, max_segments=kmax, penalty_coeff=coeff)
        edges = [0] + boundaries + [n]
        got = segment_penalty(n, len(edges) - 1, coeff)
        for a, b in zip(edges[:-1], edges[1:]):
            got = got + cost[a, b]

        best = min(
            enumerate_best(cost, n, m)[0] + segment_penalty(n, m, coeff)
            for m in range(1, kmax + 1)
        )
        assert got <= best + 1e-9 * max(1.0, abs(best))


def test_total_cost_non_increasing_in_segments():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((25, 3)) * 2.0
    cost = costs(x)
    prev = np.inf
    for m in range(1, 6):
        val, _ = enumerate_best(cost, 25, m)
        assert val <= prev + 1e-12
        prev = val


def test_shots_from_changepoints_examples():
    shots = shots_from_changepoints([3, 7], 10)
    assert shots == [Shot(0, 3), Shot(3, 7), Shot(7, 10)]
    assert shots_from_changepoints([], 5) == [Shot(0, 5)]


def test_shots_cover_all_frames():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        k = int(rng.integers(0, min(5, n - 1) + 1))
        bounds = sorted(rng.choice(np.arange(1, n), size=k, replace=False).tolist())
        shots = shots_from_changepoints(bounds, n)
        assert sum(s.length for s in shots) == n
        assert shots[0].start == 0 and shots[-1].end == n
        for a, b in zip(shots[:-1], shots[1:]):
            assert a.end == b.start


def test_shots_reject_bad_boundaries():
    with pytest.raises(ValueError):
        shots_from_changepoints([5, 3], 10)
    with pytest.raises(ValueError):
        shots_from_changepoints([0], 10)
    with pytest.raises(ValueError):
        shots_from_changepoints([10], 10)
    with pytest.raises(ValueError, match="n_frames must be positive"):
        shots_from_changepoints([], 0)
    with pytest.raises(ValueError):
        Shot(4, 4)


def test_changepoints_deterministic():
    x = np.random.default_rng(7).standard_normal((40, 4))
    assert kts_changepoints(x) == kts_changepoints(x)


def reference_changepoints(x, kernel, max_segments=None, penalty_coeff=1.0):
    """The segmentation DP one cell at a time, over the cost matrix.

    It visits starts in increasing order and keeps the first minimum, so
    its ties resolve like the vectorized DP's.
    """
    n = x.shape[0]
    kmax = min(math.ceil(n / 10) if max_segments is None else max_segments, n)
    cost = costs(x, kernel).tolist()
    best = [[math.inf] * (n + 1) for _ in range(kmax + 1)]
    back = [[0] * (n + 1) for _ in range(kmax + 1)]
    best[0][0] = 0.0
    for k in range(1, kmax + 1):
        for t in range(k, n + 1):
            for s in range(k - 1, t):
                cand = best[k - 1][s] + cost[s][t]
                if cand < best[k][t]:
                    best[k][t], back[k][t] = cand, s
    objective = [
        best[m][n] + segment_penalty(n, m, penalty_coeff) for m in range(1, kmax + 1)
    ]
    m_opt = 1 + int(np.argmin(objective))
    boundaries, t = [], n
    for k in range(m_opt, 0, -1):
        t = back[k][t]
        if t > 0:
            boundaries.append(t)
    return sorted(boundaries)


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_changepoints_pinned_to_reference_dp_on_planted_videos(kernel, seed):
    spec = PlantedSpec(n_videos=1, n_frames=90, dim=16, center_scale=1.0, seed=seed)
    x = make_planted_dataset(spec)[0].features.matrix
    assert kts_changepoints(x, kernel=kernel) == reference_changepoints(
        x.astype(np.float64), kernel
    )


def block_edge_video(kind, n):
    """An (n, D) float64 video of one kind, for the block-edge tests."""
    if kind == "planted":  # the first n frames of a planted video
        runs = max(7, -(-n // 6))
        spec = PlantedSpec(n_videos=1, n_frames=6 * runs, dim=16, center_scale=1.0, seed=n)
        return make_planted_dataset(spec)[0].features.matrix[:n].astype(np.float64)
    if kind == "random":
        return np.random.default_rng(n).standard_normal((n, 4))
    if kind == "constant":  # every segment costs exactly 0
        return np.full((n, 3), 1.5)
    # 0/1 runs of 3 frames: under the linear kernel the Gram sums are
    # integers, so equal segments cost bit-equal amounts and capped
    # segment counts leave exact ties
    return ((np.arange(n) // 3) % 2).astype(np.float64)[:, None]


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
@pytest.mark.parametrize("kind", ["planted", "random", "constant", "runs"])
@pytest.mark.parametrize(
    "n", [1, 2, DP_BLOCK - 1, DP_BLOCK, DP_BLOCK + 1, 2 * DP_BLOCK + 1]
)
def test_changepoints_pinned_to_reference_dp_across_block_edges(n, kind, kernel):
    # the default settings, every level up to N (deeper than one block
    # once N > DP_BLOCK), and a cap below the true run count
    x = block_edge_video(kind, n)
    for max_segments, penalty_coeff in [(None, 1.0), (n, 0.0), (max(1, n // 8), 0.0)]:
        flags = {"max_segments": max_segments, "penalty_coeff": penalty_coeff}
        assert kts_changepoints(x, kernel=kernel, **flags) == reference_changepoints(
            x, kernel, **flags
        ), flags


def test_first_minimum_start_wins_a_tie_across_a_block_edge():
    # one spike frame at DP_BLOCK between two equal runs of zeros: under
    # the linear kernel's integer Gram sums, both two-shot splits, at
    # DP_BLOCK and DP_BLOCK + 1, cost bit-equal amounts
    x = np.zeros((2 * DP_BLOCK + 1, 1))
    x[DP_BLOCK] = 1.0
    flags = {"max_segments": 2, "penalty_coeff": 0.0}
    assert kts_changepoints(x, **flags) == [DP_BLOCK]
    assert reference_changepoints(x, "linear", **flags) == [DP_BLOCK]


@pytest.mark.parametrize("penalty_coeff", [math.nan, math.inf, -math.inf, -0.5])
def test_penalty_must_be_finite_and_non_negative(penalty_coeff):
    x = np.random.default_rng(8).standard_normal((30, 3))
    with pytest.raises(ValueError, match="penalty_coeff must be finite and non-negative"):
        kts_changepoints(x, penalty_coeff=penalty_coeff)


@pytest.mark.parametrize("max_segments", [2.5, 3.0, "3", True])
def test_max_segments_must_be_an_integer(max_segments):
    x = np.random.default_rng(9).standard_normal((30, 3))
    with pytest.raises(ValueError, match="max_segments must be an integer"):
        kts_changepoints(x, max_segments=max_segments)
    assert kts_changepoints(x, max_segments=np.int64(3)) == kts_changepoints(x, max_segments=3)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 300, 1200])
def test_prefix_sum_table_equals_numpy_cumsum(n):
    # the table's column prefix sums are added row by row; they must keep
    # np.cumsum's bits, signed zeros of an all-zero frame included
    x = np.random.default_rng(n).standard_normal((n, 16)) * 1e3
    x[n // 2] = 0.0
    gram = x @ x.T
    want = np.cumsum(np.cumsum(gram, axis=0), axis=1)
    block = SegmentCostTable(x, kernel="linear")._block
    assert block[1:, 1:].tobytes() == want.tobytes()
    assert not block[0].any() and not block[:, 0].any()


@pytest.mark.parametrize("kernel, bound", [("linear", 15), ("rbf", 17)], ids=["linear", "rbf"])
def test_segmentation_peak_memory_stays_within_17_n_squared_bytes(kernel, bound, traced_peak):
    # linear: the Gram matrix is summed in place in the table (8.06 N^2
    # bytes), and the DP's table, best and back tables and DP_BLOCK cost
    # rows set the peak (14.09 N^2 measured); rbf: the distances and the
    # table are alive together while the table is built (16.35 N^2)
    n = 600
    x = np.random.default_rng(10).standard_normal((n, 16))
    peak, _ = traced_peak(lambda: kts_changepoints(x, kernel=kernel))
    assert peak <= bound * n * n


def test_long_video_segment_and_summarize_peak_within_12_n_squared_bytes(traced_peak):
    # a long video through KTS and then scoring and selection: the KTS DP
    # sets the peak (11.35 N^2 bytes measured), and the table is freed
    # before score_frames holds its one N^2 attention array (8.10 N^2)
    n = 1500
    x = np.random.default_rng(11).standard_normal((n, 8))
    hyper = HyperParams(hidden=16, embed=4)
    params = init_params(8, hyper, seed=0)
    peak, summary = traced_peak(lambda: generate_summary(x, params, hyper, kts_changepoints(x)))
    assert summary["shots"][-1][1] == n
    assert peak <= 12 * n * n


def test_frame_cap_raises_before_allocating(traced_peak):
    x = np.zeros((MAX_FRAMES + 1, 1))

    def build_both():
        for build in (SegmentCostTable, kts_changepoints):
            with pytest.raises(ValueError, match=f"N={MAX_FRAMES + 1}.*{MAX_FRAMES}"):
                build(x, kernel="linear")

    peak, _ = traced_peak(build_both)
    assert peak < 1_000_000  # nothing N^2 (8 * N^2 bytes = 288 MB)


@pytest.mark.parametrize("x", [np.zeros((0, 3)), np.float64(1.0)], ids=["no-frames", "0-d"])
def test_kts_changepoints_refuses_a_matrix_without_frames_before_its_default_cap(x):
    # the default cap ceil(N / 10) is derived from the checked matrix
    with pytest.raises(ValueError, match=r"expected a nonempty \(N, D\) feature matrix, got shape"):
        kts_changepoints(x)
