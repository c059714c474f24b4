"""Kernel temporal segmentation: change-point detection by dynamic programming.

Partitions a feature sequence into contiguous homogeneous segments by
minimizing total within-segment scatter plus a BIC-style penalty on the
number of segments.  Scatter is measured in the feature space of a
kernel: the linear kernel (scatter around the segment mean, the
default) or an RBF kernel.  Both are answered from prefix sums of one
Gram matrix, from which the DP reads each block of end frames' segment
costs as it reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import pairwise_sq_dists

# Largest frame count the segmentation accepts.  The prefix-sum table,
# (N+1)^2 float64, is 8 * N^2 bytes; the linear Gram matrix is written into
# it and summed in place.  The RBF distances are an N^2 array of their own,
# so RBF peaks at 16 * N^2 bytes while the table is built (tracemalloc):
# 0.58 GB at the cap.  The DP then holds the table plus its best and back
# tables, about 1.6 * N^2 bytes at the default max_segments of N/10, and
# DP_BLOCK rows of costs: linear KTS peaks near 9.6 * N^2 bytes for large
# N, about 0.35 GB at the cap.
MAX_FRAMES = 6000

KERNELS = ("linear", "rbf")

# End frames per block of the DP.  A block's rows of segment costs stay in
# cache while every level runs over them; 32 to 128 time the same.
DP_BLOCK = 64


@dataclass(frozen=True)
class Shot:
    """A contiguous half-open frame range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid shot [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


class SegmentCostTable:
    """Within-segment cost of every [s, t), from Gram prefix sums.

    With K the Gram matrix of the kernel (K = X X^T for "linear",
    K_ij = exp(-gamma ||x_i - x_j||^2) for "rbf", with gamma = 1/D and
    the squared distances from ``losses.pairwise_sq_dists``),
    every segment cost is

        cost(s, t) = (diag[t] - diag[s]) - block(s, t) / (t - s)

    where diag is the prefix sum of K's diagonal and block(s, t) the
    sum of K over [s, t) x [s, t), read from one 2-D prefix-sum table.
    For the linear kernel this is the scatter
    sum_{i in [s,t)} ||x_i - mean(x_{s:t})||^2.  The table takes
    O(N^2) memory, so N is capped at MAX_FRAMES; costs are computed
    only for the block of end frames asked for.
    """

    def __init__(self, x: np.ndarray, kernel: str):
        x = _feature_matrix(x)
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        self.n = x.shape[0]
        if kernel == "rbf":
            # before the table: pairwise_sq_dists holds two N^2 arrays
            dists = pairwise_sq_dists(x)
            dists *= -1.0 / x.shape[1]  # -gamma
        block = np.zeros((self.n + 1, self.n + 1))
        gram = block[1:, 1:]  # the Gram matrix, summed in place below
        if kernel == "rbf":
            np.exp(dists, out=gram)
            del dists
        else:
            np.matmul(x, x.T, out=gram)
        self._diag = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
        # np.cumsum(gram, axis=0) row by row: the same additions, in
        # contiguous rows instead of one strided walk per column
        for t in range(1, self.n):
            np.add(block[t, 1:], gram[t], out=gram[t])
        np.cumsum(gram, axis=1, out=gram)
        self._block = block

    def costs_by_end(self, t0: int, t1: int) -> np.ndarray:
        """The costs of the segments ending at t0 <= t < t1, by start.

        Returns the C-contiguous (t1 - t0, t1) array C with
        C[t - t0, s] = cost(s, t): +inf where s >= t, exactly 0 for
        one-frame segments.  Each entry is computed on its own, so its
        bits do not depend on the block it is asked for in.
        """
        blk = self._block
        corner = np.diagonal(blk)
        out = np.empty((t1 - t0, t1))
        np.subtract(corner[t0:t1, None], blk[:t1, t0:t1].T, out=out)
        out -= blk[t0:t1, :t1]
        out += corner[None, :t1]
        lengths = np.subtract.outer(np.arange(t0, t1, dtype=np.float64), np.arange(t1))
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= lengths
        np.subtract(np.subtract.outer(self._diag[t0:t1], self._diag[:t1]), out, out=out)
        out[lengths <= 0] = np.inf
        ends = np.arange(max(t0, 1), t1)
        out[ends - t0, ends - 1] = 0.0  # one-frame segments
        return out


def _feature_matrix(x) -> np.ndarray:
    """x as float64, refused unless it is a finite (N, D) matrix with 1 <= N <= MAX_FRAMES."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty (N, D) feature matrix, got shape {x.shape}")
    if x.shape[0] > MAX_FRAMES:
        raise ValueError(
            f"segmentation of N={x.shape[0]} frames exceeds the cap of "
            f"MAX_FRAMES={MAX_FRAMES}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    return x


def segment_penalty(n_frames: int, n_segments: int, coeff: float) -> float:
    """BIC-style penalty coeff * m * (log(N / m) + 1) on m segments."""
    return coeff * n_segments * (math.log(n_frames / n_segments) + 1.0)


def check_kts_settings(penalty_coeff, max_segments, names=("penalty_coeff", "max_segments")):
    """Raise a ValueError naming, as in ``names``, a setting ``kts_changepoints`` refuses."""
    if not (math.isfinite(penalty_coeff) and penalty_coeff >= 0):
        raise ValueError(f"{names[0]} must be finite and non-negative, got {penalty_coeff}")
    if max_segments is None:  # N/10 rounded up
        return
    if isinstance(max_segments, bool) or not isinstance(max_segments, (int, np.integer)):
        raise ValueError(f"{names[1]} must be an integer, got {max_segments!r}")
    if max_segments < 1:
        raise ValueError(f"{names[1]} must be at least 1, got {max_segments}")


def kts_changepoints(
    x: np.ndarray,
    max_segments: int | None = None,
    penalty_coeff: float = 1.0,
    kernel: str = "linear",
) -> list[int]:
    """Penalized optimal change points of a feature sequence.

    Runs the exact segmentation DP for every segment count m up to
    ``max_segments`` (default: N/10 rounded up) and returns the interior
    boundaries of the m minimizing total cost + penalty; ties prefer
    fewer segments.  An empty list means the video is a single shot.
    The DP walks the end frames in blocks of DP_BLOCK, running every
    level over that block's segment costs and reading only the starts
    that precede the block's last end: O(N^2) memory, and about
    max_segments * N^2 / 2 cell additions in all.
    """
    x = _feature_matrix(x)  # before N sets the default cap
    n = x.shape[0]
    check_kts_settings(penalty_coeff, max_segments)
    kmax = min(math.ceil(n / 10) if max_segments is None else max_segments, n)
    table = SegmentCostTable(x, kernel=kernel)

    # best[k][t]: minimal cost splitting frames [0, t) into exactly k segments
    best = np.full((kmax + 1, n + 1), np.inf)
    back = np.zeros((kmax + 1, n + 1), dtype=np.intp)
    best[0, 0] = 0.0
    buf = np.empty(DP_BLOCK * (n + 1))
    block_rows = np.arange(DP_BLOCK)
    # Ends t in blocks [t0, t1), every level for one block before the next:
    # row t reads best[k - 1, s] for s < t only, which earlier blocks and
    # this block's level k - 1 have already set.  Starts s >= t1 - 1 cost
    # +inf in every row of the block, so they are skipped without moving
    # the first minimum.
    for t0 in range(1, n + 1, DP_BLOCK):
        t1 = min(t0 + DP_BLOCK, n + 1)
        costs = table.costs_by_end(t0, t1)  # costs[t - t0, s] = cost(s, t)
        for k in range(1, min(kmax, t1 - 1) + 1):
            # ends t in [lo, t1), starts s in [k - 1, t1 - 1): cand[t - lo, s - k + 1]
            lo = max(t0, k)
            rows, cols = t1 - lo, t1 - k
            cand = buf[: rows * cols].reshape(rows, cols)
            np.add(costs[lo - t0 :, k - 1 : t1 - 1], best[k - 1, k - 1 : t1 - 1], out=cand)
            first = cand.argmin(axis=1)  # the first minimum: the smallest start
            back[k, lo:t1] = first + (k - 1)
            best[k, lo:t1] = cand[block_rows[:rows], first]

    objective = [
        best[m, n] + segment_penalty(n, m, penalty_coeff)
        for m in range(1, kmax + 1)
    ]
    m_opt = 1 + int(np.argmin(objective))

    boundaries = []
    t = n
    for k in range(m_opt, 0, -1):
        t = int(back[k, t])
        if t > 0:
            boundaries.append(t)
    return sorted(boundaries)


def shots_from_changepoints(boundaries, n_frames: int) -> list[Shot]:
    """Contiguous shots covering [0, N) implied by interior boundaries."""
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    bounds = list(boundaries)
    if bounds != sorted(set(bounds)):
        raise ValueError("boundaries must be strictly increasing")
    if bounds and not (0 < bounds[0] and bounds[-1] < n_frames):
        raise ValueError("boundaries must lie strictly inside (0, N)")
    edges = [0] + bounds + [n_frames]
    return [Shot(a, b) for a, b in zip(edges[:-1], edges[1:])]
