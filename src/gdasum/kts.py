"""Kernel temporal segmentation: change-point detection by dynamic programming.

Partitions a feature sequence into contiguous homogeneous segments by
minimizing total within-segment scatter plus a BIC-style penalty on the
number of segments.  Scatter is measured in the feature space of a
kernel: the linear kernel (scatter around the segment mean, the
default) or an RBF kernel.  Both are answered from prefix sums of one
Gram matrix, from which the DP reads each block of end frames' segment
costs as it reaches it.

The DP prunes the starts that can no longer win, level by level, and
keeps every entry of its tables.  One level, best[k][T] = min_s F(s) +
cost(s, T) with F = best[k - 1], carries no penalty, so the inequality
pruning of Maidstone, Hocking, Rigaill and Fearnhead ("On optimal
multiple changepoint algorithms for large data", Statistics and
Computing 2017) is exact for it.  For a PSD Gram matrix the cost is
superadditive: cost(s, T) >= cost(s, t) + cost(t, T) for s < t < T,
since merging two segments A and B adds |A||B| / (|A| + |B|) times
||mu_A - mu_B||^2 in the kernel's feature space.  So if F(s) + cost(s, t)
> F(t), start t beats start s at every later end T, and s is never again
the first minimum.  A level drops s once F(s) + cost(s, t) > F(t) +
delta.  The test is strict, so a tied start is never dropped, and
``best`` and ``back`` keep every bit of the unpruned DP's.

The margin delta covers the gap between that argument and the computed
numbers.  With eps = 2^-52, M = N * sum_i K_ii and s_i = ||x_i||^2:

(a) Rounding.  Since |K_ij| <= (K_ii + K_jj) / 2, M bounds every
    prefix-sum table entry, and each entry comes from two running sums
    of at most N terms each: it errs by at most N eps M.  A cost reads
    four entries and divides by t - s >= 2 (one-frame costs are
    exactly 0), so it errs by at most (2N + 5) eps M.  The pruning test and the later ends'
    comparison read three costs, and their additions round relative to
    sum_i K_ii, well below M.
(b) A computed Gram matrix that is not PSD.  Write it K* + E with K*
    the exact (PSD) Gram matrix.  The trace terms of the three costs
    cancel, and if |E_ij| <= c (s_i + s_j) + e0, the block terms can
    break superadditivity by at most 4 c sum_i s_i + 2 N e0.  The
    linear Gram matrix errs by at most D eps ||x_i|| ||x_j||, so c =
    D eps / 2, e0 = 0, and (b) is 2 D eps sum_i s_i.  For RBF,
    ``losses.pairwise_sq_dists`` errs by at most 4 D eps (s_i + s_j)
    and gamma = 1/D; with the scaling's rounding the exponent errs by
    at most 8 eps (s_i + s_j), and exp's own rounding adds e0 = eps:
    (b) is 32 eps sum_i s_i + 2 N eps.  K_ii = 1 cannot see that term,
    which is large on rows far from the origin.

delta = 2^-30 M + 2^-44 D sum_i s_i (linear) or 2^-30 M + 2^-40 sum_i s_i
(RBF).  For N <= MAX_FRAMES its first term is over 100 times (a)
taken three times plus RBF's 2 N eps, and its second is 128 times the
rest of (b).  A larger delta only prunes less; it never changes a result.
The bounds assume that 4M does not overflow (features far below 1e150);
where M itself overflows, delta is +inf and nothing is pruned.
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
# tables, about 1.6 * N^2 bytes at the default max_segments of N/10,
# DP_BLOCK rows of costs and one list of max_segments + 1 ints: linear KTS
# peaks near 9.6 * N^2 bytes for large N, about 0.35 GB at the cap.
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
    only for the block of end frames asked for.  ``margin`` is the
    pruning margin delta of the module docstring.
    """

    def __init__(self, x: np.ndarray, kernel: str):
        x = _feature_matrix(x)
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        self.n, dim = x.shape
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
        # delta: M = N sum_i K_ii bounds every table entry (module docstring)
        off_psd = math.ldexp(dim, -44) if kernel == "linear" else math.ldexp(1.0, -40)
        sq_norms = float(np.einsum("ij,ij->", x, x))
        self.margin = math.ldexp(self.n * float(self._diag[-1]), -30) + off_psd * sq_norms

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


def _segment_dp(table: SegmentCostTable, kmax: int):
    """The DP tables for 1..kmax segments, and the number of cells formed.

    best[k, t] is the least cost splitting frames [0, t) into exactly k
    segments, and back[k, t] the start of the last one, the first
    minimum (the smallest start) on ties.  Ends t run in blocks
    [t0, t1), every level for one block before the next: row t reads
    best[k - 1, s] for s < t only, which earlier blocks and this block's
    level k - 1 have already set.  Starts s >= t1 - 1 cost +inf in every
    row of the block, so they are skipped without moving the first
    minimum.  Level k reads starts from live[k] on: after each block its
    last end t = t1 - 1, finite at every start, drops the leading starts
    s with best[k - 1, s] + cost(s, t) > best[k - 1, t] + table.margin
    (see the module docstring).
    """
    n = table.n
    best = np.full((kmax + 1, n + 1), np.inf)
    back = np.zeros((kmax + 1, n + 1), dtype=np.intp)
    best[0, 0] = 0.0
    live = list(range(-1, kmax))  # live[k]: level k's leftmost start still alive
    buf = np.empty(DP_BLOCK * (n + 1))
    block_rows = np.arange(DP_BLOCK)
    cells = 0
    for t0 in range(1, n + 1, DP_BLOCK):
        t1 = min(t0 + DP_BLOCK, n + 1)
        costs = table.costs_by_end(t0, t1)  # costs[t - t0, s] = cost(s, t)
        for k in range(1, min(kmax, t1 - 1) + 1):
            # ends t in [lo, t1), starts s in [a, t1 - 1): cand[t - lo, s - a]
            lo, a = max(t0, k), live[k]
            rows, cols = t1 - lo, t1 - 1 - a
            cand = buf[: rows * cols].reshape(rows, cols)
            np.add(costs[lo - t0 :, a : t1 - 1], best[k - 1, a : t1 - 1], out=cand)
            first = cand.argmin(axis=1)  # the first minimum: the smallest start
            back[k, lo:t1] = first + a
            best[k, lo:t1] = cand[block_rows[:rows], first]
            cells += rows * cols
            # no start dies while best[k - 1, t1 - 1] is inf (level 1), nor at a NaN
            dead = cand[-1] > best[k - 1, t1 - 1] + table.margin
            survivor = int(dead.argmin())  # the first start not dropped
            live[k] += cols if dead[survivor] else survivor
    return best, back, cells


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
    that precede the block's last end: O(N^2) memory, and at most about
    max_segments * N^2 / 2 cell additions in all.  Each level drops the
    starts that can no longer win, by the exact inequality pruning of
    Maidstone et al. (2017) with the margin delta derived in the module
    docstring, and keeps its leftmost live start in one list of
    max_segments + 1 ints.  No tied start is dropped, so the tables,
    and so the change points, are those of the unpruned DP; on planted
    N=1200 videos it forms about 30% of the unpruned cells.
    """
    x = _feature_matrix(x)  # before N sets the default cap
    n = x.shape[0]
    check_kts_settings(penalty_coeff, max_segments)
    kmax = min(math.ceil(n / 10) if max_segments is None else max_segments, n)
    best, back, _ = _segment_dp(SegmentCostTable(x, kernel=kernel), kmax)

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
