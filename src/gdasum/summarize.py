"""Shot-level summary selection under a length budget.

Frame importance scores are averaged per shot and a subset of shots is
chosen by exact 0/1 knapsack so that total selected length stays within
a fraction of the video length while total shot value is maximal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kts import Shot, shots_from_changepoints
from .model import ForwardTrace, HyperParams, ModelParams, forward


@dataclass(frozen=True)
class ShotScores:
    """Per-shot mean importance and lengths, aligned by index."""

    shots: tuple[Shot, ...]
    values: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True)
class Summary:
    """Selected shots plus the induced frame-level mask."""

    video_id: str
    ratio: float
    shots: tuple[Shot, ...]
    selected: tuple[int, ...]
    frame_scores: np.ndarray
    frame_mask: np.ndarray

    def to_dict(self) -> dict:
        # "shots" and "selected" go beyond the minimal summary schema so
        # the diversity metric can be computed from the file alone.
        return {
            "video_id": self.video_id,
            "ratio": self.ratio,
            "selected_shots": [
                [self.shots[i].start, self.shots[i].end] for i in self.selected
            ],
            "frame_scores": [float(v) for v in self.frame_scores],
            "frame_mask": [int(v) for v in self.frame_mask],
            "shots": [[s.start, s.end] for s in self.shots],
            "selected": [int(i) for i in self.selected],
        }


def shot_scores(frame_scores: np.ndarray, shots: list[Shot]) -> ShotScores:
    """Mean frame score per shot; shots must tile [0, N) contiguously."""
    scores = np.asarray(frame_scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("frame_scores must be a 1-D array")
    if not shots:
        raise ValueError("at least one shot is required")
    pos = 0
    for shot in shots:
        if shot.start != pos:
            raise ValueError("shots must be contiguous from frame 0")
        pos = shot.end
    if pos != scores.shape[0]:
        raise ValueError("shots do not cover the score array")
    values = np.array([scores[s.start : s.end].mean() for s in shots])
    lengths = np.array([s.length for s in shots], dtype=np.int64)
    return ShotScores(shots=tuple(shots), values=values, lengths=lengths)


def knapsack_select(
    values: np.ndarray, lengths: np.ndarray, budget: int
) -> list[int]:
    """Exact 0/1 knapsack: indices maximizing total value within budget.

    Dynamic program over suffixes; reconstruction includes a shot
    whenever doing so preserves the optimum, which among all optimal
    solutions yields the lexicographically smallest index set when all
    values are positive.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape or values.ndim != 1:
        raise ValueError("values and lengths must be equal-length 1-D arrays")
    if np.any(lengths <= 0):
        raise ValueError("shot lengths must be positive")
    if not np.all(np.isfinite(values)):
        raise ValueError("shot values must be finite")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    n = values.shape[0]

    # opt[k][b]: best value using shots k.. with remaining budget b
    opt = np.zeros((n + 1, budget + 1))
    for k in range(n - 1, -1, -1):
        opt[k] = opt[k + 1]
        w = lengths[k]
        if w <= budget:
            take = values[k] + opt[k + 1, : budget - w + 1]
            opt[k, w:] = np.maximum(opt[k + 1, w:], take)

    picks = []
    b = budget
    for k in range(n):
        w = lengths[k]
        if w <= b and values[k] + opt[k + 1, b - w] == opt[k, b]:
            picks.append(k)
            b -= w
    return picks


def summary_from_scores(
    video_id: str,
    frame_scores: np.ndarray,
    shots: list[Shot],
    ratio: float,
) -> Summary:
    """Knapsack-selected summary capped at floor(ratio * N) frames."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    per_shot = shot_scores(frame_scores, shots)
    n_frames = int(per_shot.lengths.sum())
    budget = int(np.floor(ratio * n_frames))
    picks = knapsack_select(per_shot.values, per_shot.lengths, budget)
    mask = np.zeros(n_frames, dtype=np.int8)
    for i in picks:
        mask[shots[i].start : shots[i].end] = 1
    return Summary(
        video_id=video_id,
        ratio=float(ratio),
        shots=per_shot.shots,
        selected=tuple(picks),
        frame_scores=np.asarray(frame_scores, dtype=np.float64),
        frame_mask=mask,
    )


def generate_summary(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    change_points: list[int],
    ratio: float = 0.15,
    video_id: str = "",
) -> tuple[Summary, ForwardTrace]:
    """Score frames with the trained model and select key shots.

    Runs an evaluation-mode forward pass, cuts the video into shots at
    the given interior boundaries (annotated change points, or those
    ``kts_changepoints`` finds), and picks shots by knapsack under a
    floor(ratio * N) frame budget.
    """
    trace = forward(x, params, hyper, mode="eval")
    shots = shots_from_changepoints(change_points, x.shape[0])
    summary = summary_from_scores(video_id, trace.y, shots, ratio)
    return summary, trace
