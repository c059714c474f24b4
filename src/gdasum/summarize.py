"""Shot-level summary selection under a length budget.

Frame importance scores are averaged per shot and a subset of shots is
chosen by exact 0/1 knapsack so that total selected length stays within
a fraction of the video length while total shot value is maximal.
A summary is the dict ``gdasum summarize`` writes as JSON; ``read_summary``
reads one back, refusing a frame_mask other than its selected shots' mask.
"""

from __future__ import annotations

import numpy as np

from .data import intervals_to_mask
from .kts import Shot, shots_from_changepoints
from .model import HyperParams, ModelParams, score_frames


def check_tiling(shots: list[Shot], n_frames: int) -> None:
    """Raise ValueError unless ``shots`` tile [0, n_frames) contiguously."""
    if not shots:
        raise ValueError("at least one shot is required")
    pos = 0
    for shot in shots:
        if shot.start != pos:
            raise ValueError("shots must be contiguous from frame 0")
        pos = shot.end
    if pos != n_frames:
        raise ValueError(f"shots end at frame {pos}, not at the video's {n_frames}")


def check_ratio(ratio: float, name: str = "ratio") -> None:
    """Raise ValueError naming ``name`` unless ``ratio`` lies in (0, 1]; NaN does not."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {ratio}")


def selection_mask(shots: list[Shot], selected: list[int], n_frames: int) -> np.ndarray:
    """The 0/1 frame mask of the selected shots: a summary's frame_mask."""
    return intervals_to_mask([(shots[i].start, shots[i].end) for i in selected], n_frames)


def shot_scores(frame_scores: np.ndarray, shots: list[Shot]) -> np.ndarray:
    """Mean frame score per shot; shots must tile [0, N) contiguously."""
    scores = np.asarray(frame_scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("frame_scores must be a 1-D array")
    check_tiling(shots, scores.shape[0])
    return np.array([scores[s.start : s.end].mean() for s in shots])


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
) -> dict:
    """Knapsack-selected summary capped at floor(ratio * N) frames.

    Returns the record ``gdasum summarize`` writes after its provenance
    keys: ``video_id``, ``ratio``, ``frame_scores``, ``frame_mask``
    (``selection_mask`` of the selected shots), ``shots`` ([start, end)
    pairs tiling the video) and ``selected`` (ascending indices into
    ``shots``).  The selected shots are ``[shots[i] for i in selected]``.
    """
    check_ratio(ratio)
    scores = np.asarray(frame_scores, dtype=np.float64)
    values = shot_scores(scores, shots)
    lengths = np.array([s.length for s in shots], dtype=np.int64)
    budget = int(np.floor(ratio * scores.shape[0]))
    picks = knapsack_select(values, lengths, budget)
    return {
        "video_id": video_id,
        "ratio": float(ratio),
        "frame_scores": scores.tolist(),
        "frame_mask": selection_mask(shots, picks, scores.shape[0]).tolist(),
        "shots": [[s.start, s.end] for s in shots],
        "selected": picks,
    }


def generate_summary(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    change_points: list[int],
    ratio: float = 0.15,
    video_id: str = "",
) -> dict:
    """Score frames with the trained model and select key shots.

    Scores the frames with ``score_frames``: the evaluation-mode
    forward pass's scores, bit for bit, without the embedding head and
    the training caches, in 8 * N^2 + O(N * D) bytes at peak.  Cuts the
    video into shots at the given interior boundaries (annotated change
    points, or those ``kts_changepoints`` finds), and picks shots by
    knapsack under a floor(ratio * N) frame budget.  Returns
    ``summary_from_scores``'s record.
    """
    shots = shots_from_changepoints(change_points, x.shape[0])
    return summary_from_scores(video_id, score_frames(x, params, hyper), shots, ratio)


def read_summary(doc: dict, n_frames: int) -> tuple[list[Shot], list[int], np.ndarray]:
    """A summary's tiling shots, strictly ascending selected indices and their mask.

    frame_mask must equal that mask.  A missing field raises KeyError;
    any other fault raises TypeError or ValueError.
    """
    pairs, selected = doc["shots"], doc["selected"]
    bounds = [v for pair in pairs for v in pair]
    if not all(type(v) is int for v in bounds + selected):
        raise ValueError("shot bounds and selected indices must be JSON integers")
    shots = [Shot(*pair) for pair in pairs]
    check_tiling(shots, n_frames)
    if not all(0 <= i < len(shots) for i in selected):
        raise ValueError(f"a selected index lies outside [0, {len(shots)})")
    if any(a >= b for a, b in zip(selected, selected[1:])):
        raise ValueError(f"selected indices must ascend strictly, got {selected}")
    mask = selection_mask(shots, selected, n_frames)
    frame_mask = doc["frame_mask"]
    # 1.0 and True compare equal to 1, so each entry's type is checked too
    if frame_mask != mask.tolist() or not all(type(v) is int for v in frame_mask):
        raise ValueError(f"frame_mask must mark the selected shots, one 0 or 1 for each "
                         f"of the manifest's {n_frames} frames")
    return shots, selected, mask
