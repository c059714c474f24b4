"""Summary quality metrics: F-score with per-dataset protocols, diversity.

F-score compares binary frame masks; per-user scores are aggregated by
max (SumMe-like) or mean (TVSum-like).  The diversity metric measures,
for every shot of a video, the distance to its nearest selected key
shot in feature space; smaller values mean the selected shots cover the
video's content more tightly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class EvalProtocol(enum.Enum):
    MAX_OVER_USERS = "max"
    MEAN_OVER_USERS = "mean"


PROTOCOL_BY_SOURCE = {
    "summe-like": EvalProtocol.MAX_OVER_USERS,
    "tvsum-like": EvalProtocol.MEAN_OVER_USERS,
}


def fscore(machine_mask: np.ndarray, user_mask: np.ndarray) -> tuple[float, float, float]:
    """Precision, recall, and harmonic-mean F of two 0/1 masks, in percent.

    Conventions for degenerate masks: both empty scores 100, exactly one
    empty scores 0, and zero overlap scores 0.
    """
    machine = np.asarray(machine_mask).astype(bool)
    user = np.asarray(user_mask).astype(bool)
    if machine.shape != user.shape or machine.ndim != 1:
        raise ValueError("masks must be equal-length 1-D vectors")
    n_machine = int(machine.sum())
    n_user = int(user.sum())
    if n_machine == 0 and n_user == 0:
        return 100.0, 100.0, 100.0
    if n_machine == 0 or n_user == 0:
        return 0.0, 0.0, 0.0
    overlap = int((machine & user).sum())
    precision = overlap / n_machine
    recall = overlap / n_user
    if overlap == 0:
        return 0.0, 0.0, 0.0
    f = 2.0 * precision * recall / (precision + recall)
    return 100.0 * precision, 100.0 * recall, 100.0 * f


def video_fscore(
    machine_mask: np.ndarray,
    user_masks: list[np.ndarray],
    protocol: EvalProtocol,
) -> tuple[float, float, float]:
    """(P, R, F) for one video against multiple user summaries.

    Each component is aggregated across users with the same protocol,
    so under max aggregation P and R come from the best-F user.
    """
    if not user_masks:
        raise ValueError("need at least one user summary")
    triples = [fscore(machine_mask, u) for u in user_masks]
    fs = [t[2] for t in triples]
    if protocol is EvalProtocol.MAX_OVER_USERS:
        best = int(np.argmax(fs))
        return triples[best]
    arr = np.array(triples)
    return tuple(float(v) for v in arr.mean(axis=0))


def diversity_zeta(videos: list[tuple[np.ndarray, list[int]]]) -> float:
    """Mean distance from each shot to its nearest selected key shot.

    Each entry pairs an (T, D) matrix of per-shot mean feature vectors
    with the indices of the selected shots.  Every video contributes the
    mean over its own T shots, and ζ is the mean over videos.  A video
    with no selected shot has no nearest key shot and is left out; at
    least one video must have a selected shot.
    """
    if not videos:
        raise ValueError("need at least one video")
    per_video_means = []
    for shot_features, selected in videos:
        feats = np.asarray(shot_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("shot features must form a nonempty (T, D) matrix")
        sel = sorted(set(int(i) for i in selected))
        if not sel:
            continue
        if sel[0] < 0 or sel[-1] >= feats.shape[0]:
            raise ValueError("selected shot index out of range")
        diff = feats[:, None, :] - feats[None, sel, :]
        dists = np.sqrt((diff * diff).sum(axis=2))
        nearest = dists.min(axis=1)
        per_video_means.append(float(nearest.mean()))
    if not per_video_means:
        raise ValueError("no video has a selected shot")
    return float(np.mean(per_video_means))


@dataclass
class VideoScore:
    video_id: str
    precision: float
    recall: float
    fscore: float


@dataclass
class MetricsReport:
    """Per-video scores plus fold aggregates, serializable to JSON."""

    protocol: EvalProtocol
    per_video: list[VideoScore] = field(default_factory=list)
    fold_fscores: list[float] = field(default_factory=list)
    mean_fscore: float = 0.0
    zeta: float | None = None
    zeta_skipped_videos: int = 0

    def to_dict(self) -> dict:
        out = {
            "protocol": self.protocol.value,
            "per_video": [
                {
                    "video_id": v.video_id,
                    "precision": v.precision,
                    "recall": v.recall,
                    "fscore": v.fscore,
                }
                for v in self.per_video
            ],
            "fold_fscores": list(self.fold_fscores),
            "mean_fscore": self.mean_fscore,
        }
        if self.zeta is not None:
            out["zeta"] = self.zeta
            out["zeta_skipped_videos"] = self.zeta_skipped_videos
        return out
