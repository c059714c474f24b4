"""From frame features to a summary: segmentation, scoring, selection.

Builds a video with three visual scenes, finds the scene boundaries
with kernel change-point detection, scores each shot, and picks the
best subset under a 0/1-knapsack frame budget.

Run:  python3 demos/segment_and_select.py
"""

import numpy as np

from gdasum.kts import kts_changepoints, shots_from_changepoints
from gdasum.summarize import knapsack_select, shot_scores, summary_from_scores


def main():
    rng = np.random.default_rng(3)
    dim = 6
    scenes = [(14, 0.0), (10, 8.0), (16, -7.0)]
    x = np.concatenate([
        offset + 0.3 * rng.standard_normal((length, dim)) for length, offset in scenes
    ])
    n = x.shape[0]
    true_bounds = [int(b) for b in np.cumsum([length for length, _ in scenes])[:-1]]
    print(f"video: {n} frames, three scenes, true boundaries {true_bounds}")

    boundaries = kts_changepoints(x, max_segments=6)
    print(f"detected boundaries: {boundaries}")
    shots = shots_from_changepoints(boundaries, n)
    print(f"shots: {[(s.start, s.end) for s in shots]}\n")

    # pretend the model scored the middle scene highest
    frame_scores = np.concatenate([
        np.full(14, 0.30), np.full(10, 0.85), np.full(16, 0.55),
    ])[:n]
    values = shot_scores(frame_scores, shots)
    lengths = np.array([s.length for s in shots])
    for shot, value in zip(shots, values):
        print(f"  shot [{shot.start:2d}, {shot.end:2d})  mean score {value:.2f}  length {shot.length}")

    budget = int(0.65 * n)
    picked = knapsack_select(values, lengths, budget)
    print(f"\nframe budget {budget}: knapsack keeps shots {picked}")

    summary = summary_from_scores("demo", frame_scores, shots, ratio=0.65)
    kept = [summary["shots"][i] for i in summary["selected"]]
    print(f"summary keeps shots {kept}, {sum(summary['frame_mask'])}/{n} frames: "
          f"mask {''.join(map(str, summary['frame_mask']))}")


if __name__ == "__main__":
    main()
