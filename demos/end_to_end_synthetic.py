"""Train on a planted corpus and score held-out videos.

Every synthetic video hides the same three "key" visual clusters among
repeated background clusters; the planted keyframes are the ground
truth.  A scorer trained on some videos should push the scores of those
clusters up on videos it never saw, while a random scorer picks shots
blindly.  Compares the trained F-score against that random baseline.

Run:  python3 demos/end_to_end_synthetic.py   (about half a minute)
"""

import time

import numpy as np

from gdasum.data import SplitSetting, make_splits
from gdasum.kts import shots_from_changepoints
from gdasum.metrics import fscore
from gdasum.model import HyperParams
from gdasum.summarize import generate_summary, summary_from_scores
from gdasum.synthetic import PlantedSpec, make_planted_dataset
from gdasum.train import TrainConfig, train


def test_fscores(records, split, score_fn):
    by_id = {r.id: r for r in records}
    out = []
    for vid in split.test_ids:
        rec = by_id[vid]
        mask = score_fn(rec)
        _, _, f = fscore(mask, rec.annotations.keyframe_labels)
        out.append((vid, f))
    return out


def main():
    spec = PlantedSpec(n_videos=12, seed=0)
    records = make_planted_dataset(spec)
    split = make_splits(records, SplitSetting.CANONICAL, seed=0)[0]
    print(f"corpus: {len(records)} videos of {spec.n_frames} frames;"
          f" fold 0 trains on {len(split.train_ids)}, tests on {len(split.test_ids)}")

    hyper = HyperParams(hidden=32, embed=8)
    config = TrainConfig(mode="supervised", epochs=60, learning_rate=1e-3, seed=0)
    started = time.perf_counter()
    params, epochs = train(records, split, config, hyper)
    wall = time.perf_counter() - started
    first, last = epochs[0]["loss"]["total"], epochs[-1]["loss"]["total"]
    print(f"trained {config.epochs} epochs in {wall:.1f}s;"
          f" mean loss {first:.3f} -> {last:.3f}\n")

    def trained_mask(rec):
        return generate_summary(
            rec.features.matrix, params, hyper, ratio=0.15,
            video_id=rec.id, change_points=list(rec.annotations.change_points),
        )["frame_mask"]

    rng = np.random.default_rng(99)

    def random_mask(rec):
        n = rec.features.n_frames
        shots = shots_from_changepoints(list(rec.annotations.change_points), n)
        return summary_from_scores(rec.id, rng.uniform(size=n), shots, ratio=0.15)["frame_mask"]

    trained = test_fscores(records, split, trained_mask)
    random_rows = test_fscores(records, split, random_mask)

    print(f"{'video':14s} {'trained F':>10s} {'random F':>10s}")
    for (vid, ft), (_, fr) in zip(trained, random_rows):
        print(f"{vid:14s} {ft:10.1f} {fr:10.1f}")
    mean_t = np.mean([f for _, f in trained])
    mean_r = np.mean([f for _, f in random_rows])
    print(f"{'mean':14s} {mean_t:10.1f} {mean_r:10.1f}")


if __name__ == "__main__":
    main()
