"""Stage timings at the paper's shapes, one stage at a time.

    python3 bench/stages.py [--seed 0] [--repeats 3]

Times each training and summarization stage on a planted video at
N=300 and N=600 (D=1024, H=1024, E=256) and prints a markdown table of
the best of ``--repeats`` runs; KTS is timed once per length, since
it takes seconds.  Numbers come from calls into the library, without
the command line around them.
"""

from __future__ import annotations

import argparse
import time

import env  # noqa: F401  (must precede numpy)

import numpy as np  # noqa: E402
from inputs import DIM, planted_corpus  # noqa: E402

from gdasum.kts import kts_changepoints  # noqa: E402
from gdasum.losses import backward, pairwise_sq_dists, total_loss  # noqa: E402
from gdasum.model import HyperParams, forward, init_params  # noqa: E402
from gdasum.summarize import knapsack_select  # noqa: E402
from gdasum.train import AdamState, adam_step, clip_gradients  # noqa: E402

LENGTHS = (300, 600)


def best_of(repeats, fn):
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def stage_times(n: int, seed: int, repeats: int) -> dict:
    video = planted_corpus("stage", (n,), seed)[0]
    x = video.features.matrix.astype(np.float64)
    labels = video.annotations.keyframe_labels
    hyper = HyperParams()
    params = init_params(DIM, hyper, seed)
    trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(seed))
    grads = backward(trace, x, params, hyper, "unsupervised")
    state = AdamState.zeros(params)
    rng = np.random.default_rng(seed)
    return {
        "forward (train)": best_of(
            repeats, lambda: forward(x, params, hyper, mode="train", rng=rng)),
        "supervised `total_loss`": best_of(
            repeats, lambda: total_loss(trace, params, hyper, "supervised", labels)),
        "supervised backward": best_of(
            repeats, lambda: backward(trace, x, params, hyper, "supervised", labels)),
        "unsupervised backward": best_of(
            repeats, lambda: backward(trace, x, params, hyper, "unsupervised")),
        "`pairwise_sq_dists` (E=256)": best_of(repeats, lambda: pairwise_sq_dists(trace.phi)),
        "clip+Adam": best_of(
            repeats, lambda: adam_step(params, clip_gradients(grads, 5.0)[0], state, 5e-4)),
        "KTS linear, kmax=N/10": best_of(1, lambda: kts_changepoints(x)),
        "KTS RBF, kmax=N/10": best_of(1, lambda: kts_changepoints(x, kernel="rbf")),
        "knapsack, N/10 shots": best_of(
            repeats,
            lambda: knapsack_select(rng.random(n // 10), np.full(n // 10, 10), int(0.15 * n))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    columns = {n: stage_times(n, args.seed, args.repeats) for n in LENGTHS}
    print("| stage | " + " | ".join(f"N={n}" for n in LENGTHS) + " |")
    print("|---|" + "---|" * len(LENGTHS))
    for stage in columns[LENGTHS[0]]:
        cells = [f"{columns[n][stage] * 1e3:.1f} ms" for n in LENGTHS]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
