"""Output checks, computed apart from the program under test.

Each check returns a list of failure messages; an empty list passes.
Features, manifests, summaries and metrics are read straight from the
files.  Segmentation, knapsack, F-score and diversity are recomputed
here from their definitions.  The gradient check and the permutation
check call the program's own forward, backward and loss, since those
are what they test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import env

gdasum = env.import_gdasum()

from gdasum.losses import SCORE_CLIP, backward, loss_given_params  # noqa: E402
from gdasum.model import forward  # noqa: E402
from gdasum.train import load_checkpoint  # noqa: E402

RATIO = 0.15
KTS_PENALTY = 1.0
# Objectives are sums of a few hundred segment scatters of size ~1e3 to
# ~1e5, computed here in another order than in the program.
KTS_RTOL = 1e-9
VALUE_RTOL = 1e-9
METRIC_ATOL = 1e-9
PERMUTATION_RTOL = 1e-9
# Central differences along a random unit direction v.  Where no kink
# lies within the step, they match <backward, v> to ~1e-13 of the
# gradient norm at step 1e-5, or to a few ulps of the loss divided by
# the step, whichever is larger; a kink within the step costs ~2e-7 of
# the gradient norm.  <backward, v> itself is typically ~4e-4 of the
# gradient norm (5.3M parameters).
FD_STEPS = (1e-5, 1e-6, 1e-7)
FD_GTOL = 1e-10
FD_ULPS = 32
SIGMA = 0.3  # gdasum train's default summary-ratio target


def read_manifest(path):
    """Manifest entries with their float64 feature matrices."""
    path = Path(path)
    videos = json.loads(path.read_text())["videos"]
    for entry in videos:
        raw = np.fromfile(path.parent / entry["features_file"], dtype="<f4")
        entry["x"] = raw.reshape(entry["n_frames"], entry["dim"]).astype(np.float64)
    return videos


def segment_costs(x: np.ndarray, kernel: str) -> np.ndarray:
    """cost[s, t] of segment [s, t) for s < t, from the Gram matrix.

    cost = sum_i K_ii - (sum_{i,j} K_ij) / (t - s) over the segment,
    the scatter about the segment mean in the kernel's feature space;
    K = X X^T for the linear kernel, exp(-||x_i - x_j||^2 / D) for RBF.
    """
    n, dim = x.shape
    gram = x @ x.T
    if kernel == "rbf":
        sq = np.diag(gram).copy()
        gram = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0) / dim)
    diag = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((n + 1, n + 1))
    block[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    corner = np.diag(block)
    idx = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (diag[None, :] - diag[:, None]) - (
            corner[None, :] - 2.0 * block + corner[:, None]
        ) / (idx[None, :] - idx[:, None])
    cost[idx[:, None] >= idx[None, :]] = np.inf
    return cost


def penalty(n: int, m: int) -> float:
    return KTS_PENALTY * m * (math.log(n / m) + 1.0)


def kts_check(x: np.ndarray, shots, kernel: str) -> list[str]:
    """The returned shots reach the optimum of cost plus penalty."""
    n = x.shape[0]
    kmax = min(math.ceil(n / 10), n)
    cost = segment_costs(x, kernel)
    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    optimum = np.inf
    for k in range(1, kmax + 1):
        best = np.min(best[:, None] + cost, axis=0)
        optimum = min(optimum, best[n] + penalty(n, k))
    got = sum(cost[a, b] for a, b in shots) + penalty(n, len(shots))
    if len(shots) > kmax or not got <= optimum + KTS_RTOL * abs(optimum):
        return [f"KTS objective {got!r} with {len(shots)} shots, optimum {optimum!r}"]
    return []


def knapsack_optimum(values, lengths, budget: int) -> float:
    best = np.zeros(budget + 1)
    for value, length in zip(values, lengths):
        if length <= budget:
            best[length:] = np.maximum(best[length:], best[: budget + 1 - length] + value)
    return float(best[budget])


def fscore(machine, user):
    """(P, R, F) in percent; both empty scores 100, one empty or no overlap 0."""
    n_machine, n_user = int(machine.sum()), int(user.sum())
    if n_machine == 0 and n_user == 0:
        return 100.0, 100.0, 100.0
    overlap = int((machine & user).sum())
    if overlap == 0:
        return 0.0, 0.0, 0.0
    p, r = overlap / n_machine, overlap / n_user
    return 100.0 * p, 100.0 * r, 100.0 * 2.0 * p * r / (p + r)


def check_summaries(plan: dict, seed: int) -> list[str]:
    fails = []
    for part in plan["parts"]:
        fails += [f"{part['name']}: {msg}" for msg in check_part(part)]
    return fails + permutation_check(plan, plan["parts"][0], seed)


def check_part(part: dict) -> list[str]:
    """The summaries and metrics of one summarize-and-eval pass."""
    videos = read_manifest(part["manifest"])
    metrics = json.loads((Path(part["metrics"]) / "metrics.json").read_text())
    reported = {v["video_id"]: v for v in metrics["per_video"]}
    fails = []
    if metrics["protocol"] != "mean":  # every video is source "other"
        fails.append(f"protocol {metrics['protocol']!r}, expected 'mean'")
    fscores, zetas = [], []
    for video in videos:
        vid, n, x = video["id"], video["n_frames"], video["x"]
        doc = json.loads((Path(part["summaries"]) / f"{vid}.summary.json").read_text())
        shots = [tuple(s) for s in doc["shots"]]
        selected = list(doc["selected"])
        scores = np.asarray(doc["frame_scores"], dtype=np.float64)
        mask = np.asarray(doc["frame_mask"], dtype=bool)
        gaps = any(b != c for (_, b), (c, _) in zip(shots, shots[1:]))
        if shots[0][0] != 0 or shots[-1][1] != n or gaps:
            fails.append(f"{vid}: shots do not tile [0, {n})")
            continue
        fails += [f"{vid}: {msg}" for msg in kts_check(x, shots, part["kernel"])]

        lengths = np.array([b - a for a, b in shots])
        values = np.array([scores[a:b].mean() for a, b in shots])
        budget = math.floor(RATIO * n)
        optimum = knapsack_optimum(values, lengths, budget)
        got = float(values[selected].sum())
        if lengths[selected].sum() > budget or abs(got - optimum) > VALUE_RTOL * optimum:
            fails.append(f"{vid}: knapsack value {got!r}, optimum {optimum!r}")
        union = np.zeros(n, dtype=bool)
        for i in selected:
            union[shots[i][0] : shots[i][1]] = True
        if not np.array_equal(mask, union) or mask.sum() > budget:
            fails.append(f"{vid}: frame mask is not the union of the selected shots")

        users = []
        for intervals in video["annotations"]["user_summaries"]:
            user = np.zeros(n, dtype=bool)
            for a, b in intervals:
                user[a:b] = True
            users.append(user)
        p, r, f = np.mean([fscore(mask, u) for u in users], axis=0)
        row = reported.get(vid, {})
        if any(abs(row.get(k, np.nan) - v) > METRIC_ATOL or k not in row
               for k, v in (("precision", p), ("recall", r), ("fscore", f))):
            fails.append(f"{vid}: metrics.json P/R/F {row} != {(p, r, f)}")
        fscores.append(f)

        if part["zeta"]:
            shot_means = np.array([x[a:b].mean(axis=0) for a, b in shots])
            diff = shot_means[:, None, :] - shot_means[None, selected, :]
            zetas.append(np.sqrt((diff**2).sum(-1)).min(axis=1).mean())
    if abs(metrics["mean_fscore"] - np.mean(fscores)) > METRIC_ATOL:
        fails.append(f"mean F {metrics['mean_fscore']!r} != {np.mean(fscores)!r}")
    if part["zeta"]:
        zeta = float(np.mean(zetas))
        if abs(metrics.get("zeta", np.nan) - zeta) > METRIC_ATOL * max(1.0, zeta):
            fails.append(f"zeta {metrics.get('zeta')!r} != {zeta!r}")
    return fails


def permutation_check(plan, part, seed) -> list[str]:
    """The eval forward on a permuted video returns the permuted scores."""
    video = min(read_manifest(part["manifest"]), key=lambda v: v["n_frames"])
    doc = json.loads((Path(part["summaries"]) / f"{video['id']}.summary.json").read_text())
    scores = np.asarray(doc["frame_scores"], dtype=np.float64)
    params, hyper = load_checkpoint(plan["checkpoint"])
    perm = np.random.default_rng(seed).permutation(video["n_frames"])
    y = forward(video["x"][perm], params, hyper, mode="eval").y
    if not np.allclose(y, scores[perm], rtol=PERMUTATION_RTOL, atol=0.0):
        worst = float(np.max(np.abs(y - scores[perm])))
        return [f"{video['id']}: permuted scores differ by up to {worst!r}"]
    return []


def check_checkpoint(path) -> tuple[list[str], object, object]:
    """Parse the checkpoint here and compare bit for bit with load_checkpoint."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    dtype = np.dtype(header["dtype"])
    params, hyper = load_checkpoint(path)
    fails = []
    offset = newline + 1
    for name, shape in header["shapes"].items():
        count = math.prod(shape)
        stored = np.frombuffer(raw, dtype, count, offset).astype(np.float64).reshape(shape)
        offset += count * dtype.itemsize
        loaded = getattr(params, name)
        if loaded.dtype != np.float64 or loaded.shape != stored.shape or not np.array_equal(
            loaded.view(np.uint64), stored.view(np.uint64)
        ):
            fails.append(f"checkpoint field {name} does not reload bit-exactly")
    if offset != len(raw):
        fails.append(f"checkpoint holds {len(raw) - offset} bytes past its fields")
    return fails, params, hyper


def check_training(plan: dict, mode: str, epochs: int, seed: int) -> list[str]:
    out = Path(plan["train_out"])
    fails, params, hyper = check_checkpoint(out / "fold0.ckpt")
    lines = [json.loads(line) for line in (out / "fold0.report.jsonl").read_text().splitlines()]
    losses = [line["loss"]["total"] for line in lines if "epoch" in line]
    if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
        fails.append(f"training report holds epoch losses {losses}")

    videos = {v["id"]: v for v in read_manifest(plan["manifest"])}
    video = min((videos[v] for v in plan["train_ids"]), key=lambda v: v["n_frames"])
    labels = np.asarray(video["annotations"]["keyframe_labels"], dtype=np.int8)
    labels = labels if mode == "supervised" else None
    x = video["x"]
    rng = np.random.default_rng(seed)
    trace = forward(x, params, hyper, mode="train", rng=rng)
    masks = (trace.ff_mask, trace.head_mask)
    grads = backward(trace, x, params, hyper, mode, labels=labels, sigma=SIGMA)
    direction = params.zeros_like()
    for _, arr in direction.items():
        arr[...] = rng.standard_normal(arr.shape)
    norm = math.sqrt(sum(float((a * a).sum()) for a in direction.arrays()))
    analytic = sum(float((g * v).sum()) for g, v in zip(grads.arrays(), direction.arrays())) / norm
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads.arrays()))

    def moved(step):
        out = params.copy()
        for name, arr in out.items():
            arr += (step / norm) * getattr(direction, name)
        return out

    def kinks(p):
        """Which side of every kink of the loss the parameters sit on."""
        t = forward(x, p, hyper, mode="train", masks=masks)
        inside = (t.alpha > hyper.alpha_clip) & (t.alpha < 1.0 - hyper.alpha_clip)
        live = (t.y > SCORE_CLIP) & (t.y < 1.0 - SCORE_CLIP)
        relu = (t.head_pre > 0).ravel()
        return np.concatenate([relu, inside.ravel(), live, [t.y.mean() > SIGMA]])

    # The loss is smooth only between kinks (ReLU, clips, the length
    # loss's absolute value); a central difference straddling one is
    # off by far more than its truncation error, so shrink the step.
    base = kinks(params)
    for step in FD_STEPS:
        up, down = moved(step), moved(-step)
        if np.array_equal(kinks(up), base) and np.array_equal(kinks(down), base):
            numeric = (
                loss_given_params(x, up, hyper, mode, labels, SIGMA, masks=masks)
                - loss_given_params(x, down, hyper, mode, labels, SIGMA, masks=masks)
            ) / (2.0 * step)
            loss = loss_given_params(x, params, hyper, mode, labels, SIGMA, masks=masks)
            roundoff = FD_ULPS * np.finfo(float).eps * abs(loss) / step
            if abs(analytic - numeric) > FD_GTOL * grad_norm + roundoff:
                fails.append(
                    f"{video['id']}: <backward, v> = {analytic!r}, central difference {numeric!r}"
                )
            break
    else:
        fails.append(f"{video['id']}: every finite-difference step crossed a kink")
    return fails
