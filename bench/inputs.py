"""Benchmark inputs: planted corpora at the paper's shapes, made from a seed.

Every corpus comes from ``gdasum.synthetic.make_planted_dataset`` at
D=1024 with ``center_scale=1.0`` and ``noise=0.3``, which gives per-frame
norms of about 30, like pooled CNN features.  The seed changes the
content (cluster centres, run layout, noise); the video lengths are
fixed per workload, so the work a run does is the same on every seed.

Write one workload's inputs without timing anything:

    python3 bench/inputs.py --workload summarize --seed 3 --out some/dir
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import env  # noqa: F401  (must precede numpy)

gdasum = env.import_gdasum()

from gdasum.data import make_splits, write_features, write_manifest  # noqa: E402
from gdasum.model import HyperParams, init_params  # noqa: E402
from gdasum.synthetic import PlantedSpec, make_planted_dataset  # noqa: E402
from gdasum.train import save_checkpoint  # noqa: E402

DIM = 1024
CENTER_SCALE = 1.0
NOISE = 0.3
EPOCHS = 1
TRAIN_SEED = 0
# The known-fault probe: one 600-frame video at the generator's default
# scale, where attention saturates and the DPP subset kernel goes
# singular.  Its input never depends on the benchmark seed.
PROBE_FRAMES = 600
PROBE_SPEC_SEED = 1
PROBE_HOLDOUT_FRAMES = 60


@dataclass(frozen=True)
class Part:
    """One summarize-and-eval pass over a corpus of its own."""

    name: str
    lengths: tuple[int, ...]
    kernel: str
    zeta: bool


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "summarize"
    lengths: tuple[int, ...] = ()
    mode: str = "supervised"  # training only
    probe: bool = False  # training only: run the known-fault probe too
    parts: tuple[Part, ...] = ()


TRAIN_LENGTHS = (300, 360, 450, 540, 600)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-sup", "train", TRAIN_LENGTHS, probe=True),
        Workload("train-unsup", "train", TRAIN_LENGTHS, mode="unsupervised"),
        Workload(
            "summarize",
            "summarize",
            parts=(
                Part("linear", (240, 360), kernel="linear", zeta=True),
                # No --zeta: RBF KTS returns a single shot on some seeds,
                # the knapsack then selects nothing, and eval --zeta
                # exits 1.  One video: RBF KTS alone takes ~20 s at
                # 1800 frames.
                Part("rbf", (1200,), kernel="rbf", zeta=False),
            ),
        ),
    )
}


def planted_corpus(prefix: str, lengths, seed: int, center_scale: float = CENTER_SCALE):
    """One planted video per entry of ``lengths``, each with a unique id.

    All lengths share ``seed``, so every video draws the same cluster
    centres and the key clusters are common to the whole corpus.
    """
    records = []
    for n in sorted(set(lengths)):
        spec = PlantedSpec(
            n_videos=list(lengths).count(n),
            n_frames=n,
            dim=DIM,
            center_scale=center_scale,
            noise=NOISE,
            seed=seed,
        )
        for i, rec in enumerate(make_planted_dataset(spec)):
            records.append(dataclasses.replace(rec, id=f"{prefix}-n{n}-{i:02d}"))
    return records


def write_corpus(out_dir: Path, records, change_points: bool, sources=None) -> Path:
    """Feature files plus a manifest; returns the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in records:
        fname = f"{rec.id}.f32"
        write_features(out_dir / fname, rec.features.matrix)
        ann = rec.annotations
        annotations = {
            "keyframe_labels": [int(v) for v in ann.keyframe_labels],
            "user_summaries": [[[a, b] for a, b in user] for user in ann.user_summaries],
        }
        if change_points:
            annotations["change_points"] = list(ann.change_points)
        entries.append(
            {
                "id": rec.id,
                "n_frames": rec.features.n_frames,
                "dim": rec.features.dim,
                "features_file": fname,
                "source_dataset": (sources or {}).get(rec.id, rec.source_dataset.value),
                "annotations": annotations,
            }
        )
    manifest = out_dir / "manifest.json"
    write_manifest(manifest, entries)
    return manifest


def probe_op(out: Path) -> dict:
    """The known-fault probe: writes its inputs under ``out``, returns its command.

    ``gdasum train`` needs five videos for canonical folds, so the probe
    uses the transfer setting: it trains on the single probe video
    (source "other") and holds out a short "tvsum-like" one.
    """
    probe = planted_corpus("probe", (PROBE_FRAMES,), PROBE_SPEC_SEED, 2.5)
    holdout = planted_corpus("holdout", (PROBE_HOLDOUT_FRAMES,), PROBE_SPEC_SEED, 2.5)
    manifest = write_corpus(
        out / "probe", probe + holdout, change_points=True,
        sources={holdout[0].id: "tvsum-like"},
    )
    return {
        "name": "probe",
        "argv": [
            "train", "--manifest", str(manifest), "--setting", "transfer",
            "--target", "tvsum-like", "--mode", "supervised",
            "--epochs", str(EPOCHS), "--seed", str(TRAIN_SEED),
            "--out", str(out / "probe-out"),
        ],
        "frames": 0,
        "expect_error": "subset kernel is numerically singular",
    }


def make_inputs(workload: Workload, seed: int, out: Path) -> dict:
    """Write every input of one workload under ``out``; returns the plan.

    The plan names the files and holds the argument lists of the
    commands one round runs, with the frames each one pushes through.
    """
    out = Path(out)
    plan = {"workload": workload.name, "seed": seed, "ops": []}
    if workload.kind == "train":
        corpus = planted_corpus(workload.kind, workload.lengths, seed)
        manifest = write_corpus(out / "corpus", corpus, change_points=True)
        split = make_splits(corpus, "canonical", TRAIN_SEED)[0]
        n_frames = {r.id: r.features.n_frames for r in corpus}
        plan["manifest"] = str(manifest)
        plan["train_ids"] = list(split.train_ids)
        plan["train_out"] = str(out / "train")
        plan["ops"].append(
            {
                "name": "train",
                "argv": [
                    "train", "--manifest", str(manifest), "--setting", "canonical",
                    "--fold", "0", "--mode", workload.mode, "--epochs", str(EPOCHS),
                    "--seed", str(TRAIN_SEED), "--out", plan["train_out"],
                ],
                "frames": EPOCHS * sum(n_frames[v] for v in split.train_ids),
            }
        )
        if workload.probe:
            plan["ops"].append(probe_op(out))
    else:
        checkpoint = out / "init.ckpt"
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(init_params(DIM, HyperParams(), seed), checkpoint, HyperParams())
        plan.update(checkpoint=str(checkpoint), parts=[])
        for part in workload.parts:
            corpus = planted_corpus(part.name, part.lengths, seed)
            here = out / part.name
            files = {
                "name": part.name,
                "manifest": str(write_corpus(here / "corpus", corpus, change_points=False)),
                "summaries": str(here / "summaries"),
                "metrics": str(here / "metrics"),
                "kernel": part.kernel,
                "zeta": part.zeta,
            }
            plan["parts"].append(files)
            plan["ops"] += [
                {
                    "name": f"summarize-{part.name}",
                    "argv": [
                        "summarize", "--manifest", files["manifest"],
                        "--checkpoint", str(checkpoint), "--kts-kernel", part.kernel,
                        "--out", files["summaries"],
                    ],
                    "frames": sum(part.lengths),
                },
                {
                    "name": f"eval-{part.name}",
                    "argv": [
                        "eval", "--manifest", files["manifest"],
                        "--summaries", files["summaries"], "--out", files["metrics"],
                        *(["--zeta"] if part.zeta else []),
                    ],
                    "frames": 0,
                },
            ]
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    plan = make_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps(plan, indent=2))
    print(f"wrote inputs in {time.perf_counter() - started:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
