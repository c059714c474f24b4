"""Command-line pipeline: train, summarize, segment, eval, gradcheck.

Configuration merges three layers: built-in defaults, an optional JSON
config file named by the GDASUM_CONFIG environment variable, and
command-line flags (flags win).  Every file this tool writes embeds the
resolved configuration and a format-version string.  Exit codes: 0 on
success, 1 on validation errors (bad inputs, files, flags), 2 on
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    SourceDataset,
    intervals_to_mask,
    load_manifest,
    majority_source,
    make_splits,
)
from .kts import kts_changepoints
from .losses import NumericalError, backward, finite_diff_grad, gradient_report
from .metrics import (
    PROTOCOL_BY_SOURCE,
    EvalProtocol,
    MetricsReport,
    VideoScore,
    diversity_zeta,
    video_fscore,
)
from .model import HyperParams, forward, init_params
from .summarize import generate_summary
from .train import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

FORMAT_VERSION = "1"
CONFIG_ENV_VAR = "GDASUM_CONFIG"

DEFAULTS = {
    "manifest": None,
    "setting": None,
    "mode": "supervised",
    "fold": None,
    "epochs": 200,
    "lr": None,
    "sigma": 0.3,
    "beta": 1.0,
    "ratio": 0.15,
    "seed": 0,
    "checkpoint": None,
    "out": None,
    "target": None,
    "hidden": 1024,
    "embed": 256,
    "dropout": 0.6,
    "weight_decay": 1e-5,
    "alpha_clip": 1e-7,
    "grad_clip": 5.0,
    "kts_penalty": 1.0,
    "kts_max_segments": None,
    "kts_kernel": "linear",
    "summaries": None,
    "protocol": None,
    "zeta": False,
    "zeta_norm": "per_video",
    "instances": 20,
    "tolerance": 1e-4,
    "fd_step": 1e-5,
    "emit_plot_data": False,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; remap to validation (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _file_config() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"{CONFIG_ENV_VAR} names a missing file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise DatasetError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return doc


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then GDASUM_CONFIG file values, then explicit flags.

    Only the keys the command's own parser defines are kept, so the
    recorded run_config holds exactly the settings the command reads.
    """
    merged = {key: value for key, value in DEFAULTS.items() if hasattr(args, key)}
    merged.update((key, value) for key, value in _file_config().items() if key in merged)
    for key in merged:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    merged["command"] = args.command
    return merged


def _hyper_from(cfg: dict) -> HyperParams:
    return HyperParams(
        hidden=int(cfg["hidden"]),
        embed=int(cfg["embed"]),
        dropout_rate=float(cfg["dropout"]),
        weight_decay=float(cfg["weight_decay"]),
        beta=float(cfg["beta"]),
        alpha_clip=float(cfg["alpha_clip"]),
    )


def _provenance(cfg: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "run_config": cfg}


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"] or "gdasum-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _requested_splits(cfg: dict, records) -> list:
    """The splits of the configured setting: the --fold one alone, else all."""
    splits = make_splits(records, cfg["setting"], int(cfg["seed"]), target=cfg["target"])
    if cfg["fold"] is None:
        return splits
    fold = int(cfg["fold"])
    if not 0 <= fold < len(splits):
        raise DatasetError(f"fold {fold} out of range (have {len(splits)})")
    return [splits[fold]]


def cmd_train(cfg: dict) -> int:
    if not cfg["manifest"]:
        raise DatasetError("train requires --manifest")
    records = load_manifest(cfg["manifest"])
    hyper = _hyper_from(cfg)
    if cfg["setting"] is None:
        cfg = {**cfg, "setting": "canonical"}
    splits = _requested_splits(cfg, records)
    out = _out_dir(cfg)

    for split in splits:
        k = split.fold_index
        config = TrainConfig(
            mode=cfg["mode"],
            epochs=int(cfg["epochs"]),
            learning_rate=None if cfg["lr"] is None else float(cfg["lr"]),
            sigma=float(cfg["sigma"]),
            seed=int(cfg["seed"]),
            grad_clip=None if cfg["grad_clip"] in (None, 0) else float(cfg["grad_clip"]),
        )
        params, report = train(records, split, config, hyper)
        ckpt_path = out / f"fold{k}.ckpt"
        save_checkpoint(params, ckpt_path, hyper, extra_header=_provenance(cfg))
        report.checkpoint_path = str(ckpt_path)
        report_path = out / f"fold{k}.report.jsonl"
        report_path.write_text(
            json.dumps(_provenance(cfg)) + "\n" + report.to_json_lines()
        )
        final = report.epochs[-1].mean_loss.total if report.epochs else float("nan")
        print(f"fold {k}: checkpoint {ckpt_path} report {report_path} final-loss {final:.6f}")
    return 0


def _records_to_summarize(cfg: dict, records):
    if cfg["setting"] is None:
        return records
    split = _requested_splits(cfg, records)[0]  # fold 0 unless --fold names one
    by_id = {r.id: r for r in records}
    return [by_id[vid] for vid in split.test_ids]


def cmd_summarize(cfg: dict) -> int:
    if not cfg["manifest"]:
        raise DatasetError("summarize requires --manifest")
    if not cfg["checkpoint"]:
        raise DatasetError("summarize requires --checkpoint")
    records = load_manifest(cfg["manifest"])
    params, hyper = load_checkpoint(cfg["checkpoint"])
    targets = _records_to_summarize(cfg, records)
    out = _out_dir(cfg)

    def summarize_one(rec):
        if rec.features.dim != params.dims[0]:
            raise CheckpointError(
                f"video {rec.id!r} feature dim {rec.features.dim} != "
                f"checkpoint dim {params.dims[0]}"
            )
        cps = rec.annotations.change_points
        summary, _ = generate_summary(
            rec.features.matrix,
            params,
            hyper,
            ratio=float(cfg["ratio"]),
            video_id=rec.id,
            change_points=None if cps is None else list(cps),
            max_segments=(
                None if cfg["kts_max_segments"] is None else int(cfg["kts_max_segments"])
            ),
            penalty_coeff=float(cfg["kts_penalty"]),
            kernel=cfg["kts_kernel"],
        )
        return summary

    summaries = [summarize_one(rec) for rec in targets]
    for summary in summaries:
        doc = {**_provenance(cfg), **summary.to_dict()}
        path = out / f"{summary.video_id}.summary.json"
        path.write_text(json.dumps(doc) + "\n")
        if cfg["emit_plot_data"]:
            rows = ["frame,score,selected"]
            for i, (score, sel) in enumerate(zip(summary.frame_scores, summary.frame_mask)):
                rows.append(f"{i},{score:.10g},{int(sel)}")
            (out / f"{summary.video_id}.plot.csv").write_text("\n".join(rows) + "\n")
        print(path)
    return 0


def cmd_segment(cfg: dict) -> int:
    if not cfg["manifest"]:
        raise DatasetError("segment requires --manifest")
    records = load_manifest(cfg["manifest"])

    def segment_one(rec):
        boundaries = kts_changepoints(
            rec.features.matrix,
            max_segments=(
                None if cfg["kts_max_segments"] is None else int(cfg["kts_max_segments"])
            ),
            penalty_coeff=float(cfg["kts_penalty"]),
            kernel=cfg["kts_kernel"],
        )
        return {"video_id": rec.id, "boundaries": [int(b) for b in boundaries]}

    results = [segment_one(rec) for rec in records]
    if cfg["out"]:
        out = _out_dir(cfg)
        for res in results:
            path = out / f"{res['video_id']}.segments.json"
            path.write_text(json.dumps({**_provenance(cfg), **res}) + "\n")
            print(path)
    else:
        for res in results:
            print(json.dumps(res))
    return 0


def _user_masks(rec) -> list[np.ndarray]:
    ann = rec.annotations
    if ann.user_summaries is not None:
        return [intervals_to_mask(user, rec.features.n_frames) for user in ann.user_summaries]
    if ann.keyframe_labels is not None:
        return [np.asarray(ann.keyframe_labels)]
    raise DatasetError(f"video {rec.id!r} has no user summaries or keyframe labels")


def _eval_protocol(cfg: dict, records) -> EvalProtocol:
    majority = majority_source(records)
    inferred = PROTOCOL_BY_SOURCE.get(majority.value, EvalProtocol.MEAN_OVER_USERS)
    if cfg["protocol"] is None:
        return inferred
    chosen = EvalProtocol(cfg["protocol"])
    if chosen is not inferred and majority is not SourceDataset.OTHER:
        warnings.warn(
            f"protocol {chosen.value!r} overrides the {majority.value} default "
            f"({inferred.value})",
            stacklevel=2,
        )
    return chosen


def cmd_eval(cfg: dict) -> int:
    if not cfg["manifest"]:
        raise DatasetError("eval requires --manifest")
    summaries_dir = cfg["summaries"] or cfg["out"]
    if not summaries_dir:
        raise DatasetError("eval requires --summaries (or --out) naming the summary directory")
    summaries_dir = Path(summaries_dir)
    if not summaries_dir.is_dir():
        raise DatasetError(f"summary directory not found: {summaries_dir}")

    records = load_manifest(cfg["manifest"])
    docs = {}
    for rec in records:
        path = summaries_dir / f"{rec.id}.summary.json"
        if path.is_file():
            docs[rec.id] = json.loads(path.read_text())
    if not docs:
        raise DatasetError(f"no *.summary.json files in {summaries_dir} match the manifest")

    scored_records = [r for r in records if r.id in docs]
    protocol = _eval_protocol(cfg, scored_records)

    per_video = {}
    for rec in scored_records:
        machine = np.asarray(docs[rec.id]["frame_mask"], dtype=np.int8)
        if machine.shape[0] != rec.features.n_frames:
            raise DatasetError(
                f"summary for {rec.id!r} has {machine.shape[0]} frames, "
                f"manifest says {rec.features.n_frames}"
            )
        p, r, f = video_fscore(machine, _user_masks(rec), protocol)
        per_video[rec.id] = VideoScore(rec.id, p, r, f)

    if cfg["setting"] is None:
        folds = [sorted(per_video)]
    else:
        folds = [
            [vid for vid in split.test_ids if vid in per_video]
            for split in _requested_splits(cfg, records)
        ]
        folds = [fold for fold in folds if fold]
        if not folds:
            raise DatasetError("no summarized videos fall in the requested fold(s)")

    fold_fscores = [
        float(np.mean([per_video[vid].fscore for vid in fold])) for fold in folds
    ]

    zeta, zeta_skipped = None, 0
    if cfg["zeta"]:
        by_id = {r.id: r for r in records}
        scored = {vid for fold in folds for vid in fold}
        zeta_videos = []
        # zeta covers the videos the F-scores cover: the requested folds' tests
        for vid, doc in docs.items():
            if vid not in scored:
                continue
            feats = by_id[vid].features.matrix.astype(np.float64)
            shot_feats = np.array([feats[a:b].mean(axis=0) for a, b in doc["shots"]])
            zeta_videos.append((shot_feats, list(doc["selected"])))
        # videos that selected no shot are left out of zeta, and counted
        zeta_skipped = sum(not selected for _, selected in zeta_videos)
        zeta = diversity_zeta(zeta_videos, normalization=cfg["zeta_norm"])

    report = MetricsReport(
        protocol=protocol,
        per_video=[per_video[vid] for fold in folds for vid in fold],
        fold_fscores=fold_fscores,
        mean_fscore=float(np.mean(fold_fscores)),
        zeta=zeta,
        zeta_skipped_videos=zeta_skipped,
    )
    doc = {**_provenance(cfg), **report.to_dict()}
    text = json.dumps(doc, indent=2) + "\n"
    if cfg["out"]:
        out = _out_dir(cfg)
        (out / "metrics.json").write_text(text)
        (out / "metrics.csv").write_text(report.to_csv())
        print(out / "metrics.json")
    else:
        print(text, end="")
    return 0


def run_gradcheck_instance(
    seed: int,
    mode: str,
    n_frames: int = 6,
    feature_dim: int = 5,
    hidden: int = 8,
    embed: int = 4,
    sigma: float = 0.3,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and numeric gradients."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_frames, feature_dim))
    hyper = HyperParams(hidden=hidden, embed=embed, dropout_rate=0.0)
    params = init_params(feature_dim, hyper, seed)
    labels = None
    if mode == "supervised":
        labels = np.zeros(n_frames, dtype=np.int8)
        labels[rng.choice(n_frames, size=max(1, n_frames // 3), replace=False)] = 1
    trace = forward(x, params, hyper, mode="eval")
    analytic = backward(trace, x, params, hyper, mode, labels=labels, sigma=sigma)
    numeric = finite_diff_grad(x, params, hyper, mode, labels=labels, sigma=sigma, step=step)
    return gradient_report(analytic, numeric)["max"]


def cmd_gradcheck(cfg: dict) -> int:
    tolerance = float(cfg["tolerance"])
    rows = []
    worst = 0.0
    for i in range(int(cfg["instances"])):
        seed = int(cfg["seed"]) + i
        for mode in ("supervised", "unsupervised"):
            err = run_gradcheck_instance(seed, mode, step=float(cfg["fd_step"]))
            rows.append({"seed": seed, "mode": mode, "max_rel_err": err})
            worst = max(worst, err)
    ok = worst <= tolerance
    doc = {
        **_provenance(cfg),
        "tolerance": tolerance,
        "instances": rows,
        "max_rel_err": worst,
        "pass": ok,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if cfg["out"]:
        out = _out_dir(cfg)
        (out / "gradcheck.json").write_text(text)
        print(out / "gradcheck.json")
    print(f"gradcheck max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at tolerance {tolerance:.1e})")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gdasum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--manifest", help="dataset manifest JSON")
        p.add_argument("--seed", type=int, help="PRNG seed (default 0)")
        p.add_argument("--out", help="output directory")

    def add_split(p):
        p.add_argument("--setting", choices=["canonical", "augmented", "transfer"])
        p.add_argument("--fold", type=int, help="restrict to one fold index")
        p.add_argument("--target", choices=[s.value for s in SourceDataset],
                       help="source_dataset value naming the dataset under test")

    def add_hyper(p):
        p.add_argument("--hidden", type=int, help="hidden width (default 1024)")
        p.add_argument("--embed", type=int, help="embedding width (default 256)")
        p.add_argument("--dropout", type=float, help="dropout rate (default 0.6)")
        p.add_argument("--weight-decay", dest="weight_decay", type=float)
        p.add_argument("--alpha-clip", dest="alpha_clip", type=float)
        p.add_argument("--beta", type=float, help="similarity kernel bandwidth (default 1)")

    def add_kts(p):
        p.add_argument("--kts-penalty", dest="kts_penalty", type=float,
                       help="segmentation penalty coefficient (default 1)")
        p.add_argument("--kts-max-segments", dest="kts_max_segments", type=int)
        p.add_argument("--kts-kernel", dest="kts_kernel", choices=["linear", "rbf"])

    p_train = sub.add_parser("train", help="train per-fold models")
    add_common(p_train)
    add_split(p_train)
    add_hyper(p_train)
    p_train.add_argument("--mode", choices=["supervised", "unsupervised", "semi"])
    p_train.add_argument("--epochs", type=int, help="training epochs (default 200)")
    p_train.add_argument("--lr", type=float, help="learning rate (default per dataset)")
    p_train.add_argument("--sigma", type=float, help="summary-ratio target (default 0.3)")
    p_train.add_argument("--grad-clip", dest="grad_clip", type=float,
                         help="gradient norm clip (default 5, 0 disables)")

    p_sum = sub.add_parser("summarize", help="generate summaries from a checkpoint")
    add_common(p_sum)
    add_split(p_sum)
    add_kts(p_sum)
    p_sum.add_argument("--checkpoint", help="trained checkpoint path")
    p_sum.add_argument("--ratio", type=float, help="summary length budget (default 0.15)")
    p_sum.add_argument("--emit-plot-data", dest="emit_plot_data",
                       action="store_const", const=True,
                       help="also write per-video frame,score,selected CSVs")

    p_seg = sub.add_parser("segment", help="detect shot boundaries")
    add_common(p_seg)
    add_kts(p_seg)

    p_eval = sub.add_parser("eval", help="score summaries against annotations")
    add_common(p_eval)
    add_split(p_eval)
    p_eval.add_argument("--summaries", help="directory of *.summary.json files")
    p_eval.add_argument("--protocol", choices=["max", "mean"],
                        help="per-user aggregation override")
    p_eval.add_argument("--zeta", action="store_const", const=True,
                        help="include the diversity metric")
    p_eval.add_argument("--zeta-norm", dest="zeta_norm", choices=["per_video", "global"])

    p_grad = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    add_common(p_grad)
    p_grad.add_argument("--instances", type=int, help="random instances (default 20)")
    p_grad.add_argument("--tolerance", type=float, help="max relative error (default 1e-4)")
    p_grad.add_argument("--fd-step", dest="fd_step", type=float,
                        help="finite difference step (default 1e-5)")
    return parser


COMMANDS = {
    "train": cmd_train,
    "summarize": cmd_summarize,
    "segment": cmd_segment,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
