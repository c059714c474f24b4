"""Command-line pipeline: train, summarize, segment, eval, gradcheck.

Each setting is one argument of its command's parser, which owns its
name, type, default and choices.  An optional JSON config file named by
the GDASUM_CONFIG environment variable supplies flags too: its values
are parsed as flags placed before the command line's, so they are
checked the same way and explicit flags win.  Every file this tool
writes embeds the parsed settings and a format-version string.  Exit
codes: 0 on success, 1 on validation errors (bad inputs, files, flags),
2 on numerical failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    SourceDataset,
    SplitSetting,
    intervals_to_mask,
    load_manifest,
    majority_source,
    make_splits,
)
from .kts import KERNELS, Shot, kts_changepoints
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
from .summarize import check_tiling, generate_summary
from .train import (
    CheckpointError,
    TrainConfig,
    TrainMode,
    load_checkpoint,
    save_checkpoint,
    train,
)

FORMAT_VERSION = "1"
CONFIG_ENV_VAR = "GDASUM_CONFIG"


class _UsageError(Exception):
    """A bad flag, raised by the parser that found it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; raise so main exits 1 instead."""

    def error(self, message):
        raise _UsageError(self, message)


def _file_flags(parser: argparse.ArgumentParser, command: str) -> list[str]:
    """The GDASUM_CONFIG file's values, written as flags of ``command``.

    A key is a flag name with "_" for "-".  true sets a store-true flag;
    false and null leave the default.  A key only other commands define
    is dropped; a key no command defines is an error, and so is a value
    the flag would refuse, named by file and key.
    """
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return []
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"{CONFIG_ENV_VAR} names a missing file: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"config file {path} must hold a JSON object")
    defaults = {name: vars(parser.parse_args([name])) for name in COMMANDS}
    unknown = set(doc).difference(*defaults.values())
    if unknown:
        raise DatasetError(f"config file {path} has unknown keys: {sorted(unknown)}")
    flags = []
    for key, value in doc.items():
        if key not in defaults[command] or value is None:
            continue
        if isinstance(value, (list, dict)):
            raise DatasetError(f"config file {path} key {key!r} must hold one value")
        flag = "--" + key.replace("_", "-")
        if defaults[command][key] is False and isinstance(value, bool):  # store-true
            key_flags = [flag] if value else []
        else:
            key_flags = [f"{flag}={value if isinstance(value, str) else json.dumps(value)}"]
        try:
            parser.parse_args([command, *key_flags])
        except _UsageError as exc:
            raise DatasetError(f"config file {path} key {key!r}: {exc}") from None
        flags += key_flags
    return flags


def _provenance(args: argparse.Namespace) -> dict:
    return {"format_version": FORMAT_VERSION, "run_config": vars(args)}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or "gdasum-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _requested_splits(args: argparse.Namespace, records) -> list | None:
    """The splits of --setting: the --fold one alone, else all; None without it."""
    if args.setting is None:
        if args.fold is not None:
            raise DatasetError("--fold needs --setting")
        return None
    splits = make_splits(records, args.setting, args.seed, target=args.target)
    if args.fold is None:
        return splits
    if not 0 <= args.fold < len(splits):
        raise DatasetError(f"fold {args.fold} out of range (have {len(splits)})")
    return [splits[args.fold]]


def cmd_train(args: argparse.Namespace) -> int:
    if not args.manifest:
        raise DatasetError("train requires --manifest")
    records = load_manifest(args.manifest)
    hyper = HyperParams(**{f.name: getattr(args, f.name) for f in fields(HyperParams)})
    splits = _requested_splits(args, records)
    out = _out_dir(args)

    for split in splits:
        k = split.fold_index
        config = TrainConfig(
            mode=args.mode,
            epochs=args.epochs,
            learning_rate=args.lr,
            sigma=args.sigma,
            seed=args.seed,
            grad_clip=args.grad_clip,
        )
        params, report = train(records, split, config, hyper)
        ckpt_path = out / f"fold{k}.ckpt"
        save_checkpoint(params, ckpt_path, hyper, extra_header=_provenance(args))
        report.checkpoint_path = str(ckpt_path)
        report_path = out / f"fold{k}.report.jsonl"
        report_path.write_text(
            json.dumps(_provenance(args)) + "\n" + report.to_json_lines()
        )
        final = report.epochs[-1].mean_loss.total if report.epochs else float("nan")
        print(f"fold {k}: checkpoint {ckpt_path} report {report_path} final-loss {final:.6f}")
    return 0


def _records_to_summarize(args: argparse.Namespace, records):
    splits = _requested_splits(args, records)
    if splits is None:
        return records
    by_id = {r.id: r for r in records}
    return [by_id[vid] for vid in splits[0].test_ids]  # fold 0 unless --fold names one


def _kts_boundaries(args: argparse.Namespace, x: np.ndarray) -> list[int]:
    """Shot boundaries of one video by KTS, under the command's --kts-* flags."""
    return kts_changepoints(
        x,
        max_segments=args.kts_max_segments,
        penalty_coeff=args.kts_penalty,
        kernel=args.kts_kernel,
    )


def cmd_summarize(args: argparse.Namespace) -> int:
    if not args.manifest:
        raise DatasetError("summarize requires --manifest")
    if not args.checkpoint:
        raise DatasetError("summarize requires --checkpoint")
    records = load_manifest(args.manifest)
    params, hyper = load_checkpoint(args.checkpoint)
    targets = _records_to_summarize(args, records)
    out = _out_dir(args)

    def summarize_one(rec):
        if rec.features.dim != params.dims[0]:
            raise CheckpointError(
                f"video {rec.id!r} feature dim {rec.features.dim} != "
                f"checkpoint dim {params.dims[0]}"
            )
        x = rec.features.matrix
        cps = rec.annotations.change_points
        if cps is None:
            cps = _kts_boundaries(args, x)
        return generate_summary(x, params, hyper, list(cps), ratio=args.ratio, video_id=rec.id)

    summaries = [summarize_one(rec) for rec in targets]
    for summary in summaries:
        doc = {**_provenance(args), **summary.to_dict()}
        path = out / f"{summary.video_id}.summary.json"
        path.write_text(json.dumps(doc) + "\n")
        print(path)
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    if not args.manifest:
        raise DatasetError("segment requires --manifest")
    records = load_manifest(args.manifest)

    def segment_one(rec):
        boundaries = _kts_boundaries(args, rec.features.matrix)
        return {"video_id": rec.id, "boundaries": [int(b) for b in boundaries]}

    results = [segment_one(rec) for rec in records]
    if args.out:
        out = _out_dir(args)
        for res in results:
            path = out / f"{res['video_id']}.segments.json"
            path.write_text(json.dumps({**_provenance(args), **res}) + "\n")
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


def _eval_protocol(args: argparse.Namespace, records) -> EvalProtocol:
    majority = majority_source(records)
    inferred = PROTOCOL_BY_SOURCE.get(majority.value, EvalProtocol.MEAN_OVER_USERS)
    if args.protocol is None:
        return inferred
    chosen = EvalProtocol(args.protocol)
    if chosen is not inferred and majority is not SourceDataset.OTHER:
        warnings.warn(
            f"protocol {chosen.value!r} overrides the {majority.value} default "
            f"({inferred.value})",
            stacklevel=2,
        )
    return chosen


def _summary_mask(rec, doc: dict) -> np.ndarray:
    """The summary's frame_mask: N entries, each 0 or 1."""
    mask = np.asarray(doc.get("frame_mask"))
    if mask.shape != (rec.features.n_frames,) or not np.isin(mask, (0, 1)).all():
        raise DatasetError(
            f"summary for {rec.id!r}: frame_mask must hold one 0 or 1 "
            f"for each of the manifest's {rec.features.n_frames} frames"
        )
    return mask.astype(np.int8)


def _summary_shots(rec, doc: dict) -> tuple[list[Shot], list[int]]:
    """The summary's shots, which must tile [0, N), and its selected shot indices."""
    try:
        pairs, selected = doc["shots"], doc["selected"]
        bounds = [v for pair in pairs for v in pair]
        if not all(type(v) is int for v in bounds + selected):
            raise ValueError("shot bounds and selected indices must be JSON integers")
        shots = [Shot(*pair) for pair in pairs]
        check_tiling(shots, rec.features.n_frames)
        if not all(0 <= i < len(shots) for i in selected):
            raise ValueError(f"a selected index lies outside [0, {len(shots)})")
    except KeyError as exc:
        raise DatasetError(f"summary for {rec.id!r} has no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"summary for {rec.id!r}: {exc}") from None
    return shots, selected


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.manifest:
        raise DatasetError("eval requires --manifest")
    summaries_dir = args.summaries or args.out
    if not summaries_dir:
        raise DatasetError("eval requires --summaries (or --out) naming the summary directory")
    summaries_dir = Path(summaries_dir)
    if not summaries_dir.is_dir():
        raise DatasetError(f"summary directory not found: {summaries_dir}")

    records = load_manifest(args.manifest)
    docs = {}
    for rec in records:
        path = summaries_dir / f"{rec.id}.summary.json"
        if not path.is_file():
            continue
        try:
            docs[rec.id] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(docs[rec.id], dict):
            raise DatasetError(f"{path} must hold a JSON object")
    if not docs:
        raise DatasetError(f"no *.summary.json files in {summaries_dir} match the manifest")

    scored_records = [r for r in records if r.id in docs]
    protocol = _eval_protocol(args, scored_records)

    per_video = {}
    for rec in scored_records:
        machine = _summary_mask(rec, docs[rec.id])
        p, r, f = video_fscore(machine, _user_masks(rec), protocol)
        per_video[rec.id] = VideoScore(rec.id, p, r, f)

    splits = _requested_splits(args, records)
    if splits is None:
        folds = [sorted(per_video)]
    else:
        folds = [[vid for vid in split.test_ids if vid in per_video] for split in splits]
        folds = [fold for fold in folds if fold]
        if not folds:
            raise DatasetError("no summarized videos fall in the requested fold(s)")

    fold_fscores = [
        float(np.mean([per_video[vid].fscore for vid in fold])) for fold in folds
    ]

    zeta, zeta_skipped = None, 0
    if args.zeta:
        by_id = {r.id: r for r in records}
        scored = {vid for fold in folds for vid in fold}
        zeta_videos = []
        # zeta covers the videos the F-scores cover: the requested folds' tests
        for vid, doc in docs.items():
            if vid not in scored:
                continue
            shots, selected = _summary_shots(by_id[vid], doc)
            feats = by_id[vid].features.matrix.astype(np.float64)
            shot_feats = np.array([feats[s.start : s.end].mean(axis=0) for s in shots])
            zeta_videos.append((shot_feats, selected))
        # videos that selected no shot are left out of zeta, and counted
        zeta_skipped = sum(not selected for _, selected in zeta_videos)
        zeta = diversity_zeta(zeta_videos)

    report = MetricsReport(
        protocol=protocol,
        per_video=[per_video[vid] for fold in folds for vid in fold],
        fold_fscores=fold_fscores,
        mean_fscore=float(np.mean(fold_fscores)),
        zeta=zeta,
        zeta_skipped_videos=zeta_skipped,
    )
    doc = {**_provenance(args), **report.to_dict()}
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "metrics.json").write_text(text)
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


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rows = []
    worst = 0.0
    for i in range(args.instances):
        seed = args.seed + i
        for mode in ("supervised", "unsupervised"):
            err = run_gradcheck_instance(seed, mode, step=args.fd_step)
            rows.append({"seed": seed, "mode": mode, "max_rel_err": err})
            worst = max(worst, err)
    ok = worst <= args.tolerance
    doc = {
        **_provenance(args),
        "tolerance": args.tolerance,
        "instances": rows,
        "max_rel_err": worst,
        "pass": ok,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "gradcheck.json").write_text(text)
        print(out / "gradcheck.json")
    print(f"gradcheck max relative error {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at tolerance {args.tolerance:.1e})")
    return 0 if ok else 2


def _default(func, name: str):
    """The default of ``func``'s parameter ``name``, so the CLI does not restate it."""
    return inspect.signature(func).parameters[name].default


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gdasum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reads=("manifest", "seed")):
        # only the settings the command reads, so run_config records no others
        if "manifest" in reads:
            p.add_argument("--manifest", help="dataset manifest JSON")
        if "seed" in reads:
            p.add_argument("--seed", type=int, default=TrainConfig.seed,
                           help="PRNG seed (default %(default)s)")
        p.add_argument("--out", help="output directory")

    def add_split(p, setting=None):
        p.add_argument("--setting", choices=[s.value for s in SplitSetting], default=setting,
                       help="split setting (default %(default)s)" if setting
                       else "split setting (default: every video, no folds)")
        p.add_argument("--fold", type=int, help="restrict to one fold index")
        p.add_argument("--target", choices=[s.value for s in SourceDataset],
                       help="source_dataset value naming the dataset under test")

    def add_kts(p):
        p.add_argument("--kts-penalty", type=float,
                       default=_default(kts_changepoints, "penalty_coeff"),
                       help="segmentation penalty coefficient (default %(default)s)")
        p.add_argument("--kts-max-segments", type=int,
                       help="most segments per video (default N/10 rounded up)")
        p.add_argument("--kts-kernel", choices=KERNELS,
                       default=_default(kts_changepoints, "kernel"),
                       help="segment cost kernel (default %(default)s)")

    p_train = sub.add_parser("train", help="train per-fold models")
    add_common(p_train)
    add_split(p_train, setting=SplitSetting.CANONICAL.value)
    hyper = p_train.add_argument_group(
        "model hyperparameters",
        "The fields of gdasum.HyperParams; the checkpoint records them for summarize.",
    )
    for f in fields(HyperParams):
        hyper.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=f.default, help="default %(default)s")
    p_train.add_argument("--mode", choices=[m.value for m in TrainMode],
                         default=TrainConfig.mode.value, help="training objective (default %(default)s)")
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                         help="training epochs (default %(default)s)")
    p_train.add_argument("--lr", type=float, help="learning rate (default per dataset)")
    p_train.add_argument("--sigma", type=float, default=TrainConfig.sigma,
                         help="summary-ratio target (default %(default)s)")
    p_train.add_argument("--grad-clip", type=float, default=TrainConfig.grad_clip,
                         help="gradient norm clip (default %(default)s, 0 disables)")

    p_sum = sub.add_parser("summarize", help="generate summaries from a checkpoint")
    add_common(p_sum)
    add_split(p_sum)
    add_kts(p_sum)
    p_sum.add_argument("--checkpoint", help="trained checkpoint path")
    p_sum.add_argument("--ratio", type=float, default=_default(generate_summary, "ratio"),
                       help="summary length budget (default %(default)s)")

    p_seg = sub.add_parser("segment", help="detect shot boundaries")
    add_common(p_seg, reads=("manifest",))
    add_kts(p_seg)

    p_eval = sub.add_parser("eval", help="score summaries against annotations")
    add_common(p_eval)
    add_split(p_eval)
    p_eval.add_argument("--summaries", help="directory of *.summary.json files")
    p_eval.add_argument("--protocol", choices=[p.value for p in EvalProtocol],
                        help="per-user aggregation override")
    p_eval.add_argument("--zeta", action="store_true", help="include the diversity metric")

    p_grad = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    add_common(p_grad, reads=("seed",))
    p_grad.add_argument("--instances", type=int, default=20,
                        help="random instances (default %(default)s)")
    p_grad.add_argument("--tolerance", type=float, default=1e-4,
                        help="max relative error (default %(default)s)")
    p_grad.add_argument("--fd-step", type=float, default=_default(run_gradcheck_instance, "step"),
                        help="finite difference step (default %(default)s)")
    return parser


COMMANDS = {
    "train": cmd_train,
    "summarize": cmd_summarize,
    "segment": cmd_segment,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        if argv and argv[0] in COMMANDS:
            argv = [argv[0], *_file_flags(parser, argv[0]), *argv[1:]]
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
