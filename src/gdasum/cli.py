"""Command-line pipeline: train, summarize, segment, eval, gradcheck.

Each setting is one argument of its command's parser, which owns its
name, type, default and choices.  Every file this tool writes embeds a
format-version string, the parsed settings and the numerical
environment (NumPy, its BLAS and the BLAS thread variables).  Exit
codes: 0 on success, 1 on validation errors (bad inputs, files, flags),
2 on numerical failures.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import math
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
from .kts import KERNELS, check_kts_settings, kts_changepoints
from .losses import DEFAULT_FD_STEP, NumericalError, backward, finite_diff_grad, gradient_report
from .metrics import (
    PROTOCOL_BY_SOURCE,
    EvalProtocol,
    diversity_zeta,
    video_fscore,
)
from .model import WEIGHT_FIELDS, HyperParams, forward, init_params
from .summarize import check_ratio, generate_summary, read_summary
from .train import (
    CheckpointError,
    TrainConfig,
    TrainMode,
    load_checkpoint,
    save_checkpoint,
    train,
)

FORMAT_VERSION = "1"
# a BLAS thread count can change the output bytes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (frames, feature dim, hidden width, embedding width) of each gradcheck instance
GRADCHECK_SHAPE = (6, 5, 8, 4)
# how segment and summarize name the KTS settings they check before any video loads
KTS_FLAGS = ("--kts-penalty", "--kts-max-segments")


class _UsageError(Exception):
    """A bad flag, raised by the parser that found it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; raise so main exits 1 instead."""

    def error(self, message):
        raise _UsageError(self, message)


def _provenance(args: argparse.Namespace) -> dict:
    """The keys every written file starts with.

    ``numerics`` records what fixes the bytes besides the settings: the
    NumPy version, its BLAS (null without ``show_config(mode="dicts")``)
    and the BLAS thread variables (null when unset).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        blas = None
    numerics = {"numpy": np.__version__, "blas": blas}
    numerics.update((var, os.environ.get(var)) for var in BLAS_THREAD_VARS)
    return {"format_version": FORMAT_VERSION, "run_config": vars(args), "numerics": numerics}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or "gdasum-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _requested_splits(args: argparse.Namespace, records) -> list | None:
    """The splits of --setting: the --fold one alone, else all; None without it."""
    if args.setting is None:
        if args.fold is not None:
            raise DatasetError("--fold needs --setting")
        if args.target is not None:
            raise DatasetError("--target needs --setting")
        return None
    splits = make_splits(records, args.setting, args.seed, target=args.target)
    if args.fold is None:
        return splits
    if not 0 <= args.fold < len(splits):
        raise DatasetError(f"fold {args.fold} out of range (have {len(splits)})")
    return [splits[args.fold]]


def cmd_train(args: argparse.Namespace) -> int:
    records = load_manifest(args.manifest)
    hyper = HyperParams(**{f.name: getattr(args, f.name) for f in fields(HyperParams)})
    config = TrainConfig(
        mode=args.mode,
        epochs=args.epochs,
        learning_rate=args.lr,
        sigma=args.sigma,
        seed=args.seed,
        grad_clip=args.grad_clip,
    )
    splits = _requested_splits(args, records)
    out = _out_dir(args)

    for split in splits:
        k = split.fold_index
        report_path = out / f"fold{k}.report.jsonl"
        # one line per epoch as it ends, so a run that aborts leaves its record
        with report_path.open("w") as report:

            def write(line):
                report.write(json.dumps(line) + "\n")
                report.flush()

            write(_provenance(args))
            params, epochs = train(records, split, config, hyper, on_record=write)
            ckpt_path = out / f"fold{k}.ckpt"
            save_checkpoint(params, ckpt_path, hyper, extra_header=_provenance(args))
            write({"checkpoint_path": str(ckpt_path)})
        final = epochs[-1]["loss"]["total"] if epochs else float("nan")
        print(f"fold {k}: checkpoint {ckpt_path} report {report_path} final-loss {final:.6f}")
    return 0


def _records_to_summarize(args: argparse.Namespace, records):
    splits = _requested_splits(args, records)
    if splits is None:
        return records
    by_id = {r.id: r for r in records}
    return [by_id[vid] for vid in splits[0].test_ids]  # fold 0 unless --fold names one


def _kts_boundaries(args: argparse.Namespace, rec) -> list[int]:
    """Shot boundaries of one video by KTS, under the command's --kts-* flags."""
    try:
        return kts_changepoints(
            rec.features.matrix,
            max_segments=args.kts_max_segments,
            penalty_coeff=args.kts_penalty,
            kernel=args.kts_kernel,
        )
    except ValueError as exc:
        raise ValueError(f"video {rec.id!r}: {exc}") from None


def cmd_summarize(args: argparse.Namespace) -> int:
    check_kts_settings(args.kts_penalty, args.kts_max_segments, KTS_FLAGS)
    check_ratio(args.ratio, "--ratio")
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
            cps = _kts_boundaries(args, rec)
        return generate_summary(x, params, hyper, list(cps), ratio=args.ratio, video_id=rec.id)

    summaries = [summarize_one(rec) for rec in targets]
    for summary in summaries:
        path = out / f"{summary['video_id']}.summary.json"
        path.write_text(json.dumps({**_provenance(args), **summary}) + "\n")
        print(path)
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    check_kts_settings(args.kts_penalty, args.kts_max_segments, KTS_FLAGS)
    records = load_manifest(args.manifest)

    def segment_one(rec):
        boundaries = _kts_boundaries(args, rec)
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


def cmd_eval(args: argparse.Namespace) -> int:
    summaries_dir = Path(args.summaries)
    if not summaries_dir.is_dir():
        raise DatasetError(f"summary directory not found: {summaries_dir}")

    records = load_manifest(args.manifest)
    selections = {}  # video id -> read_summary's (shots, selected, mask)
    for rec in records:
        path = summaries_dir / f"{rec.id}.summary.json"
        if not path.is_file():
            continue
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise DatasetError(f"{path} must hold a JSON object")
        try:
            selections[rec.id] = read_summary(doc, rec.features.n_frames)
        except KeyError as exc:
            raise DatasetError(f"summary for {rec.id!r} has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"summary for {rec.id!r}: {exc}") from None
    if not selections:
        raise DatasetError(f"no *.summary.json files in {summaries_dir} match the manifest")

    scored_records = [r for r in records if r.id in selections]
    protocol = _eval_protocol(args, scored_records)

    per_video = {}
    for rec in scored_records:
        p, r, f = video_fscore(selections[rec.id][2], _user_masks(rec), protocol)
        per_video[rec.id] = {"video_id": rec.id, "precision": p, "recall": r, "fscore": f}

    splits = _requested_splits(args, records)
    if splits is None:
        folds = [sorted(per_video)]
    else:
        folds = [[vid for vid in split.test_ids if vid in per_video] for split in splits]
        folds = [fold for fold in folds if fold]
        if not folds:
            raise DatasetError("no summarized videos fall in the requested fold(s)")

    fold_fscores = [
        float(np.mean([per_video[vid]["fscore"] for vid in fold])) for fold in folds
    ]

    doc = {
        **_provenance(args),
        "protocol": protocol.value,
        "per_video": [per_video[vid] for fold in folds for vid in fold],
        "fold_fscores": fold_fscores,
        "mean_fscore": float(np.mean(fold_fscores)),
    }
    if args.zeta:
        by_id = {r.id: r for r in records}
        scored = {vid for fold in folds for vid in fold}
        zeta_videos = []
        # zeta covers the videos the F-scores cover: the requested folds' tests
        for vid, (shots, selected, _) in selections.items():
            if vid not in scored:
                continue
            feats = by_id[vid].features.matrix.astype(np.float64)
            shot_feats = np.array([feats[s.start : s.end].mean(axis=0) for s in shots])
            zeta_videos.append((shot_feats, selected))
        doc["zeta"] = diversity_zeta(zeta_videos)
        # videos that selected no shot are left out of zeta, and counted
        doc["zeta_skipped_videos"] = sum(not selected for _, selected in zeta_videos)
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "metrics.json").write_text(text)
        print(out / "metrics.json")
    else:
        print(text, end="")
    return 0


def run_gradcheck_instance(seed: int, mode: str, step: float = DEFAULT_FD_STEP) -> float:
    """Max relative error between analytic and numeric gradients.

    The point is the seed's init with every field but the weights (biases,
    layer-norm scales and offsets) moved off its init value by
    0.5 N(0, 1): at init ff_b = 0, so layer norm 1 removes the diversity
    weights' scale and w_att's gradient nearly vanishes beside the others.
    """
    n_frames, feature_dim, hidden, embed = GRADCHECK_SHAPE
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_frames, feature_dim))
    hyper = HyperParams(hidden=hidden, embed=embed, dropout_rate=0.0)
    params = init_params(feature_dim, hyper, seed)
    for name, arr in params.items():
        if name not in WEIGHT_FIELDS:
            arr += 0.5 * rng.standard_normal(arr.shape)
    labels = None
    if mode == "supervised":
        labels = np.zeros(n_frames, dtype=np.int8)
        labels[rng.choice(n_frames, size=max(1, n_frames // 3), replace=False)] = 1
    trace = forward(x, params, hyper, mode="eval")
    analytic = backward(trace, x, params, hyper, mode, labels=labels)
    numeric = finite_diff_grad(x, params, hyper, mode, labels=labels, step=step)
    return gradient_report(analytic, numeric)["max"]


def cmd_gradcheck(args: argparse.Namespace) -> int:
    for flag, value in [("--instances", args.instances), ("--fd-step", args.fd_step),
                        ("--tolerance", args.tolerance)]:
        if not (math.isfinite(value) and value > 0):
            raise DatasetError(f"{flag} must be finite and positive, got {value}")
    rows = []
    worst = 0.0
    for i in range(args.instances):
        seed = args.seed + i
        for mode in ("supervised", "unsupervised"):
            err = run_gradcheck_instance(seed, mode, step=args.fd_step)
            rows.append({"seed": seed, "mode": mode,
                         "max_rel_err": err if math.isfinite(err) else None})
            worst = max(worst, err)
    ok = worst <= args.tolerance
    doc = {
        **_provenance(args),
        "tolerance": args.tolerance,
        "instances": rows,
        "max_rel_err": worst if math.isfinite(worst) else None,
        "pass": ok,
    }
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
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
            p.add_argument("--manifest", required=True, help="dataset manifest JSON")
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
    p_sum.add_argument("--checkpoint", required=True, help="trained checkpoint path")
    p_sum.add_argument("--ratio", type=float, default=_default(generate_summary, "ratio"),
                       help="summary length budget (default %(default)s)")

    p_seg = sub.add_parser("segment", help="detect shot boundaries")
    add_common(p_seg, reads=("manifest",))
    add_kts(p_seg)

    p_eval = sub.add_parser("eval", help="score summaries against annotations")
    add_common(p_eval)
    add_split(p_eval)
    p_eval.add_argument("--summaries", required=True, help="directory of *.summary.json files")
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
                        help="first finite-difference step; a scalar whose steps would cross"
                             " a kink takes a tenth, then a hundredth (default %(default)s)")
    return parser


COMMANDS = {
    "train": cmd_train,
    "summarize": cmd_summarize,
    "segment": cmd_segment,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def _keep_freed_memory() -> None:
    """Have glibc keep freed blocks up to 32 MiB in the process for reuse.

    By default glibc's mmap threshold rises to the largest mapped block
    freed so far and its trim threshold, twice that, hands the freed top of the heap
    back to the kernel, so each training step faults its activations,
    gradients and Adam scratch in again.  Fixing both thresholds keeps those
    pages mapped for the next step, fold or command.  Arrays over 32 MiB
    are still mapped and unmapped on each use.  Does nothing where the C
    library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit maximum
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
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
