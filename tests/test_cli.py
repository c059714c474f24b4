import ctypes
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gdasum.cli import BLAS_THREAD_VARS, main
from gdasum.data import load_manifest, make_splits, write_features, write_manifest
from gdasum.kts import MAX_FRAMES, kts_changepoints
from gdasum.model import HyperParams, ModelParams, init_params
from gdasum.summarize import generate_summary
from gdasum.synthetic import PlantedSpec, write_planted_corpus
from gdasum.train import TrainConfig, load_checkpoint, save_checkpoint


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*args):
    """``python *args`` in a child process that imports gdasum from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = PlantedSpec(n_videos=6, n_frames=60, dim=8, seed=2)
    manifest = write_planted_corpus(root, spec)
    return manifest


def run(args):
    return main([str(a) for a in args])


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["train", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_missing_manifest_is_validation_error(capsys):
    # argparse names the missing required flag
    for argv, flag in [
        (["train"], "--manifest"),
        (["summarize", "--checkpoint", "any.ckpt"], "--manifest"),
        (["segment"], "--manifest"),
        (["eval", "--summaries", "sums"], "--manifest"),
        (["summarize", "--manifest", "any.json"], "--checkpoint"),
        (["eval", "--manifest", "any.json"], "--summaries"),
    ]:
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert f"the following arguments are required: {flag}\n" in err, argv


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    assert run(["gradcheck", "--instances", 2, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["format_version"] == "1"
    assert doc["run_config"]["command"] == "gradcheck"
    assert doc["pass"] is True
    assert len(doc["instances"]) == 4  # 2 seeds x 2 modes
    assert all(row["max_rel_err"] <= 1e-4 for row in doc["instances"])


def test_gradcheck_impossible_tolerance_fails(capsys):
    assert run(["gradcheck", "--instances", 1, "--tolerance", "1e-15"]) == 2
    assert "FAIL" in capsys.readouterr().out


def refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_gradcheck_fails_on_a_nan_numeric_gradient(monkeypatch, tmp_path, capsys):
    def nan_grad(x, params, *args, **kwargs):
        return ModelParams(*[np.full_like(a, np.nan) for a in params.arrays()])

    monkeypatch.setattr("gdasum.cli.finite_diff_grad", nan_grad)
    out = tmp_path / "gc"
    assert run(["gradcheck", "--instances", 1, "--out", out]) == 2
    assert "FAIL" in capsys.readouterr().out
    # strict JSON: a bare NaN or Infinity token would fail to parse
    doc = json.loads((out / "gradcheck.json").read_text(), parse_constant=refuse_constant)
    assert doc["pass"] is False
    assert doc["max_rel_err"] is None
    assert [row["max_rel_err"] for row in doc["instances"]] == [None, None]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_summarize_names_a_checkpoint_holding_a_non_finite_value(value, corpus, tmp_path, capsys):
    hyper = HyperParams(hidden=8, embed=4)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(init_params(8, hyper, 0), ckpt, hyper)
    raw = ckpt.read_bytes()
    payload = raw.index(b"\n") + 1  # the first payload float is w_q[0, 0]
    ckpt.write_bytes(raw[:payload] + np.array([value], "<f8").tobytes() + raw[payload + 8 :])
    out = tmp_path / "sums"
    assert run(["summarize", "--manifest", corpus, "--checkpoint", ckpt, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: checkpoint {ckpt}: non-finite values in parameter 'w_q'\n"
    assert not out.exists()


def test_summarize_names_a_checkpoint_it_refuses(corpus, tmp_path, capsys):
    hyper = HyperParams(hidden=8, embed=4)
    good = tmp_path / "good.ckpt"
    save_checkpoint(init_params(8, hyper, 0), good, hyper)
    raw = good.read_bytes()
    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    header["version"] = 2
    cases = [
        (raw[:-8], "payload is 3296 bytes, header promises 3304"),
        (head, "missing header line"),
        (json.dumps(header).encode() + b"\n" + payload, "format version 2 != 1"),
    ]
    for k, (content, message) in enumerate(cases):
        ckpt = tmp_path / f"bad{k}.ckpt"
        ckpt.write_bytes(content)
        out = tmp_path / f"sums{k}"
        assert run(["summarize", "--manifest", corpus, "--checkpoint", ckpt, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: checkpoint {ckpt}: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--instances", "0"),
    ("--instances", "-2"),
    ("--fd-step", "0"),
    ("--fd-step", "nan"),
    ("--fd-step", "inf"),
    ("--tolerance", "-1e-4"),
    ("--tolerance", "nan"),
])
def test_gradcheck_refuses_values_that_check_nothing(flag, value, capsys):
    assert run(["gradcheck", f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be finite and positive" in captured.err
    assert "PASS" not in captured.out


def test_pipeline_train_summarize_eval(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    code = run([
        "train", "--manifest", corpus, "--setting", "canonical", "--fold", 0,
        "--epochs", 2, "--hidden", 8, "--embed", 4, "--lr", "1e-3", "--out", out,
    ])
    assert code == 0
    ckpt = out / "fold0.ckpt"
    report = out / "fold0.report.jsonl"
    assert ckpt.is_file() and report.is_file()
    first = json.loads(report.read_text().splitlines()[0])
    assert first["format_version"] == "1"
    assert first["run_config"]["epochs"] == 2

    sums = tmp_path / "sums"
    code = run([
        "summarize", "--manifest", corpus, "--checkpoint", ckpt,
        "--setting", "canonical", "--fold", 0, "--out", sums,
    ])
    assert code == 0
    summary_files = sorted(sums.glob("*.summary.json"))
    assert len(summary_files) == 2  # fold 0 of 6 videos tests 2
    doc = json.loads(summary_files[0].read_text())
    assert doc["format_version"] == "1"
    # run_config records the settings summarize reads, and nothing else
    assert sorted(doc["run_config"]) == [
        "checkpoint", "command", "fold", "kts_kernel",
        "kts_max_segments", "kts_penalty", "manifest", "out", "ratio", "seed",
        "setting", "target",
    ]
    assert len(doc["frame_scores"]) == 60
    assert len(doc["frame_mask"]) == 60
    assert sum(doc["frame_mask"]) <= int(0.15 * 60)
    assert doc["shots"] and doc["selected"] is not None

    metrics_dir = tmp_path / "metrics"
    code = run([
        "eval", "--manifest", corpus, "--summaries", sums,
        "--out", metrics_dir, "--zeta",
    ])
    assert code == 0
    doc = json.loads((metrics_dir / "metrics.json").read_text())
    assert doc["format_version"] == "1"
    assert doc["protocol"] == "mean"  # source "other" defaults to mean
    assert 0.0 <= doc["mean_fscore"] <= 100.0
    assert doc["zeta"] >= 0.0
    assert len(doc["per_video"]) == 2


def test_pipeline_reruns_are_byte_identical(corpus, tmp_path):
    out = tmp_path / "rerun"
    args = [
        "train", "--manifest", corpus, "--setting", "canonical", "--fold", 0,
        "--epochs", 1, "--hidden", 8, "--embed", 4, "--lr", "1e-3", "--out", out,
    ]
    assert run(args) == 0
    first = (out / "fold0.ckpt").read_bytes()
    assert run(args) == 0
    assert (out / "fold0.ckpt").read_bytes() == first

    sums = tmp_path / "rerun-sums"
    sum_args = [
        "summarize", "--manifest", corpus, "--checkpoint", out / "fold0.ckpt",
        "--setting", "canonical", "--fold", 0, "--out", sums,
    ]
    assert run(sum_args) == 0
    payloads = {p.name: p.read_bytes() for p in sums.glob("*.summary.json")}
    assert run(sum_args) == 0
    for path in sums.glob("*.summary.json"):
        assert path.read_bytes() == payloads[path.name]


def test_summarize_respects_ratio_one(corpus, tmp_path):
    out = tmp_path / "train"
    run([
        "train", "--manifest", corpus, "--setting", "canonical", "--fold", 0,
        "--epochs", 1, "--hidden", 8, "--embed", 4, "--lr", "1e-3", "--out", out,
    ])
    sums = tmp_path / "full"
    code = run([
        "summarize", "--manifest", corpus, "--checkpoint", out / "fold0.ckpt",
        "--setting", "canonical", "--fold", 0, "--ratio", "1.0", "--out", sums,
    ])
    assert code == 0
    for path in sums.glob("*.summary.json"):
        doc = json.loads(path.read_text())
        assert all(v == 1 for v in doc["frame_mask"])


def test_train_semi_without_labels_fails(tmp_path, capsys):
    entries = []
    rng = np.random.default_rng(0)
    for i in range(5):
        matrix = rng.standard_normal((12, 4)).astype(np.float32)
        write_features(tmp_path / f"u{i}.f32", matrix)
        entries.append(
            {"id": f"u{i}", "n_frames": 12, "dim": 4, "features_file": f"u{i}.f32"}
        )
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    code = run([
        "train", "--manifest", manifest, "--mode", "semi", "--epochs", 1,
        "--hidden", 8, "--embed", 4, "--out", tmp_path / "out",
    ])
    assert code == 1
    assert "labeled" in capsys.readouterr().err


def test_train_fold_out_of_range(corpus, tmp_path, capsys):
    code = run([
        "train", "--manifest", corpus, "--fold", 9, "--epochs", 1,
        "--hidden", 8, "--embed", 4, "--out", tmp_path / "out",
    ])
    assert code == 1
    assert "fold" in capsys.readouterr().err


def test_summarize_has_no_model_flags(corpus, tmp_path, capsys):
    # hyperparameters come from the checkpoint alone
    base = ["summarize", "--manifest", corpus, "--checkpoint", tmp_path / "any.ckpt"]
    for flag, value in [
        ("--alpha-clip", 0.4), ("--hidden", 3), ("--embed", 3), ("--dropout-rate", 0.1),
        ("--weight-decay", 0.0), ("--beta", 9),
    ]:
        assert run([*base, flag, value, "--out", tmp_path / "sums"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "sums").exists()


def test_commands_refuse_flags_they_do_not_read(tmp_path, capsys):
    for argv, flag in [
        (["gradcheck", "--instances", 1, "--manifest", "nothing.json"], "--manifest"),
        (["segment", "--manifest", "nothing.json", "--seed", 3], "--seed"),
    ]:
        assert run([*argv, "--out", tmp_path / "out"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summarize_feature_dim_mismatch(corpus, tmp_path, capsys):
    hyper = HyperParams(hidden=8, embed=4)
    save_checkpoint(init_params(5, hyper, 0), tmp_path / "d5.ckpt", hyper)
    code = run([
        "summarize", "--manifest", corpus, "--checkpoint", tmp_path / "d5.ckpt",
        "--out", tmp_path / "sums",
    ])
    assert code == 1
    assert "feature dim 8 != checkpoint dim 5" in capsys.readouterr().err


def test_eval_fold_out_of_range(corpus, tmp_path, capsys):
    hyper = HyperParams(hidden=8, embed=4)
    save_checkpoint(init_params(8, hyper, 0), tmp_path / "init.ckpt", hyper)
    sums = tmp_path / "sums"
    assert run([
        "summarize", "--manifest", corpus, "--checkpoint", tmp_path / "init.ckpt",
        "--out", sums,
    ]) == 0
    capsys.readouterr()
    for fold in (9, -1):
        assert run([
            "eval", "--manifest", corpus, "--summaries", sums,
            "--setting", "canonical", "--fold", fold,
        ]) == 1
        assert f"fold {fold} out of range" in capsys.readouterr().err
    # a fold whose test videos have no summary scores nothing
    splits = make_splits(load_manifest(corpus), "canonical", TrainConfig.seed)
    (video,) = splits[1].test_ids
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / f"{video}.summary.json").write_bytes((sums / f"{video}.summary.json").read_bytes())
    assert run([
        "eval", "--manifest", corpus, "--summaries", lone, "--setting", "canonical", "--fold", 0,
    ]) == 1
    assert "no summarized videos fall in the requested fold(s)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def init_summaries(corpus, tmp_path_factory):
    """An untrained D=8 checkpoint and its summaries of every corpus video."""
    root = tmp_path_factory.mktemp("init")
    hyper = HyperParams(hidden=8, embed=4)
    save_checkpoint(init_params(8, hyper, 0), root / "init.ckpt", hyper)
    assert run([
        "summarize", "--manifest", corpus, "--checkpoint", root / "init.ckpt",
        "--out", root / "sums",
    ]) == 0
    return root / "init.ckpt", root / "sums"


def test_summary_file_is_provenance_then_the_generate_summary_record(corpus, init_summaries):
    ckpt, sums = init_summaries
    params, hyper = load_checkpoint(ckpt)
    for rec in load_manifest(corpus):
        doc = json.loads((sums / f"{rec.id}.summary.json").read_text())
        summary = generate_summary(
            rec.features.matrix, params, hyper, list(rec.annotations.change_points),
            video_id=rec.id,
        )
        assert list(doc)[:3] == ["format_version", "run_config", "numerics"]
        assert list(doc.items())[3:] == list(summary.items())


def test_fold_needs_setting(corpus, init_summaries, tmp_path, capsys):
    ckpt, sums = init_summaries
    capsys.readouterr()
    for args in (
        ["summarize", "--checkpoint", ckpt, "--out", tmp_path / "sums"],
        ["eval", "--summaries", sums],
    ):
        for flag, value in (("--fold", 9), ("--target", "tvsum-like")):
            assert run([*args, "--manifest", corpus, flag, value]) == 1
            assert f"{flag} needs --setting" in capsys.readouterr().err
    assert not (tmp_path / "sums").exists()


def test_summarize_runs_kts_when_no_changepoints(corpus, init_summaries, tmp_path):
    doc = json.loads(corpus.read_text())
    for entry in doc["videos"]:
        del entry["annotations"]["change_points"]
        entry["features_file"] = str(corpus.parent / entry["features_file"])
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, doc["videos"])
    ckpt, _ = init_summaries
    out = tmp_path / "sums"
    assert run([
        "summarize", "--manifest", manifest, "--checkpoint", ckpt, "--out", out,
        "--kts-max-segments", 4, "--kts-penalty", 0.2, "--kts-kernel", "rbf",
    ]) == 0
    flags = {"max_segments": 4, "penalty_coeff": 0.2, "kernel": "rbf"}
    records = load_manifest(manifest)
    for rec in records:
        edges = [0, *kts_changepoints(rec.features.matrix, **flags), rec.features.n_frames]
        shots = json.loads((out / f"{rec.id}.summary.json").read_text())["shots"]
        assert shots == [[a, b] for a, b in zip(edges[:-1], edges[1:])]
    # each flag changes some video's shots, so each one was passed on
    for name in flags:
        others = {k: v for k, v in flags.items() if k != name}
        assert any(
            kts_changepoints(r.features.matrix, **others)
            != kts_changepoints(r.features.matrix, **flags)
            for r in records
        )


def test_segment_stdout_and_files(corpus, tmp_path, capsys):
    assert run(["segment", "--manifest", corpus, "--kts-max-segments", 20]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        doc = json.loads(line)
        bounds = doc["boundaries"]
        assert bounds == sorted(set(bounds))
        assert all(0 < b < 60 for b in bounds)

    out = tmp_path / "segs"
    assert run([
        "segment", "--manifest", corpus, "--kts-max-segments", 20, "--out", out,
    ]) == 0
    files = sorted(out.glob("*.segments.json"))
    assert len(files) == 6
    doc = json.loads(files[0].read_text())
    assert doc["format_version"] == "1"
    assert doc["video_id"] == "planted-000"


@pytest.mark.parametrize("flag, value, named", [
    ("--kts-penalty", "nan", "--kts-penalty must be finite and non-negative"),
    ("--kts-penalty", "inf", "--kts-penalty must be finite and non-negative"),
    ("--kts-penalty", "-1", "--kts-penalty must be finite and non-negative"),
    ("--kts-max-segments", "0", "--kts-max-segments must be at least 1"),
])
def test_kts_flags_refuse_values_that_segment_nothing(
    corpus, init_summaries, flag, value, named, tmp_path, capsys
):
    ckpt, _ = init_summaries
    capsys.readouterr()
    for args in (
        ["segment", "--manifest", corpus],
        ["summarize", "--manifest", corpus, "--checkpoint", ckpt, "--out", tmp_path / "sums"],
    ):
        assert run([*args, f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
    assert not (tmp_path / "sums").exists()


@pytest.mark.parametrize("command", ["segment", "summarize"])
def test_kts_refusal_names_the_video(command, tmp_path, capsys):
    # one frame past the cap, at D=1: the cap refuses before any N^2 array
    write_features(tmp_path / "long.f32", np.zeros((MAX_FRAMES + 1, 1), dtype=np.float32))
    write_manifest(tmp_path / "manifest.json", [{
        "id": "long", "n_frames": MAX_FRAMES + 1, "dim": 1, "features_file": "long.f32",
    }])
    args = [command, "--manifest", tmp_path / "manifest.json", "--out", tmp_path / "out"]
    if command == "summarize":
        hyper = HyperParams(hidden=8, embed=4)
        save_checkpoint(init_params(1, hyper, 0), tmp_path / "one.ckpt", hyper)
        args += ["--checkpoint", tmp_path / "one.ckpt"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: video 'long': segmentation of N={MAX_FRAMES + 1} frames exceeds "
        f"the cap of MAX_FRAMES={MAX_FRAMES}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "nan", "1.5"])
def test_summarize_refuses_a_ratio_outside_0_1_before_any_video_loads(
    corpus, init_summaries, value, tmp_path, capsys
):
    ckpt, _ = init_summaries
    capsys.readouterr()
    out = tmp_path / "sums"
    assert run([
        "summarize", "--manifest", corpus, "--checkpoint", ckpt, "--out", out,
        f"--ratio={value}",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --ratio must lie in (0, 1], got {float(value)}\n"
    assert captured.out == ""
    assert not out.exists()


def test_train_numerical_failure_exits_2_naming_video_and_epoch(tmp_path):
    # the known singular subset kernel, reached in seconds at these shapes;
    # planted centres at scale 4.0 (the default is 2.5) bring it on in epoch 1
    manifest = write_planted_corpus(
        tmp_path, PlantedSpec(n_videos=5, n_frames=60, dim=8, center_scale=4.0)
    )
    proc = run_cli_process(
        "-m", "gdasum.cli", "train", "--manifest", str(manifest),
        "--fold", "0", "--epochs", "2", "--hidden", "8", "--embed", "4", "--lr", "1e-3",
        "--out", str(tmp_path / "run"),
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "numerical failure: subset kernel is numerically singular on video "
        "'planted-001' at epoch 1\n"
    )


@pytest.mark.parametrize("flag, value, named", [
    ("--lr", "nan", "learning_rate must be positive and finite"),
    ("--lr", "inf", "learning_rate must be positive and finite"),
    ("--beta", "nan", "beta must be positive and finite"),
    ("--beta", "inf", "beta must be positive and finite"),
    ("--weight-decay", "nan", "weight_decay must be nonnegative and finite"),
    ("--weight-decay", "inf", "weight_decay must be nonnegative and finite"),
])
def test_train_refuses_non_finite_hyperparameters(corpus, flag, value, named, tmp_path):
    # refused before any step: no silent NaN update, no NumPy warning
    proc = run_cli_process(
        "-W", "error", "-m", "gdasum.cli", "train", "--manifest", str(corpus),
        "--fold", "0", "--epochs", "1", "--hidden", "8", "--embed", "4",
        f"{flag}={value}", "--out", str(tmp_path / "run"),
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {named}\n"
    assert not (tmp_path / "run").exists()


def write_solo_manifest(tmp_path, source="summe-like", annotations=None):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((4, 2)).astype(np.float32)
    write_features(tmp_path / "solo.f32", matrix)
    write_manifest(
        tmp_path / "manifest.json",
        [{
            "id": "solo",
            "n_frames": 4,
            "dim": 2,
            "features_file": "solo.f32",
            "source_dataset": source,
            "annotations": {"user_summaries": [[[0, 2]]]} if annotations is None else annotations,
        }],
    )
    return tmp_path / "manifest.json"


def write_solo_summary(tmp_path, frame_mask, shots=([0, 2], [2, 4]), selected=(0,)):
    doc = {
        "video_id": "solo",
        "ratio": 0.5,
        "frame_mask": frame_mask,
        "frame_scores": [0.5] * 4,
        "shots": list(shots),
        "selected": list(selected),
    }
    sums = tmp_path / "sums"
    sums.mkdir(exist_ok=True)
    (sums / "solo.summary.json").write_text(json.dumps(doc))
    return sums


def test_eval_perfect_match_scores_100(tmp_path, capsys):
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    # keyframe labels stand in as the one user when a video has no user summaries
    for annotations in (None, {"keyframe_labels": [1, 1, 0, 0]}):
        manifest = write_solo_manifest(tmp_path, annotations=annotations)
        assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "max"  # inferred from summe-like
        assert doc["mean_fscore"] == 100.0


def test_metrics_report_serialization(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 0, 0, 0], shots=([0, 1], [1, 4]))
    out = tmp_path / "metrics"
    assert run(["eval", "--manifest", manifest, "--summaries", sums, "--zeta", "--out", out]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert list(doc) == [
        "format_version", "run_config", "numerics", "protocol", "per_video",
        "fold_fscores", "mean_fscore", "zeta", "zeta_skipped_videos",
    ]
    assert doc["protocol"] == "max"
    (video,) = doc["per_video"]
    assert list(video) == ["video_id", "precision", "recall", "fscore"]
    assert video["video_id"] == "solo"
    assert (video["precision"], video["recall"]) == (100.0, 50.0)
    assert video["fscore"] == pytest.approx(200.0 / 3.0)
    assert doc["fold_fscores"] == [video["fscore"]]
    assert doc["mean_fscore"] == video["fscore"]
    assert doc["zeta_skipped_videos"] == 0


def test_metrics_report_omits_unset_zeta(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "format_version", "run_config", "numerics", "protocol", "per_video",
        "fold_fscores", "mean_fscore",
    ]


def test_eval_empty_machine_scores_0(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [0, 0, 0, 0], selected=())
    assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_fscore"] == 0.0


def test_eval_protocol_override_warns(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    with pytest.warns(UserWarning, match="overrides"):
        code = run([
            "eval", "--manifest", manifest, "--summaries", sums,
            "--protocol", "mean",
        ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["protocol"] == "mean"


def test_eval_frame_count_mismatch(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0])
    assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 1
    assert "frames" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    ("shots", [[0, 2], [2, 2], [2, 4]], "invalid shot [2, 2)"),
    ("shots", [[0, 1], [3, 4]], "contiguous"),
    ("shots", [[0, 2]], "shots end at frame 2"),
    ("shots", [[0, 2], [2, 4.0]], "JSON integers"),
    ("selected", [2], "selected index"),
    ("frame_mask", [2, 1, 0, 0], "0 or 1"),
    ("selected", [0, 0], "selected indices must ascend strictly"),
    ("selected", [1, 0], "selected indices must ascend strictly"),
    # frame_mask [1, 1, 0, 0] is shot 0, not the selected shot [2, 4)
    ("selected", [1], "frame_mask must mark the selected shots"),
    # entries equal to 0 or 1 that are not JSON integers
    ("frame_mask", [1.0, 1, 0, 0], "0 or 1"),
    ("frame_mask", [1, True, 0, 0], "0 or 1"),
    ("frame_mask", [1, 1, 0.0, 0], "0 or 1"),
    ("frame_mask", [1, 1, 0, False], "0 or 1"),
])
def test_eval_refuses_malformed_summaries(field, value, named, tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    path = sums / "solo.summary.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "metrics"
    for zeta in (["--zeta"], []):  # F and zeta read the same selection
        assert run(["eval", "--manifest", manifest, "--summaries", sums, "--out", out, *zeta]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: summary for 'solo'") and named in err
        assert not out.exists()


def test_eval_names_a_missing_summary_field(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    path = sums / "solo.summary.json"
    full = json.loads(path.read_text())
    for field in ("shots", "selected", "frame_mask"):
        path.write_text(json.dumps({k: v for k, v in full.items() if k != field}))
        for zeta in (["--zeta"], []):
            assert run(["eval", "--manifest", manifest, "--summaries", sums, *zeta]) == 1
            assert capsys.readouterr().err == f"error: summary for 'solo' has no {field!r} field\n"


def test_eval_names_an_unreadable_summary(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    for text, named in [("{oops", "is not valid JSON"), ("[1, 2]", "must hold a JSON object")]:
        (sums / "solo.summary.json").write_text(text)
        assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 1
        err = capsys.readouterr().err
        assert "solo.summary.json" in err and named in err


def test_eval_requires_summaries(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    assert run(["eval", "--manifest", manifest]) == 1
    capsys.readouterr()
    missing = tmp_path / "missing"
    assert run(["eval", "--manifest", manifest, "--summaries", missing]) == 1
    assert capsys.readouterr().err == f"error: summary directory not found: {missing}\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["eval", "--manifest", manifest, "--summaries", empty]) == 1


def test_eval_requires_user_summaries_or_keyframe_labels(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path, annotations={})
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 1
    assert capsys.readouterr().err == (
        "error: video 'solo' has no user summaries or keyframe labels\n"
    )


def test_eval_zeta_leaves_out_video_without_selected_shot(tmp_path, capsys):
    # "flat" has constant features, so KTS returns one 40-frame shot that
    # does not fit the 20-frame budget and nothing is selected
    rng = np.random.default_rng(3)
    videos = {"flat": np.ones((40, 4)), "varied": 3.0 * rng.standard_normal((40, 4))}
    entries = []
    for vid, matrix in videos.items():
        write_features(tmp_path / f"{vid}.f32", matrix.astype(np.float32))
        entries.append({
            "id": vid, "n_frames": 40, "dim": 4, "features_file": f"{vid}.f32",
            "annotations": {"user_summaries": [[[0, 10]]]},
        })
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    hyper = HyperParams(hidden=8, embed=4)
    save_checkpoint(init_params(4, hyper, 0), tmp_path / "init.ckpt", hyper)
    sums = tmp_path / "sums"
    assert run([
        "summarize", "--manifest", manifest, "--checkpoint", tmp_path / "init.ckpt",
        "--ratio", 0.5, "--out", sums,
    ]) == 0
    selected = {
        vid: json.loads((sums / f"{vid}.summary.json").read_text())["selected"]
        for vid in videos
    }
    assert selected["flat"] == [] and selected["varied"] != []

    metrics = tmp_path / "metrics"
    assert run([
        "eval", "--manifest", manifest, "--summaries", sums, "--zeta", "--out", metrics,
    ]) == 0
    doc = json.loads((metrics / "metrics.json").read_text())
    assert doc["zeta_skipped_videos"] == 1
    assert np.isfinite(doc["zeta"]) and doc["zeta"] > 0.0
    assert len(doc["per_video"]) == 2

    (sums / "varied.summary.json").unlink()
    capsys.readouterr()
    assert run(["eval", "--manifest", manifest, "--summaries", sums, "--zeta"]) == 1
    assert "no video has a selected shot" in capsys.readouterr().err


def test_eval_zeta_covers_only_the_fold_test_videos(corpus, tmp_path, capsys):
    hyper = HyperParams(hidden=8, embed=4)
    save_checkpoint(init_params(8, hyper, 0), tmp_path / "init.ckpt", hyper)
    sums = tmp_path / "sums"
    assert run([
        "summarize", "--manifest", corpus, "--checkpoint", tmp_path / "init.ckpt",
        "--out", sums,
    ]) == 0
    assert len(list(sums.glob("*.summary.json"))) == 6

    def zeta_of(summaries, *flags):
        out = tmp_path / f"metrics{len(list(tmp_path.iterdir()))}"
        args = ["eval", "--manifest", corpus, "--summaries", summaries, "--zeta"]
        assert run([*args, *flags, "--out", out]) == 0
        return json.loads((out / "metrics.json").read_text())

    everything = zeta_of(sums)
    fold0 = zeta_of(sums, "--setting", "canonical", "--fold", 0)
    tested = [row["video_id"] for row in fold0["per_video"]]
    assert len(everything["per_video"]) == 6 and len(tested) == 2
    assert fold0["zeta"] != everything["zeta"]

    # the same two summaries alone give the fold's zeta
    only = tmp_path / "only"
    only.mkdir()
    for vid in tested:
        name = f"{vid}.summary.json"
        (only / name).write_text((sums / name).read_text())
    assert zeta_of(only)["zeta"] == fold0["zeta"]


def test_a_config_file_variable_changes_nothing(corpus, tmp_path, monkeypatch):
    # settings come from the command line alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 3, "ratio": 0.5}))
    out, sums = tmp_path / "train", tmp_path / "sums"
    commands = [
        ["train", "--manifest", corpus, "--fold", 0, "--epochs", 1, "--embed", 4,
         "--lr", "1e-3", "--out", out],
        ["summarize", "--manifest", corpus, "--checkpoint", out / "fold0.ckpt",
         "--setting", "canonical", "--fold", 0, "--out", sums],
    ]

    def outputs():
        for argv in commands:
            assert run(argv) == 0
        report = [json.loads(line) for line in (out / "fold0.report.jsonl").read_text().splitlines()]
        for line in report[1:-1]:
            del line["wall_seconds"], line["stage_seconds"], line["minor_faults"]
        files = {p.name: p.read_bytes() for p in [out / "fold0.ckpt", *sums.glob("*.json")]}
        return report, files

    expected = outputs()
    monkeypatch.setenv("GDASUM_CONFIG", str(cfg))
    assert outputs() == expected
    assert expected[0][0]["run_config"]["hidden"] == HyperParams.hidden


def test_written_files_record_numpy_blas_and_thread_variables(tmp_path, monkeypatch):
    monkeypatch.setenv(BLAS_THREAD_VARS[0], "1")
    for var in BLAS_THREAD_VARS[1:]:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "gc"
    assert run(["gradcheck", "--instances", 1, "--out", out]) == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert list(doc)[:3] == ["format_version", "run_config", "numerics"]
    numerics = doc["numerics"]
    assert list(numerics) == ["numpy", "blas", *BLAS_THREAD_VARS]
    assert numerics["numpy"] == np.__version__
    assert numerics["blas"] is None or list(numerics["blas"]) == ["name", "version"]
    assert [numerics[var] for var in BLAS_THREAD_VARS] == ["1", None, None]


@pytest.mark.parametrize("command", ["train", "summarize", "segment", "eval", "gradcheck"])
def test_command_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "%(" not in text
    if command == "train":
        assert re.search(r"--dropout-rate DROPOUT_RATE\s+default 0\.6\n", text)


def test_console_script_entry_point():
    proc = run_cli_process("-m", "gdasum.cli", "gradcheck", "--instances", "1")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")

# After main has run, freeing and reallocating arrays of up to 32 MiB
# reuses the process's pages: rounds 2-5 print their minor fault counts.
FAULT_ROUNDS = """
import json, resource
import numpy as np
from gdasum.cli import main

main(["--help"])
big = np.ones(1 << 20)  # 8 MB: glibc's default would raise its mmap threshold to this
del big

def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

faults = []
for _ in range(5):
    before = minor_faults()
    arrays = [np.ones(1 << 19) for _ in range(10)]  # ten touched 4 MB arrays
    del arrays
    faults.append(minor_faults() - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_main_keeps_freed_arrays_for_reuse():
    proc = run_cli_process("-c", FAULT_ROUNDS)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(f < 100 for f in faults[1:]), faults


def test_segment_runs_where_the_c_library_has_no_mallopt(corpus, monkeypatch, capsys):
    assert run(["segment", "--manifest", corpus]) == 0
    expected = capsys.readouterr().out
    opened = []

    def c_library_without_mallopt(name, *args, **kwargs):
        opened.append(name)
        return object()

    monkeypatch.setattr("ctypes.CDLL", c_library_without_mallopt)
    assert run(["segment", "--manifest", corpus]) == 0
    assert opened == [None]
    assert capsys.readouterr().out == expected
