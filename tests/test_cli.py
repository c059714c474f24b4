import json
import re
import subprocess
import sys

import numpy as np
import pytest

from gdasum.cli import CONFIG_ENV_VAR, main
from gdasum.data import load_manifest, write_features, write_manifest
from gdasum.kts import kts_changepoints
from gdasum.model import HyperParams, init_params
from gdasum.synthetic import PlantedSpec, write_planted_corpus
from gdasum.train import save_checkpoint


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


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
    assert run(["train"]) == 1
    assert "manifest" in capsys.readouterr().err


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


def test_fold_needs_setting(corpus, init_summaries, tmp_path, capsys):
    ckpt, sums = init_summaries
    capsys.readouterr()
    for args in (
        ["summarize", "--checkpoint", ckpt, "--out", tmp_path / "sums"],
        ["eval", "--summaries", sums],
    ):
        assert run([*args, "--manifest", corpus, "--fold", 9]) == 1
        assert "--fold needs --setting" in capsys.readouterr().err
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


def write_solo_manifest(tmp_path, source="summe-like"):
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
            "annotations": {"user_summaries": [[[0, 2]]]},
        }],
    )
    return tmp_path / "manifest.json"


def write_solo_summary(tmp_path, frame_mask):
    doc = {
        "video_id": "solo",
        "ratio": 0.5,
        "frame_mask": frame_mask,
        "frame_scores": [0.5] * 4,
        "shots": [[0, 2], [2, 4]],
        "selected": [0],
    }
    sums = tmp_path / "sums"
    sums.mkdir(exist_ok=True)
    (sums / "solo.summary.json").write_text(json.dumps(doc))
    return sums


def test_eval_perfect_match_scores_100(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    assert run(["eval", "--manifest", manifest, "--summaries", sums]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["protocol"] == "max"  # inferred from summe-like
    assert doc["mean_fscore"] == 100.0


def test_eval_empty_machine_scores_0(tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [0, 0, 0, 0])
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
])
def test_eval_refuses_malformed_summaries(field, value, named, tmp_path, capsys):
    manifest = write_solo_manifest(tmp_path)
    sums = write_solo_summary(tmp_path, [1, 1, 0, 0])
    path = sums / "solo.summary.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "metrics"
    assert run(["eval", "--manifest", manifest, "--summaries", sums, "--zeta", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "summary for 'solo'" in err and named in err
    assert not out.exists()


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
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["eval", "--manifest", manifest, "--summaries", empty]) == 1


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


def test_config_file_feeds_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 3, "epochs": 7}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    out = tmp_path / "gc"
    assert run(["gradcheck", "--out", out]) == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert len(doc["instances"]) == 6  # 3 seeds x 2 modes
    # a key of another command is accepted but not recorded
    assert doc["run_config"]["instances"] == 3
    assert "epochs" not in doc["run_config"]


def test_flags_override_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, "tolerance": 1e-15}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    # the file alone would fail; the flag must win
    assert run(["gradcheck", "--tolerance", "1e-3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_config_file_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CONFIG_ENV_VAR, str(tmp_path / "absent.json"))
    assert run(["gradcheck", "--instances", 1]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"granularity": 3}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(bad))
    assert run(["gradcheck", "--instances", 1]) == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc, command, named", [
    ({"epochs": 2.9}, "train", "argument --epochs"),
    ({"zeta": "false"}, "eval", "argument --zeta"),
    # the corpus has change points, so summarize never runs KTS
    ({"kts_kernel": "foo"}, "summarize", "argument --kts-kernel"),
    ({"summaries": ["a", "b"]}, "eval", "key 'summaries'"),
])
def test_config_file_values_are_checked_like_flags(
    doc, command, named, corpus, init_summaries, tmp_path, monkeypatch, capsys
):
    ckpt, sums = init_summaries
    args = {
        "train": ["--fold", 0, "--hidden", 8, "--embed", 4, "--lr", "1e-3"],
        "summarize": ["--checkpoint", ckpt],
        "eval": ["--summaries", sums],
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--manifest", corpus, *args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert named in err
    # the file and its key are named, since no such flag was typed
    assert f"config file {cfg} key {next(iter(doc))!r}" in err
    assert not out.exists()


def test_config_file_values_are_parsed(corpus, init_summaries, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    cfg.write_text(json.dumps({"epochs": "3", "hidden": 8, "embed": 4, "lr": "1e-3"}))
    out = tmp_path / "train"
    assert run(["train", "--manifest", corpus, "--fold", 0, "--out", out]) == 0
    lines = (out / "fold0.report.jsonl").read_text().splitlines()
    run_config = json.loads(lines[0])["run_config"]
    assert run_config["epochs"] == 3 and type(run_config["epochs"]) is int
    assert len(lines) == 1 + 3 + 1  # provenance, one record per epoch, checkpoint path

    # true sets a store-true flag and null leaves the default
    cfg.write_text(json.dumps({"zeta": True, "protocol": None}))
    metrics = tmp_path / "metrics"
    _, sums = init_summaries
    assert run(["eval", "--manifest", corpus, "--summaries", sums, "--out", metrics]) == 0
    doc = json.loads((metrics / "metrics.json").read_text())
    assert doc["zeta"] is not None
    assert doc["run_config"]["zeta"] is True
    assert doc["run_config"]["protocol"] is None
    assert doc["protocol"] == "mean"  # inferred from source "other"


@pytest.mark.parametrize("command", ["train", "summarize", "segment", "eval", "gradcheck"])
def test_command_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "%(" not in text
    if command == "train":
        assert re.search(r"--dropout-rate DROPOUT_RATE\s+default 0\.6\n", text)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gdasum.cli", "gradcheck", "--instances", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
