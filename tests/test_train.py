import dataclasses
import importlib
import json
import os
import tracemalloc
import types

import numpy as np
import pytest

from gdasum.data import (
    Annotations,
    FrameFeatures,
    SourceDataset,
    SplitSpec,
    VideoRecord,
)
from gdasum.losses import LossBreakdown, NumericalError, backward
from gdasum.model import HyperParams, forward, init_params
from gdasum.synthetic import PlantedSpec, make_planted_dataset
from gdasum.train import (
    DEFAULT_LEARNING_RATES,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainMode,
    adam_step,
    clip_gradients,
    load_checkpoint,
    resolve_learning_rate,
    save_checkpoint,
    train,
)

SMALL_HYPER = HyperParams(hidden=16, embed=8)


def record(vid, n=12, d=4, seed=0, labeled=True, source=SourceDataset.OTHER):
    rng = np.random.default_rng(seed)
    feats = FrameFeatures(rng.standard_normal((n, d)).astype(np.float32))
    labels = None
    if labeled:
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, size=3, replace=False)] = 1
    return VideoRecord(
        id=vid,
        features=feats,
        annotations=Annotations(keyframe_labels=labels),
        source_dataset=source,
    )


def split_of(train_ids, test_ids=()):
    return SplitSpec(
        fold_index=0,
        train_ids=tuple(train_ids),
        test_ids=tuple(test_ids),
    )


def small_corpus():
    spec = PlantedSpec(n_videos=6, n_frames=60, dim=16, seed=1)
    records = make_planted_dataset(spec)
    ids = [r.id for r in records]
    return records, split_of(ids[:4], ids[4:])


def test_adam_zero_gradient_is_identity():
    params = init_params(3, SMALL_HYPER, 0)
    grads = params.zeros_like()
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, new_state = adam_step(params, grads, state, lr=0.1)
    assert new_state.t == 1
    for a, b in zip(before.arrays(), new_params.arrays()):
        assert np.array_equal(a, b)


def test_adam_first_step_moves_by_lr():
    # bias-corrected moments make the first update lr * g / (|g| + eps)
    params = init_params(3, SMALL_HYPER, 0)
    for arr in params.arrays():
        arr[:] = 0.0
    grads = params.zeros_like()
    grads.w_q[0, 0] = 1.0
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, _ = adam_step(params, grads, state, lr=0.1)
    assert abs(new_params.w_q[0, 0] + 0.1) < 1e-8
    assert new_params.w_q[0, 1] == 0.0
    assert np.array_equal(new_params.w_k, before.w_k)


def test_adam_moves_against_gradient_sign():
    params = init_params(4, SMALL_HYPER, 1)
    grads = params.zeros_like()
    grads.ff_w[:] = 1.0
    grads.reg_b2[:] = -1.0
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, _ = adam_step(params, grads, state, lr=0.01)
    assert (new_params.ff_w < before.ff_w).all()
    assert (new_params.reg_b2 > before.reg_b2).all()


def test_adam_rejects_non_finite_gradients():
    params = init_params(3, SMALL_HYPER, 0)
    grads = params.zeros_like()
    grads.w_v[0, 0] = np.nan
    with pytest.raises(NumericalError):
        adam_step(params, grads, AdamState.zeros(params), lr=0.1)


def test_adam_drives_quadratic_to_zero():
    # gradient of theta^2/2 is theta; iterating must shrink it
    params = init_params(3, SMALL_HYPER, 0)
    for arr in params.arrays():
        arr[:] = 0.0
    params.w_q[0, 0] = 1.0
    state = AdamState.zeros(params)
    for _ in range(300):
        grads = params.zeros_like()
        grads.w_q[0, 0] = params.w_q[0, 0]
        params, state = adam_step(params, grads, state, lr=0.02)
    assert abs(params.w_q[0, 0]) < 0.05


def test_clip_gradients_scales_to_max_norm():
    params = init_params(2, HyperParams(hidden=2, embed=2), 0)
    grads = params.zeros_like()
    grads.w_q[:] = 3.0  # (2, 2): 4 entries, sq sum 36
    grads.w_k[:] = 4.0  # 4 entries, sq sum 64
    original = grads.copy()
    clipped, norm = clip_gradients(grads, max_norm=5.0)
    assert abs(norm - 10.0) < 1e-12
    assert np.allclose(clipped.w_q, 1.5)
    assert np.allclose(clipped.w_k, 2.0)
    untouched, norm2 = clip_gradients(original.copy(), max_norm=20.0)
    assert norm2 == norm
    assert np.array_equal(untouched.w_q, original.w_q)


def test_adam_step_allocates_less_than_one_parameter_set():
    params = init_params(16, SMALL_HYPER, 0)
    grads = params.copy()
    state = AdamState.zeros(params)
    param_bytes = sum(a.nbytes for a in params.arrays())
    tracemalloc.start()
    try:
        new_params, new_state = adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new_params is params and new_state is state
    assert peak < param_bytes


def test_adam_step_takes_inline_clipped_gradients():
    # the call form of the stage timings in bench/stages.py
    params = init_params(4, SMALL_HYPER, 0)
    before = params.copy()
    grads = params.zeros_like()
    grads.w_q[:] = 10.0
    state = AdamState.zeros(params)
    adam_step(params, clip_gradients(grads, 5.0)[0], state, 5e-4)
    assert state.t == 1
    assert (params.w_q < before.w_q).all()
    assert np.array_equal(params.w_k, before.w_k)


def test_resolve_learning_rate_defaults():
    assert DEFAULT_LEARNING_RATES[SourceDataset.SUMME_LIKE] == 5e-5
    assert DEFAULT_LEARNING_RATES[SourceDataset.TVSUM_LIKE] == 1e-4
    assert DEFAULT_LEARNING_RATES[SourceDataset.OTHER] == 5e-4
    config = TrainConfig()
    summe = [record("a", source=SourceDataset.SUMME_LIKE)]
    tvsum2 = [
        record("b", source=SourceDataset.TVSUM_LIKE),
        record("c", source=SourceDataset.TVSUM_LIKE),
    ]
    assert resolve_learning_rate(config, summe) == 5e-5
    assert resolve_learning_rate(config, tvsum2 + summe) == 1e-4
    assert resolve_learning_rate(config, []) == 5e-4
    explicit = TrainConfig(learning_rate=3e-4)
    assert resolve_learning_rate(explicit, summe) == 3e-4


def test_train_config_validation():
    assert TrainConfig(mode="semi").mode is TrainMode.SEMI
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(sigma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="reinforced")


def test_train_zero_epochs_returns_initialization():
    records, split = small_corpus()
    config = TrainConfig(epochs=0, seed=5)
    params, report = train(records, split, config, SMALL_HYPER)
    reference = init_params(16, SMALL_HYPER, 5)
    assert report.epochs == []
    for a, b in zip(params.arrays(), reference.arrays()):
        assert np.array_equal(a, b)


def test_train_loss_decreases():
    records, split = small_corpus()
    config = TrainConfig(epochs=8, learning_rate=1e-3, seed=0)
    params, report = train(records, split, config, SMALL_HYPER)
    assert len(report.epochs) == 8
    first = report.epochs[0].mean_loss.total
    last = report.epochs[-1].mean_loss.total
    assert np.isfinite(first) and np.isfinite(last)
    assert last < first


def test_train_same_seed_bit_identical(tmp_path):
    records, split = small_corpus()
    config = TrainConfig(epochs=3, learning_rate=1e-3, seed=7)
    params_a, _ = train(records, split, config, SMALL_HYPER)
    params_b, _ = train(records, split, config, SMALL_HYPER)
    save_checkpoint(params_a, tmp_path / "a.ckpt", hyper=SMALL_HYPER)
    save_checkpoint(params_b, tmp_path / "b.ckpt", hyper=SMALL_HYPER)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_train_unsupervised_ignores_missing_labels():
    # moderate dropout: dropping every unit of a frame would zero its
    # embedding, which the repelling loss rejects
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.2)
    records = [record(f"v{i}", seed=i, d=8, labeled=False) for i in range(3)]
    config = TrainConfig(mode="unsupervised", epochs=2, learning_rate=1e-3)
    params, report = train(records, split_of(["v0", "v1", "v2"]), config, hyper)
    assert len(report.epochs) == 2
    assert np.isfinite(report.epochs[-1].mean_loss.total)


def test_train_supervised_requires_all_labels():
    records = [record("v0", labeled=True), record("v1", seed=1, labeled=False)]
    config = TrainConfig(mode="supervised", epochs=1)
    with pytest.raises(ValueError, match="keyframe labels"):
        train(records, split_of(["v0", "v1"]), config, SMALL_HYPER)


def test_train_semi_needs_one_labeled_video():
    records = [record(f"v{i}", seed=i, labeled=False) for i in range(2)]
    config = TrainConfig(mode="semi", epochs=1)
    with pytest.raises(ValueError, match="at least one labeled"):
        train(records, split_of(["v0", "v1"]), config, SMALL_HYPER)


def test_train_semi_mixes_labeled_and_unlabeled():
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.2)
    records = [
        record("v0", d=8, labeled=True),
        record("v1", seed=1, d=8, labeled=False),
    ]
    config = TrainConfig(mode="semi", epochs=2, learning_rate=1e-3)
    params, report = train(records, split_of(["v0", "v1"]), config, hyper)
    assert np.isfinite(report.epochs[-1].mean_loss.total)


def test_train_rejects_unknown_split_ids():
    records = [record("v0")]
    with pytest.raises(ValueError, match="unknown video ids"):
        train(records, split_of(["v0", "ghost"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_rejects_mixed_feature_dims():
    records = [record("v0", d=4), record("v1", seed=1, d=6)]
    with pytest.raises(ValueError, match="feature dim"):
        train(records, split_of(["v0", "v1"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_aborts_on_non_finite_loss(monkeypatch):
    records = [record("v0", labeled=False)]
    bad = LossBreakdown(
        variation=0.0,
        keyframe=0.0,
        length=np.nan,
        repelling=0.0,
        weight_penalty=0.0,
        total=np.nan,
    )
    losses_module = importlib.import_module("gdasum.losses")
    monkeypatch.setattr(losses_module, "_loss_terms", lambda *a, **k: (bad, None))
    config = TrainConfig(mode="unsupervised", epochs=1)
    with pytest.raises(NumericalError, match="non-finite loss on video 'v0'"):
        train(records, split_of(["v0"]), config, SMALL_HYPER)


def test_train_names_video_on_non_finite_gradient(monkeypatch):
    def nan_dy(trace, *args):
        dy = np.zeros_like(trace.y)
        dy[0] = np.nan
        return dy, np.zeros_like(trace.phi)

    losses_module = importlib.import_module("gdasum.losses")
    monkeypatch.setattr(losses_module, "_loss_grads_y_phi", nan_dy)
    with pytest.raises(NumericalError, match="non-finite .* on video 'v0'"):
        train([record("v0")], split_of(["v0"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_names_video_on_zero_norm_embedding():
    # dropout zeroes every feed-forward output of a frame while emb_b is 0
    config = TrainConfig(mode="unsupervised", epochs=1)
    with pytest.raises(
        NumericalError, match=r"zero-norm embeddings \(frame \d+\) on video 'v0'"
    ):
        train([record("v0", labeled=False)], split_of(["v0"]), config, SMALL_HYPER)


def test_train_names_video_on_singular_subset_kernel():
    # two labeled frames with identical features give a singular L_S
    rec = record("dup", n=8)
    matrix = rec.features.matrix.copy()
    keys = np.flatnonzero(rec.annotations.keyframe_labels)
    matrix[keys[1]] = matrix[keys[0]]
    rec = VideoRecord(
        id="dup",
        features=FrameFeatures(matrix),
        annotations=rec.annotations,
        source_dataset=rec.source_dataset,
    )
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.0)
    with pytest.raises(
        NumericalError,
        match="subset kernel is numerically singular on video 'dup' at epoch 0",
    ):
        train([rec], split_of(["dup"]), config, hyper)


def test_train_step_computes_distances_once(monkeypatch):
    records, split = small_corpus()
    losses_module = importlib.import_module("gdasum.losses")
    original = losses_module.pairwise_sq_dists
    calls = []

    def counting(phi):
        calls.append(phi.shape)
        return original(phi)

    monkeypatch.setattr(losses_module, "pairwise_sq_dists", counting)
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    train(records, split, config, SMALL_HYPER)
    assert len(calls) == len(split.train_ids)


def test_train_reports_gradient_norm_before_clipping():
    rec = record("v0")
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.0)
    x = rec.features.matrix
    labels = rec.annotations.keyframe_labels
    params = init_params(x.shape[1], hyper, 0)
    trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(0))
    grads = backward(trace, x, params, hyper, "supervised", labels=labels)
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.arrays())))

    for clip, fraction in [(norm / 2, 1.0), (2 * norm, 0.0), (0.0, 0.0)]:
        config = TrainConfig(epochs=1, learning_rate=1e-3, grad_clip=clip)
        _, report = train([rec], split_of(["v0"]), config, hyper)
        line = json.loads(report.to_json_lines())
        assert line["grad_norm"] == {"median": norm, "max": norm}
        assert line["clipped_fraction"] == fraction

    records, split = small_corpus()
    config = TrainConfig(epochs=2, learning_rate=1e-3, grad_clip=1e-12)
    _, report = train(records, split, config, SMALL_HYPER)
    for epoch in report.epochs:
        assert 0.0 < epoch.grad_norm_median <= epoch.grad_norm_max
        assert epoch.clipped_fraction == 1.0


def test_train_report_json_lines():
    records, split = small_corpus()
    config = TrainConfig(epochs=2, learning_rate=1e-3)
    _, report = train(records, split, config, SMALL_HYPER)
    report.checkpoint_path = "fold0.ckpt"
    lines = report.to_json_lines().strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["epoch"] == 0
    assert "total" in first["loss"]
    assert json.loads(lines[-1]) == {"checkpoint_path": "fold0.ckpt"}


def reference_checkpoint(params, dtype, hyper=None):
    # the file format assembled independently of save_checkpoint
    header = {
        "format": "gdasum-checkpoint",
        "version": 1,
        "dtype": dtype,
        "shapes": {name: list(arr.shape) for name, arr in params.items()},
    }
    if hyper is not None:
        header["hyper"] = dataclasses.asdict(hyper)
    payload = b"".join(arr.astype(dtype).tobytes() for arr in params.arrays())
    return json.dumps(header).encode() + b"\n" + payload


def assert_fresh_float64(loaded):
    for arr in loaded.arrays():
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable


def test_checkpoint_round_trip_float64(tmp_path):
    params = init_params(6, SMALL_HYPER, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)
    assert path.read_bytes() == reference_checkpoint(params, "<f8", SMALL_HYPER)
    loaded, hyper = load_checkpoint(path)
    assert hyper == SMALL_HYPER
    assert_fresh_float64(loaded)
    for (name_a, a), (name_b, b) in zip(params.items(), loaded.items()):
        assert name_a == name_b
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_checkpoint_without_hyper(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "bare.ckpt"
    path.write_bytes(reference_checkpoint(params, "<f8"))
    with pytest.raises(CheckpointError, match="no hyperparameters"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_dtype(tmp_path):
    # payloads are float64 only: a float32 one is refused, not converted
    path = tmp_path / "model.f4.ckpt"
    path.write_bytes(reference_checkpoint(init_params(4, SMALL_HYPER, 0), "<f4", SMALL_HYPER))
    with pytest.raises(CheckpointError, match="unsupported payload dtype '<f4'"):
        load_checkpoint(path)


def test_checkpoint_extra_header_round_trip(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(
        params, path, hyper=SMALL_HYPER, extra_header={"run_config": {"seed": 1}}
    )
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["run_config"] == {"seed": 1}
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.emb_w, params.emb_w)


def test_checkpoint_extra_header_clash(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    with pytest.raises(CheckpointError, match="clash"):
        save_checkpoint(
            params, tmp_path / "x.ckpt", SMALL_HYPER, extra_header={"dtype": "<f8"}
        )
    with pytest.raises(CheckpointError, match="clash"):
        save_checkpoint(params, tmp_path / "x.ckpt", SMALL_HYPER, extra_header={"hyper": {}})


def corrupt(path, mutate):
    raw = path.read_bytes()
    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    mutate(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_checkpoint_error_taxonomy(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)

    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.ckpt")

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(trailing)

    headerless = tmp_path / "headerless.ckpt"
    headerless.write_bytes(b"no newline at all")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(headerless)

    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(b"{not json}\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(garbled)

    wrong_format = tmp_path / "wrong.ckpt"
    wrong_format.write_bytes(path.read_bytes())
    corrupt(wrong_format, lambda h: h.update(format="some-other-format"))
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(wrong_format)

    future = tmp_path / "future.ckpt"
    future.write_bytes(path.read_bytes())
    corrupt(future, lambda h: h.update(version=2))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(future)

    missing_shape = tmp_path / "shapes.ckpt"
    missing_shape.write_bytes(path.read_bytes())
    corrupt(missing_shape, lambda h: h["shapes"].pop("w_q"))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(missing_shape)

    negative_shape = tmp_path / "negative.ckpt"
    negative_shape.write_bytes(path.read_bytes())
    corrupt(negative_shape, lambda h: h["shapes"].update(ff_b=[-1]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(negative_shape)

    not_an_object = tmp_path / "list.ckpt"
    not_an_object.write_bytes(b"[1, 2]\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(not_an_object)

    # D=6 from w_q, yet ff_b says 7 and ln1_scale 5: the byte total still matches
    inconsistent = tmp_path / "inconsistent.ckpt"
    save_checkpoint(init_params(6, SMALL_HYPER, 0), inconsistent, SMALL_HYPER)
    corrupt(inconsistent, lambda h: h["shapes"].update(ff_b=[7], ln1_scale=[5]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(inconsistent)

    low_rank = tmp_path / "low_rank.ckpt"
    low_rank.write_bytes(path.read_bytes())
    corrupt(low_rank, lambda h: h["shapes"].update(w_q=[16]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(low_rank)

    # weights of H=16 and E=8 under a header whose hyper says 1024 and 256
    wide = tmp_path / "wide.ckpt"
    wide.write_bytes(path.read_bytes())
    corrupt(wide, lambda h: h["hyper"].update(hidden=1024, embed=256))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(wide)


def test_checkpoint_short_read_is_an_error(tmp_path, monkeypatch):
    # a file that shrinks after its size was taken: the last field reads short
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, SMALL_HYPER)
    full_size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=full_size))
    with pytest.raises(CheckpointError, match="payload ends inside field 'emb_b'"):
        load_checkpoint(path)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_io_streams_fields(tmp_path):
    # a few-MB model: saving builds no payload copy, loading holds one
    params = init_params(256, HyperParams(), 0)
    param_bytes = sum(a.nbytes for a in params.arrays())
    path = tmp_path / "model.ckpt"
    assert traced_peak(lambda: save_checkpoint(params, path, HyperParams())) < 0.5 * param_bytes
    assert traced_peak(lambda: load_checkpoint(path)) < 1.5 * param_bytes


def test_checkpoint_hyper_header_is_checked(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert list(header["hyper"]) == [
        "hidden", "embed", "dropout_rate", "weight_decay", "beta", "alpha_clip"
    ]

    for name, mutate in [
        ("unknown", lambda h: h["hyper"].update(momentum=0.9)),
        ("missing", lambda h: h["hyper"].pop("beta")),
    ]:
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(path.read_bytes())
        corrupt(bad, mutate)
        with pytest.raises(CheckpointError, match="hyperparameters"):
            load_checkpoint(bad)

    invalid = tmp_path / "invalid.ckpt"
    invalid.write_bytes(path.read_bytes())
    corrupt(invalid, lambda h: h["hyper"].update(beta=-1.0))
    with pytest.raises(CheckpointError, match="beta must be positive"):
        load_checkpoint(invalid)
