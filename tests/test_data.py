import json
import re

import numpy as np
import pytest

from gdasum.data import (
    DatasetError,
    FrameFeatures,
    SourceDataset,
    SplitSetting,
    SplitSpec,
    intervals_to_mask,
    load_manifest,
    make_splits,
    read_features,
    write_features,
    write_manifest,
)


def add_video(tmp_path, entries, vid, n_frames=8, dim=3, seed=0, source="other", annotations=None):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_frames, dim)).astype(np.float32)
    write_features(tmp_path / f"{vid}.f32", matrix)
    entry = {
        "id": vid,
        "n_frames": n_frames,
        "dim": dim,
        "features_file": f"{vid}.f32",
        "source_dataset": source,
    }
    if annotations is not None:
        entry["annotations"] = annotations
    entries.append(entry)
    return matrix


def make_corpus(tmp_path, n_videos, **kwargs):
    entries = []
    for i in range(n_videos):
        add_video(tmp_path, entries, f"vid-{i:02d}", seed=i, **kwargs)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    return manifest


def test_feature_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((7, 5)).astype(np.float32)
    path = tmp_path / "x.f32"
    write_features(path, matrix)
    feats = read_features(path, 7, 5)
    assert feats.matrix.tobytes() == matrix.tobytes()
    assert feats.n_frames == 7 and feats.dim == 5


def test_feature_file_exact_length_enforced(tmp_path):
    path = tmp_path / "x.f32"
    path.write_bytes(b"\x00" * 60)
    feats = read_features(path, 5, 3)
    assert feats.matrix.shape == (5, 3)
    path.write_bytes(b"\x00" * 59)
    with pytest.raises(DatasetError, match="59 bytes"):
        read_features(path, 5, 3)


def test_read_features_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        read_features(tmp_path / "absent.f32", 4, 4)


def test_write_features_refuses_a_matrix_that_is_not_2d(tmp_path):
    with pytest.raises(DatasetError, match="feature matrix must be 2-D"):
        write_features(tmp_path / "x.f32", np.zeros(6))
    assert not (tmp_path / "x.f32").exists()


def test_frame_features_validation():
    with pytest.raises(DatasetError):
        FrameFeatures(np.zeros((3, 2)))  # float64
    with pytest.raises(DatasetError):
        FrameFeatures(np.zeros((0, 2), dtype=np.float32))
    bad = np.zeros((2, 2), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(DatasetError):
        FrameFeatures(bad)


def test_intervals_to_mask():
    mask = intervals_to_mask([(0, 2), (4, 5)], 6)
    assert mask.tolist() == [1, 1, 0, 0, 1, 0]
    assert intervals_to_mask([], 3).tolist() == [0, 0, 0]
    with pytest.raises(DatasetError):
        intervals_to_mask([(2, 2)], 6)
    with pytest.raises(DatasetError):
        intervals_to_mask([(4, 7)], 6)


def test_load_manifest_round_trip(tmp_path):
    entries = []
    matrix = add_video(
        tmp_path,
        entries,
        "a",
        n_frames=6,
        source="summe-like",
        annotations={
            "keyframe_labels": [0, 1, 0, 0, 1, 0],
            "user_summaries": [[[0, 2], [4, 6]], [[1, 3]]],
            "change_points": [2, 4],
        },
    )
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    records = load_manifest(manifest)
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "a"
    assert rec.source_dataset is SourceDataset.SUMME_LIKE
    assert rec.features.matrix.tobytes() == matrix.tobytes()
    assert rec.annotations.keyframe_labels.tolist() == [0, 1, 0, 0, 1, 0]
    assert rec.annotations.user_summaries == (((0, 2), (4, 6)), ((1, 3),))
    assert rec.annotations.change_points == (2, 4)


@pytest.mark.parametrize("key, value", [
    ("n_frames", 6.9),
    ("n_frames", "6"),
    ("dim", 3.0),
    ("keyframe_labels", [0.5, 1.7, 0, 0, 0, 0]),
    ("user_summaries", [[[0.9, 3.2]]]),
    ("change_points", [2.5, 4]),
    ("change_points", ["4"]),
    ("change_points", [True, 4]),
])
def test_load_manifest_numbers_must_be_json_integers(tmp_path, key, value):
    # each of these used to load, truncated or coerced to an int
    entries = []
    annotations = {"keyframe_labels": [0, 1, 0, 0, 1, 0], "change_points": [2, 4]}
    add_video(tmp_path, entries, "a", n_frames=6, annotations=annotations)
    if key in entries[0]:
        entries[0][key] = value
    else:
        annotations[key] = value
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match=re.escape(f"video 'a': {key} takes JSON integers")):
        load_manifest(manifest)


def test_load_manifest_labels_checked_before_narrowing(tmp_path):
    entries = []
    add_video(tmp_path, entries, "a", n_frames=3, annotations={"keyframe_labels": [0, 257, 1]})
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match="0/1"):
        load_manifest(manifest)


def test_load_manifest_duplicate_ids(tmp_path):
    entries = []
    add_video(tmp_path, entries, "a")
    add_video(tmp_path, entries, "a", seed=1)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match="duplicate"):
        load_manifest(manifest)


@pytest.mark.parametrize("vid", ["", ".", "..", "../escaped", "sub/inner", "/abs", "nul\0id"])
def test_load_manifest_refuses_an_id_that_cannot_name_a_file(tmp_path, vid):
    # summarize, segment and eval build <out>/<id>.*.json from the id
    entries = []
    add_video(tmp_path, entries, "ok")
    add_video(tmp_path, entries, "ok", seed=1)
    entries[1]["id"] = vid
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match=re.escape(f"videos[1]: id {vid!r} cannot name a file")):
        load_manifest(manifest)


@pytest.mark.parametrize("vid", ["planted-000", "train-n300-00", "a.b", "..."])
def test_load_manifest_accepts_ids_that_name_a_file(tmp_path, vid):
    entries = []
    add_video(tmp_path, entries, "ok")
    entries[0]["id"] = vid
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    assert [r.id for r in load_manifest(manifest)] == [vid]


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="manifest not found: "):
        load_manifest(tmp_path / "absent.json")


@pytest.mark.parametrize("key", ["n_frames", "dim"])
def test_load_manifest_refuses_a_size_below_one(tmp_path, key):
    entries = []
    add_video(tmp_path, entries, "a")
    entries[0][key] = 0
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match="video 'a': n_frames and dim must be positive"):
        load_manifest(manifest)


def test_load_manifest_missing_key(tmp_path):
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, [{"id": "a", "n_frames": 4, "dim": 2}])
    with pytest.raises(DatasetError, match="missing required key"):
        load_manifest(manifest)


def test_load_manifest_rejects_bad_json(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    with pytest.raises(DatasetError, match="not valid JSON"):
        load_manifest(manifest)
    for doc in ([1, 2], {"videos": 5}):
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match='"videos" list'):
            load_manifest(manifest)
    manifest.write_text(json.dumps({"videos": [5]}))
    with pytest.raises(DatasetError, match=re.escape("videos[0] must be a JSON object")):
        load_manifest(manifest)
    entry = {"id": "a", "n_frames": 4, "dim": 2, "features_file": "a.f32"}
    for key, value in (("id", [1]), ("features_file", 5)):
        manifest.write_text(json.dumps({"videos": [{**entry, key: value}]}))
        named = re.escape(f"videos[0]: {key} must be a JSON string")
        with pytest.raises(DatasetError, match=named):
            load_manifest(manifest)


def test_load_manifest_rejects_non_finite_features(tmp_path):
    matrix = np.full((4, 2), np.inf, dtype=np.float32)
    write_features(tmp_path / "a.f32", matrix)
    manifest = tmp_path / "manifest.json"
    write_manifest(
        manifest,
        [{"id": "a", "n_frames": 4, "dim": 2, "features_file": "a.f32"}],
    )
    with pytest.raises(DatasetError, match="non-finite"):
        load_manifest(manifest)


def test_load_manifest_rejects_unknown_source(tmp_path):
    entries = []
    add_video(tmp_path, entries, "a")
    entries[0]["source_dataset"] = "youtube"
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match="source_dataset"):
        load_manifest(manifest)


def test_load_manifest_rejects_unknown_annotation_key(tmp_path):
    for annotations in (
        {"key_frames": [0, 1]},
        {"importance_scores": [[0.1, 0.9, 0.2, 0.1, 0.8, 0.3, 0.5, 0.4]]},
    ):
        entries = []
        add_video(tmp_path, entries, "a", annotations=annotations)
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, entries)
        with pytest.raises(DatasetError, match="unknown annotation keys"):
            load_manifest(manifest)


def test_load_manifest_warns_on_single_frame(tmp_path):
    manifest = make_corpus(tmp_path, 1, n_frames=1)
    with pytest.warns(UserWarning, match="fewer than 2 frames"):
        records = load_manifest(manifest)
    assert records[0].features.n_frames == 1


@pytest.mark.parametrize("annotations, named", [
    (5, "annotations must be a JSON object"),
    ({"keyframe_labels": 5}, "keyframe_labels must be a list"),
    ({"keyframe_labels": [0, 1]}, "keyframe_labels has 2 entries for 6 frames"),
    ({"keyframe_labels": [0, 2, 1, 0, 0, 0]}, "keyframe_labels must be 0/1"),
    ({"user_summaries": 5}, "user_summaries must be a list holding one interval list per user"),
    ({"user_summaries": [5]}, "user_summaries must be a list holding one interval list per user"),
    ({"user_summaries": [[5]]}, "user_summaries intervals are [start, end] pairs, not 5"),
    ({"user_summaries": [[[0, 2, 3]]]}, "user_summaries intervals are [start, end] pairs"),
    ({"user_summaries": [[[0, 7]]]}, "user_summaries interval [0, 7) outside [0, 6)"),
    ({"user_summaries": [[[0, 3], [2, 5]]]}, "user_summaries intervals overlap or are unsorted"),
    ({"change_points": [0, 2]}, "change_points must be strictly increasing in (0, 6)"),
    ({"change_points": [2, 2]}, "change_points must be strictly increasing in (0, 6)"),
])
def test_load_manifest_checks_each_annotation(tmp_path, annotations, named):
    entries = []
    add_video(tmp_path, entries, "a", n_frames=6, annotations=annotations)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    with pytest.raises(DatasetError, match=re.escape(f"video 'a': {named}")):
        load_manifest(manifest)


def test_split_spec_rejects_overlap():
    with pytest.raises(DatasetError, match="overlap"):
        SplitSpec(
            fold_index=0,
            train_ids=("a", "b"),
            test_ids=("b",),
        )


def test_make_splits_canonical_partition(tmp_path):
    manifest = make_corpus(tmp_path, 25)
    records = load_manifest(manifest)
    splits = make_splits(records, SplitSetting.CANONICAL, seed=0)
    assert len(splits) == 5
    all_test = []
    for k, split in enumerate(splits):
        assert split.fold_index == k
        assert len(split.test_ids) == 5
        assert len(split.train_ids) == 20
        assert not set(split.train_ids) & set(split.test_ids)
        assert set(split.train_ids) | set(split.test_ids) == {r.id for r in records}
        all_test.extend(split.test_ids)
    # test blocks partition the corpus
    assert sorted(all_test) == sorted(r.id for r in records)


def test_make_splits_remainder_spread(tmp_path):
    manifest = make_corpus(tmp_path, 23)
    records = load_manifest(manifest)
    splits = make_splits(records, "canonical", seed=3)
    assert [len(s.test_ids) for s in splits] == [5, 5, 5, 4, 4]


def test_make_splits_deterministic_and_seed_sensitive(tmp_path):
    manifest = make_corpus(tmp_path, 10)
    records = load_manifest(manifest)
    a = make_splits(records, "canonical", seed=7)
    b = make_splits(records, "canonical", seed=7)
    c = make_splits(records, "canonical", seed=8)
    assert [s.test_ids for s in a] == [s.test_ids for s in b]
    assert [s.test_ids for s in a] != [s.test_ids for s in c]


def test_make_splits_ignores_record_order(tmp_path):
    manifest = make_corpus(tmp_path, 10)
    records = load_manifest(manifest)
    a = make_splits(records, "canonical", seed=1)
    b = make_splits(list(reversed(records)), "canonical", seed=1)
    assert [s.test_ids for s in a] == [s.test_ids for s in b]


def test_make_splits_too_few_videos(tmp_path):
    manifest = make_corpus(tmp_path, 4)
    records = load_manifest(manifest)
    with pytest.raises(DatasetError, match="at least 5"):
        make_splits(records, "canonical", seed=0)


def mixed_corpus(tmp_path):
    entries = []
    for i in range(6):
        add_video(tmp_path, entries, f"t-{i}", seed=i, source="summe-like")
    for i in range(3):
        add_video(tmp_path, entries, f"x-{i}", seed=100 + i, source="tvsum-like")
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, entries)
    return load_manifest(manifest)


def test_make_splits_augmented_adds_aux_to_train_only(tmp_path):
    records = mixed_corpus(tmp_path)
    splits = make_splits(records, "augmented", seed=0, target="summe-like")
    aux = {"x-0", "x-1", "x-2"}
    for split in splits:
        assert aux <= set(split.train_ids)
        assert not aux & set(split.test_ids)
        assert all(v.startswith("t-") for v in split.test_ids)


def test_make_splits_transfer_single_fold(tmp_path):
    records = mixed_corpus(tmp_path)
    splits = make_splits(records, "transfer", seed=0, target="summe-like")
    assert len(splits) == 1
    assert set(splits[0].train_ids) == {"x-0", "x-1", "x-2"}
    assert set(splits[0].test_ids) == {f"t-{i}" for i in range(6)}
    targets_only = [r for r in records if r.source_dataset is SourceDataset.SUMME_LIKE]
    with pytest.raises(DatasetError, match="transfer setting needs auxiliary records"):
        make_splits(targets_only, "transfer", seed=0, target="summe-like")


def test_make_splits_requires_target_when_mixed(tmp_path):
    records = mixed_corpus(tmp_path)
    with pytest.raises(DatasetError, match="pass target="):
        make_splits(records, "canonical", seed=0)


def test_make_splits_canonical_matches_augmented_tests(tmp_path):
    records = mixed_corpus(tmp_path)
    can = make_splits(records, "canonical", seed=2, target="summe-like")
    aug = make_splits(records, "augmented", seed=2, target="summe-like")
    assert [s.test_ids for s in can] == [s.test_ids for s in aug]


def test_make_splits_rejects_unknown_names(tmp_path):
    manifest = make_corpus(tmp_path, 5)
    records = load_manifest(manifest)
    with pytest.raises(DatasetError, match="unknown setting"):
        make_splits(records, "tenfold", seed=0)
    with pytest.raises(DatasetError, match="unknown target"):
        make_splits(records, "canonical", seed=0, target="imagenet")
    with pytest.raises(DatasetError, match="no records"):
        make_splits(records, "canonical", seed=0, target="summe-like")
