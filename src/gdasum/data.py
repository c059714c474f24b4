"""Dataset loading: JSON manifests, raw feature files, cross-validation splits.

A corpus is a JSON manifest listing videos; each video names a raw
feature file (headerless little-endian float32, row-major N x D) and
carries optional annotations: keyframe labels, per-user summaries as
frame intervals, and precomputed shot boundaries.  Paths inside a manifest are relative to its location.
"""

from __future__ import annotations

import enum
import json
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_DTYPE = np.dtype("<f4")


class DatasetError(ValueError):
    """Manifest or feature-file contents violate the format contract."""


class SourceDataset(enum.Enum):
    SUMME_LIKE = "summe-like"
    TVSUM_LIKE = "tvsum-like"
    OTHER = "other"


class SplitSetting(enum.Enum):
    CANONICAL = "canonical"
    AUGMENTED = "augmented"
    TRANSFER = "transfer"


@dataclass(frozen=True)
class FrameFeatures:
    """An (N, D) float32 feature matrix, one row per frame."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DatasetError("features must form a nonempty (N, D) matrix")
        if m.dtype != FEATURE_DTYPE:
            raise DatasetError(f"features must have dtype {FEATURE_DTYPE}")
        if not np.all(np.isfinite(m)):
            raise DatasetError("features contain non-finite values")

    @property
    def n_frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Annotations:
    """Optional ground truth attached to one video.

    user_summaries holds one interval list per annotator; each interval
    is a half-open [start, end) frame range.  change_points are interior
    shot boundaries in (0, N).
    """

    keyframe_labels: np.ndarray | None = None
    user_summaries: tuple[tuple[tuple[int, int], ...], ...] | None = None
    change_points: tuple[int, ...] | None = None


@dataclass(frozen=True)
class VideoRecord:
    id: str
    features: FrameFeatures
    annotations: Annotations
    source_dataset: SourceDataset = SourceDataset.OTHER


@dataclass(frozen=True)
class SplitSpec:
    fold_index: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        if set(self.train_ids) & set(self.test_ids):
            raise DatasetError("train and test ids overlap")


def write_features(path, matrix: np.ndarray) -> None:
    """Write an (N, D) array as headerless little-endian float32 bytes."""
    arr = np.ascontiguousarray(matrix, dtype=FEATURE_DTYPE)
    if arr.ndim != 2:
        raise DatasetError("feature matrix must be 2-D")
    Path(path).write_bytes(arr.tobytes())


def read_features(path, n_frames: int, dim: int) -> FrameFeatures:
    """Read a raw feature file, checking the exact expected byte length."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"feature file not found: {path}")
    raw = path.read_bytes()
    expected = n_frames * dim * FEATURE_DTYPE.itemsize
    if len(raw) != expected:
        raise DatasetError(
            f"{path}: {len(raw)} bytes, expected {expected} for {n_frames}x{dim} float32"
        )
    matrix = np.frombuffer(raw, dtype=FEATURE_DTYPE).reshape(n_frames, dim)
    return FrameFeatures(matrix=matrix)


def intervals_to_mask(intervals, n_frames: int) -> np.ndarray:
    """Rasterize [start, end) intervals into a 0/1 frame mask."""
    mask = np.zeros(n_frames, dtype=np.int8)
    for start, end in intervals:
        if not (0 <= start < end <= n_frames):
            raise DatasetError(f"interval [{start}, {end}) outside [0, {n_frames})")
        mask[start:end] = 1
    return mask


def _json_int(value, video_id: str, key: str) -> int:
    """``value`` if JSON gave an integer; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise DatasetError(f"video {video_id!r}: {key} takes JSON integers, got {value!r}")
    return value


def _json_ints(values, video_id: str, key: str) -> list[int]:
    if not isinstance(values, list):
        raise DatasetError(f"video {video_id!r}: {key} must be a list")
    return [_json_int(v, video_id, key) for v in values]


def _parse_annotations(obj, video_id: str, n_frames: int) -> Annotations:
    """A video's annotations, each key checked for type, nesting, length and range."""

    def refuse(key: str, problem: str):
        raise DatasetError(f"video {video_id!r}: {key} {problem}")

    if not isinstance(obj, dict):
        refuse("annotations", f"must be a JSON object, got {obj!r}")
    unknown = set(obj) - {"keyframe_labels", "user_summaries", "change_points"}
    if unknown:
        raise DatasetError(f"video {video_id!r}: unknown annotation keys {sorted(unknown)}")

    labels = obj.get("keyframe_labels")
    if labels is not None:
        labels = _json_ints(labels, video_id, "keyframe_labels")
        if len(labels) != n_frames:
            refuse("keyframe_labels", f"has {len(labels)} entries for {n_frames} frames")
        # checked before the int8 cast, which would overflow or wrap
        if not set(labels) <= {0, 1}:
            refuse("keyframe_labels", "must be 0/1")
        labels = np.array(labels, dtype=np.int8)

    summaries = obj.get("user_summaries")
    if summaries is not None:
        if not isinstance(summaries, list) or not all(isinstance(u, list) for u in summaries):
            refuse("user_summaries", "must be a list holding one interval list per user")
        parsed = []
        for user in summaries:
            prev_end = 0
            for interval in user:
                if not isinstance(interval, list) or len(interval) != 2:
                    refuse("user_summaries", f"intervals are [start, end] pairs, not {interval!r}")
                start, end = _json_ints(interval, video_id, "user_summaries")
                if not 0 <= start < end <= n_frames:
                    refuse("user_summaries", f"interval [{start}, {end}) outside [0, {n_frames})")
                if start < prev_end:
                    refuse("user_summaries", "intervals overlap or are unsorted")
                prev_end = end
            parsed.append(tuple(tuple(interval) for interval in user))
        summaries = tuple(parsed)

    cps = obj.get("change_points")
    if cps is not None:
        cps = _json_ints(cps, video_id, "change_points")
        if cps != sorted(set(cps)) or (cps and not (0 < cps[0] and cps[-1] < n_frames)):
            refuse("change_points", f"must be strictly increasing in (0, {n_frames})")
        cps = tuple(cps)
    return Annotations(
        keyframe_labels=labels,
        user_summaries=summaries,
        change_points=cps,
    )


def load_manifest(path) -> list[VideoRecord]:
    """Load every video record named by a manifest, validating all invariants."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("videos"), list):
        raise DatasetError('manifest must be an object with a "videos" list')

    records = []
    seen = set()
    base = path.parent
    for i, entry in enumerate(doc["videos"]):
        if not isinstance(entry, dict):
            raise DatasetError(f"videos[{i}] must be a JSON object, got {entry!r}")
        try:
            vid = entry["id"]
            n_frames = _json_int(entry["n_frames"], vid, "n_frames")
            dim = _json_int(entry["dim"], vid, "dim")
            features_file = entry["features_file"]
        except KeyError as exc:
            raise DatasetError(f"video entry missing required key {exc}") from exc
        for key, value in (("id", vid), ("features_file", features_file)):
            if not isinstance(value, str):
                raise DatasetError(f"videos[{i}]: {key} must be a JSON string, got {value!r}")
        # commands name their output files after the id
        if vid in ("", ".", "..") or "/" in vid or "\0" in vid:
            raise DatasetError(f"videos[{i}]: id {vid!r} cannot name a file")
        if vid in seen:
            raise DatasetError(f"duplicate video id {vid!r}")
        seen.add(vid)
        if n_frames < 1 or dim < 1:
            raise DatasetError(f"video {vid!r}: n_frames and dim must be positive")
        if n_frames < 2:
            warnings.warn(f"video {vid!r} has fewer than 2 frames", stacklevel=2)
        source_raw = entry.get("source_dataset", "other")
        try:
            source = SourceDataset(str(source_raw).lower())
        except ValueError as exc:
            raise DatasetError(
                f"video {vid!r}: unknown source_dataset {source_raw!r}"
            ) from exc
        features = read_features(base / features_file, n_frames, dim)
        annotations = _parse_annotations(entry.get("annotations", {}), vid, n_frames)
        records.append(
            VideoRecord(
                id=vid,
                features=features,
                annotations=annotations,
                source_dataset=source,
            )
        )
    return records


def write_manifest(path, entries: list[dict]) -> None:
    """Write a manifest document from prebuilt video entry dicts."""
    Path(path).write_text(json.dumps({"videos": entries}, indent=2) + "\n")


def _infer_target(records: list[VideoRecord]) -> SourceDataset:
    sources = {r.source_dataset for r in records}
    if len(sources) == 1:
        return next(iter(sources))
    raise DatasetError(
        "multiple source datasets present; pass target= to name the one under test"
    )


def majority_source(records: list[VideoRecord]) -> SourceDataset:
    """The most common source dataset; ties go to the larger enum value."""
    counts = Counter(r.source_dataset for r in records)
    return max(counts, key=lambda s: (counts[s], s.value))


def make_splits(
    records: list[VideoRecord],
    setting: SplitSetting | str,
    seed: int,
    target: SourceDataset | str | None = None,
) -> list[SplitSpec]:
    """Five cross-validation folds (or one transfer split) over a corpus.

    The target dataset is the group of records sharing ``target``'s
    source_dataset value (inferred when the corpus has only one).
    canonical: train and test both within the target, 80/20 per fold.
    augmented: canonical folds with every auxiliary record added to train.
    transfer: one split training on all auxiliary records and testing on
    the whole target.  Folds are a pure function of (ids, setting, seed):
    target ids are sorted, shuffled by a seeded PRNG, and cut into five
    contiguous test blocks whose sizes differ by at most one.
    """
    if isinstance(setting, str):
        try:
            setting = SplitSetting(setting)
        except ValueError as exc:
            raise DatasetError(f"unknown setting {setting!r}") from exc
    if target is None:
        target = _infer_target(records)
    elif isinstance(target, str):
        try:
            target = SourceDataset(target.lower())
        except ValueError as exc:
            raise DatasetError(f"unknown target dataset {target!r}") from exc

    target_ids = sorted(r.id for r in records if r.source_dataset is target)
    aux_ids = sorted(r.id for r in records if r.source_dataset is not target)
    if not target_ids:
        raise DatasetError(f"no records belong to target dataset {target.value!r}")

    if setting is SplitSetting.TRANSFER:
        if not aux_ids:
            raise DatasetError("transfer setting needs auxiliary records to train on")
        return [
            SplitSpec(
                fold_index=0,
                train_ids=tuple(aux_ids),
                test_ids=tuple(target_ids),
            )
        ]

    n = len(target_ids)
    if n < 5:
        raise DatasetError(f"need at least 5 target videos for 5 folds, got {n}")
    order = [target_ids[i] for i in np.random.default_rng(seed).permutation(n)]
    base, extra = divmod(n, 5)
    splits = []
    pos = 0
    for fold in range(5):
        size = base + (1 if fold < extra else 0)
        test = order[pos : pos + size]
        pos += size
        held_out = set(test)
        train = [v for v in order if v not in held_out]
        if setting is SplitSetting.AUGMENTED:
            train = train + aux_ids
        splits.append(
            SplitSpec(
                fold_index=fold,
                train_ids=tuple(train),
                test_ids=tuple(test),
            )
        )
    return splits
