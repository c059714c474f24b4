"""Training loop: per-video Adam updates in three supervision modes.

Each epoch visits every training video once in a freshly shuffled order
(seeded, so runs are bit-reproducible) and applies one
forward/loss-and-gradient/update step per video.  Semi-supervised
training interleaves labeled videos (scored + variation loss) and
unlabeled videos (length + repelling loss) in the same stream.
Gradients are clipped by global norm before each update to guard the
log-det term; each epoch record reports that norm before clipping.
"""

from __future__ import annotations

import enum
import json
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import SourceDataset, SplitSpec, VideoRecord, majority_source
from .losses import LossBreakdown, NumericalError, loss_and_grad
from .model import HyperParams, ModelParams, forward, init_params

CHECKPOINT_FORMAT = "gdasum-checkpoint"
CHECKPOINT_VERSION = 1
# little-endian float64: the payload round-trips the parameters bit-exactly
CHECKPOINT_DTYPE = "<f8"
DEFAULT_LEARNING_RATES = {
    SourceDataset.SUMME_LIKE: 5e-5,
    SourceDataset.TVSUM_LIKE: 1e-4,
    SourceDataset.OTHER: 5e-4,
}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """Checkpoint file is unreadable, corrupt, or from another format version."""


class TrainMode(enum.Enum):
    SUPERVISED = "supervised"
    UNSUPERVISED = "unsupervised"
    SEMI = "semi"


@dataclass
class TrainConfig:
    mode: TrainMode = TrainMode.SUPERVISED
    epochs: int = 200
    learning_rate: float | None = None
    sigma: float = 0.3
    seed: int = 0
    grad_clip: float = 5.0  # global gradient-norm bound; 0 turns clipping off
    variation_weight: float = 1.0  # 0 drops the DPP term: the keyframe-only ablation

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = TrainMode(self.mode)
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not self.grad_clip >= 0.0:  # also refuses NaN
            raise ValueError("grad_clip must be nonnegative (0 disables clipping)")


@dataclass
class AdamState:
    """First and second moment estimates, shapes mirroring the parameters."""

    m: ModelParams
    v: ModelParams
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), t=0)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: LossBreakdown
    wall_seconds: float
    grad_norm_median: float  # global gradient norms before clipping
    grad_norm_max: float
    clipped_fraction: float  # share of the epoch's steps that were clipped

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "loss": asdict(self.mean_loss),
            "wall_seconds": self.wall_seconds,
            "grad_norm": {"median": self.grad_norm_median, "max": self.grad_norm_max},
            "clipped_fraction": self.clipped_fraction,
        }


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    checkpoint_path: str | None = None

    def to_json_lines(self) -> str:
        lines = [json.dumps(e.to_dict()) for e in self.epochs]
        if self.checkpoint_path is not None:
            lines.append(json.dumps({"checkpoint_path": self.checkpoint_path}))
        return "\n".join(lines) + ("\n" if lines else "")


def resolve_learning_rate(config: TrainConfig, test_records: list[VideoRecord]) -> float:
    """Configured rate, or the default for the test set's majority source."""
    if config.learning_rate is not None:
        return config.learning_rate
    if not test_records:
        return DEFAULT_LEARNING_RATES[SourceDataset.OTHER]
    return DEFAULT_LEARNING_RATES[majority_source(test_records)]


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of ``params`` and ``state`` in place.

    Uses β1 = ADAM_BETA1, β2 = ADAM_BETA2 and ε = ADAM_EPS, and returns
    the same two objects it was given.
    """
    try:
        grads.check_finite()
    except ValueError as exc:
        raise NumericalError(f"adam_step: {exc}") from exc
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, theta in params.items():
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def clip_gradients(grads: ModelParams, max_norm: float) -> tuple[ModelParams, float]:
    """Scale ``grads`` in place so their joint L2 norm is at most max_norm.

    Returns ``grads`` itself and its norm before clipping.
    """
    total_sq = sum(float((g * g).sum()) for g in grads.arrays())
    norm = float(np.sqrt(total_sq))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    for g in grads.arrays():
        g *= scale
    return grads, norm


def _video_mode(config_mode: TrainMode, record: VideoRecord) -> str:
    if config_mode is TrainMode.SUPERVISED:
        return "supervised"
    if config_mode is TrainMode.UNSUPERVISED:
        return "unsupervised"
    return (
        "supervised"
        if record.annotations.keyframe_labels is not None
        else "unsupervised"
    )


def train(
    records: list[VideoRecord],
    split: SplitSpec,
    config: TrainConfig,
    hyper: HyperParams,
) -> tuple[ModelParams, TrainReport]:
    """Run the full training loop on one split and return final parameters."""
    by_id = {r.id: r for r in records}
    missing = [vid for vid in split.train_ids if vid not in by_id]
    if missing:
        raise ValueError(f"split names unknown video ids: {missing}")
    train_records = [by_id[vid] for vid in split.train_ids]
    if not train_records:
        raise ValueError("split has no training videos")

    dims = {r.features.dim for r in train_records}
    if len(dims) != 1:
        raise ValueError(f"training videos disagree on feature dim: {sorted(dims)}")
    feature_dim = dims.pop()

    if config.mode is TrainMode.SUPERVISED:
        unlabeled = [
            r.id for r in train_records if r.annotations.keyframe_labels is None
        ]
        if unlabeled:
            raise ValueError(f"supervised mode needs keyframe labels; missing on {unlabeled}")
    if config.mode is TrainMode.SEMI and not any(
        r.annotations.keyframe_labels is not None for r in train_records
    ):
        raise ValueError("semi mode needs at least one labeled training video")

    test_records = [by_id[vid] for vid in split.test_ids if vid in by_id]
    lr = resolve_learning_rate(config, test_records)

    rng = np.random.default_rng(config.seed)
    params = init_params(feature_dim, hyper, config.seed)
    state = AdamState.zeros(params)
    report = TrainReport()
    clip = config.grad_clip or np.inf

    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(train_records))
        sums = np.zeros(len(fields(LossBreakdown)))
        norms = []
        for idx in order:
            rec = train_records[idx]
            mode = _video_mode(config.mode, rec)
            x = rec.features.matrix
            try:
                trace = forward(x, params, hyper, mode="train", rng=rng)
                breakdown, grads = loss_and_grad(
                    trace,
                    x,
                    params,
                    hyper,
                    mode,
                    labels=rec.annotations.keyframe_labels,
                    sigma=config.sigma,
                    variation_weight=config.variation_weight,
                )
                # free the activations before the next forward allocates its own
                del trace
                norm = clip_gradients(grads, clip)[1]
                adam_step(params, grads, state, lr)
            except NumericalError as err:
                raise NumericalError(f"{err} on video {rec.id!r} at epoch {epoch}") from err
            norms.append(norm)
            sums += astuple(breakdown)
        means = sums / len(train_records)
        mean_loss = LossBreakdown(*means)
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=mean_loss,
                wall_seconds=time.perf_counter() - started,
                grad_norm_median=float(np.median(norms)),
                grad_norm_max=max(norms),
                clipped_fraction=float(np.mean(np.array(norms) > clip)),
            )
        )
    return params, report


def save_checkpoint(
    params: ModelParams,
    path,
    hyper: HyperParams,
    extra_header: dict | None = None,
) -> None:
    """Write params as a one-line JSON header plus raw float64 payloads.

    The header records the format version, payload dtype, a name-to-shape
    table in payload order and the hyperparameters; callers may attach
    extra provenance fields.  The payload round-trips the in-memory
    values bit-exactly.  Each field is streamed to the open file, so no
    copy of the whole payload is ever built.
    """
    params.check_finite()
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": CHECKPOINT_DTYPE,
        "shapes": {name: list(arr.shape) for name, arr in params.items()},
    }
    if extra_header:
        reserved = set(header) | {"hyper"}
        clash = reserved & set(extra_header)
        if clash:
            raise CheckpointError(f"extra header fields clash with reserved keys: {sorted(clash)}")
        header.update(extra_header)
    header["hyper"] = asdict(hyper)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in params.arrays():
            np.ascontiguousarray(arr, dtype=CHECKPOINT_DTYPE).tofile(fh)


def _header_shapes(header: dict, hyper: HyperParams) -> dict:
    """The header's shape table, which must be the one D (from w_q) and hyper imply."""
    shapes = header.get("shapes")
    try:
        d = shapes["w_q"][1]
    except (TypeError, KeyError, IndexError):
        raise CheckpointError("header shape table has no two-axis w_q entry") from None
    if type(d) is not int or d < 0:
        raise CheckpointError(f"header shape table gives w_q an invalid D={d!r}")
    implied = ModelParams.shapes(d, hyper.hidden, hyper.embed)
    if shapes != {name: list(shape) for name, shape in implied.items()}:
        raise CheckpointError(
            f"header shape table is not the one D={d} (from w_q), "
            f"H={hyper.hidden} and E={hyper.embed} (from hyper) imply"
        )
    return shapes


def _header_hyper(header: dict) -> HyperParams:
    h = header.get("hyper")
    if h is None:
        raise CheckpointError("header has no hyperparameters ('hyper')")
    names = {f.name for f in fields(HyperParams)}
    if not isinstance(h, dict) or set(h) != names:
        raise CheckpointError(
            f"header hyperparameters must have exactly the keys {sorted(names)}"
        )
    try:
        return HyperParams(**h)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid hyperparameters: {exc}") from exc


def load_checkpoint(path) -> tuple[ModelParams, HyperParams]:
    """Read a checkpoint; returns (ModelParams, HyperParams).

    Every header field is checked before the payload is touched: the
    hyperparameters must be present and valid, the shape table must be
    the one D and the hyperparameters' H and E imply, and the payload
    size must match.  Each field is then read straight into its final
    array.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError("missing header line")
        try:
            header = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"format version {header.get('version')} != {CHECKPOINT_VERSION}"
            )
        if header.get("dtype") != CHECKPOINT_DTYPE:
            raise CheckpointError(f"unsupported payload dtype {header.get('dtype')!r}")
        hyper = _header_hyper(header)
        shapes = _header_shapes(header, hyper)

        payload_bytes = os.fstat(fh.fileno()).st_size - len(line)
        itemsize = np.dtype(CHECKPOINT_DTYPE).itemsize
        expected_bytes = sum(math.prod(shape) for shape in shapes.values()) * itemsize
        if payload_bytes != expected_bytes:
            raise CheckpointError(
                f"payload is {payload_bytes} bytes, header promises {expected_bytes}"
            )

        arrays = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            arr = np.fromfile(fh, dtype=CHECKPOINT_DTYPE, count=count)
            if arr.size != count:
                raise CheckpointError(f"payload ends inside field {name!r}")
            arrays[name] = arr.reshape(shape)
    params = ModelParams(**arrays)
    params.check_finite()
    return params, hyper
