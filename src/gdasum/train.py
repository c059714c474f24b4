"""Training loop: per-video Adam updates in three supervision modes.

Each epoch visits every training video once in a freshly shuffled order
(seeded, so runs are bit-reproducible) and applies one
forward/loss-and-gradient/update step per video.  Semi-supervised
training interleaves labeled videos (scored + variation loss) and
unlabeled videos (length + repelling loss) in the same stream.
Gradients are clipped by global norm before each update to guard the
log-det term; each epoch record reports that norm before clipping.

A training step runs in one dtype: ``train`` casts the initial
parameters to float32 once, and ``forward``, the reverse pass, the
gradient and the Adam moments are all float32, with no second copy of
the parameters.  The loss terms and the gradient norm are float64, and
``train`` returns the parameters upcast to float64, exactly, as the
checkpoint stores them.
"""

from __future__ import annotations

import enum
import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .data import SourceDataset, SplitSpec, VideoRecord, majority_source
from .losses import (
    DEFAULT_SIGMA,
    DEFAULT_VARIATION_WEIGHT,
    LossBreakdown,
    NumericalError,
    loss_and_grad,
)
from .model import (
    ADAM_BLOCK, WEIGHT_FIELDS, HyperParams, ModelParams, forward, init_params, sum_of_squares
)

CHECKPOINT_FORMAT = "gdasum-checkpoint"
# version 2: the merged w_att and w_ctx replace version 1's w_q, w_k, w_v and ff_w
CHECKPOINT_VERSION = 2
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
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    grad_clip: float = 5.0  # global gradient-norm bound; 0 turns clipping off
    # 0 drops the DPP term: the keyframe-only ablation
    variation_weight: float = DEFAULT_VARIATION_WEIGHT

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = TrainMode(self.mode)
        for name in ("epochs", "seed"):  # exact ints: range and SeedSequence need them
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.learning_rate is not None and not (
            math.isfinite(self.learning_rate) and self.learning_rate > 0
        ):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.variation_weight) and self.variation_weight >= 0):
            raise ValueError("variation_weight must be nonnegative and finite")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not self.grad_clip >= 0.0:  # also refuses NaN
            raise ValueError("grad_clip must be nonnegative (0 disables clipping)")


@dataclass
class AdamState:
    """Moment estimates shaped like the parameters, steps taken, last pre-clip gradient norm."""

    m: ModelParams
    v: ModelParams
    t: int = 0
    grad_norm: float = 0.0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), t=0)


def resolve_learning_rate(config: TrainConfig, test_records: list[VideoRecord]) -> float:
    """Configured rate, or the default for the test set's majority source."""
    if config.learning_rate is not None:
        return config.learning_rate
    if not test_records:
        return DEFAULT_LEARNING_RATES[SourceDataset.OTHER]
    return DEFAULT_LEARNING_RATES[majority_source(test_records)]


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    max_norm: float = math.inf,
    weight_decay: float = 0.0,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update with decoupled weight decay, in place; returns both.

    ``grads``, ``params`` and the moments share one dtype, and all but
    ``grads`` must be C-contiguous.  The joint norm of ``grads`` (kept as
    ``state.grad_norm``) is summed in float64.  A NaN, an inf, an
    overflowing norm, or a norm after clipping whose square overflows the
    moments' dtype (above about 1.8e19 in float32, where one squared entry
    could make v infinite and freeze its weight) raises ``NumericalError``
    before anything is written.  The clip c = min(1, max_norm/norm) and the
    bias corrections bc1, bc2 are folded into per-step scalars (Kingma and
    Ba, "Adam", 2015, sec. 2): m <- beta1 m + (1 - beta1) c g,
    v <- beta2 v + (sqrt(1 - beta2) c g)^2 and
    theta <- theta - lr sqrt(bc2)/bc1 m / (sqrt(v) + eps sqrt(bc2)).  g is
    scaled before it is squared, so a clipped float32 entry cannot overflow
    v.  The WEIGHT_FIELDS also decay, outside the moments and the clip
    (Loshchilov and Hutter, "Decoupled Weight Decay Regularization", 2019):
    their step gains 2 lr weight_decay theta, the step plain gradient
    descent takes on weight_decay ||theta||^2.  Each field is updated in
    blocks of ADAM_BLOCK elements through one scratch block, and a nonzero
    weight_decay takes one more; every operation is elementwise, so the
    result is the same bit for bit as whole-field passes.
    """
    arrays = {}  # name -> (gradient, parameter, moments)
    for name, theta in params.items():
        written = (theta, getattr(state.m, name), getattr(state.v, name))
        if not all(arr.flags.c_contiguous for arr in written):
            raise ValueError(f"adam_step: field {name!r} is not C-contiguous")
        arrays[name] = (getattr(grads, name), *written)
        if any(arr.dtype != theta.dtype for arr in arrays[name]):
            raise ValueError(f"adam_step: field {name!r} mixes dtypes")
    norm = _gradient_norm(grads.items())
    if min(norm, max_norm) > math.sqrt(np.finfo(params.dtype).max):
        raise NumericalError(f"gradient norm {norm:.3g} overflows {params.dtype} moments")
    c = max_norm / norm if norm > max_norm else 1.0
    state.t += 1
    state.grad_norm = norm
    k1, k2 = (1.0 - ADAM_BETA1) * c, math.sqrt(1.0 - ADAM_BETA2) * c
    root_bc2 = math.sqrt(1.0 - ADAM_BETA2**state.t)
    rate, eps_hat = lr * root_bc2 / (1.0 - ADAM_BETA1**state.t), ADAM_EPS * root_bc2
    decay = 2.0 * lr * weight_decay
    size = min(ADAM_BLOCK, max(theta.size for theta in params.arrays()))
    buf = np.empty(size, params.dtype)
    shrink = np.empty(size, params.dtype) if decay else None
    for name, field in arrays.items():
        c_decay = decay if name in WEIGHT_FIELDS else 0.0
        # reshape(-1) of a C-contiguous array is a view, so blocks write through
        flat = [arr.reshape(-1) for arr in field]
        for start in range(0, flat[1].size, ADAM_BLOCK):
            g, th, m, v = (arr[start : start + ADAM_BLOCK] for arr in flat)
            a = buf[: th.size]
            m *= ADAM_BETA1
            m += np.multiply(g, k1, out=a)
            v *= ADAM_BETA2
            v += np.square(np.multiply(g, k2, out=a), out=a)
            np.add(np.sqrt(v, out=a), eps_hat, out=a)
            np.multiply(np.divide(m, a, out=a), rate, out=a)
            if c_decay:
                a += np.multiply(th, c_decay, out=shrink[: th.size])
            th -= a
    return params, state


def _gradient_norm(named_fields) -> float:
    """Joint L2 norm of (name, gradient) pairs; NaN or inf would poison clipping."""
    try:
        total_sq = sum_of_squares(named_fields)
    except ValueError as exc:
        raise NumericalError(f"gradient: {exc}") from exc
    if not math.isfinite(total_sq):
        raise NumericalError("gradient norm overflowed")
    return float(np.sqrt(total_sq))


def clip_gradients(grads: ModelParams, max_norm: float) -> tuple[ModelParams, float]:
    """Scale ``grads`` in place so their joint L2 norm is at most max_norm.

    Returns ``grads`` itself and its norm before clipping, taken as
    ``adam_step`` takes it; a NaN, inf or overflowing norm is refused
    before any scaling.
    """
    norm = _gradient_norm(grads.items())
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.arrays():
            g *= scale
    return grads, norm


def _video_mode(config_mode: TrainMode, record: VideoRecord) -> str:
    if config_mode is not TrainMode.SEMI:
        return config_mode.value
    return "unsupervised" if record.annotations.keyframe_labels is None else "supervised"


def _minor_faults() -> int | None:
    """This process's minor page faults so far; None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def train(
    records: list[VideoRecord],
    split: SplitSpec,
    config: TrainConfig,
    hyper: HyperParams,
    on_record: Callable[[dict], None] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Run the full training loop on one split.

    Returns the final parameters, upcast to float64, and one record per
    epoch, the JSON object each line of the training report holds: the
    mean loss terms, wall time, the seconds spent in the forward pass, in
    ``loss_and_grad`` and in ``adam_step`` (clipping, Adam and the weight
    decay), the minor page faults the process took in the
    epoch (null without the ``resource`` module), the median and max
    global gradient norm before clipping, and the share of steps that
    were clipped.  ``on_record``, if given, receives each epoch's record
    as the epoch ends; when a step raises ``NumericalError`` it receives
    one last record, ``{"error", "video", "epoch"}``, before the error
    propagates with the video and epoch in its message.
    """
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
    if 2.0 * lr * hyper.weight_decay >= 1.0:
        raise ValueError(
            f"weight_decay {hyper.weight_decay:g} at learning rate {lr:g} gives "
            f"2 * lr * weight_decay = {2.0 * lr * hyper.weight_decay:g} >= 1: "
            "one step would flip or zero every weight"
        )

    rng = np.random.default_rng(config.seed)
    params = init_params(feature_dim, hyper, config.seed).astype(np.float32)
    state = AdamState.zeros(params)
    epochs = []
    clip = config.grad_clip or np.inf

    for epoch in range(config.epochs):
        started = time.perf_counter()
        faults = _minor_faults()
        order = rng.permutation(len(train_records))
        sums = np.zeros(len(fields(LossBreakdown)))
        norms = []
        stage_seconds = dict.fromkeys(("forward", "loss_and_grad", "optimizer"), 0.0)
        for idx in order:
            rec = train_records[idx]
            mode = _video_mode(config.mode, rec)
            x = rec.features.matrix
            try:
                t0 = time.perf_counter()
                # the step keeps only the dict of the trace's fields, which the
                # reverse pass empties: each activation is freed at its last read
                trace_fields = vars(forward(x, params, hyper, mode="train", rng=rng))
                t1 = time.perf_counter()
                breakdown, grads = loss_and_grad(
                    trace_fields,
                    x,
                    params,
                    hyper,
                    mode,
                    labels=rec.annotations.keyframe_labels,
                    sigma=config.sigma,
                    variation_weight=config.variation_weight,
                )
                t2 = time.perf_counter()
                adam_step(params, grads, state, lr, clip, hyper.weight_decay)
                del grads
                stage_seconds["forward"] += t1 - t0
                stage_seconds["loss_and_grad"] += t2 - t1
                stage_seconds["optimizer"] += time.perf_counter() - t2
            except NumericalError as err:
                if on_record is not None:
                    on_record({"error": str(err), "video": rec.id, "epoch": epoch})
                raise NumericalError(f"{err} on video {rec.id!r} at epoch {epoch}") from err
            norms.append(state.grad_norm)
            sums += astuple(breakdown)
        epochs.append({
            "epoch": epoch,
            "loss": asdict(LossBreakdown(*(sums / len(train_records)))),
            "wall_seconds": time.perf_counter() - started,
            "stage_seconds": stage_seconds,
            "minor_faults": None if faults is None else _minor_faults() - faults,
            "grad_norm": {"median": float(np.median(norms)), "max": max(norms)},
            "clipped_fraction": float(np.mean(np.array(norms) > clip)),
        })
        if on_record is not None:
            on_record(epochs[-1])
    del state  # its moments are freed before the float64 copy is made
    return params.astype(np.float64), epochs


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
    # serialized before the file is opened, so a bad header leaves no file
    head = json.dumps(header).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in params.arrays():
            np.ascontiguousarray(arr, dtype=CHECKPOINT_DTYPE).tofile(fh)


def _header_shapes(header: dict, hyper: HyperParams) -> dict:
    """The header's shape table, which must be the one D (from w_att) and hyper imply."""
    shapes = header.get("shapes")
    try:
        d = shapes["w_att"][1]
    except (TypeError, KeyError, IndexError):
        raise CheckpointError("header shape table has no two-axis w_att entry") from None
    if type(d) is not int or d < 0:
        raise CheckpointError(f"header shape table gives w_att an invalid D={d!r}")
    implied = ModelParams.shapes(d, hyper.hidden, hyper.embed)
    if shapes != {name: list(shape) for name, shape in implied.items()}:
        raise CheckpointError(
            f"header shape table is not the one D={d} (from w_att), "
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
    array.  Every ``CheckpointError``, a non-finite field's too, names the file.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
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
    except ValueError as exc:  # a CheckpointError, or a non-finite field
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    return params, hyper
