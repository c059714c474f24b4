"""Video summarization by globally diverse attention.

A numpy-only pipeline: per-frame features are scored by an attention
model whose diversity weights measure how much each frame differs from
the whole video; scores feed a shot-level knapsack selection over a
change-point segmentation, and summaries are evaluated by F-score and a
shot-diversity metric.  Training (supervised, unsupervised, or mixed)
uses hand-derived analytic gradients, verified against finite
differences.
"""

from .data import (
    Annotations,
    DatasetError,
    FrameFeatures,
    SourceDataset,
    SplitSetting,
    SplitSpec,
    VideoRecord,
    intervals_to_mask,
    load_manifest,
    make_splits,
    read_features,
    write_features,
    write_manifest,
)
from .kts import (
    SegmentCostTable,
    Shot,
    kts_changepoints,
    segment_penalty,
    shots_from_changepoints,
)
from .losses import (
    LossBreakdown,
    NumericalError,
    backward,
    dpp_log_prob,
    finite_diff_grad,
    gradient_report,
    keyframe_loss,
    length_loss,
    loss_and_grad,
    repelling_loss,
    total_loss,
)
from .metrics import (
    EvalProtocol,
    diversity_zeta,
    fscore,
    video_fscore,
)
from .model import (
    ForwardTrace,
    HyperParams,
    ModelParams,
    forward,
    init_params,
    score_frames,
)
from .summarize import (
    generate_summary,
    knapsack_select,
    shot_scores,
    summary_from_scores,
)
from .synthetic import PlantedSpec, make_planted_dataset, write_planted_corpus
from .train import (
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainMode,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Annotations",
    "CheckpointError",
    "DatasetError",
    "EvalProtocol",
    "ForwardTrace",
    "FrameFeatures",
    "HyperParams",
    "LossBreakdown",
    "ModelParams",
    "NumericalError",
    "PlantedSpec",
    "SegmentCostTable",
    "Shot",
    "SourceDataset",
    "SplitSetting",
    "SplitSpec",
    "TrainConfig",
    "TrainMode",
    "VideoRecord",
    "adam_step",
    "backward",
    "diversity_zeta",
    "dpp_log_prob",
    "finite_diff_grad",
    "forward",
    "fscore",
    "generate_summary",
    "gradient_report",
    "init_params",
    "intervals_to_mask",
    "keyframe_loss",
    "knapsack_select",
    "kts_changepoints",
    "length_loss",
    "load_checkpoint",
    "load_manifest",
    "loss_and_grad",
    "make_planted_dataset",
    "make_splits",
    "read_features",
    "repelling_loss",
    "save_checkpoint",
    "score_frames",
    "segment_penalty",
    "shot_scores",
    "shots_from_changepoints",
    "summary_from_scores",
    "total_loss",
    "video_fscore",
    "write_features",
    "write_manifest",
    "write_planted_corpus",
]
