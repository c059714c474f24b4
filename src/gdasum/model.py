"""Diverse-attention frame scoring network.

Maps a sequence of per-frame feature vectors to per-frame importance
scores in (0, 1) and per-frame embedding vectors.  The pipeline is:
pairwise attention -> column softmax -> per-frame diversity weights
(products of one minus attention, computed in log space) -> weighted
context -> feed-forward layer with dropout and layer norm -> a
two-layer score-regression head and a linear embedding head.

Everything is plain float64 numpy; there is no positional encoding, so
the whole evaluation-mode pass is equivariant under frame permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

LAYERNORM_EPS = 1e-5

# Fields holding weight matrices: Xavier-initialized and subject to L2 decay.
WEIGHT_FIELDS = ("w_q", "w_k", "w_v", "ff_w", "reg_w1", "reg_w2", "emb_w")


@dataclass
class HyperParams:
    """Architecture and regularization knobs.

    ``hidden`` is the width of the regression head's first layer,
    ``embed`` the width of the embedding head.  ``alpha_clip`` bounds
    attention weights away from 0 and 1 before taking log(1 - alpha).
    """

    hidden: int = 1024
    embed: int = 256
    dropout_rate: float = 0.6
    weight_decay: float = 1e-5
    beta: float = 1.0
    alpha_clip: float = 1e-7

    def __post_init__(self):
        if self.hidden < 1 or self.embed < 1:
            raise ValueError("hidden and embed widths must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.alpha_clip < 0.5:
            raise ValueError("alpha_clip must lie in (0, 0.5)")


@dataclass
class ModelParams:
    """All learnable tensors.

    Field order is the canonical serialization order; the same container
    is reused for gradients and optimizer moments.  Shapes, with D the
    feature dim, H the hidden width and E the embedding width:

    w_q, w_k, w_v : (D, D)   attention / value projections
    ff_w, ff_b    : (D, D), (D,)   feed-forward layer
    ln1_*         : (D,)     feed-forward layer norm
    reg_w1, reg_b1: (H, D), (H,)   first regression layer
    ln2_*         : (H,)     regression-head layer norm
    reg_w2, reg_b2: (1, H), (1,)   final score layer
    emb_w, emb_b  : (E, D), (E,)   linear embedding head
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    ff_w: np.ndarray
    ff_b: np.ndarray
    ln1_scale: np.ndarray
    ln1_offset: np.ndarray
    reg_w1: np.ndarray
    reg_b1: np.ndarray
    ln2_scale: np.ndarray
    ln2_offset: np.ndarray
    reg_w2: np.ndarray
    reg_b2: np.ndarray
    emb_w: np.ndarray
    emb_b: np.ndarray

    @staticmethod
    def shapes(d: int, h: int, e: int) -> dict[str, tuple[int, ...]]:
        """Every field's shape, in field order, for given D, H and E."""
        return {
            "w_q": (d, d),
            "w_k": (d, d),
            "w_v": (d, d),
            "ff_w": (d, d),
            "ff_b": (d,),
            "ln1_scale": (d,),
            "ln1_offset": (d,),
            "reg_w1": (h, d),
            "reg_b1": (h,),
            "ln2_scale": (h,),
            "ln2_offset": (h,),
            "reg_w2": (1, h),
            "reg_b2": (1,),
            "emb_w": (e, d),
            "emb_b": (e,),
        }

    @property
    def dims(self) -> tuple[int, int, int]:
        """(feature dim D, hidden width H, embedding width E)."""
        return self.w_q.shape[1], self.reg_w1.shape[0], self.emb_w.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "ModelParams":
        return ModelParams(*[a.copy() for a in self.arrays()])

    def zeros_like(self) -> "ModelParams":
        return ModelParams(*[np.zeros_like(a) for a in self.arrays()])

    def check_finite(self):
        for name, a in self.items():
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in parameter {name!r}")


def init_params(feature_dim: int, hyper: HyperParams, seed: int) -> ModelParams:
    """Xavier-uniform weights, zero biases, identity layer norms.

    Each weight matrix of shape (fan_out, fan_in) is drawn i.i.d. from
    uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)); deterministic
    for a given seed.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    rng = np.random.default_rng(seed)
    arrays = {}
    # weights are drawn in field order, which fixes the stream for a seed
    for name, shape in ModelParams.shapes(feature_dim, hyper.hidden, hyper.embed).items():
        if name in WEIGHT_FIELDS:
            fan_out, fan_in = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            arrays[name] = rng.uniform(-a, a, size=shape)
        elif name in ("ln1_scale", "ln2_scale"):
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return ModelParams(**arrays)


@dataclass
class ForwardTrace:
    """Everything one forward pass produced.

    Public outputs: ``attention`` (A, N x N), ``alpha`` (column-stochastic
    weights), ``d`` (diversity weights on the simplex), ``context``
    (N x D), ``phi`` (N x E embeddings) and ``y`` (scores in (0, 1)).
    The remaining tensors are cached intermediates consumed by the
    backward pass; the dropout masks are None in eval mode, where
    dropout is the identity.
    """

    attention: np.ndarray
    alpha: np.ndarray
    d: np.ndarray
    context: np.ndarray
    phi: np.ndarray
    y: np.ndarray
    # cached intermediates
    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    ff_mask: np.ndarray | None
    ln1_xhat: np.ndarray
    ln1_inv_std: np.ndarray
    ff_out: np.ndarray
    head_pre: np.ndarray
    ln2_xhat: np.ndarray
    ln2_inv_std: np.ndarray
    head_mask: np.ndarray | None
    head_drop: np.ndarray


def normalize_attention(a: np.ndarray) -> np.ndarray:
    """Column-wise softmax: alpha[i, j] = exp(A[i, j]) / sum_r exp(A[r, j]).

    Stabilized by subtracting each column's max, so every column sums
    to one for arbitrary finite input.
    """
    a = np.asarray(a, dtype=np.float64)
    shifted = a - a.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def diversity_weights(alpha: np.ndarray, eps: float) -> np.ndarray:
    """Normalized per-frame dissimilarity d.

    Raw weights are row products d_hat[i] = prod_j (1 - alpha[i, j]),
    normalized to sum to one.  The product is taken in log space (the
    direct product of N factors below one underflows for long videos)
    and alpha is clipped into [eps, 1 - eps] first so a weight of
    exactly one cannot zero out a row; for N = 1 this forces d = [1].
    ``forward`` passes ``HyperParams.alpha_clip`` as eps.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[0] == 0:
        raise ValueError("alpha must be a nonempty square matrix")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    clipped = np.clip(alpha, eps, 1.0 - eps)
    log_dhat = np.log1p(-clipped).sum(axis=1)
    shifted = log_dhat - log_dhat.max()
    e = np.exp(shifted)
    return e / e.sum()


def _layernorm(x: np.ndarray, scale: np.ndarray, offset: np.ndarray):
    """Per-row layer norm; returns (out, xhat, inv_std) for the backward pass."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (x - mu) * inv_std[:, None]
    return scale * xhat + offset, xhat, inv_std


def layernorm_backward(dout, xhat, inv_std, scale):
    """Gradients of per-row layer norm: returns (dx, dscale, doffset)."""
    dscale = (dout * xhat).sum(axis=0)
    doffset = dout.sum(axis=0)
    dxhat = dout * scale
    dx = inv_std[:, None] * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dscale, doffset


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    # inverted scaling: kept units divided by keep prob, eval needs no rescale
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def forward(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardTrace:
    """Run the full scoring network on an (N, D) feature matrix.

    In ``train`` mode dropout masks are sampled from ``rng`` (or taken
    from ``masks``, which is how gradient checks freeze them); in
    ``eval`` mode dropout is the identity.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    d_feat, h, _ = params.dims
    if x.ndim != 2 or x.shape[1] != d_feat:
        raise ValueError(
            f"feature matrix has shape {x.shape}, expected (N, {d_feat})"
        )

    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    q_proj = x @ params.w_q.T
    k_proj = x @ params.w_k.T
    a = (q_proj @ k_proj.T) / np.sqrt(d_feat)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("attention matrix overflowed; check input scale")
    alpha = normalize_attention(a)
    d = diversity_weights(alpha, hyper.alpha_clip)

    v = x @ params.w_v.T
    context = d[:, None] * v

    n = x.shape[0]
    ff_mask = head_mask = None
    if mode == "train":
        if masks is not None:
            ff_mask, head_mask = masks
        else:
            if rng is None:
                raise ValueError("train mode needs an rng (or explicit masks)")
            ff_mask = _dropout_mask((n, d_feat), hyper.dropout_rate, rng)
            head_mask = _dropout_mask((n, h), hyper.dropout_rate, rng)

    z1 = context @ params.ff_w.T + params.ff_b
    if ff_mask is not None:
        z1 *= ff_mask
    ff_out, ln1_xhat, ln1_inv_std = _layernorm(
        z1, params.ln1_scale, params.ln1_offset
    )

    head_pre = ff_out @ params.reg_w1.T + params.reg_b1
    relu = np.maximum(head_pre, 0.0)
    ln2_out, ln2_xhat, ln2_inv_std = _layernorm(
        relu, params.ln2_scale, params.ln2_offset
    )
    head_drop = ln2_out if head_mask is None else ln2_out * head_mask
    logits = head_drop @ params.reg_w2.T + params.reg_b2
    y = sigmoid(logits[:, 0])

    phi = ff_out @ params.emb_w.T + params.emb_b

    return ForwardTrace(
        attention=a,
        alpha=alpha,
        d=d,
        context=context,
        phi=phi,
        y=y,
        q_proj=q_proj,
        k_proj=k_proj,
        v_proj=v,
        ff_mask=ff_mask,
        ln1_xhat=ln1_xhat,
        ln1_inv_std=ln1_inv_std,
        ff_out=ff_out,
        head_pre=head_pre,
        ln2_xhat=ln2_xhat,
        ln2_inv_std=ln2_inv_std,
        head_mask=head_mask,
        head_drop=head_drop,
    )
