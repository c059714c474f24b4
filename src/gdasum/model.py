"""Diverse-attention frame scoring network, forward and reverse.

Maps a sequence of per-frame feature vectors to per-frame importance
scores in (0, 1) and per-frame embedding vectors.  The pipeline is:
pairwise attention -> column softmax -> per-frame diversity weights
(products of one minus attention, computed in log space) -> weighted
context -> feed-forward layer with dropout and layer norm -> a
two-layer score-regression head and a linear embedding head.

The network computes in the dtype of the parameters it is given:
float64 parameters (a checkpoint, the gradient check) run every
product and elementwise step in float64, and float32 ones (the
trainer's) run them in float32, at about twice the matrix rate.
There is no positional encoding, so the whole evaluation-mode pass is
equivariant under frame permutation.

The network is written once, as one chain of operations.
``score_frames``, the scorer summaries use, runs it alone, and
``forward``, the training pass, runs it with a cache of what the
reverse pass reads and cannot form again and adds the embedding head.
Both hold one N x N array, the attention: 8 * N^2 + O(N * D) bytes.
``network_grad``, the reverse pass, carries a loss's gradients with
respect to the score logits z and phi back to every parameter.  It
forms the feed-forward and head outputs again from the cache, frees
each intermediate after its last read and works in place, adding one
N x N array, dA.  So a training step (``forward``, then
``losses.loss_and_grad``) peaks at about two N x N arrays (8 * N^2
bytes each) unsupervised and four supervised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LAYERNORM_EPS = 1e-5

# Fields holding weight matrices: Xavier-initialized and subject to L2 decay.
WEIGHT_FIELDS = ("w_q", "w_k", "w_v", "ff_w", "reg_w1", "reg_w2", "emb_w")
# Adam's update and sum_of_squares walk each field in blocks of this many
# elements: the five float32 blocks an update touches (parameter, gradient,
# two moments, one scratch buffer) take 5 x 128 KB, and the float64 block
# a float32 field's sum is taken in 256 KB; both fit one core's L2 cache,
# as does the block of whole attention rows the diversity weights' terms use
ADAM_BLOCK = 1 << 15
# ln 2^-100: the column softmax clamps A - max here before the exp
LOG_ALPHA_FLOOR = math.log(2.0**-100)


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
        # exact ints, as a checkpoint header must store them
        if type(self.hidden) is not int or type(self.embed) is not int:
            raise TypeError(
                f"hidden and embed widths must be ints, got {self.hidden!r} and {self.embed!r}"
            )
        if self.hidden < 1 or self.embed < 1:
            raise ValueError("hidden and embed widths must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be nonnegative and finite")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")
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

    @property
    def dtype(self) -> np.dtype:
        """The dtype the network computes in with these parameters."""
        return self.w_q.dtype

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "ModelParams":
        return ModelParams(*[a.copy() for a in self.arrays()])

    def zeros_like(self) -> "ModelParams":
        """Zeros of every field's shape and dtype, each field C-contiguous."""
        return ModelParams(*[np.zeros(a.shape, a.dtype) for a in self.arrays()])

    def astype(self, dtype) -> "ModelParams":
        """A copy with every field in ``dtype``."""
        return ModelParams(*[a.astype(dtype) for a in self.arrays()])

    def check_finite(self) -> float:
        """``sum_of_squares`` of every field, in field order."""
        return sum_of_squares(self.items())


def sum_of_squares(named_arrays) -> float:
    """Sum of squares over (name, array) pairs, accumulated in float64; inf on overflow.

    A float64 array is summed by ``np.vdot``, which builds no temporary.
    Any other is copied ADAM_BLOCK elements at a time into one float64
    block and summed there: a float32 ``vdot`` accumulates in float32,
    which overflows once the norm passes about 1e19.  An array holding
    NaN or inf is a ValueError naming it; ``np.isfinite`` runs only on an
    array whose sum is not finite.
    """
    total, wide = 0.0, np.empty(0)
    with np.errstate(over="ignore"):
        for name, a in named_arrays:
            if a.dtype == np.float64:
                sq = float(np.vdot(a, a))
            else:
                flat, sq = a.reshape(-1), 0.0
                if wide.size < min(ADAM_BLOCK, flat.size):
                    wide = np.empty(min(ADAM_BLOCK, flat.size))
                for start in range(0, flat.size, ADAM_BLOCK):
                    block = wide[: min(ADAM_BLOCK, flat.size - start)]
                    np.copyto(block, flat[start : start + block.size])
                    sq += float(np.vdot(block, block))
            if not math.isfinite(sq) and not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in parameter {name!r}")
            total += sq
    return total


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
    """What one forward pass produced that the reverse pass cannot form again.

    Public outputs: ``alpha`` (column-stochastic attention weights,
    N x N), ``d`` (diversity weights on the simplex), ``phi`` (N x E
    embeddings), ``z`` (score logits) and ``y``
    (scores in (0, 1), the sigmoid of z).  ``emb_proj`` is
    P = ff_out @ emb_w^T, phi before its bias ``emb_b`` is added: the DPP
    term reads it, so its loss does not depend on ``emb_b`` even in
    rounding.  The remaining tensors are cached intermediates
    ``network_grad`` reads; the dropout masks are None in eval mode,
    where dropout is the identity.  The two layer outputs are not kept:
    ``network_grad`` forms ff_out = ln1_xhat * ln1_scale + ln1_offset
    and head_drop = (ln2_xhat * ln2_scale + ln2_offset) * head_mask
    again with forward's operations, and so with forward's bits.
    """

    alpha: np.ndarray
    d: np.ndarray
    phi: np.ndarray
    z: np.ndarray
    y: np.ndarray
    emb_proj: np.ndarray
    # cached intermediates
    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    ff_mask: np.ndarray | None
    ln1_xhat: np.ndarray
    ln1_inv_std: np.ndarray
    head_pre: np.ndarray
    ln2_xhat: np.ndarray
    ln2_inv_std: np.ndarray
    head_mask: np.ndarray | None


def _simplex(log_w: np.ndarray) -> np.ndarray:
    """exp(log_w), normalized to sum to one."""
    e = np.exp(log_w - log_w.max())
    return e / e.sum()


def _softmax_columns(a: np.ndarray) -> np.ndarray:
    """Column-wise softmax of a float array, computed in place; returns a.

    alpha[i, j] = exp(A[i, j]) / sum_r exp(A[r, j]), stabilized by
    subtracting each column's max, so every column sums to one.  A - max
    is clamped at LOG_ALPHA_FLOOR first, so every weight is at least
    2^-100 / N: a normal float32 for any N below 2^25, where an unclamped
    saturated column holds subnormals that slow the reverse pass's
    products about tenfold.  The clamp changes only weights below 2^-100,
    far below ``alpha_clip``, through which alone d reads alpha; each
    column sum is at least 1 and moves by at most N * 2^-100, under half
    an ulp.  So d, z, y and phi keep their bits, and a floored entry's
    term in dA moves by at most 2^-100 of its column's largest.
    """
    a -= a.max(axis=0)
    np.maximum(a, LOG_ALPHA_FLOOR, out=a)
    np.exp(a, out=a)
    a /= a.sum(axis=0)
    return a


def _log_keep_sums(alpha: np.ndarray, eps: float) -> np.ndarray:
    """Row sums of log(1 - clip(alpha, eps, 1 - eps)); alpha is only read.

    The diversity weights are these row products of (1 - alpha) on the
    simplex.  Log space keeps a long video's product of N factors from
    underflowing, and the clip keeps a weight of one from zeroing a row;
    for N = 1 the weights are [1].  The terms are formed a block of rows
    at a time, and each row is summed as ``alpha.sum(axis=1)`` sums it.
    """
    rows = max(1, ADAM_BLOCK // len(alpha))
    block, sums = np.empty_like(alpha[:rows]), np.empty(len(alpha), alpha.dtype)
    for start in range(0, len(alpha), rows):
        part = alpha[start : start + rows]
        terms = np.clip(part, eps, 1.0 - eps, out=block[: len(part)])
        np.log1p(np.negative(terms, out=terms), out=terms)
        terms.sum(axis=1, out=sums[start : start + len(part)])
    return sums


def _standardize(x: np.ndarray) -> np.ndarray:
    """Centre and scale each row of x to unit variance in place; returns 1 / std."""
    x -= x.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((x**2).mean(axis=1) + LAYERNORM_EPS)
    x *= inv_std[:, None]
    return inv_std


def layernorm_backward(dout, xhat, inv_std, scale):
    """Gradients of per-row layer norm: returns (dx, dscale, doffset).

    dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dout * scale, built in two arrays the size of ``dout`` (dx
    and one scratch) from the same operations in the same order as that
    formula, so the result is the same bit for bit.  ``dout`` is only read.
    """
    work = dout * xhat
    dscale = work.sum(axis=0)
    doffset = dout.sum(axis=0)
    dx = dout * scale
    np.multiply(dx, xhat, out=work)
    row_mean = work.mean(axis=1, keepdims=True)
    dx -= dx.mean(axis=1, keepdims=True)
    dx -= np.multiply(xhat, row_mean, out=work)
    dx *= inv_std[:, None]
    return dx, dscale, doffset


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(shape, rate: float, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    # inverted scaling: kept units divided by keep prob, eval needs no rescale;
    # the draws are float64 whatever the dtype, so a seed gives one stream,
    # and a float64 mask is written over its draws, so one array is built
    keep = 1.0 - rate
    draws = rng.random(shape)
    mask = draws if draws.dtype == dtype else np.empty(shape, dtype)
    np.less(draws, keep, out=mask)
    mask /= keep
    return mask


def _check_features(x, params: ModelParams) -> np.ndarray:
    """x in the parameters' dtype, refused unless it is a finite (N, D) matrix."""
    x = np.asarray(x, dtype=params.dtype)
    d_feat = params.dims[0]
    if x.ndim != 2 or x.shape[1] != d_feat:
        raise ValueError(
            f"feature matrix has shape {x.shape}, expected (N, {d_feat})"
        )
    if x.shape[0] == 0:
        raise ValueError(f"feature matrix has shape {x.shape}: no frames to score")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    return x


def _attention(q_proj: np.ndarray, k_proj: np.ndarray) -> np.ndarray:
    """A = q k^T / sqrt(D), refused if any entry overflowed."""
    d_feat = q_proj.shape[1]
    a = q_proj @ k_proj.T
    a /= math.sqrt(d_feat)
    # max and min propagate NaN, and unlike isfinite build no N x N mask
    if not (math.isfinite(a.max()) and math.isfinite(a.min())):
        raise FloatingPointError("attention matrix overflowed; check input scale")
    return a


def _network(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    cache: dict | None = None,
    ff_mask: np.ndarray | None = None,
    head_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Score logits z of a checked (N, D) feature matrix, in one N x N array.

    Given a ``cache`` dict, the same operations also record each
    intermediate a ``ForwardTrace`` keeps under its field name, and
    ``ff_out``: a layer whose input may be recorded runs out of place, any
    other in place, and the N x N array is the attention.  The dropout
    masks multiply the feed-forward pre-activation and the head output;
    None is the identity.
    """

    def record(name, a):
        if cache is not None:
            cache[name] = a
        return a

    q_proj = record("q_proj", x @ params.w_q.T)
    k_proj = record("k_proj", x @ params.w_k.T)
    alpha = record("alpha", _softmax_columns(_attention(q_proj, k_proj)))
    del q_proj, k_proj
    d = record("d", _simplex(_log_keep_sums(alpha, hyper.alpha_clip)))
    del alpha
    z = record("v_proj", x @ params.w_v.T) * d[:, None]
    z = z @ params.ff_w.T
    z += params.ff_b
    if ff_mask is not None:
        z *= ff_mask
    record("ln1_inv_std", _standardize(z))
    z = record("ln1_xhat", z) * params.ln1_scale
    z += params.ln1_offset
    z = record("ff_out", z) @ params.reg_w1.T
    z += params.reg_b1
    z = np.maximum(record("head_pre", z), 0.0)
    record("ln2_inv_std", _standardize(z))
    z = record("ln2_xhat", z) * params.ln2_scale
    z += params.ln2_offset
    if head_mask is not None:
        z *= head_mask
    return (z @ params.reg_w2.T + params.reg_b2)[:, 0]


def forward(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ForwardTrace:
    """Run the scoring network on an (N, D) feature matrix, keeping what network_grad reads.

    In ``train`` mode dropout masks are sampled from ``rng`` (or taken
    from ``masks``, which is how gradient checks freeze them); in
    ``eval`` mode dropout is the identity.  Beside the network's cached
    intermediates and logits z it adds the scores y = sigmoid(z) and the
    embedding head, P and phi = P + emb_b.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = _check_features(x, params)
    ff_mask = head_mask = None
    if mode == "train":
        if masks is not None:
            ff_mask, head_mask = masks
        elif rng is None:
            raise ValueError("train mode needs an rng (or explicit masks)")
        else:
            n = x.shape[0]
            d_feat, h, _ = params.dims
            ff_mask = _dropout_mask((n, d_feat), hyper.dropout_rate, rng, x.dtype)
            head_mask = _dropout_mask((n, h), hyper.dropout_rate, rng, x.dtype)
    cache = {}
    z = _network(x, params, hyper, cache, ff_mask, head_mask)
    emb_proj = cache.pop("ff_out") @ params.emb_w.T
    return ForwardTrace(
        phi=emb_proj + params.emb_b, y=sigmoid(z), z=z, emb_proj=emb_proj,
        ff_mask=ff_mask, head_mask=head_mask, **cache,
    )


def network_grad(
    trace: ForwardTrace,
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    dz: np.ndarray,
    dphi: np.ndarray,
) -> ModelParams:
    """Gradient of <dz, z> + <dphi, phi> w.r.t. every parameter: the reverse pass.

    ``trace`` comes from ``forward`` on the same ``x`` and ``params``, and
    its dropout masks are honored; ``dz``, the gradient with respect to
    the logits, and ``dphi`` are in the parameters' dtype, and so is
    every gradient.  Each intermediate is deleted after its last read
    and each elementwise step runs in place, with the operands and order
    of the plain formulas, so few arrays are alive at once.
    """
    g = {}  # each field's gradient, the array its branch computed
    # score head: final linear -> dropout -> layer norm -> relu
    head_drop = trace.ln2_xhat * params.ln2_scale  # the head output, as forward forms it
    head_drop += params.ln2_offset
    if trace.head_mask is not None:
        head_drop *= trace.head_mask
    head_drop *= dz[:, None]
    g["reg_w2"] = head_drop.sum(axis=0, keepdims=True)
    del head_drop
    g["reg_b2"] = dz.sum(keepdims=True)
    d_ln2_out = dz[:, None] * params.reg_w2[0][None, :]
    if trace.head_mask is not None:
        d_ln2_out *= trace.head_mask
    d_head_pre, g["ln2_scale"], g["ln2_offset"] = layernorm_backward(
        d_ln2_out, trace.ln2_xhat, trace.ln2_inv_std, params.ln2_scale
    )
    del d_ln2_out
    d_head_pre *= trace.head_pre > 0.0
    ff_out = trace.ln1_xhat * params.ln1_scale  # the feed-forward output, as forward forms it
    ff_out += params.ln1_offset
    g["reg_w1"] = d_head_pre.T @ ff_out
    g["reg_b1"] = d_head_pre.sum(axis=0)
    d_ff_out = d_head_pre @ params.reg_w1
    del d_head_pre

    # embedding head
    g["emb_w"] = dphi.T @ ff_out
    del ff_out
    g["emb_b"] = dphi.sum(axis=0)
    d_ff_out += dphi @ params.emb_w

    # feed-forward layer: layer norm -> dropout -> linear
    dz1, g["ln1_scale"], g["ln1_offset"] = layernorm_backward(
        d_ff_out, trace.ln1_xhat, trace.ln1_inv_std, params.ln1_scale
    )
    del d_ff_out
    if trace.ff_mask is not None:
        dz1 *= trace.ff_mask
    g["ff_w"] = dz1.T @ (trace.v_proj * trace.d[:, None])  # the context, as forward forms it
    g["ff_b"] = dz1.sum(axis=0)
    d_context = dz1 @ params.ff_w
    del dz1

    # context c_i = d_i * v_i; x is converted only now, so a converted copy
    # is not alive during the heads' reverse pass
    x = np.asarray(x, dtype=params.dtype)
    dd = (d_context * trace.v_proj).sum(axis=1)
    dv = d_context
    dv *= trace.d[:, None]
    del d_context
    g["w_v"] = dv.T @ x
    del dv

    # d = softmax over row sums of log(1 - clipped alpha), in one N x N array
    dlog = trace.d * (dd - float(dd @ trace.d))
    alpha, lo, hi = trace.alpha, hyper.alpha_clip, 1.0 - hyper.alpha_clip
    da = np.clip(alpha, lo, hi)
    np.subtract(1.0, da, out=da)
    np.divide(-1.0, da, out=da)
    np.multiply(dlog[:, None], da, out=da)
    inside = alpha > lo
    inside &= alpha < hi
    da *= inside  # d(loss)/d(alpha)
    del inside

    # column softmax; einsum sums each column without forming alpha * da
    da -= np.einsum("ij,ij->j", alpha, da)
    np.multiply(alpha, da, out=da)  # d(loss)/dA

    scale = 1.0 / math.sqrt(x.shape[1])
    dq = da @ trace.k_proj
    dq *= scale
    g["w_q"] = dq.T @ x
    del dq
    dk = da.T @ trace.q_proj
    del da
    dk *= scale
    g["w_k"] = dk.T @ x
    del dk

    return ModelParams(**g)


def score_frames(x: np.ndarray, params: ModelParams, hyper: HyperParams) -> np.ndarray:
    """Frame scores of an (N, D) feature matrix: ``forward(mode="eval").y``, bit for bit.

    The same network with no cache, so every layer works in place and
    the one N x N array held is the attention: the peak is
    8 * N^2 + O(N * D) bytes.  Refuses the inputs ``forward`` refuses,
    with the same errors.
    """
    return sigmoid(_network(_check_features(x, params), params, hyper))
