"""Training losses, DPP kernel, analytic gradients, finite-difference oracle.

Supervised mode combines a binary cross-entropy keyframe loss with a
variation loss (the negative log-likelihood of the annotated keyframe
subset under a determinantal point process whose kernel decomposes into
per-frame quality times a Gaussian similarity of the embeddings).
Unsupervised mode combines a summary-length regularizer with a
repelling loss (mean pairwise cosine of the embeddings).  Both modes
add an L2 penalty over the weight matrices so every differentiable
term is covered by the finite-difference check.

``loss_and_grad`` computes the loss terms and a hand-written reverse pass
through the whole network in one call, so the DPP kernel (or the cosine
matrix) is built once per step; ``backward`` is its gradient half.
``total_loss`` is the loss-only path behind ``loss_given_params``, and
``finite_diff_grad`` is the independent central-difference oracle the
gradient is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ForwardTrace,
    HyperParams,
    ModelParams,
    WEIGHT_FIELDS,
    forward,
    layernorm_backward,
)

SCORE_CLIP = 1e-7

MODES = ("supervised", "unsupervised")


class NumericalError(RuntimeError):
    """A numerical invariant failed (non-PSD kernel, non-finite loss...)."""


@dataclass
class LossBreakdown:
    variation: float
    keyframe: float
    length: float
    repelling: float
    weight_penalty: float
    total: float


def pairwise_sq_dists(phi: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between rows, exact and bit-symmetric.

    Each entry is the einsum sum of squares of the row difference, so
    identical rows give exactly zero and the rounding error scales with
    the distance, not with the row norms.  The faster Gram form
    ||a||^2 + ||b||^2 - 2ab rounds relative to the norms, so shifting
    every row (the embedding bias, whose exact supervised gradient is
    zero) moves it by noise the finite-difference check picks up.  One
    pass over the upper triangle reuses a single (N, E) buffer; the
    diagonal is zero and the mirror copy makes out[i, j] and out[j, i]
    the same float.
    """
    n = phi.shape[0]
    out = np.zeros((n, n))
    buf = np.empty(phi.shape)
    for i in range(n - 1):
        diff = buf[: n - i - 1]
        np.subtract(phi[i + 1 :], phi[i], out=diff)
        np.einsum("jk,jk->j", diff, diff, out=out[i, i + 1 :])
    out += out.T
    return out


def _similarity_and_kernel(y, phi, beta):
    """exp(-beta D^2) and the quality-diversity kernel L = y y^T * exp(-beta D^2)."""
    sim = np.exp(-beta * pairwise_sq_dists(phi))
    return sim, y[:, None] * y[None, :] * sim


def dpp_log_prob(kernel: np.ndarray, subset) -> float:
    """log P(subset) = log det(L_subset) - log det(L + I).

    The normalizer uses a Cholesky factorization (L + I is positive
    definite for any PSD L); the empty submatrix has determinant one.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    n = kernel.shape[0]
    subset = np.asarray(sorted(subset), dtype=int)
    if subset.size and (subset.min() < 0 or subset.max() >= n):
        raise ValueError("subset indices out of range")
    if subset.size != np.unique(subset).size:
        raise ValueError("subset contains repeated indices")

    try:
        chol_norm = np.linalg.cholesky(kernel + np.eye(n))
    except np.linalg.LinAlgError as err:
        raise NumericalError("kernel + I is not positive definite") from err
    log_norm = 2.0 * np.log(np.diag(chol_norm)).sum()

    if subset.size == 0:
        return -log_norm
    sub = kernel[np.ix_(subset, subset)]
    sign, log_sub = np.linalg.slogdet(sub)
    if sign <= 0:
        raise NumericalError("subset kernel is numerically singular")
    return float(log_sub - log_norm)


def variation_loss(kernel: np.ndarray, keyframe_subset) -> float:
    """Negative DPP log-likelihood of the annotated keyframe subset."""
    return -dpp_log_prob(kernel, keyframe_subset)


def keyframe_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Binary cross entropy between scores and 0/1 keyframe labels, summed."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("scores and labels differ in length")
    yc = np.clip(y, SCORE_CLIP, 1.0 - SCORE_CLIP)
    return float(-(y_hat * np.log(yc) + (1.0 - y_hat) * np.log1p(-yc)).sum())


def length_loss(y: np.ndarray, sigma: float) -> float:
    """Distance of the mean score from the target summary ratio sigma."""
    return float(abs(np.asarray(y, dtype=np.float64).mean() - sigma))


def repelling_loss(phi: np.ndarray) -> float:
    """Mean cosine similarity over ordered pairs of distinct embeddings.

    Zero for a single frame (no pairs); embeddings must be nonzero.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[0] < 2:
        return 0.0
    return _mean_off_diagonal(_cosines(phi)[2])


def _cosines(phi):
    """Row norms, unit rows and the cosine matrix of nonzero embeddings."""
    norms = np.linalg.norm(phi, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(
            f"repelling loss undefined for zero-norm embeddings (frame {zero[0]})"
        )
    u = phi / norms[:, None]
    return norms, u, u @ u.T


def _mean_off_diagonal(cos):
    n = cos.shape[0]
    return float((cos.sum() - np.trace(cos)) / (n * (n - 1)))


def weight_penalty(params: ModelParams, weight_decay: float) -> float:
    """L2 penalty over weight matrices only (no biases, no norm params)."""
    if weight_decay == 0.0:
        return 0.0
    total = sum(float((getattr(params, f) ** 2).sum()) for f in WEIGHT_FIELDS)
    return weight_decay * total


def keyframe_indices(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    return np.flatnonzero(labels > 0)


def _check_mode(mode, labels):
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    if mode == "supervised" and labels is None:
        raise ValueError("supervised loss requires keyframe labels")


def _loss_terms(trace, params, hyper, mode, labels, sigma, variation_weight):
    """The mode's LossBreakdown and the pairwise arrays its gradient reuses.

    The arrays are (similarity, DPP kernel) in supervised mode and
    (norms, unit rows, cosines) in unsupervised mode, or None when the
    pairwise term is off or has no pairs.
    """
    pen = weight_penalty(params, hyper.weight_decay)
    y, phi = trace.y, trace.phi

    if mode == "supervised":
        key = keyframe_loss(y, labels)
        var, shared = 0.0, None
        if variation_weight != 0.0:
            shared = _similarity_and_kernel(y, phi, hyper.beta)
            var = variation_weight * variation_loss(shared[1], keyframe_indices(labels))
        return LossBreakdown(var, key, 0.0, 0.0, pen, key + var + pen), shared

    length = length_loss(y, sigma)
    rep, shared = 0.0, None
    if phi.shape[0] >= 2:
        try:
            shared = _cosines(phi)
        except ValueError as exc:
            # dropout can zero a frame's embedding: a training fault, not bad input
            raise NumericalError(str(exc)) from exc
        rep = _mean_off_diagonal(shared[2])
    return LossBreakdown(0.0, 0.0, length, rep, pen, length + rep + pen), shared


def total_loss(
    trace: ForwardTrace,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = 0.3,
    variation_weight: float = 1.0,
) -> LossBreakdown:
    """Mode-appropriate training loss plus the L2 weight penalty.

    supervised:   keyframe BCE + variation (needs ``labels``)
    unsupervised: length regularizer + repelling (labels are ignored)
    ``variation_weight`` scales the variation term; 0 is the keyframe-only ablation.
    """
    _check_mode(mode, labels)
    return _loss_terms(trace, params, hyper, mode, labels, sigma, variation_weight)[0]


# ---------------------------------------------------------------------------
# analytic gradients


def _loss_grads_y_phi(trace, hyper, mode, labels, sigma, variation_weight, shared):
    """d(loss)/dy and d(loss)/dphi for the mode's two loss terms."""
    y, phi = trace.y, trace.phi
    n = y.shape[0]
    dy = np.zeros_like(y)
    dphi = np.zeros_like(phi)

    if mode == "supervised":
        yc = np.clip(y, SCORE_CLIP, 1.0 - SCORE_CLIP)
        live = (y > SCORE_CLIP) & (y < 1.0 - SCORE_CLIP)
        dy += live * (-labels / yc + (1.0 - labels) / (1.0 - yc))

        if shared is not None:
            sim, kernel = shared
            subset = keyframe_indices(labels)
            # d(-log P)/dL = (L + I)^{-1} - scatter((L_sub)^{-1})
            try:
                g = np.linalg.inv(kernel + np.eye(n))
            except np.linalg.LinAlgError as err:
                raise NumericalError("kernel + I is not invertible") from err
            if subset.size:
                try:
                    sub_inv = np.linalg.inv(kernel[np.ix_(subset, subset)])
                except np.linalg.LinAlgError as err:
                    raise NumericalError(
                        "subset kernel is numerically singular"
                    ) from err
                g[np.ix_(subset, subset)] -= sub_inv
            g *= variation_weight
            # L_ij = y_i y_j sim_ij, so dy_k = 2 sum_j g_kj y_j sim_kj
            dy += 2.0 * (g * sim) @ y
            # dphi_k = -4 beta sum_j g_kj L_kj (phi_k - phi_j)
            gl = g * kernel
            row = gl.sum(axis=1)
            dphi += -4.0 * hyper.beta * (row[:, None] * phi - gl @ phi)
        return dy, dphi

    # unsupervised
    diff = y.mean() - sigma
    if diff != 0.0:
        dy += np.sign(diff) / n
    if shared is not None:
        norms, u, cos = shared
        c = 1.0 / (n * (n - 1))
        # d/dphi_k of sum_{i != j} cos_ij = 2 sum_{j != k} (u_j - cos_kj u_k) / ||phi_k||
        u_sum = u.sum(axis=0)
        cos_row = cos.sum(axis=1)
        dphi += (2.0 * c / norms[:, None]) * (
            (u_sum - u) - (cos_row - 1.0)[:, None] * u
        )
    return dy, dphi


def loss_and_grad(
    trace: ForwardTrace,
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = 0.3,
    variation_weight: float = 1.0,
) -> tuple[LossBreakdown, ModelParams]:
    """``total_loss`` and its exact gradient w.r.t. every parameter.

    The trace must come from ``forward`` on the same ``x`` and
    ``params``; recorded dropout masks are honored, so the result is
    the exact gradient of the loss as realized with those masks.  The
    pairwise arrays (DPP kernel or cosine matrix) are built once and
    serve both halves.  A non-finite total raises ``NumericalError``
    before any gradient work.
    """
    _check_mode(mode, labels)
    if np.shape(x) != trace.context.shape:
        raise ValueError("trace does not match the given feature matrix")
    labels = None if labels is None else np.asarray(labels, dtype=np.float64)

    breakdown, shared = _loss_terms(trace, params, hyper, mode, labels, sigma, variation_weight)
    if not np.isfinite(breakdown.total):
        raise NumericalError("non-finite loss")
    # converted only now, so the float64 copy is not alive during the loss
    x = np.asarray(x, dtype=np.float64)
    dy, dphi = _loss_grads_y_phi(trace, hyper, mode, labels, sigma, variation_weight, shared)
    g = params.zeros_like()

    # score head: sigmoid -> final linear -> dropout -> layer norm -> relu
    dlogits = dy * trace.y * (1.0 - trace.y)
    g.reg_w2 += (dlogits[:, None] * trace.head_drop).sum(axis=0, keepdims=True)
    g.reg_b2 += np.array([dlogits.sum()])
    d_ln2_out = dlogits[:, None] * params.reg_w2[0][None, :]
    if trace.head_mask is not None:
        d_ln2_out *= trace.head_mask
    d_relu, dg2, db2 = layernorm_backward(
        d_ln2_out, trace.ln2_xhat, trace.ln2_inv_std, params.ln2_scale
    )
    g.ln2_scale += dg2
    g.ln2_offset += db2
    d_head_pre = d_relu * (trace.head_pre > 0.0)
    g.reg_w1 += d_head_pre.T @ trace.ff_out
    g.reg_b1 += d_head_pre.sum(axis=0)
    d_ff_out = d_head_pre @ params.reg_w1

    # embedding head
    g.emb_w += dphi.T @ trace.ff_out
    g.emb_b += dphi.sum(axis=0)
    d_ff_out += dphi @ params.emb_w

    # feed-forward layer: layer norm -> dropout -> linear
    dz1, dg1, db1 = layernorm_backward(
        d_ff_out, trace.ln1_xhat, trace.ln1_inv_std, params.ln1_scale
    )
    g.ln1_scale += dg1
    g.ln1_offset += db1
    if trace.ff_mask is not None:
        dz1 *= trace.ff_mask
    g.ff_w += dz1.T @ trace.context
    g.ff_b += dz1.sum(axis=0)
    d_context = dz1 @ params.ff_w

    # context c_i = d_i * v_i
    dd = (d_context * trace.v_proj).sum(axis=1)
    dv = d_context * trace.d[:, None]

    # d = softmax over row sums of log(1 - clipped alpha)
    dlog = trace.d * (dd - float(dd @ trace.d))
    clipped = np.clip(trace.alpha, hyper.alpha_clip, 1.0 - hyper.alpha_clip)
    inside = (trace.alpha > hyper.alpha_clip) & (
        trace.alpha < 1.0 - hyper.alpha_clip
    )
    dalpha = dlog[:, None] * (-1.0 / (1.0 - clipped)) * inside

    # column softmax
    colsum = (trace.alpha * dalpha).sum(axis=0, keepdims=True)
    da = trace.alpha * (dalpha - colsum)

    scale = 1.0 / np.sqrt(x.shape[1])
    dq = scale * (da @ trace.k_proj)
    dk = scale * (da.T @ trace.q_proj)

    g.w_q += dq.T @ x
    g.w_k += dk.T @ x
    g.w_v += dv.T @ x

    if hyper.weight_decay != 0.0:
        for name in WEIGHT_FIELDS:
            getattr(g, name)[...] += 2.0 * hyper.weight_decay * getattr(params, name)

    try:
        g.check_finite()
    except ValueError as exc:
        raise NumericalError(f"gradient: {exc}") from exc
    return breakdown, g


def backward(
    trace: ForwardTrace,
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = 0.3,
    variation_weight: float = 1.0,
) -> ModelParams:
    """Exact gradient of ``total_loss``: the gradient half of ``loss_and_grad``."""
    return loss_and_grad(trace, x, params, hyper, mode, labels, sigma, variation_weight)[1]


# ---------------------------------------------------------------------------
# finite-difference oracle


def loss_given_params(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = 0.3,
    variation_weight: float = 1.0,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Scalar total loss as a pure function of the parameters.

    With ``masks`` the forward pass runs in train mode with exactly
    those dropout masks; otherwise dropout is off (eval mode).
    """
    mode_fw = "eval" if masks is None else "train"
    trace = forward(x, params, hyper, mode=mode_fw, masks=masks)
    return total_loss(trace, params, hyper, mode, labels, sigma, variation_weight).total


def finite_diff_grad(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = 0.3,
    variation_weight: float = 1.0,
    step: float = 1e-5,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ModelParams:
    """Central differences (f(p + h) - f(p - h)) / 2h per scalar parameter."""
    p = params.copy()
    grads = params.zeros_like()
    for name, arr in p.items():
        garr = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_given_params(x, p, hyper, mode, labels, sigma, variation_weight, masks)
            arr[idx] = orig - step
            down = loss_given_params(x, p, hyper, mode, labels, sigma, variation_weight, masks)
            arr[idx] = orig
            garr[idx] = (up - down) / (2.0 * step)
    return grads


def gradient_report(analytic: ModelParams, numeric: ModelParams) -> dict:
    """Per-parameter relative error between two gradient sets.

    The error for a tensor is the max absolute difference scaled by the
    larger of the two tensors' max magnitudes (a pair of all-zero
    tensors compares equal).
    """
    report = {}
    worst = 0.0
    for name, a in analytic.items():
        b = getattr(numeric, name)
        scale = max(np.abs(a).max(), np.abs(b).max(), 0.0)
        if scale == 0.0:
            err = 0.0
        else:
            err = float(np.abs(a - b).max() / max(scale, 1e-8))
        report[name] = err
        worst = max(worst, err)
    report["max"] = worst
    return report
