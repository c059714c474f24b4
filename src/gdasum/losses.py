"""Training objectives, DPP kernel, their z/phi gradients, finite-difference oracle.

Supervised mode combines a binary cross-entropy keyframe loss, taken
from the score logits, with a variation loss (the negative
log-likelihood of the annotated keyframe subset under a determinantal
point process whose kernel, built by ``dpp_kernel``, decomposes into
per-frame quality times a Gaussian similarity of the embeddings before
their bias; a similarity below ``SIM_FLOOR`` = 2^-200 is stored as 0,
which moves the loss and gradient by at most about 2^-200 relative and
keeps the linear algebra off subnormal floats).  Its squared distances
come from ``pairwise_sq_dists``, the package's one distance routine.
Unsupervised mode combines a summary-length regularizer with a
repelling loss, the mean cosine over ordered pairs of distinct embeddings:
with unit rows u_i and u_sum = sum_i u_i it is (||u_sum||^2 - sum_i ||u_i||^2)
/ (N (N - 1)), so no cosine matrix is built.  Neither mode holds a
weight penalty: ``train.adam_step`` decays the weights as it updates
them, so the objective, its gradient and the finite-difference check
are the data terms alone.

Each mode is one function, ``_supervised`` or ``_unsupervised``, giving
its two loss terms and a function for their gradients with respect to
the score logits z and embeddings phi, which reads the arrays the loss
built; the supervised one takes both from the row sums of G * L, with
G = d(-log P)/dL.  ``loss_and_grad`` hands those gradients to
``model.network_grad``, the reverse pass through the network.  The
loss terms, the DPP linear algebra and the z/phi gradients are float64
whatever dtype the network ran in: a float32 trace's arrays are upcast
first, and the z/phi gradients are cast back for the reverse pass, so
the parameter gradients come out in the parameters' dtype.
``backward`` is the checked gradient; ``train`` leaves the check to ``adam_step``.
``total_loss`` is the loss-only path behind ``loss_given_params``, and
``finite_diff_grad`` is the independent central-difference oracle the
gradient is verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, HyperParams, ModelParams, forward, network_grad

# No loss clips scores.  Only bench/checks.py imports this old clip
# bound, where it merely shrinks a finite-difference step near it.
SCORE_CLIP = 1e-7
# defaults of the loss signatures, TrainConfig and the gradient check
DEFAULT_SIGMA = 0.3  # summary-ratio target of the length loss
DEFAULT_VARIATION_WEIGHT = 1.0
DEFAULT_FD_STEP = 1e-5  # the first central-difference step finite_diff_grad tries
# DPP similarities below this are exactly 0: see dpp_kernel
SIM_FLOOR = 2.0**-200

MODES = ("supervised", "unsupervised")


class NumericalError(RuntimeError):
    """A numerical invariant failed (non-PSD kernel, non-finite loss...)."""


@dataclass
class LossBreakdown:
    variation: float
    keyframe: float
    length: float
    repelling: float
    total: float


def pairwise_sq_dists(a: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of ``a``, in float64.

    The one distance routine: the DPP kernel, the RBF segment costs and
    the diversity metric all call it.  With G = a a^T and s = diag(G),
    entry (i, j) is (s_i + s_j) - 2 G_ij clamped at 0.  NumPy forms
    a @ a.T with BLAS syrk, which computes one triangle and mirrors it,
    so the result is exactly symmetric, its diagonal is exactly 0 and no
    entry is negative.  The Gram form rounds relative to the row norms,
    not to the distance: an entry is within 4 E eps (s_i + s_j) of the
    exact one for E columns (Higham's gamma_n bound on each dot product),
    so rows close together far from the origin keep fewer digits.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)  # so a @ a.T takes the syrk path
    gram = a @ a.T
    out = np.add.outer(np.diag(gram), np.diag(gram))  # before gram is doubled in place
    out -= np.multiply(2.0, gram, out=gram)
    return np.maximum(out, 0.0, out=out)


def dpp_kernel(y: np.ndarray, phi: np.ndarray, beta: float) -> np.ndarray:
    """The quality-diversity kernel L = y y^T * S, S = exp(-beta D^2), in float64.

    Similarities below ``SIM_FLOOR`` are stored as exactly 0.  Since
    S_ii = 1, S_ij is the pair's normalised correlation in L, so dropping
    entries below 2^-200 moves log det(L + I), log det L_S and the
    gradient by at most about 2^-200 relative (2^-400 where the pair is
    otherwise uncoupled), far below double rounding (2^-53).  Without the
    floor, the Cholesky, the inverses and the gradient's (N, N) @ (N, E)
    product run on subnormal operands and fill-in, several times slower;
    flooring at the subnormal boundary alone is not enough, because the
    factorizations multiply small entries down into subnormals.
    """
    kernel = pairwise_sq_dists(phi)
    np.multiply(-beta, kernel, out=kernel)
    np.exp(kernel, out=kernel)
    kernel[kernel < SIM_FLOOR] = 0.0
    kernel *= np.multiply.outer(y, y)
    return kernel


def dpp_log_prob(kernel: np.ndarray, subset) -> float:
    """log P(subset) = log det(L_subset) - log det(L + I).

    The normalizer uses a Cholesky factorization (L + I is positive
    definite for any PSD L), which reads one triangle only, so L must be
    symmetric; the empty submatrix has determinant one.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError(f"kernel must be a square matrix, got shape {kernel.shape}")
    n = kernel.shape[0]
    subset = np.asarray(sorted(subset), dtype=int)
    if subset.size and (subset.min() < 0 or subset.max() >= n):
        raise ValueError("subset indices out of range")
    if subset.size != np.unique(subset).size:
        raise ValueError("subset contains repeated indices")

    try:
        chol_norm = np.linalg.cholesky(_plus_identity(kernel))
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


def _plus_identity(kernel: np.ndarray) -> np.ndarray:
    """A copy of the square ``kernel`` with 1 added to its diagonal: L + I."""
    shifted = kernel.copy()
    shifted.flat[:: kernel.shape[0] + 1] += 1.0
    return shifted


def keyframe_loss(z: np.ndarray, y_hat: np.ndarray) -> float:
    """Binary cross entropy of scores sigmoid(z) against 0/1 keyframe labels, summed.

    Taken from the logits z as softplus(z) - y_hat * z, which is
    -log sigmoid(z) for a keyframe and -log(1 - sigmoid(z)) otherwise
    without forming either score, so a frame saturated on the wrong side
    costs about |z| and keeps its gradient sigmoid(z) - y_hat (Goodfellow,
    Bengio and Courville, "Deep Learning", section 6.2.2.3).
    """
    z = np.asarray(z, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if z.shape != y_hat.shape:
        raise ValueError("scores and labels differ in length")
    return float((np.logaddexp(0.0, z) - y_hat * z).sum())


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
    return _repelling(phi)[0]


def _repelling(phi, error=ValueError):
    """(loss, norms, unit rows u, u_sum) of N >= 2 embeddings; a zero one raises ``error``."""
    norms = np.linalg.norm(phi, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise error(
            f"repelling loss undefined for zero-norm embeddings (frame {zero[0]})"
        )
    n = phi.shape[0]
    u = phi / norms[:, None]
    u_sum = u.sum(axis=0)
    # the rounded u_i are not exactly unit, so their diagonal is computed, not taken as N
    return float((u_sum @ u_sum - np.vdot(u, u)) / (n * (n - 1))), norms, u, u_sum


def _supervised(z, y, phi, labels, beta, variation_weight):
    """(keyframe BCE, weighted DPP variation, grad), ``grad()`` giving (dz, dphi).

    z are the score logits and y = sigmoid(z) the scores.  ``grad`` reads
    the kernel L the variation term built (a zero ``variation_weight``
    builds none) and holds one more N x N array, G = d(-log P)/dL.
    """
    keyframe = keyframe_loss(z, labels)
    variation, kernel = 0.0, None
    subset = np.flatnonzero(labels > 0)
    if variation_weight != 0.0:
        kernel = dpp_kernel(y, phi, beta)
        variation = variation_weight * -dpp_log_prob(kernel, subset)

    def grad():
        dz, dphi = y - labels, np.zeros_like(phi)
        if kernel is None:
            return dz, dphi
        # d(-log P)/dL = (L + I)^{-1} - scatter((L_sub)^{-1})
        try:
            g = np.linalg.inv(_plus_identity(kernel))
        except np.linalg.LinAlgError as err:
            raise NumericalError("kernel + I is not invertible") from err
        if subset.size:
            try:
                sub_inv = np.linalg.inv(kernel[np.ix_(subset, subset)])
            except np.linalg.LinAlgError as err:
                raise NumericalError("subset kernel is numerically singular") from err
            g[np.ix_(subset, subset)] -= sub_inv
        g *= variation_weight
        # g * L in place, row sums r: as L_ij = y_i y_j S_ij, y_k dy_k = 2 r_k, so
        # dz_k = 2 (1 - y_k) r_k; dphi_k = -4 beta sum_j g_kj L_kj (phi_k - phi_j)
        g *= kernel
        row = g.sum(axis=1)
        dz += 2.0 * (1.0 - y) * row
        dphi += -4.0 * beta * (row[:, None] * phi - g @ phi)
        return dz, dphi

    return keyframe, variation, grad


def _unsupervised(y, phi, sigma):
    """(length, repelling, grad), ``grad()`` giving (dz, dphi).

    The length term reaches the logits z through dy/dz = y (1 - y).
    The cosines of unit rows u sum to ||u_sum||^2, u_sum = sum_i u_i, and
    ``grad`` reads the norms, u and u_sum: no N x N array.  A zero-norm
    embedding is a ``NumericalError``: dropout can zero a frame's
    embedding, a training fault, not bad input.
    """
    n = y.shape[0]
    length = length_loss(y, sigma)
    repelling, rows = 0.0, None
    if n >= 2:
        repelling, *rows = _repelling(phi, NumericalError)

    def grad():
        dz = y * (1.0 - y) * (np.sign(y.mean() - sigma) / n)
        if rows is None:
            return dz, np.zeros_like(phi)
        norms, u, u_sum = rows
        c = 1.0 / (n * (n - 1))
        # d/dphi_k of sum_{i != j} cos_ij = 2 (u_sum - (u_k . u_sum) u_k) / ||phi_k||
        dphi = np.multiply(-(u @ u_sum)[:, None], u)
        dphi += u_sum
        dphi *= (2.0 * c / norms)[:, None]
        return dz, dphi

    return length, repelling, grad


def _objective(fields, hyper, mode, labels, sigma, variation_weight):
    """The mode's data terms and (dz, dphi) function, on a trace's fields upcast to float64.

    ``fields`` is a dict of ``ForwardTrace`` fields, which is only read.
    The DPP reads the embeddings before their bias, ``emb_proj``:
    distances ignore a shift shared by every row, so the loss is the same
    as on phi.  In floating point it does not read ``emb_b`` at all, which
    the Gram-form distances need: a shared bias raises the row norms, and
    with them the rounding, and the finite-difference check would read
    that noise as a gradient of ``emb_b``, whose exact value is zero.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    if mode == "supervised" and labels is None:
        raise ValueError("supervised loss requires keyframe labels")
    y = np.asarray(fields["y"], dtype=np.float64)
    if mode == "supervised":
        labels = np.asarray(labels, dtype=np.float64)
        z = np.asarray(fields["z"], dtype=np.float64)
        phi = np.asarray(fields["emb_proj"], dtype=np.float64)
        key, var, grad = _supervised(z, y, phi, labels, hyper.beta, variation_weight)
        return LossBreakdown(var, key, 0.0, 0.0, key + var), grad
    phi = np.asarray(fields["phi"], dtype=np.float64)
    length, rep, grad = _unsupervised(y, phi, sigma)
    return LossBreakdown(0.0, 0.0, length, rep, length + rep), grad


def total_loss(
    trace: ForwardTrace,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = DEFAULT_SIGMA,
    variation_weight: float = DEFAULT_VARIATION_WEIGHT,
) -> LossBreakdown:
    """Mode-appropriate training loss.

    supervised:   keyframe BCE + variation (needs ``labels``)
    unsupervised: length regularizer + repelling (labels are ignored)
    ``variation_weight`` scales the variation term; 0 is the keyframe-only ablation.
    ``params`` is not read: the loss is a function of the trace, and
    weight decay is the optimizer's (``train.adam_step``).
    """
    return _objective(vars(trace), hyper, mode, labels, sigma, variation_weight)[0]


def loss_and_grad(
    trace: ForwardTrace | dict,
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = DEFAULT_SIGMA,
    variation_weight: float = DEFAULT_VARIATION_WEIGHT,
) -> tuple[LossBreakdown, ModelParams]:
    """``total_loss`` and its gradient w.r.t. every parameter, in the parameters' dtype.

    The trace must come from ``forward`` on the same ``x`` and ``params``;
    the loss's z and phi gradients, cast to the parameters' dtype, run
    back through ``model.network_grad`` with the trace's dropout masks.
    A ``ForwardTrace`` is left whole: this is the one place a trace is
    copied, and the reverse pass empties a shallow copy of its fields.  A
    dict of its fields, such as ``vars(forward(...))``, which is how
    ``train`` hands over its step's trace, is itself emptied, so each
    cached array is freed at its last read.  A non-finite total raises
    ``NumericalError`` before any gradient work; a NaN or inf weight the
    loss reads gives one.  A NaN or inf in the gradient is left to
    ``backward`` or ``train.adam_step`` to refuse.
    """
    fields = trace if isinstance(trace, dict) else dict(vars(trace))
    if np.shape(x) != fields["v_proj"].shape:
        raise ValueError("trace does not match the given feature matrix")

    breakdown, grad = _objective(fields, hyper, mode, labels, sigma, variation_weight)
    if not math.isfinite(breakdown.total):
        raise NumericalError("non-finite loss")
    dz, dphi = grad()
    del grad  # frees the pairwise arrays before the reverse pass allocates its own
    dz, dphi = dz.astype(params.dtype, copy=False), dphi.astype(params.dtype, copy=False)
    return breakdown, network_grad(fields, x, params, hyper, dz, dphi)


def backward(
    trace: ForwardTrace,
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = DEFAULT_SIGMA,
    variation_weight: float = DEFAULT_VARIATION_WEIGHT,
) -> ModelParams:
    """Exact gradient of ``total_loss``; a NaN or inf in it raises ``NumericalError``."""
    grads = loss_and_grad(trace, x, params, hyper, mode, labels, sigma, variation_weight)[1]
    try:
        grads.check_finite()
    except ValueError as exc:
        raise NumericalError(f"gradient: {exc}") from exc
    return grads


# ---------------------------------------------------------------------------
# finite-difference oracle


def loss_given_params(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = DEFAULT_SIGMA,
    variation_weight: float = DEFAULT_VARIATION_WEIGHT,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Scalar total loss as a pure function of the parameters.

    With ``masks`` the forward pass runs in train mode with exactly
    those dropout masks; otherwise dropout is off (eval mode).
    """
    return _loss_and_kinks(x, params, hyper, mode, labels, sigma, variation_weight, masks)[0]


def _loss_and_kinks(x, params, hyper, mode, labels, sigma, variation_weight, masks):
    """(``loss_given_params``, which side of each kink of the loss it sits on).

    The loss is smooth only between kinks: the sign of each head ReLU's
    input, whether each attention weight lies inside the clip band, and
    the sign of the length loss's mean score minus sigma.
    """
    trace = forward(x, params, hyper, mode="eval" if masks is None else "train", masks=masks)
    total = total_loss(trace, params, hyper, mode, labels, sigma, variation_weight).total
    lo, hi = hyper.alpha_clip, 1.0 - hyper.alpha_clip
    kinks = np.concatenate([
        trace.head_pre.ravel(),
        ((trace.alpha > lo) & (trace.alpha < hi)).ravel(),
        [np.asarray(trace.y, dtype=np.float64).mean() > sigma],
    ])
    return total, kinks


def finite_diff_grad(
    x: np.ndarray,
    params: ModelParams,
    hyper: HyperParams,
    mode: str,
    labels: np.ndarray | None = None,
    sigma: float = DEFAULT_SIGMA,
    variation_weight: float = DEFAULT_VARIATION_WEIGHT,
    step: float = DEFAULT_FD_STEP,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> ModelParams:
    """Richardson-extrapolated central differences per scalar parameter, clear of kinks.

    With D(h) = (f(p + h) - f(p - h)) / 2h, the estimate is
    (4 D(h/2) - D(h)) / 3, whose truncation error is O(h^4) where D's is
    O(h^2): a steep layer norm (a row of small variance) makes D(h) at
    h = 1e-5 off by about 1%, far beyond the check's tolerance.  h is the
    first of ``step``, ``step / 10`` and ``step / 100`` at which none of
    the four points p +- h, p +- h/2 moves a kink of the loss (see
    ``_loss_and_kinks``): a difference across a kink averages two slopes.
    A scalar every step crosses a kink for gets NaN, which
    ``gradient_report`` fails.
    """
    def at(point):
        return _loss_and_kinks(x, point, hyper, mode, labels, sigma, variation_weight, masks)

    base = at(params)[1]
    p = params.copy()
    grads = params.zeros_like()
    for name, arr in p.items():
        garr = getattr(grads, name)
        for idx in np.ndindex(arr.shape):
            orig, garr[idx] = arr[idx], np.nan
            for h in (step, step / 10.0, step / 100.0):
                totals = []
                for offset in (h, -h, h / 2.0, -h / 2.0):
                    arr[idx] = orig + offset
                    total, kinks = at(p)
                    if not np.array_equal(kinks, base):
                        break
                    totals.append(total)
                else:
                    up, down, half_up, half_down = totals
                    coarse, fine = (up - down) / (2.0 * h), (half_up - half_down) / h
                    garr[idx] = (4.0 * fine - coarse) / 3.0
                    break
            arr[idx] = orig
    return grads


def gradient_report(analytic: ModelParams, numeric: ModelParams) -> dict:
    """Per-parameter relative error between two gradient sets.

    The error for a tensor is the max absolute difference scaled by the
    larger of the two tensors' max magnitudes (a pair of all-zero
    tensors compares equal).  A NaN or inf in either tensor is an error
    of inf, so no tolerance passes it.
    """
    report = {}
    worst = 0.0
    for name, a in analytic.items():
        b = getattr(numeric, name)
        peaks = (np.abs(a).max(), np.abs(b).max())  # NaN or inf if any entry is
        if not np.isfinite(peaks).all():
            err = np.inf
        elif max(peaks) == 0.0:
            err = 0.0
        else:
            err = float(np.abs(a - b).max() / max(*peaks, 1e-8))
        report[name] = err
        worst = max(worst, err)
    report["max"] = worst
    return report
