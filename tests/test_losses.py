import dataclasses
import importlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from gdasum.cli import main
from gdasum.losses import (
    SIM_FLOOR,
    NumericalError,
    backward,
    dpp_kernel,
    dpp_log_prob,
    finite_diff_grad,
    gradient_report,
    keyframe_loss,
    length_loss,
    loss_and_grad,
    loss_given_params,
    pairwise_sq_dists,
    repelling_loss,
    total_loss,
    weight_penalty,
)
from gdasum.losses import _supervised as supervised
from gdasum.losses import _unsupervised as unsupervised
from gdasum.model import WEIGHT_FIELDS, HyperParams, ModelParams, forward, init_params

SMALL = HyperParams(hidden=8, embed=4, dropout_rate=0.0)


def _instance(seed, n=6, d=5, hyper=SMALL):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    params = init_params(d, hyper, seed)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=min(2, n), replace=False)] = 1
    return x, params, labels


def kernel_by_definition(y, phi, beta):
    """L_ij = y_i y_j exp(-beta ||phi_i - phi_j||^2), one pair at a time."""
    n = len(y)
    sq = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = phi[i] - phi[j]
            sq[i, j] = np.einsum("k,k->", diff, diff)
    return y[:, None] * y[None, :] * np.exp(-beta * sq)


def test_pairwise_sq_dists_matches_loops():
    rng = np.random.default_rng(0)
    small, wide = rng.standard_normal((7, 3)), rng.standard_normal((40, 256))
    scaled = 30.0 * rng.standard_normal((40, 256))
    scaled[30:] = scaled[:10]  # a duplicated block far from the origin
    for phi in (small, wide, scaled):
        n, e = phi.shape
        got = pairwise_sq_dists(phi)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        assert np.all(got >= 0.0)
        # reference: the per-pair difference, reduced by einsum; the Gram
        # form is within Higham's gamma_n dot-product bound of it
        sq = np.einsum("ij,ij->i", phi, phi)
        bound = 4 * e * np.finfo(np.float64).eps * np.add.outer(sq, sq)
        for i in range(n):
            for j in range(n):
                diff = phi[i] - phi[j]
                assert abs(got[i, j] - np.einsum("k,k->", diff, diff)) <= bound[i, j]


def test_dpp_kernel_identical_embeddings_rank_one():
    y = np.array([0.3, 0.6, 0.9])
    phi = np.ones((3, 4))
    kernel = dpp_kernel(y, phi, 1.0)
    assert np.allclose(kernel, np.outer(y, y), atol=1e-15)


def test_dpp_kernel_large_beta_diagonal():
    y = np.array([0.4, 0.7])
    phi = np.array([[0.0], [1.0]])
    kernel = dpp_kernel(y, phi, 500.0)
    assert np.allclose(kernel, np.diag(y**2), atol=1e-12)


def test_dpp_kernel_hand_example():
    y = np.array([0.8, 0.5])
    phi = np.array([[0.0], [1.0]])
    kernel = dpp_kernel(y, phi, 1.0)
    want = np.array([[0.64, 0.4 * np.exp(-1.0)], [0.4 * np.exp(-1.0), 0.25]])
    assert np.abs(kernel - want).max() < 1e-12


def test_dpp_log_prob_identity_kernel():
    kernel = np.eye(3)
    for subset in ([], [0], [1, 2], [0, 1, 2]):
        assert abs(dpp_log_prob(kernel, subset) - (-np.log(8.0))) < 1e-12


def test_dpp_log_prob_identity_kernel_of_other_sizes():
    # det(L_S) = 1 for every S, and det(L + I) = 2^n
    assert abs(dpp_log_prob(np.eye(4), [0, 2]) + 4 * np.log(2.0)) < 1e-12
    assert abs(dpp_log_prob(np.eye(2), []) + np.log(4.0)) < 1e-12


def test_dpp_log_prob_hand_example():
    kernel = np.array([[1.0, 0.5], [0.5, 1.0]])
    # det(L + I) = 2^2 - 0.25 = 3.75
    assert abs(np.exp(dpp_log_prob(kernel, [0, 1])) - 0.75 / 3.75) < 1e-12
    assert abs(np.exp(dpp_log_prob(kernel, [0])) - 1.0 / 3.75) < 1e-12
    assert abs(np.exp(dpp_log_prob(kernel, [])) - 1.0 / 3.75) < 1e-12


def test_dpp_probabilities_sum_to_one():
    for seed, n in [(0, 2), (1, 4), (2, 6), (3, 8)]:
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.2, 0.9, size=n)
        phi = rng.standard_normal((n, 3))
        kernel = kernel_by_definition(y, phi, beta=1.0)
        total = 0.0
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                total += np.exp(dpp_log_prob(kernel, subset))
        assert abs(total - 1.0) < 1e-10


def test_dpp_log_prob_rejects_bad_subsets():
    kernel = np.eye(3)
    with pytest.raises(ValueError):
        dpp_log_prob(kernel, [3])
    with pytest.raises(ValueError):
        dpp_log_prob(kernel, [0, 0])
    # a kernel that is not a square matrix is bad input, not a numerical failure
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {bad.shape}")):
            dpp_log_prob(bad, [0])


def test_dpp_log_prob_non_psd_raises():
    with pytest.raises(NumericalError):
        dpp_log_prob(np.array([[-2.0, 0.0], [0.0, -2.0]]), [0])


def test_dpp_log_prob_maximized_at_most_probable_subset():
    rng = np.random.default_rng(9)
    n = 6
    y = rng.uniform(0.2, 0.9, size=n)
    phi = rng.standard_normal((n, 2))
    kernel = kernel_by_definition(y, phi, beta=1.0)
    log_probs = {}
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            log_probs[subset] = dpp_log_prob(kernel, subset)
    best = max(log_probs, key=log_probs.get)
    # the argmax over nonempty subsets has the largest det(L_S), the
    # unnormalised probability computed by its definition
    dets = {s: np.linalg.det(kernel[np.ix_(s, s)]) for s in log_probs}
    assert dets[best] == max(dets.values())


def test_dpp_log_prob_nonpositive():
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = 5
        kernel = kernel_by_definition(r.uniform(0.1, 0.9, n), r.standard_normal((n, 2)), 1.0)
        subset = list(np.flatnonzero(r.integers(0, 2, n)))
        assert dpp_log_prob(kernel, subset) <= 0.0


def test_keyframe_loss_hand_examples():
    # logits log 9 and -log 9 are scores 0.9 and 0.1
    logit = np.log(9.0)
    assert abs(keyframe_loss(np.array([logit, -logit]), np.array([1, 0])) - (-2 * np.log(0.9))) < 1e-12
    assert abs(keyframe_loss(np.array([0.0]), np.array([1])) - np.log(2.0)) < 1e-12
    # logits far on the labels' side sit at the minimum, 0 to within rounding
    near_zero = keyframe_loss(np.array([40.0, -40.0, 40.0]), np.array([1, 0, 1]))
    assert 0.0 <= near_zero < 1e-15


def test_keyframe_loss_length_mismatch():
    with pytest.raises(ValueError):
        keyframe_loss(np.array([0.5, 0.5]), np.array([1]))


def test_length_loss_values():
    assert length_loss(np.array([0.3, 0.3]), 0.3) == 0.0
    assert abs(length_loss(np.zeros(4), 0.3) - 0.3) < 1e-15
    assert abs(length_loss(np.array([0.4, 0.6]), 0.3) - 0.2) < 1e-15


def test_repelling_loss_values():
    assert abs(repelling_loss(np.ones((3, 2))) - 1.0) < 1e-12
    assert abs(repelling_loss(np.array([[1.0, 0.0], [0.0, 1.0]]))) < 1e-15
    # 60 degrees apart
    phi = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    assert abs(repelling_loss(phi) - 0.5) < 1e-12
    assert repelling_loss(np.array([[1.0, 2.0]])) == 0.0


def test_repelling_loss_zero_norm_rejected():
    with pytest.raises(ValueError):
        repelling_loss(np.array([[0.0, 0.0], [1.0, 0.0]]))


def _repelling_by_pairs(phi):
    """Mean cosine over ordered pairs i != j, one pair at a time."""
    u = [row / np.linalg.norm(row) for row in phi]
    n = len(u)
    total = sum(float(u[i] @ u[j]) for i in range(n) for j in range(n) if i != j)
    return total / (n * (n - 1))


def test_repelling_loss_range():
    rng = np.random.default_rng(0)
    for seed in range(10):
        phi = np.random.default_rng(seed).standard_normal((6, 3))
        assert -1.0 - 1e-12 <= repelling_loss(phi) <= 1.0 + 1e-12
        assert abs(repelling_loss(phi) - _repelling_by_pairs(phi)) < 1e-14
    # rows clustered far from the origin (loss near 1), and near-antipodal
    # pairs whose unit rows sum to almost zero, so ||u_sum||^2 cancels
    clustered = 1e3 * rng.standard_normal(8) + rng.standard_normal((40, 8))
    half = rng.standard_normal((20, 8))
    antipodal = np.vstack([half, -half + 1e-6 * rng.standard_normal((20, 8))])
    for phi in (clustered, antipodal):
        assert abs(repelling_loss(phi) - _repelling_by_pairs(phi)) < 1e-14
    x, params, _ = _instance(3, n=7)
    trace = forward(x, params, SMALL, mode="eval")
    unsup = total_loss(trace, params, SMALL, "unsupervised")
    assert unsup.repelling == repelling_loss(trace.phi)


def test_weight_penalty_ignores_biases_and_norms():
    params = init_params(3, SMALL, seed=0)
    base = weight_penalty(params, 1e-3)
    params.ff_b += 100.0
    params.ln1_scale += 100.0
    params.reg_b2 += 100.0
    assert weight_penalty(params, 1e-3) == base
    assert weight_penalty(params, 0.0) == 0.0


def test_total_loss_mode_composition():
    x, params, labels = _instance(0)
    trace = forward(x, params, SMALL, mode="eval")
    sup = total_loss(trace, params, SMALL, "supervised", labels=labels)
    unsup = total_loss(trace, params, SMALL, "unsupervised")
    pen = weight_penalty(params, SMALL.weight_decay)
    assert abs(sup.total - (sup.keyframe + sup.variation + pen)) < 1e-12
    assert abs(unsup.total - (unsup.length + unsup.repelling + pen)) < 1e-12
    assert sup.length == 0.0 and sup.repelling == 0.0
    assert unsup.keyframe == 0.0 and unsup.variation == 0.0
    # components match the standalone ops, the DPP on the embeddings before their bias
    kernel = kernel_by_definition(trace.y, trace.emb_proj, SMALL.beta)
    assert abs(sup.variation + dpp_log_prob(kernel, np.flatnonzero(labels))) < 1e-12
    assert abs(sup.keyframe - keyframe_loss(trace.z, labels)) < 1e-12


def test_total_loss_requires_labels():
    x, params, _ = _instance(1)
    trace = forward(x, params, SMALL, mode="eval")
    with pytest.raises(ValueError):
        total_loss(trace, params, SMALL, "supervised", labels=None)


def test_total_loss_unsupervised_ignores_labels():
    x, params, labels = _instance(2)
    trace = forward(x, params, SMALL, mode="eval")
    with_labels = total_loss(trace, params, SMALL, "unsupervised", labels=labels)
    without = total_loss(trace, params, SMALL, "unsupervised")
    assert with_labels.total == without.total


def test_gradients_match_finite_differences_eval():
    # 0.5 checks the variation weight's scaling of the DPP gradient
    runs = (("supervised", 1.0), ("supervised", 0.5), ("unsupervised", 1.0))
    for seed in range(3):
        x, params, labels = _instance(seed)
        trace = forward(x, params, SMALL, mode="eval")
        for mode, w in runs:
            args = dict(labels=labels if mode == "supervised" else None, variation_weight=w)
            analytic = backward(trace, x, params, SMALL, mode, **args)
            numeric = finite_diff_grad(x, params, SMALL, mode, **args)
            assert gradient_report(analytic, numeric)["max"] <= 1e-4, (seed, mode, w)


def test_eval_trace_without_masks_matches_ones_masks_bit_for_bit():
    # eval mode skips the masks; multiplying by ones instead is exact
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    x, params, labels = _instance(4, n=7, hyper=hyper)
    n, (d, h, _) = x.shape[0], params.dims
    bare = forward(x, params, hyper, mode="eval")
    ones = forward(x, params, hyper, mode="train", masks=(np.ones((n, d)), np.ones((n, h))))
    assert bare.ff_mask is None and bare.head_mask is None
    for name in ("y", "phi", "ln1_xhat", "ln2_xhat"):
        assert np.array_equal(getattr(bare, name), getattr(ones, name))
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        got = backward(bare, x, params, hyper, mode, labels=lab)
        want = backward(ones, x, params, hyper, mode, labels=lab)
        for name, g in got.items():
            assert np.array_equal(g, getattr(want, name)), name


def test_gradients_match_finite_differences_with_dropout_masks():
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    x, params, labels = _instance(3, hyper=hyper)
    rng = np.random.default_rng(0)
    trace = forward(x, params, hyper, mode="train", rng=rng)
    masks = (trace.ff_mask, trace.head_mask)
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        analytic = backward(trace, x, params, hyper, mode, labels=lab)
        numeric = finite_diff_grad(x, params, hyper, mode, labels=lab, masks=masks)
        assert gradient_report(analytic, numeric)["max"] <= 1e-4


def test_unused_embedding_head_gets_zero_gradient():
    # with the variation term off and no decay, nothing reaches phi
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0, weight_decay=0.0)
    x, params, labels = _instance(4, hyper=hyper)
    trace = forward(x, params, hyper, mode="eval")
    grads = backward(
        trace, x, params, hyper, "supervised", labels=labels,
        variation_weight=0.0,
    )
    assert np.all(grads.emb_w == 0.0)
    assert np.all(grads.emb_b == 0.0)
    assert np.any(grads.reg_w2 != 0.0)


def test_gradient_report_catches_sign_flip():
    x, params, labels = _instance(5)
    trace = forward(x, params, SMALL, mode="eval")
    analytic = backward(trace, x, params, SMALL, "supervised", labels=labels)
    mutated = analytic.copy()
    mutated.reg_w1 = -mutated.reg_w1
    numeric = finite_diff_grad(x, params, SMALL, "supervised", labels=labels)
    assert gradient_report(mutated, numeric)["max"] > 1e-4


@pytest.mark.parametrize("poison", ["all", "one"])
@pytest.mark.parametrize("side", ["analytic", "numeric"])
def test_gradient_report_fails_a_non_finite_gradient(side, poison):
    _, params, _ = _instance(5)
    clean = params.copy()
    bad = params.copy()
    for value, name in zip([np.nan, np.inf], ["w_q", "reg_b2"]):
        field = getattr(bad, name)
        if poison == "all":
            field.fill(value)
        else:
            field.flat[0] = value
    pair = (bad, clean) if side == "analytic" else (clean, bad)
    report = gradient_report(*pair)
    assert report["w_q"] == report["reg_b2"] == report["max"] == np.inf
    assert report["w_k"] == 0.0


def test_finite_diff_on_quadratic():
    # (f(3 + h) - f(3 - h)) / 2h for f = x^2 is exactly 6
    h = 1e-5
    got = ((3 + h) ** 2 - (3 - h) ** 2) / (2 * h)
    assert abs(got - 6.0) < 1e-8


def test_finite_diff_halving_step_quarters_error():
    x, params, labels = _instance(6)
    trace = forward(x, params, SMALL, mode="eval")
    analytic = backward(trace, x, params, SMALL, "supervised", labels=labels)

    def max_err(step):
        numeric = finite_diff_grad(
            x, params, SMALL, "supervised", labels=labels, step=step
        )
        return max(
            np.abs(a - b).max()
            for a, b in zip(analytic.arrays(), numeric.arrays())
        )

    coarse = max_err(4e-3)
    fine = max_err(2e-3)
    assert fine < coarse * 0.4  # O(h^2): expect about 0.25


def test_loss_given_params_matches_total():
    x, params, labels = _instance(7)
    trace = forward(x, params, SMALL, mode="eval")
    want = total_loss(trace, params, SMALL, "supervised", labels=labels).total
    got = loss_given_params(x, params, SMALL, "supervised", labels=labels)
    assert got == want


def _bits_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_loss_and_grad_equals_total_loss_and_backward():
    dropout = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    cases = itertools.product((1, 2, 9), ((SMALL, "eval"), (dropout, "train")))
    for n, (hyper, fw_mode) in cases:
        x, params, labels = _instance(8, n=n, hyper=hyper)
        trace = forward(x, params, hyper, mode=fw_mode, rng=np.random.default_rng(1))
        # the kernel the variation term reads is L by its definition, bit for bit
        kernel = kernel_by_definition(trace.y, trace.emb_proj, hyper.beta)
        log_p = dpp_log_prob(kernel, np.flatnonzero(labels))
        runs = [("unsupervised", None, 1.0)]
        runs += [("supervised", labels, w) for w in (1.0, 0.5, 0.0)]
        for mode, lab, w in runs:
            args = dict(labels=lab, sigma=0.2, variation_weight=w)
            breakdown, grads = loss_and_grad(trace, x, params, hyper, mode, **args)
            assert breakdown == total_loss(trace, params, hyper, mode, **args)
            want = backward(trace, x, params, hyper, mode, **args)
            for (name, a), (_, b) in zip(grads.items(), want.items()):
                assert _bits_equal(a, b), (n, fw_mode, mode, w, name)
            if mode == "supervised":
                assert breakdown.variation == w * -log_p, (n, fw_mode, w)


@pytest.mark.parametrize("dtype, logit", [(np.float64, 40.0), (np.float32, 20.0)])
def test_a_score_saturated_on_the_wrong_side_keeps_its_loss_and_gradient(dtype, logit):
    # every logit is far on the keyframe side of frames labelled 0, so each
    # score rounds to exactly 1; the loss is still about the logit per frame
    # and the logit gradient sigmoid(z) - 0 is 1, which reaches reg_b2 as N
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0)
    x, params, _ = _instance(12, hyper=hyper)
    params.reg_w2[...] = 0.0
    params.reg_b2[...] = logit
    params = params.astype(dtype)
    trace = forward(x, params, hyper, mode="eval")
    assert trace.y.dtype == dtype and np.all(trace.y == 1.0)
    n = len(x)
    breakdown, grads = loss_and_grad(
        trace, x, params, hyper, "supervised", labels=np.zeros(n), variation_weight=0.0
    )
    assert breakdown.keyframe == pytest.approx(n * logit, rel=1e-8)
    assert grads.reg_b2[0] == pytest.approx(n, rel=1e-6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_supervised_loss_does_not_read_the_embedding_bias(dtype):
    # the DPP reads the embeddings before their bias, so shifting emb_b moves
    # no loss term and no other field's gradient, not even in rounding
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    x, params, labels = _instance(13, n=9, hyper=hyper)
    shifted = params.copy()
    shifted.emb_b[...] = 3.0 * np.random.default_rng(13).standard_normal(shifted.emb_b.shape)
    results = []
    for p in (params.astype(dtype), shifted.astype(dtype)):
        trace = forward(x, p, hyper, mode="train", rng=np.random.default_rng(1))
        results.append(loss_and_grad(trace, x, p, hyper, "supervised", labels=labels))
    (b0, g0), (b1, g1) = results
    assert b0 == b1
    for (name, a), (_, b) in zip(g0.items(), g1.items()):
        if name != "emb_b":
            assert a.tobytes() == b.tobytes(), name


def test_loss_and_grad_fields_are_fresh_arrays_shaped_like_the_parameters():
    # each gradient field is a fresh array: the one its branch computed, or
    # the one weight decay was built in; none may alias another array
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4, weight_decay=0.01)
    x, params, labels = _instance(8, n=9, hyper=hyper)
    trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(1))
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        _, grads = loss_and_grad(trace, x, params, hyper, mode, labels=lab)
        others = params.arrays() + [a for a in vars(trace).values() if isinstance(a, np.ndarray)]
        for name, g in grads.items():
            assert g.shape == getattr(params, name).shape and g.dtype == np.float64, name
            assert g.flags.c_contiguous, name
            others_here = others + [h for h in grads.arrays() if h is not g]
            assert not any(np.shares_memory(g, a) for a in others_here), name


def test_loss_and_grad_leaves_its_inputs_intact():
    # the backward runs in place only on arrays it made itself
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4, weight_decay=0.01)
    x, params, labels = _instance(12, n=9, hyper=hyper)
    trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(1))
    inputs = [x, *params.arrays(), *(a for a in vars(trace).values() if isinstance(a, np.ndarray))]
    before = [a.tobytes() for a in inputs]
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        loss_and_grad(trace, x, params, hyper, mode, labels=lab)
        assert [a.tobytes() for a in inputs] == before, mode


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# A training step at N=1500, D=8 in units of one N x N array.  forward holds
# only alpha, which the trace keeps; the attention's reverse pass adds one
# more, dA, and the DPP path holds L and G = d(-log P)/dL, with L + I and
# inv's workspace while G is made.
@pytest.mark.parametrize("mode, bound", [("unsupervised", 2.5), ("supervised", 4.5)])
def test_training_step_peak_in_n_by_n_arrays(mode, bound):
    n = 1500
    hyper = HyperParams(hidden=16, embed=4, dropout_rate=0.0)
    params = init_params(8, hyper, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 8))
    labels = np.zeros(n)
    labels[::7] = 1.0

    def step():
        trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(0))
        return loss_and_grad(trace, x, params, hyper, mode, labels=labels)

    peak, _ = _traced_peak(step)
    assert peak < bound * 8 * n * n


# loss_and_grad at N = D = H = 256 beside a trace made beforehand: the peak
# above the returned gradients, in units of one float64 N x D array.  What
# remains is the float64 copy of x, one (N, D) gradient and one N x N array,
# plus in supervised mode the DPP path's N x N arrays (N x N is N x D here).
@pytest.mark.parametrize("mode, bound", [("unsupervised", 3.0), ("supervised", 5.0)])
def test_loss_and_grad_holds_few_n_by_d_arrays_beside_its_gradients(mode, bound):
    n = d = 256
    hyper = HyperParams(hidden=d, embed=64)
    params = init_params(d, hyper, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, d)).astype(np.float32)
    labels = np.zeros(n)
    labels[::9] = 1.0
    trace = forward(x, params, hyper, mode="train", rng=rng)
    peak, (_, grads) = _traced_peak(
        lambda: loss_and_grad(trace, x, params, hyper, mode, labels=labels)
    )
    held = sum(g.nbytes for g in grads.arrays())
    assert peak - held < bound * 8 * n * d


def test_unsupervised_loss_and_grad_hold_few_n_by_e_arrays():
    # the repelling term reads unit rows and their sum, never an N x N array
    n, e = 2000, 8
    rng = np.random.default_rng(0)
    y, phi = rng.uniform(0.1, 0.9, n), rng.standard_normal((n, e))
    peak, (dz, dphi) = _traced_peak(lambda: unsupervised(y, phi, 0.3)[2]())
    assert dphi.shape == (n, e) and dz.shape == (n,)
    assert peak < 8 * (8 * n * e)


def test_loss_and_grad_stops_on_non_finite_loss(monkeypatch):
    x, params, labels = _instance(9)
    trace = forward(x, params, SMALL, mode="eval")
    losses_module = importlib.import_module("gdasum.losses")
    called = []

    def no_gradient_work():
        raise AssertionError("gradient computed for a non-finite loss")

    # each mode's objective keeps its real terms, one of them made infinite,
    # and hands back a gradient function that must never run
    for objective, term in (("_supervised", "keyframe_loss"), ("_unsupervised", "length_loss")):
        def without_gradient(*args, real=getattr(losses_module, objective), name=objective):
            called.append(name)
            *terms, _ = real(*args)
            return (*terms, no_gradient_work)

        monkeypatch.setattr(losses_module, objective, without_gradient)
        monkeypatch.setattr(losses_module, term, lambda *a, **k: np.inf)
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        with pytest.raises(NumericalError, match="non-finite loss"):
            loss_and_grad(trace, x, params, SMALL, mode, labels=lab)
    assert called == ["_supervised", "_unsupervised"]


def test_backward_refuses_the_non_finite_gradient_that_loss_and_grad_returns(
    monkeypatch, capsys
):
    # the check of a gradient is backward's (and, in train, adam_step's), not loss_and_grad's
    x, params, labels = _instance(10)
    hyper = dataclasses.replace(SMALL, weight_decay=0.1)  # the NaN field also takes the decay
    trace = forward(x, params, hyper, mode="eval")
    clean = loss_and_grad(trace, x, params, hyper, "supervised", labels=labels)[1]
    losses_module = importlib.import_module("gdasum.losses")
    network_grad = losses_module.network_grad

    def nan_in_ff_w(*args):
        grads = network_grad(*args)
        grads.ff_w[1, 2] = np.nan
        return grads

    monkeypatch.setattr(losses_module, "network_grad", nan_in_ff_w)
    with pytest.raises(
        NumericalError, match=r"^gradient: non-finite values in parameter 'ff_w'$"
    ):
        backward(trace, x, params, hyper, "supervised", labels=labels)
    _, grads = loss_and_grad(trace, x, params, hyper, "supervised", labels=labels)
    clean.ff_w[1, 2] = np.nan
    for name, g in grads.items():
        assert np.array_equal(g, getattr(clean, name), equal_nan=True), name

    capsys.readouterr()
    assert main(["gradcheck", "--instances", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: gradient: non-finite values in parameter 'ff_w'\n"
    assert captured.out == ""


def test_loss_and_grad_keeps_weight_decay_for_fortran_ordered_parameters():
    # the decay term reads the weights in any memory order, and the gradient
    # fields stay C-contiguous in the parameters' dtype
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0, weight_decay=0.1)
    x, params, labels = _instance(11, hyper=hyper)
    for dtype in (np.float64, np.float32):
        c_order = params.astype(dtype)
        fortran = ModelParams(*[np.asfortranarray(a) for a in c_order.arrays()])
        results = []
        for p in (c_order, fortran):
            trace = forward(x, p, hyper, mode="eval")
            results.append(loss_and_grad(trace, x, p, hyper, "supervised", labels=labels)[1])
        for (name, a), b in zip(results[0].items(), results[1].arrays()):
            assert a.tobytes() == b.tobytes(), (dtype, name)
            assert a.dtype == b.dtype == dtype and b.flags.c_contiguous, (dtype, name)


def test_loss_and_grad_adds_the_penalty_gradient_to_weight_fields_only():
    # the reverse pass does not read the decay, so each weight field's gradient
    # is the undecayed one plus 2 * weight_decay * theta, rounded once
    x, params, labels = _instance(14, n=9)
    for dtype in (np.float64, np.float32):
        p = params.astype(dtype)
        trace = forward(x, p, SMALL, mode="eval")
        grads = {}
        for decay in (0.0, 0.25):
            hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0, weight_decay=decay)
            grads[decay] = loss_and_grad(trace, x, p, hyper, "supervised", labels=labels)[1]
        for name, theta in p.items():
            bare, decayed = getattr(grads[0.0], name), getattr(grads[0.25], name)
            want = bare + 0.5 * theta if name in WEIGHT_FIELDS else bare
            assert decayed.dtype == dtype and decayed.tobytes() == want.tobytes(), (dtype, name)


def test_backward_and_loss_given_params_as_the_benchmark_calls_them():
    # keyword and positional use as in the benchmark's directional check
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    sigma = 0.3
    x, params, labels = _instance(10, n=8, hyper=hyper)
    rng = np.random.default_rng(10)
    trace = forward(x, params, hyper, mode="train", rng=rng)
    masks = (trace.ff_mask, trace.head_mask)
    for mode, lab in (("supervised", labels), ("unsupervised", None)):
        grads = backward(trace, x, params, hyper, mode, labels=lab, sigma=sigma)
        direction = params.zeros_like()
        for _, arr in direction.items():
            arr[...] = rng.standard_normal(arr.shape)
        analytic = sum(
            float((g * v).sum()) for g, v in zip(grads.arrays(), direction.arrays())
        )
        step = 1e-6
        up, down = params.copy(), params.copy()
        for (_, u), (_, d), (_, v) in zip(up.items(), down.items(), direction.items()):
            u += step * v
            d -= step * v
        numeric = (
            loss_given_params(x, up, hyper, mode, lab, sigma, masks=masks)
            - loss_given_params(x, down, hyper, mode, lab, sigma, masks=masks)
        ) / (2 * step)
        assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic))


def _floored_cases():
    """Supervised instances whose similarities reach below ``SIM_FLOOR``.

    With emb_w scaled tenfold, beta ||phi_i - phi_j||^2 runs from about 31
    to 3353 in eval mode: four pairs stay below 200 ln 2 (similarity above
    the floor), most fall between 200 ln 2 and 708 (normal floats below
    the floor), and one, near 726, is subnormal.  Yields (hyper, x,
    params, labels, trace, masks) for an eval trace and for a trace with
    recorded dropout masks.
    """
    dropout = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    for hyper, fw_mode in ((SMALL, "eval"), (dropout, "train")):
        x, params, labels = _instance(1, n=8, hyper=hyper)
        params.emb_w *= 10.0
        trace = forward(x, params, hyper, mode=fw_mode, rng=np.random.default_rng(2))
        masks = None if fw_mode == "eval" else (trace.ff_mask, trace.head_mask)
        _assert_reaches_floored_band(trace, hyper.beta)
        yield hyper, x, params, labels, trace, masks


def _assert_reaches_floored_band(trace, beta):
    raw = np.exp(-beta * pairwise_sq_dists(trace.phi))
    off_diagonal = raw[~np.eye(len(raw), dtype=bool)]
    assert np.any((off_diagonal >= SIM_FLOOR) & (off_diagonal < 1.0))
    assert np.any((raw > 0.0) & (raw < SIM_FLOOR))
    return raw


def test_similarity_floor_stores_tiny_entries_as_exact_zeros():
    hyper, _, _, _, trace, _ = next(_floored_cases())
    raw = _assert_reaches_floored_band(trace, hyper.beta)
    assert np.any((raw > 0.0) & (raw < np.finfo(np.float64).tiny))  # a subnormal
    kernel = dpp_kernel(trace.y, trace.phi, hyper.beta)
    floored = np.where(raw < SIM_FLOOR, 0.0, raw)
    assert _bits_equal(kernel, np.outer(trace.y, trace.y) * floored)
    assert not np.any((kernel != 0.0) & (np.abs(kernel) < np.finfo(np.float64).tiny))
    assert np.array_equal(kernel == 0.0, floored == 0.0)


def test_similarity_floor_leaves_loss_and_gradient_bit_identical(monkeypatch):
    losses_module = importlib.import_module("gdasum.losses")
    for hyper, x, params, labels, trace, _ in _floored_cases():
        floored = loss_and_grad(trace, x, params, hyper, "supervised", labels=labels)
        with monkeypatch.context() as patch:
            patch.setattr(losses_module, "SIM_FLOOR", 0.0)
            reference = loss_and_grad(trace, x, params, hyper, "supervised", labels=labels)
        assert floored[0] == reference[0]
        for (name, a), (_, b) in zip(floored[1].items(), reference[1].items()):
            assert _bits_equal(a, b), name


def test_gradients_match_finite_differences_below_the_similarity_floor():
    for hyper, x, params, labels, trace, masks in _floored_cases():
        analytic = backward(trace, x, params, hyper, "supervised", labels=labels)
        numeric = finite_diff_grad(
            x, params, hyper, "supervised", labels=labels, masks=masks
        )
        assert gradient_report(analytic, numeric)["max"] <= 1e-4


def _textbook_supervised_gradients(trace, labels, beta, w):
    """(dz, dphi, dphi's scale) of keyframe BCE + w * -log P(labels), one formula each.

    With S and L = y y^T * S from ``kernel_by_definition`` and
    G = w ((L + I)^-1 - scatter((L_labels)^-1)), the derivative of the DPP
    term in L: dz = y - labels + y (1 - y) 2 (G * S) y, and
    dphi_k = -4 beta sum_j G_kj L_kj (phi_k - phi_j).  The scale is that
    sum with every term's magnitude, 4 beta sum_j |G_kj L_kj| (|phi_k| + |phi_j|).
    """
    y, phi = trace.y, trace.emb_proj
    n, subset = len(y), np.flatnonzero(labels)
    sim = kernel_by_definition(np.ones(n), phi, beta)
    kernel = kernel_by_definition(y, phi, beta)
    g = np.linalg.inv(kernel + np.eye(n))
    g[np.ix_(subset, subset)] -= np.linalg.inv(kernel[np.ix_(subset, subset)])
    g *= w
    dz = y - labels + y * (1.0 - y) * 2.0 * ((g * sim) @ y)
    gl = g * kernel
    dphi = np.array([sum(gl[k, j] * (phi[k] - phi[j]) for j in range(n)) for k in range(n)])
    scale = np.abs(gl).sum(axis=1)[:, None] * np.abs(phi) + np.abs(gl) @ np.abs(phi)
    return dz, -4.0 * beta * dphi, 4.0 * beta * scale


def _supervised_cases():
    """Small well-conditioned instances, eval and dropout traces, then ``_floored_cases``."""
    dropout = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    for (n, size), (hyper, fw_mode) in itertools.product(
        ((1, 1), (4, 0), (6, 2), (9, 3)), ((SMALL, "eval"), (dropout, "train"))
    ):
        x, params, _ = _instance(3, n=n, hyper=hyper)
        labels = np.zeros(n)
        labels[np.random.default_rng(n).choice(n, size=size, replace=False)] = 1.0
        trace = forward(x, params, hyper, mode=fw_mode, rng=np.random.default_rng(1))
        yield hyper, labels, trace
    for hyper, _, _, labels, trace, _ in _floored_cases():
        yield hyper, labels.astype(np.float64), trace


def test_supervised_gradient_matches_the_textbook_formulas():
    # the logit gradient comes from the row sums of G * L, not from (G * S) y.
    # dphi's terms have both signs and its diagonal ones cancel exactly, so its
    # error is relative to its terms' magnitudes: in the floored eval case,
    # where no similarity exceeds 4e-14, the textbook dphi is ~1e-29 and
    # grad()'s rounds to exactly 0
    for hyper, labels, trace in _supervised_cases():
        for w in (1.0, 0.5):
            _, _, grad = supervised(trace.z, trace.y, trace.emb_proj, labels, hyper.beta, w)
            dz, dphi = grad()
            want_dz, want_dphi, scale = _textbook_supervised_gradients(
                trace, labels, hyper.beta, w
            )
            np.testing.assert_allclose(dz, want_dz, rtol=1e-12, atol=0)
            assert np.all(np.abs(dphi - want_dphi) <= 1e-12 * scale)


# A float32 dot product of length D is exact to about D * u relative to
# the sum of its terms' magnitudes, u = eps / 2 (Higham, "Accuracy and
# Stability of Numerical Algorithms", section 3.1).  Forward and reverse,
# a parameter's gradient passes through at most 16 products and sums of
# length at most D, hence 16 * D * u = 8 * D * eps, about 9.8e-4 at D = 1024.
PAPER_D = 1024
FLOAT32_TOL = 8 * PAPER_D * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
def test_float32_network_matches_float64_at_the_paper_width(mode):
    # the training step: float32 parameters under float64 loss terms.
    # The bound is relative to the terms' magnitudes, so each field's error
    # is measured against the step's largest gradient entry: a field whose
    # exact gradient cancels to nearly 0 (emb_b in supervised mode; w_q and
    # w_k at initialisation, where ff_b = 0 lets layer norm remove the
    # diversity weights' scale) keeps an error of the terms' size
    n, hyper = 300, HyperParams(hidden=64, embed=16)
    params = init_params(PAPER_D, hyper, seed=0)
    p32 = params.astype(np.float32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, PAPER_D)).astype(np.float32)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=30, replace=False)] = 1
    t32 = forward(x, p32, hyper, mode="train", rng=np.random.default_rng(1))
    t64 = forward(x, params, hyper, mode="train", rng=np.random.default_rng(1))
    b32, g32 = loss_and_grad(t32, x, p32, hyper, mode, labels=labels)
    b64, g64 = loss_and_grad(t64, x, params, hyper, mode, labels=labels)
    # the penalty sums the float32 weights in float64: rounding them moves it by <= eps
    assert abs(b32.weight_penalty - b64.weight_penalty) <= np.finfo(np.float32).eps * b64.weight_penalty
    assert abs(b32.total - b64.total) <= FLOAT32_TOL * abs(b64.total)
    scale = max(np.abs(b).max() for b in g64.arrays())
    for (name, a), b in zip(g32.items(), g64.arrays()):
        # the gradient the optimizer sees, with the decay term
        assert a.dtype == np.float32, name
        assert np.abs(a - b).max() <= FLOAT32_TOL * scale, name
