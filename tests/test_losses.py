import importlib
import itertools

import numpy as np
import pytest

from gdasum.losses import (
    NumericalError,
    backward,
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
    variation_loss,
    weight_penalty,
)
from gdasum.losses import _similarity_and_kernel as similarity_and_kernel
from gdasum.model import HyperParams, forward, init_params

SMALL = HyperParams(hidden=8, embed=4, dropout_rate=0.0)


def _instance(seed, n=6, d=5, hyper=SMALL):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    params = init_params(d, hyper, seed)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.choice(n, size=2, replace=False)] = 1
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
    for n, e in [(7, 3), (40, 256)]:
        phi = rng.standard_normal((n, e))
        got = pairwise_sq_dists(phi)
        # exact: the per-pair difference, reduced in einsum's order
        for i in range(n):
            for j in range(n):
                diff = phi[i] - phi[j]
                assert got[i, j] == np.einsum("k,k->", diff, diff)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)


def test_dpp_kernel_identical_embeddings_rank_one():
    y = np.array([0.3, 0.6, 0.9])
    phi = np.ones((3, 4))
    kernel = similarity_and_kernel(y, phi, 1.0)[1]
    assert np.allclose(kernel, np.outer(y, y), atol=1e-15)


def test_dpp_kernel_large_beta_diagonal():
    y = np.array([0.4, 0.7])
    phi = np.array([[0.0], [1.0]])
    kernel = similarity_and_kernel(y, phi, 500.0)[1]
    assert np.allclose(kernel, np.diag(y**2), atol=1e-12)


def test_dpp_kernel_hand_example():
    y = np.array([0.8, 0.5])
    phi = np.array([[0.0], [1.0]])
    kernel = similarity_and_kernel(y, phi, 1.0)[1]
    want = np.array([[0.64, 0.4 * np.exp(-1.0)], [0.4 * np.exp(-1.0), 0.25]])
    assert np.abs(kernel - want).max() < 1e-12


def test_dpp_log_prob_identity_kernel():
    kernel = np.eye(3)
    for subset in ([], [0], [1, 2], [0, 1, 2]):
        assert abs(dpp_log_prob(kernel, subset) - (-np.log(8.0))) < 1e-12


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


def test_dpp_log_prob_non_psd_raises():
    with pytest.raises(NumericalError):
        dpp_log_prob(np.array([[-2.0, 0.0], [0.0, -2.0]]), [0])


def test_variation_loss_identity_kernel():
    assert abs(variation_loss(np.eye(4), [0, 2]) - 4 * np.log(2.0)) < 1e-12
    assert abs(variation_loss(np.eye(2), []) - np.log(4.0)) < 1e-12


def test_variation_loss_minimized_at_most_probable_subset():
    rng = np.random.default_rng(9)
    n = 6
    y = rng.uniform(0.2, 0.9, size=n)
    phi = rng.standard_normal((n, 2))
    kernel = kernel_by_definition(y, phi, beta=1.0)
    losses = {}
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            losses[subset] = variation_loss(kernel, subset)
    best = min(losses, key=losses.get)
    # the argmin over nonempty subsets has maximal probability
    probs = {s: np.exp(dpp_log_prob(kernel, s)) for s in losses}
    assert probs[best] == max(probs.values())


def test_variation_loss_nonnegative():
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = 5
        kernel = kernel_by_definition(r.uniform(0.1, 0.9, n), r.standard_normal((n, 2)), 1.0)
        subset = list(np.flatnonzero(r.integers(0, 2, n)))
        assert variation_loss(kernel, subset) >= 0.0


def test_keyframe_loss_hand_examples():
    assert abs(keyframe_loss(np.array([0.9, 0.1]), np.array([1, 0])) - (-2 * np.log(0.9))) < 1e-12
    assert abs(keyframe_loss(np.array([0.5]), np.array([1])) - np.log(2.0)) < 1e-12
    # scores equal to the (clipped) labels sit at the minimum, about 2e-7 per frame
    near_zero = keyframe_loss(np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1]))
    assert 0.0 <= near_zero < 1e-6


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


def test_repelling_loss_range():
    for seed in range(10):
        phi = np.random.default_rng(seed).standard_normal((6, 3))
        assert -1.0 - 1e-12 <= repelling_loss(phi) <= 1.0 + 1e-12


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
    # components match the standalone ops
    kernel = kernel_by_definition(trace.y, trace.phi, SMALL.beta)
    assert abs(sup.variation - variation_loss(kernel, np.flatnonzero(labels))) < 1e-12
    assert abs(sup.keyframe - keyframe_loss(trace.y, labels)) < 1e-12


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
    for seed in range(3):
        x, params, labels = _instance(seed)
        for mode in ("supervised", "unsupervised"):
            lab = labels if mode == "supervised" else None
            trace = forward(x, params, SMALL, mode="eval")
            analytic = backward(trace, x, params, SMALL, mode, labels=lab)
            numeric = finite_diff_grad(x, params, SMALL, mode, labels=lab)
            assert gradient_report(analytic, numeric)["max"] <= 1e-4


def test_eval_trace_without_masks_matches_ones_masks_bit_for_bit():
    # eval mode skips the masks; multiplying by ones instead is exact
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.4)
    x, params, labels = _instance(4, n=7, hyper=hyper)
    n, (d, h, _) = x.shape[0], params.dims
    bare = forward(x, params, hyper, mode="eval")
    ones = forward(x, params, hyper, mode="train", masks=(np.ones((n, d)), np.ones((n, h))))
    assert bare.ff_mask is None and bare.head_mask is None
    for name in ("y", "phi", "ff_out"):
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
    for hyper, fw_mode in ((SMALL, "eval"), (dropout, "train")):
        x, params, labels = _instance(8, n=9, hyper=hyper)
        trace = forward(x, params, hyper, mode=fw_mode, rng=np.random.default_rng(1))
        for mode, lab in (("supervised", labels), ("unsupervised", None)):
            breakdown, grads = loss_and_grad(
                trace, x, params, hyper, mode, labels=lab, sigma=0.2
            )
            assert breakdown == total_loss(
                trace, params, hyper, mode, labels=lab, sigma=0.2
            )
            want = backward(trace, x, params, hyper, mode, labels=lab, sigma=0.2)
            for (name, a), (_, b) in zip(grads.items(), want.items()):
                assert _bits_equal(a, b), name
        # the shared kernel is L by its definition, bit for bit
        kernel = kernel_by_definition(trace.y, trace.phi, hyper.beta)
        sup = total_loss(trace, params, hyper, "supervised", labels=labels)
        assert sup.variation == variation_loss(kernel, np.flatnonzero(labels))


def test_loss_and_grad_stops_on_non_finite_loss(monkeypatch):
    x, params, _ = _instance(9)
    trace = forward(x, params, SMALL, mode="eval")
    losses_module = importlib.import_module("gdasum.losses")
    monkeypatch.setattr(losses_module, "length_loss", lambda *a, **k: np.inf)

    def no_gradient_work(*args, **kwargs):
        raise AssertionError("gradient computed for a non-finite loss")

    monkeypatch.setattr(losses_module, "_loss_grads_y_phi", no_gradient_work)
    with pytest.raises(NumericalError, match="non-finite loss"):
        loss_and_grad(trace, x, params, SMALL, "unsupervised")


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
