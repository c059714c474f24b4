import dataclasses
import math
import re

import numpy as np
import pytest

from gdasum.model import (
    LAYERNORM_EPS,
    LOG_ALPHA_FLOOR,
    WEIGHT_FIELDS,
    ForwardTrace,
    HyperParams,
    _attention,
    _dropout_mask,
    _log_keep_sums,
    _simplex,
    _softmax_columns,
    forward,
    init_params,
    layernorm_backward,
    network_grad,
    score_frames,
    sigmoid,
    sum_of_squares,
)

SMALL = HyperParams(hidden=8, embed=4, dropout_rate=0.5)
CLIP = HyperParams().alpha_clip


def attention_of(trace):
    return _attention(trace.q_proj, trace.k_proj)


def softmax_columns(a):
    """The network's column softmax, on a copy."""
    return _softmax_columns(a.copy())


def diversity(alpha):
    """The network's diversity weights."""
    return _simplex(_log_keep_sums(alpha, CLIP))


def test_init_xavier_bounds():
    params = init_params(4, SMALL, seed=0)
    bound = np.sqrt(6.0 / (4 + 4))
    assert np.abs(params.w_q).max() <= bound
    assert np.abs(params.w_k).max() <= bound
    # biases zero, norm layers at identity
    assert np.all(params.ff_b == 0.0)
    assert np.all(params.reg_b1 == 0.0)
    assert np.all(params.ln1_scale == 1.0)
    assert np.all(params.ln2_offset == 0.0)


def test_init_deterministic():
    a = init_params(5, SMALL, seed=42)
    b = init_params(5, SMALL, seed=42)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)
    c = init_params(5, SMALL, seed=43)
    assert not np.array_equal(a.w_q, c.w_q)


def test_init_xavier_variance():
    # 1e6 draws: sample variance within 5% of 2/(fan_in + fan_out)
    params = init_params(1000, HyperParams(hidden=4, embed=4), seed=1)
    sample_var = params.w_q.var()
    expected = 2.0 / (1000 + 1000)
    assert abs(sample_var - expected) / expected < 0.05


def test_attention_orthonormal_identity():
    d = 4
    params = init_params(d, SMALL, seed=0)
    params.w_q = np.eye(d)
    params.w_k = np.eye(d)
    a = attention_of(forward(np.eye(d), params, SMALL))
    assert np.allclose(a, np.eye(d) / np.sqrt(d), atol=1e-12)


def test_attention_zero_projection():
    params = init_params(3, SMALL, seed=0)
    params.w_q = np.zeros((3, 3))
    a = attention_of(forward(np.random.default_rng(0).standard_normal((5, 3)), params, SMALL))
    assert np.all(a == 0.0)


def test_attention_matches_triple_loop():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2))
    params = init_params(2, SMALL, seed=7)
    a = attention_of(forward(x, params, SMALL))
    q = 2
    for i in range(3):
        for j in range(3):
            qi = params.w_q @ x[i]
            kj = params.w_k @ x[j]
            want = float(qi @ kj) / np.sqrt(q)
            assert abs(a[i, j] - want) < 1e-12


def test_normalize_uniform():
    alpha = softmax_columns(np.zeros((4, 4)))
    assert np.allclose(alpha, 0.25, atol=1e-15)


def test_normalize_hand_example():
    a = np.array([[0.0, np.log(2.0)], [0.0, 0.0]])
    alpha = softmax_columns(a)
    assert np.allclose(alpha[:, 0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(alpha[:, 1], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_normalize_column_shift_invariance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    shifted = a.copy()
    shifted[:, 2] += 17.5
    base = softmax_columns(a)
    moved = softmax_columns(shifted)
    assert np.allclose(moved[:, 2], base[:, 2], atol=1e-12)


def test_normalize_columns_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        alpha = softmax_columns(rng.standard_normal((8, 8)) * 5)
        assert np.abs(alpha.sum(axis=0) - 1.0).max() < 1e-9


def test_diversity_uniform():
    alpha = np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(diversity(alpha), 1.0 / 3.0, atol=1e-12)


def test_diversity_hand_example():
    alpha = np.array([[0.5, 2.0 / 3.0], [0.5, 1.0 / 3.0]])
    d = diversity(alpha)
    assert np.allclose(d, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_diversity_single_frame():
    assert np.array_equal(diversity(np.array([[1.0]])), [1.0])


def test_diversity_matches_direct_product():
    # log-space result equals the naive product when nothing underflows;
    # entries bounded by 1/1.2 < 0.9 by construction
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        alpha = rng.uniform(0.2, 1.0, size=(n, n))
        alpha /= alpha.sum(axis=0, keepdims=True)
        assert alpha.max() <= 0.9
        direct = np.prod(1.0 - np.clip(alpha, CLIP, 1 - CLIP), axis=1)
        direct /= direct.sum()
        assert np.abs(diversity(alpha) - direct).max() < 1e-10


def test_forward_eval_invariants():
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 12))
        x = r.standard_normal((n, 5))
        params = init_params(5, SMALL, seed=seed)
        trace = forward(x, params, SMALL, mode="eval")
        assert np.abs(trace.alpha.sum(axis=0) - 1.0).max() < 1e-9
        assert np.all(trace.d > 0.0)
        assert abs(trace.d.sum() - 1.0) < 1e-9
        assert np.all((trace.y > 0.0) & (trace.y < 1.0))
        assert trace.phi.shape == (n, SMALL.embed)


def test_forward_permutation_equivariance():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 7
        x = rng.standard_normal((n, 4))
        params = init_params(4, SMALL, seed=seed)
        perm = rng.permutation(n)
        base = forward(x, params, SMALL, mode="eval")
        moved = forward(x[perm], params, SMALL, mode="eval")
        assert np.abs(moved.y - base.y[perm]).max() < 1e-9
        assert np.abs(moved.d - base.d[perm]).max() < 1e-9
        assert np.abs(moved.phi - base.phi[perm]).max() < 1e-9
        assert np.abs(attention_of(moved) - attention_of(base)[np.ix_(perm, perm)]).max() < 1e-9


def test_forward_train_deterministic_given_rng():
    x = np.random.default_rng(1).standard_normal((6, 3))
    params = init_params(3, SMALL, seed=1)
    t1 = forward(x, params, SMALL, mode="train", rng=np.random.default_rng(9))
    t2 = forward(x, params, SMALL, mode="train", rng=np.random.default_rng(9))
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.ff_mask, t2.ff_mask)


def test_forward_train_needs_rng():
    x = np.zeros((2, 3))
    params = init_params(3, SMALL, seed=0)
    with pytest.raises(ValueError):
        forward(x, params, SMALL, mode="train")


def test_forward_unknown_mode():
    params = init_params(3, SMALL, seed=0)
    with pytest.raises(ValueError):
        forward(np.zeros((2, 3)), params, SMALL, mode="test")


def test_forward_rejects_nonfinite():
    params = init_params(3, SMALL, seed=0)
    x = np.zeros((2, 3))
    x[0, 0] = np.nan
    with pytest.raises(ValueError):
        forward(x, params, SMALL, mode="eval")


@pytest.mark.parametrize("entry", [forward, score_frames], ids=["forward", "score_frames"])
def test_zero_frames_are_refused_naming_the_shape(entry):
    params = init_params(3, SMALL, seed=0)
    with pytest.raises(ValueError, match=r"shape \(0, 3\): no frames"):
        entry(np.zeros((0, 3)), params, SMALL)


def reference_dropout_mask(shape, rate, rng):
    """The mask as a comparison cast to float64, then scaled: three arrays."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.6, 0.9])
def test_dropout_mask_equals_the_out_of_place_mask_and_draws_the_same(rate):
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    for shape in ((1, 1), (7, 5), (300, 64)):
        got = _dropout_mask(shape, rate, got_rng)
        want = reference_dropout_mask(shape, rate, want_rng)
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_layernorm_backward(dout, xhat, inv_std, scale):
    """The layer-norm gradient as one out-of-place formula."""
    dscale = (dout * xhat).sum(axis=0)
    doffset = dout.sum(axis=0)
    dxhat = dout * scale
    dx = inv_std[:, None] * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
    )
    return dx, dscale, doffset


@pytest.mark.parametrize("n, width", [(1, 1), (1, 6), (9, 5), (64, 129), (300, 1024)])
def test_layernorm_backward_equals_the_out_of_place_formula(n, width):
    rng = np.random.default_rng(n * width)
    pre = rng.standard_normal((n, width)) * 3.0 + 1.0
    pre[n // 2] = 0.0  # a zero row: xhat is 0 there and inv_std is 1/sqrt(eps)
    xhat = pre - pre.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat**2).mean(axis=1) + LAYERNORM_EPS)
    xhat *= inv_std[:, None]
    scale = rng.standard_normal(width)
    for dout in (rng.standard_normal((n, width)), np.zeros((n, width))):
        dout[-1] = 0.0
        before = dout.copy()
        got = layernorm_backward(dout, xhat, inv_std, scale)
        want = reference_layernorm_backward(dout, xhat, inv_std, scale)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert dout.tobytes() == before.tobytes()


def test_dropout_identity_at_rate_zero():
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.0)
    x = np.random.default_rng(2).standard_normal((5, 3))
    params = init_params(3, hyper, seed=2)
    t_train = forward(x, params, hyper, mode="train", rng=np.random.default_rng(0))
    t_eval = forward(x, params, hyper, mode="eval")
    assert np.allclose(t_train.y, t_eval.y, atol=1e-15)


def test_dropout_inverted_scaling_is_unbiased():
    # the kept/scaled mask should average to 1 per unit
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    params = init_params(3, SMALL, seed=0)
    total = np.zeros((4, 3))
    reps = 4000
    for _ in range(reps):
        t = forward(x, params, SMALL, mode="train", rng=rng)
        total += t.ff_mask
    assert np.abs(total / reps - 1.0).max() < 0.15


def test_sigmoid_extremes_finite():
    z = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[0] >= 0.0 and s[-1] <= 1.0
    assert abs(s[2] - 0.5) < 1e-15


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(hidden=0, embed=4)
    with pytest.raises(ValueError):
        HyperParams(hidden=8, embed=4, dropout_rate=1.0)
    with pytest.raises(ValueError):
        HyperParams(hidden=8, embed=4, weight_decay=-1e-3)
    with pytest.raises(ValueError):
        HyperParams(hidden=8, embed=4, beta=0.0)
    with pytest.raises(ValueError, match=re.escape("alpha_clip must lie in (0, 0.5)")):
        HyperParams(hidden=8, embed=4, alpha_clip=0.5)


def test_init_params_refuses_a_feature_dim_below_one():
    with pytest.raises(ValueError, match="feature_dim must be positive"):
        init_params(0, SMALL, 0)


@pytest.mark.parametrize("widths", [
    {"hidden": 8.0}, {"embed": 4.0}, {"hidden": np.int64(8)}, {"embed": True},
], ids=["float-hidden", "float-embed", "numpy-int-hidden", "bool-embed"])
def test_hyperparams_refuse_widths_that_are_not_ints(widths):
    with pytest.raises(TypeError, match="hidden and embed widths must be ints"):
        HyperParams(**{"hidden": 8, "embed": 4, **widths})


@pytest.mark.parametrize("name", ["beta", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_hyperparams_refuse_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be \\w+ and finite"):
        HyperParams(hidden=8, embed=4, **{name: value})


def trained_like_params(d, hyper, seed):
    """init_params with random biases and layer-norm gains, as after training."""
    params = init_params(d, hyper, seed=seed)
    rng = np.random.default_rng(seed)
    for name, a in params.items():
        if name not in WEIGHT_FIELDS:
            a[...] = rng.standard_normal(a.shape)
    return params


def reference_standardize(z):
    """Layer-norm centring and scaling out of place: (xhat, 1 / std)."""
    centred = z - z.mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centred**2).mean(axis=1) + LAYERNORM_EPS)
    return centred * inv_std[:, None], inv_std


def reference_forward(x, params, hyper, mode="eval", rng=None, masks=None):
    """The scoring network as out-of-place formulas, each intermediate a new array."""
    n, d_feat = x.shape
    q_proj = x @ params.w_q.T
    k_proj = x @ params.w_k.T
    a = q_proj @ k_proj.T / np.sqrt(d_feat)
    e = np.exp(np.maximum(a - a.max(axis=0), LOG_ALPHA_FLOOR))
    alpha = e / e.sum(axis=0)
    log_keep = np.log1p(-np.clip(alpha, hyper.alpha_clip, 1.0 - hyper.alpha_clip)).sum(axis=1)
    w = np.exp(log_keep - log_keep.max())
    d = w / w.sum()
    v_proj = x @ params.w_v.T
    context = d[:, None] * v_proj
    ff_mask = head_mask = None
    if mode == "train":
        if masks is not None:
            ff_mask, head_mask = masks
        else:
            ff_mask = reference_dropout_mask((n, d_feat), hyper.dropout_rate, rng)
            head_mask = reference_dropout_mask((n, hyper.hidden), hyper.dropout_rate, rng)
    pre = context @ params.ff_w.T + params.ff_b
    if ff_mask is not None:
        pre = pre * ff_mask
    ln1_xhat, ln1_inv_std = reference_standardize(pre)
    ff_out = params.ln1_scale * ln1_xhat + params.ln1_offset
    head_pre = ff_out @ params.reg_w1.T + params.reg_b1
    ln2_xhat, ln2_inv_std = reference_standardize(np.maximum(head_pre, 0.0))
    head_drop = params.ln2_scale * ln2_xhat + params.ln2_offset
    if head_mask is not None:
        head_drop = head_drop * head_mask
    z = (head_drop @ params.reg_w2.T + params.reg_b2)[:, 0]
    emb_proj = ff_out @ params.emb_w.T
    return ForwardTrace(
        alpha=alpha, d=d, phi=emb_proj + params.emb_b, z=z, y=sigmoid(z),
        emb_proj=emb_proj,
        q_proj=q_proj, k_proj=k_proj, v_proj=v_proj, ff_mask=ff_mask,
        ln1_xhat=ln1_xhat, ln1_inv_std=ln1_inv_std, head_pre=head_pre,
        ln2_xhat=ln2_xhat, ln2_inv_std=ln2_inv_std, head_mask=head_mask,
    )


@pytest.mark.parametrize("n, d_feat, hidden, embed, scales", [
    *[(n, 6, 8, 4, (0.01, 1.0, 40.0)) for n in (1, 2, 7, 300, 513)],
    (300, 1024, 64, 16, (1.0,)),
], ids=["1", "2", "7", "300", "513", "paper-width"])
def test_forward_and_score_frames_equal_the_out_of_place_network(n, d_feat, hidden, embed, scales):
    hyper = HyperParams(hidden=hidden, embed=embed, dropout_rate=0.4)
    no_dropout = dataclasses.replace(hyper, dropout_rate=0.0)
    params = trained_like_params(d_feat, hyper, seed=n)
    rng = np.random.default_rng(n)
    for scale in scales:
        x = rng.standard_normal((n, d_feat)) * scale
        masks = (_dropout_mask((n, d_feat), 0.4, rng), _dropout_mask((n, hidden), 0.4, rng))
        # each call draws its masks from a fresh generator of the same seed
        cases = {
            "eval": (hyper, lambda: {"mode": "eval"}),
            "train, rng": (hyper, lambda: {"mode": "train", "rng": np.random.default_rng(5)}),
            "train, masks": (hyper, lambda: {"mode": "train", "masks": masks}),
            "dropout 0": (no_dropout, lambda: {"mode": "train", "rng": np.random.default_rng(5)}),
        }
        for case, (hp, call) in cases.items():
            got = forward(x, params, hp, **call())
            want = reference_forward(x, params, hp, **call())
            for field in dataclasses.fields(ForwardTrace):
                g, w = getattr(got, field.name), getattr(want, field.name)
                where = f"{field.name}, {case}, scale {scale}"
                if w is None:
                    assert g is None, where
                else:
                    assert g.dtype == w.dtype and g.shape == w.shape, where
                    assert g.tobytes() == w.tobytes(), where
        assert score_frames(x, params, hyper).tobytes() == reference_forward(x, params, hyper).y.tobytes()
    if 40.0 in scales:
        # at the largest scale some attention weights lie outside the clip band
        assert np.any((want.alpha < hyper.alpha_clip) | (want.alpha > 1.0 - hyper.alpha_clip))


@pytest.mark.parametrize("x", [
    np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]),
    np.zeros(3),
    np.zeros((2, 4)),
    np.zeros((2, 2, 3)),
    np.full((2, 3), 1e200),  # finite features whose attention overflows
], ids=["nan", "inf", "1-d", "wrong-width", "3-d", "attention-overflow"])
def test_score_frames_refuses_what_forward_refuses(x):
    params = init_params(3, SMALL, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Exception) as want:
            forward(x, params, SMALL, mode="eval")
        with pytest.raises(want.type) as got:
            score_frames(x, params, SMALL)
    assert want.type in (ValueError, FloatingPointError)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_network_grad_matches_central_differences(mode):
    # the reverse pass alone, with no loss term: network_grad is the gradient
    # of <dz, z> + <dphi, phi>, checked along a random direction per field
    n, d_feat = 9, 5
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.5)
    params = trained_like_params(d_feat, hyper, seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, d_feat))
    dz, dphi = rng.standard_normal(n), rng.standard_normal((n, 4))
    masks = None
    if mode == "train":
        masks = (_dropout_mask((n, d_feat), 0.5, rng), _dropout_mask((n, 8), 0.5, rng))

    def objective(p):
        trace = forward(x, p, hyper, mode=mode, masks=masks)
        return float(dz @ trace.z + (dphi * trace.phi).sum())

    trace = forward(x, params, hyper, mode=mode, masks=masks)
    step = 1e-5
    for name, g in network_grad(dict(vars(trace)), x, params, hyper, dz, dphi).items():
        u = rng.standard_normal(g.shape)
        up, down = params.copy(), params.copy()
        getattr(up, name)[...] += step * u
        getattr(down, name)[...] -= step * u
        numeric = (objective(up) - objective(down)) / (2.0 * step)
        analytic = float((g * u).sum())
        assert abs(analytic - numeric) <= 1e-7 * max(abs(numeric), 1.0), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_follows_the_parameters_dtype(dtype):
    # float32 features as loaded; the parameters' dtype picks the arithmetic
    n, d_feat = 9, 5
    hyper = HyperParams(hidden=8, embed=4, dropout_rate=0.6)
    master = trained_like_params(d_feat, hyper, seed=3)
    params = master.astype(dtype)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, d_feat)).astype(np.float32)
    dz, dphi = rng.standard_normal(n).astype(dtype), rng.standard_normal((n, 4)).astype(dtype)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    trace = forward(x, params, hyper, mode="train", rng=got_rng)
    want = reference_forward(x.astype(np.float64), master, hyper, mode="train", rng=want_rng)
    # the masks come from the same float64 draws in every dtype
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for field in dataclasses.fields(ForwardTrace):
        got = getattr(trace, field.name)
        assert got.dtype == dtype, field.name
        if dtype == np.float64:
            assert got.tobytes() == getattr(want, field.name).tobytes(), field.name
    assert np.array_equal(trace.ff_mask, want.ff_mask.astype(dtype))
    assert np.array_equal(trace.head_mask, want.head_mask.astype(dtype))
    assert score_frames(x, params, hyper).dtype == dtype

    grads = network_grad(dict(vars(trace)), x, params, hyper, dz, dphi)
    for name, g in grads.items():
        assert g.dtype == dtype and g.shape == getattr(params, name).shape, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_network_grad_forms_the_layer_outputs_with_forwards_bits(mode, dtype):
    # the trace keeps neither ff_out nor the masked head output; the gradients
    # that read them equal the products with both formed out of place
    n, d_feat, hidden, embed = 40, 24, 32, 8
    hyper = HyperParams(hidden=hidden, embed=embed, dropout_rate=0.5)
    params = trained_like_params(d_feat, hyper, seed=4).astype(dtype)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, d_feat))
    dz, dphi = rng.standard_normal(n).astype(dtype), rng.standard_normal((n, embed)).astype(dtype)
    masks = None
    if mode == "train":
        masks = tuple(_dropout_mask((n, w), 0.5, rng, dtype) for w in (d_feat, hidden))
    trace = forward(x, params, hyper, mode=mode, masks=masks)
    grads = network_grad(dict(vars(trace)), x, params, hyper, dz, dphi)
    ff_out = params.ln1_scale * trace.ln1_xhat + params.ln1_offset
    head_out = params.ln2_scale * trace.ln2_xhat + params.ln2_offset
    if masks is not None:
        head_out = head_out * trace.head_mask
    assert grads.emb_w.tobytes() == (dphi.T @ ff_out).tobytes()
    assert grads.reg_w2.tobytes() == (dz[:, None] * head_out).sum(axis=0, keepdims=True).tobytes()


def reference_attention_grads(trace, x, params, hyper, dz, dphi):
    """The w_q and w_k gradients as out-of-place formulas, in network_grad's order."""
    d_ln2_out = dz[:, None] * params.reg_w2[0][None, :]
    if trace.head_mask is not None:
        d_ln2_out = d_ln2_out * trace.head_mask
    d_head_pre = reference_layernorm_backward(
        d_ln2_out, trace.ln2_xhat, trace.ln2_inv_std, params.ln2_scale
    )[0] * (trace.head_pre > 0.0)
    d_ff_out = d_head_pre @ params.reg_w1 + dphi @ params.emb_w
    dz1 = reference_layernorm_backward(
        d_ff_out, trace.ln1_xhat, trace.ln1_inv_std, params.ln1_scale
    )[0]
    if trace.ff_mask is not None:
        dz1 = dz1 * trace.ff_mask
    dd = ((dz1 @ params.ff_w) * trace.v_proj).sum(axis=1)
    dlog = trace.d * (dd - float(dd @ trace.d))
    alpha, lo, hi = trace.alpha, hyper.alpha_clip, 1.0 - hyper.alpha_clip
    inside = (alpha > lo) & (alpha < hi)
    da = dlog[:, None] * (-1.0 / (1.0 - np.clip(alpha, lo, hi))) * inside
    d_attention = alpha * (da - (alpha * da).sum(axis=0))
    x = x.astype(params.dtype)
    scale = 1.0 / math.sqrt(x.shape[1])
    return (d_attention @ trace.k_proj * scale).T @ x, (d_attention.T @ trace.q_proj * scale).T @ x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_attention_grads_equal_the_out_of_place_softmax_backward(mode, dtype):
    # the column sums of alpha * dalpha, taken without forming that product,
    # keep the bits of the product's sum; at scale 6 some weights lie below
    # the clip band and some at the floor
    n, d_feat, hidden, embed = 257, 16, 24, 8
    hyper = HyperParams(hidden=hidden, embed=embed, dropout_rate=0.5)
    params = trained_like_params(d_feat, hyper, seed=6).astype(dtype)
    rng = np.random.default_rng(6)
    x = 6.0 * rng.standard_normal((n, d_feat))
    dz, dphi = rng.standard_normal(n).astype(dtype), rng.standard_normal((n, embed)).astype(dtype)
    masks = None
    if mode == "train":
        masks = tuple(_dropout_mask((n, w), 0.5, rng, dtype) for w in (d_feat, hidden))
    trace = forward(x, params, hyper, mode=mode, masks=masks)
    assert np.any(trace.alpha < hyper.alpha_clip)
    assert np.any(trace.alpha < np.exp(LOG_ALPHA_FLOOR) * 1.0001)
    grads = network_grad(dict(vars(trace)), x, params, hyper, dz, dphi)
    want_q, want_k = reference_attention_grads(trace, x, params, hyper, dz, dphi)
    assert grads.w_q.tobytes() == want_q.tobytes()
    assert grads.w_k.tobytes() == want_k.tobytes()


def test_score_frames_holds_one_n_by_n_array(traced_peak):
    # the attention is 8 * N^2 bytes, and score_frames holds nothing else that size
    n = 1500
    hyper = HyperParams(hidden=16, embed=4)
    params = init_params(8, hyper, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 8))
    assert traced_peak(lambda: score_frames(x, params, hyper))[0] < 1.05 * 8 * n * n + 1_000_000


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_forward_holds_one_n_by_n_array(mode, traced_peak):
    # alpha: the diversity weights read it a block of rows at a time
    n = 1500
    hyper = HyperParams(hidden=16, embed=4)
    params = init_params(8, hyper, seed=0)
    x = np.random.default_rng(0).standard_normal((n, 8))
    rng = np.random.default_rng(0)
    peak, _ = traced_peak(lambda: forward(x, params, hyper, mode=mode, rng=rng))
    assert peak < 1.25 * 8 * n * n + 1_000_000


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_trace_holds_only_what_the_reverse_pass_cannot_form_again(mode, dtype):
    # alpha; q, k, v, ln1_xhat and in train mode ff_mask (N x D); head_pre,
    # ln2_xhat and in train mode head_mask (N x H); phi and P (N x E);
    # d, z, y and the two inverse standard deviations (N)
    n, d_feat, hidden, embed = 50, 48, 64, 16
    hyper = HyperParams(hidden=hidden, embed=embed)
    params = init_params(d_feat, hyper, seed=0).astype(dtype)
    x = np.random.default_rng(0).standard_normal((n, d_feat))
    trace = forward(x, params, hyper, mode=mode, rng=np.random.default_rng(0))
    m = mode == "train"
    held = sum(a.nbytes for a in vars(trace).values() if a is not None)
    assert held == np.dtype(dtype).itemsize * (
        n * n + (4 + m) * n * d_feat + (2 + m) * n * hidden + 2 * n * embed + 5 * n
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_check_finite_returns_the_sum_of_squares(dtype, traced_peak):
    params = init_params(4, SMALL, 0).astype(dtype)
    want = sum(float(np.sum(a.astype(np.float64) ** 2)) for a in params.arrays())
    assert params.check_finite() == pytest.approx(want, rel=1e-6)
    # a 1024 x 1024 field is summed in float64 with no float64 copy (8 MB):
    # a float32 one casts through NumPy's fixed buffer of about 128 KB
    field = np.random.default_rng(0).standard_normal((1024, 1024)).astype(dtype)
    peak, got = traced_peak(lambda: sum_of_squares([("w_q", field)]))
    want = math.fsum(v * v for v in field.astype(np.float64).ravel().tolist())
    assert abs(got - want) <= 1e-13 * want
    assert peak < 160_000
    zeros = params.zeros_like()
    assert zeros.check_finite() == 0.0
    assert all(a.flags.c_contiguous and a.dtype == dtype for a in zeros.arrays())


def test_check_finite_names_the_first_non_finite_field_past_an_overflow():
    params = init_params(4, SMALL, 0)
    # finite, but the squares overflow: the total is inf, nothing is refused
    params.w_q[...] = 1e200
    assert params.check_finite() == np.inf
    for bad in (np.nan, np.inf, -np.inf):
        broken = params.copy()
        broken.reg_w1[0, 0] = bad
        broken.emb_b[0] = np.nan
        with pytest.raises(ValueError, match="non-finite values in parameter 'reg_w1'"):
            broken.check_finite()
