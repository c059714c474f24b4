import numpy as np
import pytest

from gdasum.model import (
    HyperParams,
    diversity_weights,
    forward,
    init_params,
    normalize_attention,
    sigmoid,
)

SMALL = HyperParams(hidden=8, embed=4, dropout_rate=0.5)
CLIP = HyperParams().alpha_clip


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
    a = forward(np.eye(d), params, SMALL).attention
    assert np.allclose(a, np.eye(d) / np.sqrt(d), atol=1e-12)


def test_attention_zero_projection():
    params = init_params(3, SMALL, seed=0)
    params.w_q = np.zeros((3, 3))
    a = forward(np.random.default_rng(0).standard_normal((5, 3)), params, SMALL).attention
    assert np.all(a == 0.0)


def test_attention_matches_triple_loop():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2))
    params = init_params(2, SMALL, seed=7)
    a = forward(x, params, SMALL).attention
    q = 2
    for i in range(3):
        for j in range(3):
            qi = params.w_q @ x[i]
            kj = params.w_k @ x[j]
            want = float(qi @ kj) / np.sqrt(q)
            assert abs(a[i, j] - want) < 1e-12


def test_normalize_uniform():
    alpha = normalize_attention(np.zeros((4, 4)))
    assert np.allclose(alpha, 0.25, atol=1e-15)


def test_normalize_hand_example():
    a = np.array([[0.0, np.log(2.0)], [0.0, 0.0]])
    alpha = normalize_attention(a)
    assert np.allclose(alpha[:, 0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(alpha[:, 1], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_normalize_column_shift_invariance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    shifted = a.copy()
    shifted[:, 2] += 17.5
    base = normalize_attention(a)
    moved = normalize_attention(shifted)
    assert np.allclose(moved[:, 2], base[:, 2], atol=1e-12)


def test_normalize_columns_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        alpha = normalize_attention(rng.standard_normal((8, 8)) * 5)
        assert np.abs(alpha.sum(axis=0) - 1.0).max() < 1e-9


def test_diversity_uniform():
    alpha = np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(diversity_weights(alpha, CLIP), 1.0 / 3.0, atol=1e-12)


def test_diversity_hand_example():
    alpha = np.array([[0.5, 2.0 / 3.0], [0.5, 1.0 / 3.0]])
    d = diversity_weights(alpha, CLIP)
    assert np.allclose(d, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_diversity_single_frame():
    assert np.array_equal(diversity_weights(np.array([[1.0]]), CLIP), [1.0])


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
        assert np.abs(diversity_weights(alpha, CLIP) - direct).max() < 1e-10


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
        assert np.abs(moved.attention - base.attention[np.ix_(perm, perm)]).max() < 1e-9


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
