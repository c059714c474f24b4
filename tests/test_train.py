import dataclasses
import importlib
import json
import math
import os
import re
import types
import weakref

import numpy as np
import pytest

import gdasum.train as train_module
from gdasum.cli import main
from gdasum.data import (
    Annotations,
    FrameFeatures,
    SourceDataset,
    SplitSpec,
    VideoRecord,
    load_manifest,
    make_splits,
)
from gdasum.losses import LossBreakdown, NumericalError, loss_and_grad
from gdasum.model import WEIGHT_FIELDS, HyperParams, ModelParams, forward, init_params
from gdasum.synthetic import PlantedSpec, make_planted_dataset, write_planted_corpus
from gdasum.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    DEFAULT_LEARNING_RATES,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainMode,
    adam_step,
    clip_gradients,
    load_checkpoint,
    resolve_learning_rate,
    save_checkpoint,
    train,
)

SMALL_HYPER = HyperParams(hidden=16, embed=8)


def record(vid, n=12, d=4, seed=0, labeled=True, source=SourceDataset.OTHER):
    rng = np.random.default_rng(seed)
    feats = FrameFeatures(rng.standard_normal((n, d)).astype(np.float32))
    labels = None
    if labeled:
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.choice(n, size=3, replace=False)] = 1
    return VideoRecord(
        id=vid,
        features=feats,
        annotations=Annotations(keyframe_labels=labels),
        source_dataset=source,
    )


def split_of(train_ids, test_ids=()):
    return SplitSpec(
        fold_index=0,
        train_ids=tuple(train_ids),
        test_ids=tuple(test_ids),
    )


def small_corpus():
    spec = PlantedSpec(n_videos=6, n_frames=60, dim=16, seed=1)
    records = make_planted_dataset(spec)
    ids = [r.id for r in records]
    return records, split_of(ids[:4], ids[4:])


def test_adam_zero_gradient_is_identity():
    params = init_params(3, SMALL_HYPER, 0)
    grads = params.zeros_like()
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, new_state = adam_step(params, grads, state, lr=0.1)
    assert new_state.t == 1
    for a, b in zip(before.arrays(), new_params.arrays()):
        assert np.array_equal(a, b)


def test_adam_first_step_moves_by_lr():
    # bias-corrected moments make the first update lr * g / (|g| + eps)
    params = init_params(3, SMALL_HYPER, 0)
    for arr in params.arrays():
        arr[:] = 0.0
    grads = params.zeros_like()
    grads.w_att[0, 0] = 1.0
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, _ = adam_step(params, grads, state, lr=0.1)
    assert abs(new_params.w_att[0, 0] + 0.1) < 1e-8
    assert new_params.w_att[0, 1] == 0.0
    assert np.array_equal(new_params.w_ctx, before.w_ctx)


def test_adam_moves_against_gradient_sign():
    params = init_params(4, SMALL_HYPER, 1)
    grads = params.zeros_like()
    grads.w_ctx[:] = 1.0
    grads.reg_b2[:] = -1.0
    state = AdamState.zeros(params)
    before = params.copy()
    new_params, _ = adam_step(params, grads, state, lr=0.01)
    assert (new_params.w_ctx < before.w_ctx).all()
    assert (new_params.reg_b2 > before.reg_b2).all()


def test_adam_rejects_non_finite_gradients():
    params = init_params(3, SMALL_HYPER, 0)
    grads = params.zeros_like()
    grads.w_ctx[0, 0] = np.nan
    with pytest.raises(NumericalError):
        adam_step(params, grads, AdamState.zeros(params), lr=0.1)


def test_adam_drives_quadratic_to_zero():
    # gradient of theta^2/2 is theta; iterating must shrink it
    params = init_params(3, SMALL_HYPER, 0)
    for arr in params.arrays():
        arr[:] = 0.0
    params.w_att[0, 0] = 1.0
    state = AdamState.zeros(params)
    for _ in range(300):
        grads = params.zeros_like()
        grads.w_att[0, 0] = params.w_att[0, 0]
        params, state = adam_step(params, grads, state, lr=0.02)
    assert abs(params.w_att[0, 0]) < 0.05


def test_clip_gradients_scales_to_max_norm():
    params = init_params(2, HyperParams(hidden=2, embed=2), 0)
    grads = params.zeros_like()
    grads.w_att[:] = 3.0  # (2, 2): 4 entries, sq sum 36
    grads.w_ctx[:] = 4.0  # 4 entries, sq sum 64
    original = grads.copy()
    clipped, norm = clip_gradients(grads, max_norm=5.0)
    assert abs(norm - 10.0) < 1e-12
    assert np.allclose(clipped.w_att, 1.5)
    assert np.allclose(clipped.w_ctx, 2.0)
    untouched, norm2 = clip_gradients(original.copy(), max_norm=20.0)
    assert norm2 == norm
    assert np.array_equal(untouched.w_att, original.w_att)


def test_adam_step_allocates_less_than_one_parameter_set(traced_peak):
    params = init_params(16, SMALL_HYPER, 0)
    grads = params.copy()
    state = AdamState.zeros(params)
    param_bytes = sum(a.nbytes for a in params.arrays())
    peak, (new_params, new_state) = traced_peak(lambda: adam_step(params, grads, state, lr=1e-3))
    assert new_params is params and new_state is state
    assert peak < param_bytes


def unblocked_adam_step(params, grads, state, lr, c=1.0, weight_decay=0.0):
    # adam_step's folded formula in whole-field passes, the clip factor c
    # and the bias corrections folded into per-step scalars the same way
    state.t += 1
    k1, k2 = (1.0 - ADAM_BETA1) * c, math.sqrt(1.0 - ADAM_BETA2) * c
    root_bc2 = math.sqrt(1.0 - ADAM_BETA2**state.t)
    rate, eps_hat = lr * root_bc2 / (1.0 - ADAM_BETA1**state.t), ADAM_EPS * root_bc2
    for name, theta in params.items():
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= ADAM_BETA1
        m += g * k1
        v *= ADAM_BETA2
        v += np.square(g * k2)
        step = (m / (np.sqrt(v) + eps_hat)) * rate
        if name in WEIGHT_FIELDS and weight_decay:
            step += theta * (2.0 * lr * weight_decay)
        theta -= step


def textbook_adam_step(params, grads, state, lr, max_norm, weight_decay=0.0):
    # Kingma and Ba's Algorithm 1 after clip_gradients: bias-corrected
    # moments, eps added to the square root of the corrected v; the weight
    # fields then take Loshchilov and Hutter's decoupled decay, lr * 2λθ
    grads = clip_gradients(grads.copy(), max_norm)[0]
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, theta in params.items():
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        decay = 2.0 * weight_decay * theta if name in WEIGHT_FIELDS else 0.0
        theta -= lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + decay)


# D = 200: each D x D field is one full block plus a 7232-element tail,
# and every vector field is shorter than one block
BLOCKED_D = 200


def test_adam_step_in_blocks_matches_the_whole_field_update():
    # without the decay, and with one large enough to move every weight's bits
    for weight_decay in (0.0, 5.0):
        params = init_params(BLOCKED_D, SMALL_HYPER, 0)
        assert params.w_att.size == ADAM_BLOCK + 7232 and params.ff_b.size < ADAM_BLOCK
        reference = params.copy()
        state, ref_state = AdamState.zeros(params), AdamState.zeros(reference)
        rng = np.random.default_rng(3)
        for lr in (1e-3, 5e-4, 2e-3, 1e-4):
            grads = params.zeros_like()
            for arr in grads.arrays():
                arr[...] = rng.standard_normal(arr.shape) * rng.choice([1e-6, 1.0, 1e3])
            adam_step(params, grads, state, lr, weight_decay=weight_decay)
            unblocked_adam_step(reference, grads, ref_state, lr, weight_decay=weight_decay)
        assert state.t == ref_state.t == 4
        for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
            for (name, a), b in zip(got.items(), want.arrays()):
                assert np.array_equal(a, b), (weight_decay, name)


def test_adam_step_allocates_one_block(traced_peak):
    # a float64 gradient is summed with no copy, so the scratch block is all;
    # a nonzero weight decay takes one more block
    params = init_params(BLOCKED_D, SMALL_HYPER, 0)
    grads = params.copy()
    state = AdamState.zeros(params)
    for weight_decay, blocks in ((0.0, 1), (1e-5, 2)):
        peak, _ = traced_peak(lambda: adam_step(params, grads, state, 1e-3, math.inf, weight_decay))
        assert peak <= blocks * ADAM_BLOCK * 8 + 16384, weight_decay


def test_adam_step_refuses_non_contiguous_parameters():
    params = init_params(4, SMALL_HYPER, 0)
    state = AdamState.zeros(params)
    params.w_att = np.asfortranarray(params.w_att + np.eye(4))
    with pytest.raises(ValueError, match="'w_att' is not C-contiguous"):
        adam_step(params, params.zeros_like(), state, lr=0.1)


def test_clip_gradients_refuses_an_overflowing_norm():
    # the squared norm overflows although every gradient is finite;
    # scaling by max_norm / inf would zero them all
    params = init_params(3, SMALL_HYPER, 0)
    for max_norm in (5.0, np.inf):
        grads = params.copy()
        grads.w_att[...] = 1e200
        before = grads.copy()
        with pytest.raises(NumericalError, match="gradient norm overflowed"):
            clip_gradients(grads, max_norm)
        for a, b in zip(grads.arrays(), before.arrays()):
            assert np.array_equal(a, b)


def test_clip_gradients_refuses_a_non_finite_gradient():
    # a NaN or inf field makes the norm NaN or inf; scaling by it would
    # poison or zero every field
    params = init_params(8, SMALL_HYPER, 0)
    for bad in (np.nan, np.inf):
        for max_norm in (5.0, np.inf):
            grads = params.copy()
            grads.reg_b2[0] = bad
            before = grads.copy()
            with pytest.raises(NumericalError, match="non-finite values in parameter 'reg_b2'"):
                clip_gradients(grads, max_norm)
            for a, b in zip(grads.arrays(), before.arrays()):
                assert np.array_equal(a, b, equal_nan=True)


def test_adam_step_takes_inline_clipped_gradients():
    # the call form of the stage timings in bench/stages.py
    params = init_params(4, SMALL_HYPER, 0)
    before = params.copy()
    grads = params.zeros_like()
    grads.w_att[:] = 10.0
    state = AdamState.zeros(params)
    adam_step(params, clip_gradients(grads, 5.0)[0], state, 5e-4)
    assert state.t == 1
    assert (params.w_att < before.w_att).all()
    assert np.array_equal(params.w_ctx, before.w_ctx)


def float32_gradient(params, rng, scale):
    return ModelParams(*[
        (rng.standard_normal(a.shape) * scale).astype(np.float32) for a in params.arrays()
    ])


@pytest.mark.parametrize("max_norm", [np.inf, 30.0])
def test_adam_step_on_a_float32_gradient_matches_clipping_and_whole_field_passes(max_norm):
    # float32 parameters, moments and gradient, as train runs them: the
    # blocked step equals the whole-field update with the clip folded in
    params = init_params(BLOCKED_D, SMALL_HYPER, 0).astype(np.float32)
    reference = params.copy()
    state, ref_state = AdamState.zeros(params), AdamState.zeros(reference)
    rng = np.random.default_rng(3)
    clipped = []
    # the gradient's scale moves its norm across max_norm from step to step
    for lr, scale in ((1e-3, 1.0), (5e-4, 1e-3), (2e-3, 0.01), (1e-4, 1e-6)):
        g32 = float32_gradient(params, rng, scale)
        adam_step(params, g32, state, lr, max_norm)
        norm = clip_gradients(g32.copy(), max_norm)[1]
        unblocked_adam_step(reference, g32, ref_state, lr, max_norm / norm if norm > max_norm else 1.0)
        assert state.grad_norm == norm
        clipped.append(norm > max_norm)
    assert state.t == ref_state.t == 4
    assert clipped == ([False] * 4 if max_norm == np.inf else [True, False, False, False])
    for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
        for (name, a), b in zip(got.items(), want.arrays()):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes(), name


# Folded against textbook Adam, per entry, relative to |theta| + sum(lr):
# each step rounds theta - u once on either side (eps |theta| between them),
# and the two forms of u differ by at most a dozen roundings, eps / 2 each,
# of terms no larger than lr, so 8 steps stay within 8 eps (|theta| + sum(lr)).
# Measured on this test: 2.1 eps in float64 and 1.9 eps in float32.
TEXTBOOK_RTOL = {np.float64: 1e-12, np.float32: 8 * float(np.finfo(np.float32).eps)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_step_matches_textbook_adam_after_clipping(dtype):
    params = init_params(BLOCKED_D, SMALL_HYPER, 0).astype(dtype)
    reference = params.copy()
    state, ref_state = AdamState.zeros(params), AdamState.zeros(reference)
    rng = np.random.default_rng(5)
    lrs = (1e-3, 5e-4, 2e-3, 1e-4) * 2
    for step, lr in enumerate(lrs):
        # four clipped steps (norm about 300 against 30), then four unclipped
        grads = float32_gradient(params, rng, 1.0 if step < 4 else 1e-3).astype(dtype)
        adam_step(params, grads, state, lr, 30.0)
        textbook_adam_step(reference, grads, ref_state, lr, 30.0)
        assert (state.grad_norm > 30.0) == (step < 4)
    for (name, a), b in zip(params.items(), reference.arrays()):
        a, b = a.astype(np.float64), b.astype(np.float64)
        assert np.all(np.abs(a - b) <= TEXTBOOK_RTOL[dtype] * (np.abs(b) + sum(lrs))), name


def test_adam_step_decays_only_the_weight_fields_and_clips_the_data_gradient_alone():
    # float64, four clipped steps then four unclipped, against textbook Adam
    # with the decoupled decay: the weight fields move by lr 2λθ more than
    # without the decay, the other fields and both moments not at all, and
    # the clip reads the norm of the gradient it is given, without 2λθ
    weight_decay = 5.0  # 2 lr λ up to 0.02 of θ a step
    params = init_params(BLOCKED_D, SMALL_HYPER, 0)
    decayed, bare, reference = params.copy(), params.copy(), params.copy()
    states = [AdamState.zeros(params) for _ in range(3)]
    rng = np.random.default_rng(5)
    lrs = (1e-3, 5e-4, 2e-3, 1e-4) * 2
    for step, lr in enumerate(lrs):
        grads = float32_gradient(params, rng, 1.0 if step < 4 else 1e-3).astype(np.float64)
        adam_step(decayed, grads, states[0], lr, 30.0, weight_decay)
        adam_step(bare, grads, states[1], lr, 30.0)
        textbook_adam_step(reference, grads, states[2], lr, 30.0, weight_decay)
        assert states[0].grad_norm == states[1].grad_norm
        assert (states[0].grad_norm > 30.0) == (step < 4)
    for name, a in decayed.items():
        b = getattr(reference, name)
        assert np.all(np.abs(a - b) <= TEXTBOOK_RTOL[np.float64] * (np.abs(b) + sum(lrs))), name
        for moments in ("m", "v"):
            got, want = getattr(states[0], moments), getattr(states[1], moments)
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (moments, name)
        moved = a != getattr(bare, name)
        assert moved.all() if name in WEIGHT_FIELDS else not moved.any(), name


def test_adam_step_clips_a_float32_gradient_whose_float32_sum_of_squares_overflows():
    # four entries of 5e19 have norm 1e20; their squares sum past float32's
    # 3.4e38, so the norm must be summed in float64 to be clipped, not refused
    params = init_params(4, SMALL_HYPER, 0).astype(np.float32)
    state = AdamState.zeros(params)
    grads = params.zeros_like()
    grads.w_att[0] = 5e19  # one row of D = 4
    adam_step(params, grads, state, 1e-3, 5.0)
    assert state.grad_norm == pytest.approx(1e20, rel=1e-6)
    # the first moment holds (1 - beta1) times the clipped gradient, of norm 5
    m = state.m.w_att.astype(np.float64)
    assert np.sqrt(np.vdot(m, m)) / (1.0 - ADAM_BETA1) == pytest.approx(5.0, rel=1e-6)
    assert all(np.all(np.isfinite(a)) for a in (*params.arrays(), *state.v.arrays()))


def test_adam_step_refuses_a_bad_gradient_before_writing_anything():
    params = init_params(BLOCKED_D, SMALL_HYPER, 0).astype(np.float32)
    state = AdamState.zeros(params)
    rng = np.random.default_rng(0)
    adam_step(params, float32_gradient(params, rng, 1.0), state, 1e-3, 5.0)
    cases = []
    for name, bad in ((n, b) for n, _ in params.items() for b in (np.nan, np.inf)):
        g32 = float32_gradient(params, rng, 1.0)
        getattr(g32, name).reshape(-1)[-1] = bad
        cases.append((params, g32, state, 5.0, NumericalError,
                      f"gradient: non-finite values in parameter '{name}'"))
    # finite float64 entries whose squares overflow
    wide = params.astype(np.float64)
    huge = wide.zeros_like()
    huge.w_att[...] = 1e200
    cases.append((wide, huge, AdamState.zeros(wide), 5.0, NumericalError,
                  "gradient norm overflowed"))
    # unclipped, a float32 entry of 2e19 would square to inf in v
    g32 = float32_gradient(params, rng, 1.0)
    g32.w_att[0, 0] = 2e19
    cases.append((params, g32, state, np.inf, NumericalError,
                  "gradient norm 2e+19 overflows float32 moments"))
    # a float64 gradient for float32 parameters is refused, not mixed in
    cases.append((params, float32_gradient(params, rng, 1.0).astype(np.float64), state, 5.0,
                  ValueError, "adam_step: field 'w_att' mixes dtypes"))
    for theta, grads, st, max_norm, error, message in cases:
        before = [a.copy() for a in (*theta.arrays(), *st.m.arrays(), *st.v.arrays())]
        t = st.t
        with pytest.raises(error, match=re.escape(message)):
            adam_step(theta, grads, st, 1e-3, max_norm)
        after = (*theta.arrays(), *st.m.arrays(), *st.v.arrays())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after)), message
        assert st.t == t


def test_adam_step_on_a_float32_gradient_allocates_one_block(traced_peak):
    # one float32 scratch block for the update (128 KB); the norm's float64
    # block sums copy through a 64 KB scratch block, freed before the
    # update's block is made, and make no float64 copy of a field
    params = init_params(BLOCKED_D, SMALL_HYPER, 0).astype(np.float32)
    state = AdamState.zeros(params)
    g32 = float32_gradient(params, np.random.default_rng(0), 1.0)
    for weight_decay, blocks in ((0.0, 1), (1e-5, 2)):  # the decay takes one more block
        peak, _ = traced_peak(lambda: adam_step(params, g32, state, 1e-3, 1e-3, weight_decay))
        assert state.grad_norm > 1e-3  # clips
        assert peak <= blocks * ADAM_BLOCK * 4 + 16384, weight_decay


def test_train_step_sums_are_within_1e_13_of_exact_sums_at_paper_width():
    # the float64 block sum of the step train runs, float32 at D = 1024 with
    # the default widths: the gradient norm of adam_step.  A float32 square
    # is exact in float64, so fsum over the squares gives the exact sum to
    # within a few roundings.
    hyper = HyperParams()
    params = init_params(1024, hyper, 0).astype(np.float32)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 1024)).astype(np.float32)
    fields = vars(forward(x, params, hyper, mode="train", rng=rng))
    _, grads = loss_and_grad(fields, x, params, hyper, "unsupervised")
    squares = (np.square(a, dtype=np.float64).ravel().tolist() for a in grads.arrays())
    norm = math.sqrt(math.fsum(math.fsum(sq) for sq in squares))
    state = AdamState.zeros(params)
    adam_step(params, grads, state, 1e-3, math.inf, hyper.weight_decay)
    assert abs(state.grad_norm - norm) <= 1e-13 * norm


def test_resolve_learning_rate_defaults():
    assert DEFAULT_LEARNING_RATES[SourceDataset.SUMME_LIKE] == 5e-5
    assert DEFAULT_LEARNING_RATES[SourceDataset.TVSUM_LIKE] == 1e-4
    assert DEFAULT_LEARNING_RATES[SourceDataset.OTHER] == 5e-4
    config = TrainConfig()
    summe = [record("a", source=SourceDataset.SUMME_LIKE)]
    tvsum2 = [
        record("b", source=SourceDataset.TVSUM_LIKE),
        record("c", source=SourceDataset.TVSUM_LIKE),
    ]
    assert resolve_learning_rate(config, summe) == 5e-5
    assert resolve_learning_rate(config, tvsum2 + summe) == 1e-4
    assert resolve_learning_rate(config, []) == 5e-4
    explicit = TrainConfig(learning_rate=3e-4)
    assert resolve_learning_rate(explicit, summe) == 3e-4


def test_train_config_validation():
    assert TrainConfig(mode="semi").mode is TrainMode.SEMI
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(sigma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(grad_clip=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="reinforced")
    for name, value in [("epochs", 1.5), ("epochs", True), ("epochs", 2.0),
                        ("seed", 1.5), ("seed", False), ("seed", np.int64(3))]:
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, got {value!r}")):
            TrainConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("variation_weight", float("nan")),
    ("variation_weight", float("inf")),
    ("variation_weight", -1.0),
])
def test_train_config_refuses_non_finite_and_negative_weights(name, value):
    with pytest.raises(ValueError, match=f"{name} must be \\w+ and finite"):
        TrainConfig(**{name: value})


def test_train_zero_epochs_returns_initialization():
    records, split = small_corpus()
    config = TrainConfig(epochs=0, seed=5)
    params, epochs = train(records, split, config, SMALL_HYPER)
    # training runs on the float32-rounded initialization and returns it upcast
    reference = init_params(16, SMALL_HYPER, 5).astype(np.float32)
    assert epochs == []
    for a, b in zip(params.arrays(), reference.arrays()):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def test_train_loss_decreases():
    records, split = small_corpus()
    config = TrainConfig(epochs=8, learning_rate=1e-3, seed=0)
    params, epochs = train(records, split, config, SMALL_HYPER)
    assert len(epochs) == 8
    first = epochs[0]["loss"]["total"]
    last = epochs[-1]["loss"]["total"]
    assert np.isfinite(first) and np.isfinite(last)
    assert last < first


def test_train_same_seed_bit_identical(tmp_path):
    records, split = small_corpus()
    config = TrainConfig(epochs=3, learning_rate=1e-3, seed=7)
    params_a, _ = train(records, split, config, SMALL_HYPER)
    params_b, _ = train(records, split, config, SMALL_HYPER)
    save_checkpoint(params_a, tmp_path / "a.ckpt", hyper=SMALL_HYPER)
    save_checkpoint(params_b, tmp_path / "b.ckpt", hyper=SMALL_HYPER)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    # the checkpoint holds the returned float64 parameters bit for bit
    loaded, _ = load_checkpoint(tmp_path / "a.ckpt")
    for a, b in zip(loaded.arrays(), params_a.arrays()):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_train_keeps_parameters_moments_and_gradients_in_float32(monkeypatch):
    # one parameter set: the network, the gradient and the Adam moments are
    # float32 at every step, and train hands back its exact float64 upcast;
    # the update takes the hyperparameters' weight decay
    steps = []

    def checked_adam_step(params, grads, state, lr, max_norm, weight_decay):
        assert max_norm == 5.0 and weight_decay == SMALL_HYPER.weight_decay == 1e-5
        for name, theta in params.items():
            arrays = (theta, getattr(grads, name), getattr(state.m, name), getattr(state.v, name))
            assert all(a.dtype == np.float32 for a in arrays), name
        steps.append(state.t + 1)
        return adam_step(params, grads, state, lr, max_norm, weight_decay)

    monkeypatch.setattr(train_module, "adam_step", checked_adam_step)
    records, split = small_corpus()
    config = TrainConfig(epochs=2, learning_rate=1e-3, seed=7)
    params, _ = train(records, split, config, SMALL_HYPER)
    assert steps == list(range(1, 9))
    for a in params.arrays():
        assert a.dtype == np.float64 and np.array_equal(a, a.astype(np.float32))


def test_train_returns_the_parameters_gdasum_train_checkpoints(tmp_path):
    # the library and the command line train the same float32 parameters,
    # and the checkpoint reloads to the float64 ones train returns
    manifest = write_planted_corpus(tmp_path, PlantedSpec(n_videos=6, n_frames=60, dim=8, seed=2))
    out = tmp_path / "run"
    assert main([
        "train", "--manifest", str(manifest), "--setting", "canonical", "--fold", "0",
        "--seed", "0", "--epochs", "2", "--hidden", "8", "--embed", "4", "--lr", "1e-3",
        "--out", str(out),
    ]) == 0
    records = load_manifest(manifest)
    split = make_splits(records, "canonical", 0)[0]
    config = TrainConfig(epochs=2, learning_rate=1e-3, seed=0)
    params, _ = train(records, split, config, HyperParams(hidden=8, embed=4))
    loaded, _ = load_checkpoint(out / "fold0.ckpt")
    for (name, a), b in zip(params.items(), loaded.arrays()):
        assert a.dtype == np.float64 and np.array_equal(a, a.astype(np.float32)), name
        assert a.tobytes() == b.tobytes(), name


def test_train_unsupervised_ignores_missing_labels():
    # moderate dropout: dropping every unit of a frame would zero its
    # embedding, which the repelling loss rejects
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.2)
    records = [record(f"v{i}", seed=i, d=8, labeled=False) for i in range(3)]
    config = TrainConfig(mode="unsupervised", epochs=2, learning_rate=1e-3)
    params, epochs = train(records, split_of(["v0", "v1", "v2"]), config, hyper)
    assert len(epochs) == 2
    assert np.isfinite(epochs[-1]["loss"]["total"])


def test_train_supervised_requires_all_labels():
    records = [record("v0", labeled=True), record("v1", seed=1, labeled=False)]
    config = TrainConfig(mode="supervised", epochs=1)
    with pytest.raises(ValueError, match="keyframe labels"):
        train(records, split_of(["v0", "v1"]), config, SMALL_HYPER)


def test_train_semi_needs_one_labeled_video():
    records = [record(f"v{i}", seed=i, labeled=False) for i in range(2)]
    config = TrainConfig(mode="semi", epochs=1)
    with pytest.raises(ValueError, match="at least one labeled"):
        train(records, split_of(["v0", "v1"]), config, SMALL_HYPER)


def test_train_semi_mixes_labeled_and_unlabeled():
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.2)
    records = [
        record("v0", d=8, labeled=True),
        record("v1", seed=1, d=8, labeled=False),
    ]
    config = TrainConfig(mode="semi", epochs=2, learning_rate=1e-3)
    params, epochs = train(records, split_of(["v0", "v1"]), config, hyper)
    assert np.isfinite(epochs[-1]["loss"]["total"])


def test_train_rejects_unknown_split_ids():
    records = [record("v0")]
    with pytest.raises(ValueError, match="unknown video ids"):
        train(records, split_of(["v0", "ghost"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_rejects_a_split_with_no_training_videos():
    with pytest.raises(ValueError, match="split has no training videos"):
        train([record("v0")], split_of([], ["v0"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_rejects_mixed_feature_dims():
    records = [record("v0", d=4), record("v1", seed=1, d=6)]
    with pytest.raises(ValueError, match="feature dim"):
        train(records, split_of(["v0", "v1"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_aborts_on_non_finite_loss(monkeypatch):
    records = [record("v0", labeled=False)]

    def no_gradient_work():
        raise AssertionError("gradient computed for a non-finite loss")

    # the unsupervised objective's length term is NaN, so the total is too
    losses_module = importlib.import_module("gdasum.losses")
    monkeypatch.setattr(
        losses_module, "_unsupervised", lambda *a: (np.nan, 0.0, no_gradient_work)
    )
    config = TrainConfig(mode="unsupervised", epochs=1)
    with pytest.raises(NumericalError, match="non-finite loss on video 'v0'"):
        train(records, split_of(["v0"]), config, SMALL_HYPER)


def test_train_names_video_on_non_finite_gradient(monkeypatch):
    losses_module = importlib.import_module("gdasum.losses")
    supervised = losses_module._supervised

    def nan_dy(*args):
        # the real terms, and the real gradient with one NaN score gradient
        keyframe, variation, grad = supervised(*args)

        def nan_grad():
            dy, dphi = grad()
            dy[0] = np.nan
            return dy, dphi

        return keyframe, variation, nan_grad

    monkeypatch.setattr(losses_module, "_supervised", nan_dy)
    with pytest.raises(NumericalError, match="non-finite .* on video 'v0'"):
        train([record("v0")], split_of(["v0"]), TrainConfig(epochs=1), SMALL_HYPER)


def test_train_names_video_on_zero_norm_embedding():
    # dropout zeroes every feed-forward output of a frame while emb_b is 0
    config = TrainConfig(mode="unsupervised", epochs=1)
    with pytest.raises(
        NumericalError, match=r"zero-norm embeddings \(frame \d+\) on video 'v0'"
    ):
        train([record("v0", labeled=False)], split_of(["v0"]), config, SMALL_HYPER)


def test_train_names_video_on_singular_subset_kernel():
    # two labeled frames with identical features give a singular L_S
    rec = record("dup", n=8)
    matrix = rec.features.matrix.copy()
    keys = np.flatnonzero(rec.annotations.keyframe_labels)
    matrix[keys[1]] = matrix[keys[0]]
    rec = VideoRecord(
        id="dup",
        features=FrameFeatures(matrix),
        annotations=rec.annotations,
        source_dataset=rec.source_dataset,
    )
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.0)
    with pytest.raises(
        NumericalError,
        match="subset kernel is numerically singular on video 'dup' at epoch 0",
    ):
        train([rec], split_of(["dup"]), config, hyper)


def test_train_step_computes_distances_once(monkeypatch):
    records, split = small_corpus()
    losses_module = importlib.import_module("gdasum.losses")
    original = losses_module.pairwise_sq_dists
    calls = []

    def counting(phi):
        calls.append(phi.shape)
        return original(phi)

    monkeypatch.setattr(losses_module, "pairwise_sq_dists", counting)
    config = TrainConfig(epochs=1, learning_rate=1e-3)
    train(records, split, config, SMALL_HYPER)
    assert len(calls) == len(split.train_ids)


def test_train_step_sums_its_gradient_once(monkeypatch):
    # every float64 sum of a gradient goes through model.sum_of_squares: the
    # finiteness check's (ModelParams.check_finite) and adam_step's norm alike
    records, split = small_corpus()
    losses_module = importlib.import_module("gdasum.losses")
    model_module = importlib.import_module("gdasum.model")
    network_grad, original = losses_module.network_grad, model_module.sum_of_squares
    gradients, sums = [], []

    def kept(*args):
        gradients.append(network_grad(*args))
        return gradients[-1]

    def counting(named_arrays):
        named_arrays = list(named_arrays)
        for step, grads in enumerate(gradients):
            if all(a is getattr(grads, name) for name, a in named_arrays):
                sums.append(step)
        return original(named_arrays)

    monkeypatch.setattr(losses_module, "network_grad", kept)
    monkeypatch.setattr(model_module, "sum_of_squares", counting)
    monkeypatch.setattr(train_module, "sum_of_squares", counting)
    train(records, split, TrainConfig(epochs=1, learning_rate=1e-3), SMALL_HYPER)
    assert len(gradients) == len(split.train_ids)
    assert sums == list(range(len(split.train_ids)))


# the arrays a ForwardTrace caches for the reverse pass
CACHED = (
    "head_pre", "ln2_xhat", "head_mask", "ln1_xhat", "ff_mask",
    "v_proj", "alpha",
)


@pytest.mark.parametrize("mode", [TrainMode.SUPERVISED, TrainMode.UNSUPERVISED])
def test_train_step_frees_each_cached_array_in_the_reverse_pass(monkeypatch, mode):
    # train hands the reverse pass its trace's own fields, so no cached
    # array outlives network_grad: the gradients are built as they die
    records, split = small_corpus()
    losses_module = importlib.import_module("gdasum.losses")
    real_forward, real_network_grad = train_module.forward, losses_module.network_grad
    refs, alive = [], []

    def watched_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        refs.append({name: weakref.ref(getattr(trace, name)) for name in CACHED})
        return trace

    def watched_network_grad(*args):
        grads = real_network_grad(*args)
        alive.append([name for name, ref in refs[-1].items() if ref() is not None])
        return grads

    monkeypatch.setattr(train_module, "forward", watched_forward)
    monkeypatch.setattr(losses_module, "network_grad", watched_network_grad)
    train(records, split, TrainConfig(mode=mode, epochs=1, learning_rate=1e-3), SMALL_HYPER)
    assert alive == [[]] * len(split.train_ids)


def test_train_reports_gradient_norm_before_clipping():
    rec = record("v0")
    hyper = HyperParams(hidden=16, embed=8, dropout_rate=0.0)
    x = rec.features.matrix
    labels = rec.annotations.keyframe_labels
    # the step train takes, on float32 parameters
    params = init_params(x.shape[1], hyper, 0).astype(np.float32)
    trace = forward(x, params, hyper, mode="train", rng=np.random.default_rng(0))
    _, grads = loss_and_grad(trace, x, params, hyper, "supervised", labels=labels)
    # the norm of the float32 gradient, summed in float64
    # (in another order than adam_step's blocks, so equal to rounding)
    norm = float(np.sqrt(sum(float(np.vdot(d, d)) for d in grads.astype(np.float64).arrays())))

    for clip, fraction in [(norm / 2, 1.0), (2 * norm, 0.0), (0.0, 0.0)]:
        config = TrainConfig(epochs=1, learning_rate=1e-3, grad_clip=clip)
        _, (epoch,) = train([rec], split_of(["v0"]), config, hyper)
        assert epoch["grad_norm"]["median"] == epoch["grad_norm"]["max"]
        assert epoch["grad_norm"]["max"] == pytest.approx(norm, rel=1e-12)
        assert epoch["clipped_fraction"] == fraction

    records, split = small_corpus()
    config = TrainConfig(epochs=2, learning_rate=1e-3, grad_clip=1e-12)
    _, epochs = train(records, split, config, SMALL_HYPER)
    for epoch in epochs:
        assert 0.0 < epoch["grad_norm"]["median"] <= epoch["grad_norm"]["max"]
        assert epoch["clipped_fraction"] == 1.0


def test_train_report_json_lines(tmp_path):
    manifest = write_planted_corpus(tmp_path, PlantedSpec(n_videos=6, n_frames=60, dim=8, seed=2))
    out = tmp_path / "run"
    assert main([
        "train", "--manifest", str(manifest), "--fold", "0", "--epochs", "2",
        "--hidden", "8", "--embed", "4", "--lr", "1e-3", "--out", str(out),
    ]) == 0
    lines = [json.loads(line) for line in (out / "fold0.report.jsonl").read_text().splitlines()]
    assert len(lines) == 4
    assert list(lines[0]) == ["format_version", "run_config", "numerics"]
    for k, epoch in enumerate(lines[1:3]):
        assert list(epoch) == [
            "epoch", "loss", "wall_seconds", "stage_seconds", "minor_faults", "grad_norm",
            "clipped_fraction",
        ]
        assert epoch["epoch"] == k
        assert list(epoch["stage_seconds"]) == ["forward", "loss_and_grad", "optimizer"]
        assert all(t > 0.0 for t in epoch["stage_seconds"].values())
        assert sum(epoch["stage_seconds"].values()) <= epoch["wall_seconds"]
        assert list(epoch["loss"]) == [f.name for f in dataclasses.fields(LossBreakdown)]
        assert list(epoch["grad_norm"]) == ["median", "max"]
    assert lines[-1] == {"checkpoint_path": str(out / "fold0.ckpt")}


def test_epoch_record_counts_minor_faults(monkeypatch):
    records, split = small_corpus()
    config = TrainConfig(epochs=2, learning_rate=1e-3, seed=0)
    _, epochs = train(records, split, config, SMALL_HYPER)
    for epoch in epochs:
        faults = epoch["minor_faults"]
        assert type(faults) is int and faults >= 0
    # without the resource module (Windows) the count is null
    monkeypatch.setattr(train_module, "resource", None)
    _, epochs = train(records, split, config, SMALL_HYPER)
    assert [epoch["minor_faults"] for epoch in epochs] == [None, None]


def reference_checkpoint(params, dtype, hyper=None):
    # the file format assembled independently of save_checkpoint
    header = {
        "format": "gdasum-checkpoint",
        "version": 2,
        "dtype": dtype,
        "shapes": {name: list(arr.shape) for name, arr in params.items()},
    }
    if hyper is not None:
        header["hyper"] = dataclasses.asdict(hyper)
    payload = b"".join(arr.astype(dtype).tobytes() for arr in params.arrays())
    return json.dumps(header).encode() + b"\n" + payload


def assert_fresh_float64(loaded):
    for arr in loaded.arrays():
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.writeable


def test_checkpoint_round_trip_float64(tmp_path):
    params = init_params(6, SMALL_HYPER, 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)
    assert path.read_bytes() == reference_checkpoint(params, "<f8", SMALL_HYPER)
    loaded, hyper = load_checkpoint(path)
    assert hyper == SMALL_HYPER
    assert_fresh_float64(loaded)
    for (name_a, a), (name_b, b) in zip(params.items(), loaded.items()):
        assert name_a == name_b
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_checkpoint_without_hyper(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "bare.ckpt"
    path.write_bytes(reference_checkpoint(params, "<f8"))
    with pytest.raises(CheckpointError, match="no hyperparameters"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_dtype(tmp_path):
    # payloads are float64 only: a float32 one is refused, not converted
    path = tmp_path / "model.f4.ckpt"
    path.write_bytes(reference_checkpoint(init_params(4, SMALL_HYPER, 0), "<f4", SMALL_HYPER))
    with pytest.raises(CheckpointError, match="unsupported payload dtype '<f4'"):
        load_checkpoint(path)


def test_checkpoint_extra_header_round_trip(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(
        params, path, hyper=SMALL_HYPER, extra_header={"run_config": {"seed": 1}}
    )
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["run_config"] == {"seed": 1}
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.emb_w, params.emb_w)


def test_checkpoint_extra_header_clash(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    with pytest.raises(CheckpointError, match="clash"):
        save_checkpoint(
            params, tmp_path / "x.ckpt", SMALL_HYPER, extra_header={"dtype": "<f8"}
        )
    with pytest.raises(CheckpointError, match="clash"):
        save_checkpoint(params, tmp_path / "x.ckpt", SMALL_HYPER, extra_header={"hyper": {}})


def corrupt(path, mutate):
    raw = path.read_bytes()
    head, payload = raw.split(b"\n", 1)
    header = json.loads(head)
    mutate(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_checkpoint_error_taxonomy(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)

    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "absent.ckpt")

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(trailing)

    headerless = tmp_path / "headerless.ckpt"
    headerless.write_bytes(b"no newline at all")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(headerless)

    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(b"{not json}\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(garbled)

    wrong_format = tmp_path / "wrong.ckpt"
    wrong_format.write_bytes(path.read_bytes())
    corrupt(wrong_format, lambda h: h.update(format="some-other-format"))
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(wrong_format)

    future = tmp_path / "future.ckpt"
    future.write_bytes(path.read_bytes())
    corrupt(future, lambda h: h.update(version=3))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(future)

    missing_shape = tmp_path / "shapes.ckpt"
    missing_shape.write_bytes(path.read_bytes())
    corrupt(missing_shape, lambda h: h["shapes"].pop("w_att"))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(missing_shape)

    negative_d = tmp_path / "negative_d.ckpt"
    negative_d.write_bytes(path.read_bytes())
    corrupt(negative_d, lambda h: h["shapes"].update(w_att=[4, -1]))
    with pytest.raises(CheckpointError, match="shape table gives w_att an invalid D=-1"):
        load_checkpoint(negative_d)

    negative_shape = tmp_path / "negative.ckpt"
    negative_shape.write_bytes(path.read_bytes())
    corrupt(negative_shape, lambda h: h["shapes"].update(ff_b=[-1]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(negative_shape)

    not_an_object = tmp_path / "list.ckpt"
    not_an_object.write_bytes(b"[1, 2]\n" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(not_an_object)

    # D=6 from w_att, yet ff_b says 7 and ln1_scale 5: the byte total still matches
    inconsistent = tmp_path / "inconsistent.ckpt"
    save_checkpoint(init_params(6, SMALL_HYPER, 0), inconsistent, SMALL_HYPER)
    corrupt(inconsistent, lambda h: h["shapes"].update(ff_b=[7], ln1_scale=[5]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(inconsistent)

    low_rank = tmp_path / "low_rank.ckpt"
    low_rank.write_bytes(path.read_bytes())
    corrupt(low_rank, lambda h: h["shapes"].update(w_att=[16]))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(low_rank)

    # weights of H=16 and E=8 under a header whose hyper says 1024 and 256
    wide = tmp_path / "wide.ckpt"
    wide.write_bytes(path.read_bytes())
    corrupt(wide, lambda h: h["hyper"].update(hidden=1024, embed=256))
    with pytest.raises(CheckpointError, match="shape table"):
        load_checkpoint(wide)


def test_checkpoint_refuses_a_version_1_file_by_its_version(tmp_path, monkeypatch):
    # version 1 stored separate w_q, w_k, w_v and ff_w where version 2 stores
    # w_att and w_ctx: such a file is refused, named, before any field is read
    d, (h, e) = 4, (SMALL_HYPER.hidden, SMALL_HYPER.embed)
    shapes = {"w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "ff_w": (d, d)}
    shapes.update((k, v) for k, v in ModelParams.shapes(d, h, e).items() if k not in ("w_att", "w_ctx"))
    header = {
        "format": "gdasum-checkpoint", "version": 1, "dtype": "<f8",
        "shapes": {name: list(shape) for name, shape in shapes.items()},
        "hyper": dataclasses.asdict(SMALL_HYPER),
    }
    payload = np.zeros(sum(math.prod(shape) for shape in shapes.values())).tobytes()
    path = tmp_path / "old.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    def no_read(*args, **kwargs):
        raise AssertionError("a field was read")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(CheckpointError) as refused:
        load_checkpoint(path)
    assert str(refused.value) == f"checkpoint {path}: format version 1 != 2"


def test_checkpoint_short_read_is_an_error(tmp_path, monkeypatch):
    # a file that shrinks after its size was taken: the last field reads short
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, SMALL_HYPER)
    full_size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=full_size))
    with pytest.raises(CheckpointError, match="payload ends inside field 'emb_b'"):
        load_checkpoint(path)


def test_checkpoint_io_streams_fields(tmp_path, traced_peak):
    # a few-MB model: saving builds no payload copy, loading holds one
    params = init_params(256, HyperParams(), 0)
    param_bytes = sum(a.nbytes for a in params.arrays())
    path = tmp_path / "model.ckpt"
    assert traced_peak(lambda: save_checkpoint(params, path, HyperParams()))[0] < 0.5 * param_bytes
    assert traced_peak(lambda: load_checkpoint(path))[0] < 1.5 * param_bytes


def test_checkpoint_hyper_header_is_checked(tmp_path):
    params = init_params(4, SMALL_HYPER, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, hyper=SMALL_HYPER)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert list(header["hyper"]) == [
        "hidden", "embed", "dropout_rate", "weight_decay", "beta", "alpha_clip"
    ]

    for name, mutate in [
        ("unknown", lambda h: h["hyper"].update(momentum=0.9)),
        ("missing", lambda h: h["hyper"].pop("beta")),
    ]:
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(path.read_bytes())
        corrupt(bad, mutate)
        with pytest.raises(CheckpointError, match="hyperparameters"):
            load_checkpoint(bad)

    for beta in (-1.0, float("nan")):  # json writes and reads NaN
        invalid = tmp_path / "invalid.ckpt"
        invalid.write_bytes(path.read_bytes())
        corrupt(invalid, lambda h: h["hyper"].update(beta=beta))
        with pytest.raises(CheckpointError, match="beta must be positive"):
            load_checkpoint(invalid)

    # 16.0 and 8.0 imply the same shape table, yet widths must be JSON integers
    for widths in ({"hidden": 16.0}, {"embed": 8.0}):
        float_width = tmp_path / "float_width.ckpt"
        float_width.write_bytes(path.read_bytes())
        corrupt(float_width, lambda h: h["hyper"].update(widths))
        with pytest.raises(CheckpointError, match="invalid hyperparameters: hidden and embed"):
            load_checkpoint(float_width)


def test_checkpoint_unserializable_header_writes_no_file(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_checkpoint(init_params(4, SMALL_HYPER, 0), path, SMALL_HYPER,
                        extra_header={"seed": np.int64(1)})
    assert not path.exists()
