import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdasum.metrics import (
    PROTOCOL_BY_SOURCE,
    EvalProtocol,
    diversity_zeta,
    fscore,
    video_fscore,
)


def mask(n, idx):
    m = np.zeros(n, dtype=bool)
    m[list(idx)] = True
    return m


def test_fscore_hand_example():
    # machine picks 5 frames, user picks 6, overlap 3
    machine = mask(12, range(0, 5))
    user = mask(12, range(2, 8))
    p, r, f = fscore(machine, user)
    assert abs(p - 60.0) < 1e-12
    assert abs(r - 50.0) < 1e-12
    assert abs(f - 600.0 / 11.0) < 1e-9


def test_fscore_both_empty_is_100():
    assert fscore(np.zeros(5, bool), np.zeros(5, bool)) == (100.0, 100.0, 100.0)


def test_fscore_one_empty_is_0():
    m = mask(5, [1, 2])
    assert fscore(m, np.zeros(5, bool)) == (0.0, 0.0, 0.0)
    assert fscore(np.zeros(5, bool), m) == (0.0, 0.0, 0.0)


def test_fscore_zero_overlap_is_0():
    assert fscore(mask(6, [0, 1]), mask(6, [4, 5])) == (0.0, 0.0, 0.0)


def test_fscore_identical_nonempty_is_100():
    m = mask(9, [0, 4, 8])
    assert fscore(m, m) == (100.0, 100.0, 100.0)


def test_fscore_100_only_for_equal_masks():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(0, 2, size=10).astype(bool)
        b = rng.integers(0, 2, size=10).astype(bool)
        _, _, f = fscore(a, b)
        if f == 100.0:
            assert (a == b).all()
        elif (a == b).all():
            pytest.fail("equal masks must score 100")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30), st.data())
def test_fscore_swap_symmetry(bits, data):
    a = np.array(bits, dtype=bool)
    b = np.array(data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a))), dtype=bool)
    pa, ra, fa = fscore(a, b)
    pb, rb, fb = fscore(b, a)
    assert fa == fb
    assert pa == rb and ra == pb


def test_fscore_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        fscore(np.zeros(4, bool), np.zeros(5, bool))
    with pytest.raises(ValueError):
        fscore(np.zeros((2, 2), bool), np.zeros((2, 2), bool))


def test_protocol_by_source_mapping():
    assert PROTOCOL_BY_SOURCE["summe-like"] is EvalProtocol.MAX_OVER_USERS
    assert PROTOCOL_BY_SOURCE["tvsum-like"] is EvalProtocol.MEAN_OVER_USERS


def test_video_fscore_max_returns_best_users_triple():
    machine = mask(10, range(0, 5))
    # user A: perfect match; user B: no overlap
    users = [mask(10, range(5, 10)), mask(10, range(0, 5))]
    p, r, f = video_fscore(machine, users, EvalProtocol.MAX_OVER_USERS)
    assert (p, r, f) == (100.0, 100.0, 100.0)


def test_video_fscore_mean_averages_all_components():
    machine = mask(10, range(0, 5))
    users = [mask(10, range(0, 5)), mask(10, range(5, 10))]
    p, r, f = video_fscore(machine, users, EvalProtocol.MEAN_OVER_USERS)
    assert abs(p - 50.0) < 1e-12
    assert abs(r - 50.0) < 1e-12
    assert abs(f - 50.0) < 1e-12


def test_video_fscore_requires_users():
    with pytest.raises(ValueError):
        video_fscore(np.zeros(3, bool), [], EvalProtocol.MAX_OVER_USERS)


def test_zeta_hand_example():
    # shots at 0, 1, 10 on a line; selected {0, 2}
    feats = np.array([[0.0], [1.0], [10.0]])
    z = diversity_zeta([(feats, [0, 2])])
    assert abs(z - 1.0 / 3.0) < 1e-12
    # every video weighs the same, whatever its shot count
    z_two = diversity_zeta([(np.array([[5.0]]), [0]), (feats, [0, 2])])
    assert abs(z_two - (0.0 + 1.0 / 3.0) / 2.0) < 1e-12


def test_zeta_all_selected_is_zero():
    feats = np.random.default_rng(1).standard_normal((6, 4))
    assert diversity_zeta([(feats, list(range(6)))]) == 0.0


def test_zeta_video_duplication_invariance():
    rng = np.random.default_rng(2)
    feats_a = rng.standard_normal((5, 3))
    feats_b = rng.standard_normal((8, 3))
    videos = [(feats_a, [1]), (feats_b, [0, 4])]
    z1 = diversity_zeta(videos)
    z2 = diversity_zeta(videos + videos)
    assert abs(z1 - z2) < 1e-12


def test_zeta_monotone_in_selection():
    # enlarging the selected set can only shrink nearest distances
    rng = np.random.default_rng(4)
    for _ in range(20):
        feats = rng.standard_normal((10, 3))
        sel = sorted(rng.choice(10, size=3, replace=False).tolist())
        extra = int(rng.integers(0, 10))
        z_small = diversity_zeta([(feats, sel)])
        z_large = diversity_zeta([(feats, sorted(set(sel + [extra])))])
        assert z_large <= z_small + 1e-12


def broadcast_zeta(videos):
    """ζ from the (T, |S|, D) difference broadcast, one video at a time."""
    means = []
    for feats, selected in videos:
        diff = feats[:, None, :] - feats[None, sorted(set(selected)), :]
        means.append(np.sqrt((diff * diff).sum(axis=2)).min(axis=1).mean())
    return float(np.mean(means))


def test_zeta_matches_the_broadcast_formula_on_near_duplicate_shots():
    # shot means of norm 30, half of them within about 0.08 of another:
    # the Gram-form distances round relative to the norms, 400 times the
    # gap, and still agree with the broadcast to 1e-12 relative
    rng = np.random.default_rng(5)
    videos = []
    for _ in range(20):
        feats = rng.standard_normal((12, 64))
        feats *= 30.0 / np.linalg.norm(feats, axis=1, keepdims=True)
        feats[6:] = feats[:6] + 0.01 * rng.standard_normal((6, 64))
        videos.append((feats, rng.choice(12, size=3, replace=False).tolist()))
    for video in videos:
        expected = broadcast_zeta([video])
        assert abs(diversity_zeta([video]) - expected) <= 1e-12 * expected
    expected = broadcast_zeta(videos)
    assert abs(diversity_zeta(videos) - expected) <= 1e-12 * expected


def test_zeta_validates_input():
    feats = np.zeros((3, 2))
    with pytest.raises(ValueError):
        diversity_zeta([])
    with pytest.raises(ValueError):
        diversity_zeta([(feats, [])])
    with pytest.raises(ValueError):
        diversity_zeta([(feats, [3])])
    for bad in (np.zeros((0, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match="shot features must form a nonempty"):
            diversity_zeta([(bad, [0])])


def test_zeta_leaves_out_videos_without_selection():
    feats = np.array([[0.0], [1.0], [3.0]])
    kept = diversity_zeta([(feats, [0, 2])])
    assert diversity_zeta([(feats, [0, 2]), (feats * 5.0, [])]) == kept
    assert kept == diversity_zeta([(feats, []), (feats, [0, 2])])
    with pytest.raises(ValueError, match="no video has a selected shot"):
        diversity_zeta([(feats, []), (feats, [])])
