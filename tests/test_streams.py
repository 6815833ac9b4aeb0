import numpy as np
import pytest
from scipy import stats

from rednoise import GaussianStream


def test_same_seed_same_draws():
    a = GaussianStream(123).fill(1000)
    b = GaussianStream(123).fill(1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = GaussianStream(1).fill(100)
    b = GaussianStream(2).fill(100)
    assert not np.array_equal(a, b)


def test_split_fill_equals_single_fill():
    # the whole chunked-simulation design rests on this
    s1 = GaussianStream(99)
    s2 = GaussianStream(99)
    whole = s1.fill(10_000)
    parts = np.concatenate([s2.fill(k) for k in (1, 7, 0, 992, 4000, 5000)])
    np.testing.assert_array_equal(whole, parts)


def test_count_drawn_tracks_usage():
    s = GaussianStream(0)
    s.fill(10)
    s.fill(1)
    s.fill(0)
    assert s.count_drawn == 11


def test_moments():
    n = 200_000
    x = GaussianStream(7).fill(n)
    bound = 4.0 / np.sqrt(n)
    assert abs(x.mean()) < bound
    assert abs(x.var() - 1.0) < np.sqrt(2.0) * 4.0 / np.sqrt(n)
    assert abs(stats.skew(x)) < np.sqrt(6.0) * 4.0 / np.sqrt(n)


def test_normality_ks():
    x = GaussianStream(42).fill(100_000)
    d, _ = stats.kstest(x, "norm")
    # 99% critical value of the KS statistic
    assert d < 1.628 / np.sqrt(x.size)


def test_no_serial_correlation():
    x = GaussianStream(5).fill(1_000_000)
    lag1 = np.mean(x[:-1] * x[1:])
    assert abs(lag1) < 4.0 / np.sqrt(x.size)


def test_spawn_children_independent_and_deterministic():
    parent_a = GaussianStream(11)
    kids_a = parent_a.spawn(3)
    kids_b = GaussianStream(11).spawn(3)
    for ka, kb in zip(kids_a, kids_b):
        np.testing.assert_array_equal(ka.fill(100), kb.fill(100))
    draws = [GaussianStream(11).spawn(3)[i].fill(50_000) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            corr = np.corrcoef(draws[i], draws[j])[0, 1]
            assert abs(corr) < 4.0 / np.sqrt(50_000)


def test_spawn_does_not_disturb_parent_draws():
    plain = GaussianStream(13)
    spawning = GaussianStream(13)
    spawning.spawn(4)
    np.testing.assert_array_equal(plain.fill(100), spawning.fill(100))


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_bad_seeds_rejected(bad):
    with pytest.raises(ValueError):
        GaussianStream(bad)


def test_negative_fill_rejected():
    with pytest.raises(ValueError):
        GaussianStream(0).fill(-1)


def test_repr_mentions_seed():
    s = GaussianStream(21)
    s.fill(3)
    assert "21" in repr(s) and "3" in repr(s)
