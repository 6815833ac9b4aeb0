import dataclasses
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.integrate import quad

import oracles
import rednoise.models as models
from rednoise import spectral
from conftest import StubStream, peak_rss_rise
from rednoise import (Ar1Driven, ContinuousSystemParams, DiffU,
                      DiscreteSystemParams, Fgn, GaussianStream, Mixed, RedOuDt,
                      TimeSeries, White, band_average, empirical_acf,
                      fgn_increment_cov, increments, ou_autocov,
                      ou_exact_sample, ou_increment_cov, parse_model,
                      periodogram, plateau_experiment, restoring_run,
                      simulate_discrete, simulate_exact, spectra_run,
                      theoretical_psd)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: RedOuDt(0.0),
    lambda: RedOuDt(-0.1),
    lambda: DiffU(float("nan")),
    lambda: Mixed(0.0, 0.5),
    lambda: Mixed(0.1, float("inf")),
    lambda: Ar1Driven(0.0),
    lambda: Ar1Driven(1.0),
    lambda: Fgn(0.0),
    lambda: Fgn(1.0),
])
def test_invalid_params_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: RedOuDt(1e-320),
    lambda: DiffU(5e-324),
    lambda: Mixed(1e-310, 0.5),
    lambda: ou_autocov(1e-320, 1.0),
])
def test_subnormal_theta_rejected(build):
    with pytest.raises(ValueError, match="smallest normal"):
        build()


def test_smallest_normal_theta_accepted():
    theta = np.finfo(np.float64).tiny
    assert RedOuDt(theta).theta == theta
    assert ou_autocov(theta, 0.0) == 1.0 / (2.0 * theta)


@pytest.mark.parametrize("theta, dt, product", [
    (15.0, 0.1, "1.5"), (25.0, 0.1, "2.5"), (10.0, 0.1, "1.0")])
def test_mixed_rejects_theta_dt_from_one(theta, dt, product):
    with pytest.raises(ValueError, match=rf"theta\*dt={product}"):
        increments(Mixed(theta, 0.5), dt, 100, GaussianStream(0))


def test_mixed_accepts_theta_dt_below_one():
    incr = increments(Mixed(9.99, 0.5), 0.1, 100, GaussianStream(0))
    assert np.all(np.isfinite(incr.values))


def test_ar1_driven_requires_unit_grid():
    with pytest.raises(ValueError):
        increments(Ar1Driven(0.9), 0.5, 100, GaussianStream(0))


@pytest.mark.parametrize("n,dt", [(0, 1.0), (-1, 1.0), (10, 0.0), (10, -0.5)])
def test_increments_domain_errors(n, dt):
    with pytest.raises(ValueError):
        increments(White(), dt, n, GaussianStream(0))


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_step_rejected_before_any_draw(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        fgn_increment_cov(0.7, dt, 3)
    with pytest.raises(ValueError, match="dt must be positive"):
        ou_increment_cov(0.1, dt, [5.0])
    for sample in (lambda s: ou_exact_sample(0.1, dt, 5, s),
                   lambda s: increments(Fgn(0.7), dt, 5, s),
                   lambda s: increments(RedOuDt(0.1), dt, 5, s)):
        stream = GaussianStream(0)
        with pytest.raises(ValueError, match="dt must be positive"):
            sample(stream)
        assert stream.count_drawn == 0


_RAMP = TimeSeries(1.0, np.arange(100.0))


@pytest.mark.parametrize("n", [0, -5, 2.9, True])
@pytest.mark.parametrize("name, least, count", [
    ("n", 1, lambda n, s: increments(Ar1Driven(0.9), 1.0, n, s)),
    ("n", 1, lambda n, s: ou_exact_sample(0.1, 1.0, n, s)),
    ("n", 1, lambda n, s: increments(Fgn(0.7), 1.0, n, s)),
    ("n", 1, lambda n, s: increments(White(), 1.0, n, s)),
    ("n", 1, lambda n, s: simulate_discrete(DiscreteSystemParams(0.8, 0.9, 1.0), n, s)),
    ("n_out", 1,
     lambda n, s: simulate_exact(ContinuousSystemParams(0.2, 0.1, 1.0), 1.0, n, s)),
    ("max_lag", 0, lambda n, s: empirical_acf(_RAMP, n)),
    ("max_lag", 0, lambda n, s: restoring_run(max_lag=n)),
    ("band_width", 1, lambda n, s: band_average(periodogram(_RAMP), n)),
    ("band_width", 1, lambda n, s: spectra_run(band_width=n)),
    ("replicas", 32,
     lambda n, s: plateau_experiment(RedOuDt(0.1), 1.0, 500.0, 0.01, n, s)),
    ("n", 0, lambda n, s: s.fill(n)),
    ("k", 1, lambda n, s: s.spawn(n)),
], ids=["ar1_sample", "ou_exact_sample", "fgn_sample", "increments",
        "simulate_discrete", "simulate_exact", "empirical_acf", "restoring_run",
        "band_average", "spectra_run", "plateau_experiment", "fill", "spawn"])
def test_bad_count_rejected_before_any_draw(made_streams, name, least, count, n):
    # every count is an integer, not a bool, of at least its minimum: 2.9 is
    # not rounded down and True is not 1.  An int n stands for the count
    # least - 1 + n, so 0 is the largest count too small.
    bad = least - 1 + n if type(n) is int else n
    want = f"must be at least {least}, got {bad}" if type(n) is int \
        else f"must be an integer, got {n}"
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {want}") + "$"):
        count(bad, GaussianStream(0))
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)


def test_spectra_run_rejects_band_wider_than_spectrum_before_any_draw(
        made_streams):
    with pytest.raises(ValueError,
                       match="^band_width=600 exceeds the 500 available bins$"):
        spectra_run(n=1000, band_width=600)
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)


@pytest.mark.parametrize("dt, n, held", [
    (100.0, 2**21, 0),                 # every band below omega = 1
    (1e-150, 2**21, 0),                # every band above omega = 10
    (0.1, 20_000, 3),                  # 3.1-wide bands: too few in [1, 10]
])
def test_spectra_run_rejects_a_thin_slope_window_before_any_draw(
        made_streams, dt, n, held):
    # the band centres in the red slope's window are counted before the
    # first draw, and the error names dt and the window
    want = (f"dt={dt} puts only {held} band centres in the slope window "
            f"[1.0, 10.0] (n={n}, band_width=1000); need at least 8")
    with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
        spectra_run(n=n, dt=dt)
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)

@pytest.mark.parametrize("call", [
    lambda s: ou_exact_sample(1e-300, 1.0, 1000, s),
    lambda s: increments(RedOuDt(1e-300), 1.0, 1000, s),
    lambda s: increments(DiffU(1e-300), 1.0, 1000, s),
    lambda s: increments(Mixed(1e-300, 0.5), 1.0, 1000, s),
    lambda s: ou_exact_sample(2.0**-107, np.nextafter(1.0, 0.0), 3, s),
], ids=["ou_exact_sample", "red", "du", "mixed", "just_below"])
def test_swamped_ou_step_rejected_before_any_draw(call):
    # below 2 theta dt = 2**-106 each innovation is under 2**-53 of the
    # stationary sd and rounds away: the path would be its start repeated
    stream = GaussianStream(0)
    with pytest.raises(ValueError, match=r"^theta=\S+ with dt=\S+ gives an OU "
                       r"step .*\(need 2\*theta\*dt >= 2\*\*-106\)$"):
        call(stream)
    assert stream.count_drawn == 0


def test_ou_step_at_the_rounding_limit_is_sampled():
    stream = GaussianStream(0)
    assert len(ou_exact_sample(2.0**-107, 1.0, 3, stream)) == 3
    assert stream.count_drawn == 3


# Hostile values for dt and for every model field: 0, +-tiny (the smallest
# normal), subnormals, 1e+-150, 1e+-300, nan, inf and 1 - 2**-53; with 1 (the
# unit grid Ar1Driven needs) and 0.1 so that each family also samples.
_HOSTILE = st.sampled_from([
    0.0, np.finfo(float).tiny, -np.finfo(float).tiny, 5e-324, 1e-310, 1e-150,
    1e150, 1e-300, 1e300, float("nan"), float("inf"), 1.0 - 2.0**-53, 1.0,
    0.1])
_DRAWS = {White: lambda n: n, RedOuDt: lambda n: n, DiffU: lambda n: n + 1,
          Mixed: lambda n: n + 1, Ar1Driven: lambda n: n, Fgn: lambda n: 2 * n}


@st.composite
def _hostile_models(draw):
    family = draw(st.sampled_from(list(_DRAWS)))
    values = [draw(_HOSTILE) for _ in dataclasses.fields(family)]
    try:
        return family(*values)
    except ValueError:
        reject()


@given(model=_hostile_models(), dt=_HOSTILE, n=st.integers(1, 64))
@settings(max_examples=400, deadline=None)
def test_the_preflight_decides_before_the_first_draw(model, dt, n):
    # what _check_sampling rejects, increments rejects with the same message
    # before any draw; what it accepts, increments samples with exactly the
    # documented draws, into finite values (and no warning, as tests treat
    # RuntimeWarnings as errors)
    stream = GaussianStream(0)
    try:
        models._check_sampling(model, dt, n)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^" + re.escape(str(exc)) + "$"):
            increments(model, dt, n, stream)
        assert stream.count_drawn == 0
        return
    assert len(increments(model, dt, n, stream)) == n
    assert stream.count_drawn == _DRAWS[type(model)](n)


# ---------------------------------------------------------------------------
# hand-checkable recursions and closed-form values
# ---------------------------------------------------------------------------

def test_ar1_hand_recursion():
    # eps_0 is the first draw times the stationary sd 1/sqrt(1 - 0.81)
    out = increments(Ar1Driven(0.9), 1.0, 3, StubStream([0.19**0.5, 1.0, -0.5]))
    np.testing.assert_allclose(out.values, [1.0, 1.9, 1.21], rtol=1e-15)
    assert out.dt == 1.0


@pytest.mark.parametrize("block", [1, 2, 3, models._AR1_BLOCK])
def test_ar1_recursion_gives_lfilter_bytes(monkeypatch, block):
    # the blocked banded solve rounds as lfilter does, at every block size
    # and on both sides of each block edge; negative coefficients are Euler
    # steps at lam*dt in (1, 2).  A BLAS kernel that fuses the multiply and
    # add, or reorders the sum, fails here.  The solve runs in place, in a
    # whole array and in a view at an offset into a larger one, as the
    # restoring cascade solves out[start:stop + 1]; the values around the
    # view are left as they were.
    monkeypatch.setattr(models, "_AR1_BLOCK", block)
    stream = GaussianStream(11)
    for coeff in (0.0, 0.3, np.exp(-0.01), np.exp(-1e-4), 1.0 - 1e-7, 1.0,
                  -0.5, -0.9):
        for x0 in (0.0, -0.0, 0.7):
            for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
                z = stream.fill(n)
                for scale in (1.0, 0.37):
                    want = oracles._ar1_whole(coeff, scale, x0, z)
                    whole = np.empty(n + 1)
                    host = np.full(n + 8, 5.0)
                    for y in (whole, host[3:n + 4]):
                        y[0] = x0
                        np.multiply(z, scale, out=y[1:])
                        assert models._ar1_recursion(coeff, y) is y
                        assert y.tobytes() == want.tobytes(), (coeff, x0, n, scale)
                    assert (host[:3] == 5.0).all() and (host[n + 4:] == 5.0).all()


def test_ou_one_step_coefficients():
    # one deterministic step exposes the recursion coefficient and noise scale
    out = ou_exact_sample(0.1, 0.1, 2, StubStream([2.0, 1.0]))
    coeff = np.exp(-0.01)
    scale = np.sqrt(-np.expm1(-0.02) / 0.2)
    q0 = 2.0 / np.sqrt(0.2)
    np.testing.assert_allclose(out.values, [q0, coeff * q0 + scale], rtol=1e-14)
    assert abs(coeff - 0.990050) < 5e-7
    assert abs(scale - 0.314655) < 1e-2 * 0.314655


def test_ar1_autocov_values():
    assert oracles.ar1_autocov(0.9, 0) == pytest.approx(5.263158, abs=1e-6)
    assert oracles.ar1_autocov(0.9, -2) == pytest.approx(4.263158, abs=1e-6)
    assert oracles.ar1_autocov(1e-9, 0) == pytest.approx(1.0, rel=1e-12)


def test_ou_autocov_values():
    assert ou_autocov(0.1, 0.0) == pytest.approx(5.0, rel=1e-12)
    assert ou_autocov(0.1, 10.0) == pytest.approx(1.839397, abs=1e-6)
    assert ou_autocov(0.1, -10.0) == ou_autocov(0.1, 10.0)


def test_ou_increment_cov_value_and_domain():
    assert ou_increment_cov(0.1, 0.1, 1.0) == pytest.approx(-4.5242e-4, rel=1e-4)
    with pytest.raises(ValueError):
        ou_increment_cov(0.1, 0.1, 0.05)
    assert abs(ou_increment_cov(0.1, 0.1, 300.0)) < 1e-13
    assert ou_increment_cov(0.1, 0.1, 300.0) < 0


@given(theta=st.floats(1e-3, 10.0), dt=st.floats(1e-6, 2.0),
       k=st.floats(1.0, 50.0))
@example(theta=8.0, dt=2.0, k=47.0)    # true value -1.4e-321, a subnormal
def test_ou_increment_cov_always_negative(theta, dt, k):
    # on this domain, strictly negative wherever float64 can represent the
    # true magnitude; below the smallest subnormal (log ~ -744.4) it can only
    # round to -0.0
    got = ou_increment_cov(theta, dt, k * dt)
    log_mag = (np.log(2.0 / theta) + 2.0 * np.log(np.sinh(0.5 * theta * dt))
               - theta * k * dt)
    if log_mag > -744.0:
        assert got < 0
    else:
        assert got <= 0 and np.signbit(got)


def test_ou_increment_cov_large_lead_does_not_underflow_early():
    # theta=1e-6, dt=1e5: expm1(-theta dt)^2 / (2 theta) ~ 4.5e3 > 1, so
    # exp(-theta (tau - dt)) ~ e^-750 underflows before the product would;
    # the true value is -8.61e-323 (log-magnitude -741.58), 17.4 subnormal
    # units, which rounds to 17
    got = ou_increment_cov(1e-6, 1e5, 7.5e8 + 1e5)
    assert got == -17 * 5e-324
    # the two evaluation forms meet without a seam at exp(-708.4)
    decay = np.array([700.0, 708.0, 708.5, 709.0, 720.0])
    got = ou_increment_cov(1e-6, 1e5, 1e5 + decay / 1e-6)
    half = np.exp(-decay / 2)       # normal, so only the last product rounds
    expect = -np.expm1(-0.1) ** 2 / 2e-6 * half * half
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_ou_increment_cov_tiny_step_stability():
    # naive (1 - cosh) loses all precision near theta*dt ~ 1e-8; the stable
    # form must stay on the asymptote -(theta dt^2 / 2) e^{-theta tau}
    theta, dt = 0.1, 1e-7
    got = ou_increment_cov(theta, dt, 1.0)
    expect = -0.5 * theta * dt * dt * np.exp(-theta * 1.0)
    assert got == pytest.approx(expect, rel=1e-9)


def test_fgn_increment_cov_values():
    assert fgn_increment_cov(0.7, 1.0, 1) == pytest.approx(0.319508, abs=1e-6)
    # H = 1/2: increments uncorrelated beyond lag 0
    assert fgn_increment_cov(0.5, 0.3, 3) == pytest.approx(0.0, abs=1e-15)
    assert fgn_increment_cov(0.5, 0.3, 0) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
def test_fgn_cov_matches_brute_force_expansion(hurst):
    for m in range(11):
        brute = oracles.fgn_cov_brute(hurst, 0.7, m)
        assert fgn_increment_cov(hurst, 0.7, m) == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("hurst", [0.1, 0.7, 0.9])
def test_fgn_cov_matches_long_double_series(hurst):
    # lags 2..3e6, dense at both ends; on these lags the direct form's
    # relative error reaches 2e-3 (H=0.9) to 2e-2 (H=0.1)
    lags = np.unique(np.concatenate([
        np.arange(2, 2000), np.geomspace(2000, 3e6, 2000).astype(np.int64),
        np.arange(3_000_000 - 2000, 3_000_001)]))
    got = fgn_increment_cov(hurst, 1.0, lags)
    want = oracles.fgn_cov_series(hurst, lags)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# sampler statistics
# ---------------------------------------------------------------------------

def test_ar1_stationary_variance_and_lag1():
    x = increments(Ar1Driven(0.9), 1.0, 1_000_000, GaussianStream(3)).values
    assert x.var() == pytest.approx(5.2632, rel=0.03)
    lag1 = np.mean(x[:-1] * x[1:]) / x.var()
    assert lag1 == pytest.approx(0.9, abs=0.01)


def test_ou_stationary_variance():
    u = ou_exact_sample(0.1, 0.1, 2_000_000, GaussianStream(4)).values
    assert u.var() == pytest.approx(5.0, rel=0.02)


def test_ou_stationary_autocov_curve():
    # lag-m autocovariance tracks the closed form out to tau = 3/theta;
    # deviations measured against the lag-0 value (estimator noise at deep
    # lags swamps a deviation measured relative to the decayed target itself)
    theta, dt, n = 0.1, 0.1, 2_000_000
    u = ou_exact_sample(theta, dt, n, GaussianStream(5)).values
    u = u - u.mean()
    c0 = u.var()
    worst = 0.0
    for m in range(0, 301, 25):
        est = np.mean(u[:n - m] * u[m:]) if m else c0
        worst = max(worst, abs(est - ou_autocov(theta, m * dt)) / c0)
    assert worst < 0.03


def test_white_increment_variance():
    incr = increments(White(), 0.01, 1_000_000, GaussianStream(6))
    assert incr.values.var() == pytest.approx(0.01, rel=0.02)


def test_diffu_increment_covariance():
    incr = increments(DiffU(0.1), 0.1, 2_000_000, GaussianStream(0))
    x = incr.values - incr.values.mean()
    est = np.mean(x[:-10] * x[10:])
    assert est == pytest.approx(-4.52e-4, rel=0.2)
    assert est < 0


def test_fgn_half_is_white():
    incr = increments(Fgn(0.5), 0.1, 1_000_000, GaussianStream(7))
    x = incr.values
    lag1 = np.mean(x[:-1] * x[1:]) / x.var()
    assert abs(lag1) < 0.004
    assert x.var() == pytest.approx(0.1, rel=0.02)


def test_fgn_variance_and_lag1_cov():
    incr = increments(Fgn(0.7), 1.0, 1_000_000, GaussianStream(8))
    x = incr.values
    assert x.var() == pytest.approx(1.0, rel=0.02)
    lag1 = np.mean(x[:-1] * x[1:]) - x.mean() ** 2
    assert lag1 == pytest.approx(0.319508, rel=0.05)


def test_fgn_deep_lag_covariances():
    incr = increments(Fgn(0.8), 1.0, 2_000_000, GaussianStream(9))
    x = incr.values - incr.values.mean()
    for m in (1, 2, 5, 10):
        est = np.mean(x[:-m] * x[m:])
        assert est == pytest.approx(fgn_increment_cov(0.8, 1.0, m), rel=0.10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 1000, 1001, 2**16, 2**16 + 1,
                               131_075])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9])
def test_fgn_sample_matches_full_length_reference(n, hurst):
    # the one-array, blocked sampler on the in-place halfcomplex FFT gives
    # the bytes and draws of the reference on numpy's rfft and irfft;
    # 2**16 + 1 puts a block boundary inside both the row and the spectrum
    assert spectral._four_step_rows(2 * n) == 0
    for dt in (1.0, 0.5):
        for seed in (0, 5):
            stream, ref_stream = GaussianStream(seed), GaussianStream(seed)
            got = increments(Fgn(hurst), dt, n, stream).values
            want = oracles.fgn_sample_reference(hurst, dt, n, ref_stream)
            assert got.tobytes() == want.tobytes()
            assert stream.count_drawn == ref_stream.count_drawn == 2 * n


def _fgn_matches_reference(hurst, dt, n, seed=0):
    # within 1e-12 of the largest value of numpy's rfft and irfft, from
    # exactly 2n draws
    stream, ref_stream = GaussianStream(seed), GaussianStream(seed)
    got = increments(Fgn(hurst), dt, n, stream).values
    want = oracles.fgn_sample_reference(hurst, dt, n, ref_stream)
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 1e-12, err
    assert stream.count_drawn == ref_stream.count_drawn == 2 * n


@pytest.mark.parametrize("n, rows", [(64 * 64, 64), (97 * 1009, 97),
                                     (2**17, 512), (64 * 200, 200),
                                     (512 * 65, 512), (65 * 67, 67)])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9])
def test_fgn_four_step_matches_full_length_reference(monkeypatch, n, rows,
                                                     hurst):
    # a square split, a prime row count (fewer rows than columns), 512 rows
    # (more rows than columns), an even row count by an odd column count,
    # and an odd n, whose middle bin n/2 falls between two bins
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    monkeypatch.setattr(spectral, "_halfcomplex", None)     # not called
    assert spectral._four_step_rows(2 * n) == rows
    for dt in (1.0, 0.5):
        _fgn_matches_reference(hurst, dt, n)


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(64, 150), n2=st.integers(64, 150),
       block=st.integers(16, 2**15), hurst=st.floats(0.05, 0.95))
def test_fgn_four_step_matches_reference_for_any_chunking(n1, n2, block,
                                                          hurst):
    # chunks of columns that straddle the middle bin, on any split
    n = n1 * n2
    with patch.object(spectral, "_FOUR_STEP_MIN", 2), \
            patch.object(spectral, "_BLOCK", block), \
            patch.object(models, "_BLOCK", block), \
            patch.object(spectral, "_halfcomplex", None):
        assert spectral._four_step_rows(2 * n)
        _fgn_matches_reference(hurst, 1.0, n, seed=n)


@pytest.mark.parametrize("hurst", [0.1, 0.9])
def test_fgn_four_step_bytes_do_not_depend_on_the_scratch_size(monkeypatch,
                                                               hurst):
    # covariance blocks of 128 to 8192 lags and draw chunks of 1 to 40
    # columns of the (200, 64) split give one sample, bit for bit
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    n = 64 * 200
    assert spectral._four_step_rows(2 * n) == 200
    got = set()
    for block in (2**10, 2**13, 2**16):
        monkeypatch.setattr(models, "_BLOCK", block)
        stream = GaussianStream(9)
        got.add(increments(Fgn(hurst), 1.0, n, stream).values.tobytes())
        assert stream.count_drawn == 2 * n
    assert len(got) == 1


@pytest.mark.parametrize("hurst", [0.1, 0.9])
def test_fgn_at_the_length_floor_takes_the_four_step_path(hurst):
    # 2n = 2**20, the shortest embedding the shipped floor sends to the
    # four-step FFT, unpatched; a split 2n just below it keeps numpy's
    n = 2**19
    assert spectral._four_step_rows(2 * n) == 512
    assert spectral._four_step_rows(2 * n - 128) == 0
    _fgn_matches_reference(hurst, 1.0, n)


@pytest.mark.parametrize("n", [1000, 2**14])
def test_fgn_negative_eigenvalue_raises(monkeypatch, n):
    # corrupt one eigenvalue of the embedding: there is no fallback, so the
    # sampler must refuse and name H and n
    halfcomplex = spectral._halfcomplex

    def broken(y, forward):
        halfcomplex(y, forward)
        if forward:
            y[1] = -1.0                  # the real part of bin 1
        return y

    monkeypatch.setattr(spectral, "_halfcomplex", broken)
    with pytest.raises(RuntimeError,
                       match=rf"not nonnegative definite for H=0\.7, n={n}"):
        increments(Fgn(0.7), 1.0, n, GaussianStream(3))


@pytest.mark.parametrize("part, slot", [("real", (1, 0)), ("imag", (0, 0))],
                         ids=["bin-1", "bin-n"])
def test_fgn_four_step_negative_eigenvalue_raises(monkeypatch, part, slot):
    # the same refusal on the four-step path: bin 1's real part, or bin n's,
    # which slot 0 holds as its imaginary part
    split = spectral._four_step_split

    def broken(z, forward):
        split(z, forward)
        if forward:
            getattr(z, part)[slot] = -1.0
        return z

    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    monkeypatch.setattr(spectral, "_four_step_split", broken)
    with pytest.raises(RuntimeError,
                       match=r"not nonnegative definite for H=0\.7, n=4096"):
        increments(Fgn(0.7), 1.0, 4096, GaussianStream(3))


def test_fgn_sample_large_n():
    # the direct covariance lost enough digits to make the embedding
    # indefinite at H=0.9 from n of about 3e6
    stream = GaussianStream(0)
    incr = increments(Fgn(0.9), 1.0, 3_000_000, stream)
    assert len(incr) == 3_000_000
    assert stream.count_drawn == 6_000_000


def test_fgn_sample_traced_peak_per_sample():
    # one 2n-point workspace (16 bytes per sample), shrunk in place to the n
    # values returned, plus a block of covariances, a chunk of draws and the
    # pieces of the four-step FFT that 2n = 2**21 takes, all traced (16.6
    # in all at this n, 20.6 with blocks of 2**16 lags and whole-column
    # split chunks; pocketfft's whole-array scratch is not); a copy of the
    # sample would add 8
    n = 2**20
    assert spectral._four_step_rows(2 * n) == 512
    increments(Fgn(0.9), 1.0, 2, GaussianStream(0))   # loads the FFT extension
    tracemalloc.start()
    try:
        out = increments(Fgn(0.9), 1.0, n, GaussianStream(1)).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 17, peak / n
    assert out.base is None and out.nbytes == 8 * n   # owns its n values


def test_fgn_sample_peak_rss_per_sample():
    # n = 2e6 takes the four-step FFT, whose scratch does not grow with n,
    # and the sample is the 2n-point workspace shrunk in place, so the peak
    # RSS rises by that workspace (16 bytes per sample) and a few chunks
    # (16.3 in all; 18.6 with blocks of 2**16 lags and draw chunks of 2**16
    # bins); a copy of the sample rose 25.2, and pocketfft's whole-array
    # FFT, which holds two more arrays of 2n values, 50.3
    n = 2_000_000
    assert spectral._four_step_rows(2 * n)
    rise = peak_rss_rise(
        "from rednoise import Fgn, GaussianStream, increments\n"
        "increments(Fgn(0.9), 1.0, 2, GaussianStream(0))",
        f"x = increments(Fgn(0.9), 1.0, {n}, GaussianStream(1)).values") / n
    assert rise <= 17, rise


def test_mixed_with_opposite_gamma_suppresses_low_frequencies():
    # gamma = -theta turns the mixed differential into (approximately) the
    # OU increment differential, whose density vanishes at low frequency
    theta, dt, n = 0.1, 0.1, 1_000_000
    incr = increments(Mixed(theta, -theta), dt, n, GaussianStream(10))
    pg = periodogram(incr)
    low_bins = pg.omegas <= theta / 2
    assert np.count_nonzero(low_bins) > 700
    emp = pg.powers[low_bins].mean()
    theory = theoretical_psd(DiffU(theta), pg.omegas[low_bins]).mean()
    assert emp < 0.1                       # far below the white floor of 1
    assert emp == pytest.approx(theory, rel=0.2)


# ---------------------------------------------------------------------------
# documented draw counts (the reproducibility contract)
# ---------------------------------------------------------------------------

# every model with its documented draws for n increments
_PROTOCOL = [
    (White(), lambda n: n),
    (RedOuDt(0.1), lambda n: n),                     # U_0 + n-1 steps
    None,
    (DiffU(0.1), lambda n: n + 1),                   # n+1 OU values
    None,
    (Mixed(0.1, 0.5), lambda n: n + 1),              # U0 + n shared dW
    (Ar1Driven(0.9), lambda n: n),
    None,
    (Fgn(0.7), lambda n: 2 * n),                     # circulant embedding
]
# the shortest lengths, and one past a block of the AR(1) solve and of the
# fGn workspace
_EDGES = (1, 2, models._AR1_BLOCK + 1, models._BLOCK + 1)
# Each case is named by its row number.  The None rows are retired start
# protocols: they keep the numbers, and so the names, of the rows after them.
_DRAW_ROWS = [
    (White(), 50, 50),
    (RedOuDt(0.1), 50, 50),                          # U_0 + 49 steps
    None,
    (DiffU(0.1), 50, 51),                            # n+1 OU values
    (Mixed(0.1, 0.5), 50, 51),                       # U0 + n shared dW
    (Ar1Driven(0.9), 50, 50),
    None,
    (Fgn(0.7), 50, 100),                             # circulant embedding
    (Fgn(0.7), 1, 2),
] + [row and (row[0], n, row[1](n)) for row in _PROTOCOL for n in _EDGES]


@pytest.mark.parametrize("model,n,expect", [
    pytest.param(*row, id=f"model{i}-{row[1]}-{row[2]}")
    for i, row in enumerate(_DRAW_ROWS) if row])
def test_draw_counts(model, n, expect):
    # each sampler takes exactly its documented draws, in one contiguous
    # run: the stream's next draw is draw number expect + 1
    stream = GaussianStream(11)
    increments(model, 1.0, n, stream)
    assert stream.count_drawn == expect
    assert stream.fill(1)[0] == GaussianStream(11).fill(expect + 1)[-1]


def test_mixed_shares_its_brownian_stream():
    # reconstruct by hand from the same draws: U_0 stationary, Euler U, and
    # the same dW appearing in both the U update and the output
    theta, gamma, dt, n = 0.2, 0.7, 0.05, 1000
    incr = increments(Mixed(theta, gamma), dt, n, GaussianStream(12))
    z = GaussianStream(12).fill(n + 1)
    u = z[0] / np.sqrt(2 * theta)
    dw = np.sqrt(dt) * z[1:]
    out = np.empty(n)
    for k in range(n):
        out[k] = gamma * u * dt + dw[k]
        u = u - theta * u * dt + dw[k]
    np.testing.assert_allclose(incr.values, out, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("sample", [
    lambda n, s: ou_exact_sample(0.1, 0.1, n, s),
    lambda n, s: increments(RedOuDt(0.1), 0.1, n, s),
    lambda n, s: increments(Ar1Driven(0.9), 1.0, n, s),
], ids=["ou_exact_sample", "red", "ar1"])
def test_ar1_paths_hold_one_array(sample):
    # the draws are scaled and solved in the array they were drawn into:
    # besides the output, only the 64 KB band and the finiteness check's
    # 64 KB block mask are allocated
    n = 2**20
    stream = GaussianStream(13)
    tracemalloc.start()
    try:
        out = sample(n, stream).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_diffu_and_mixed_match_their_whole_array_bodies(n):
    # blocked in place, with block edges at and around 2**16, they give the
    # bytes and draws of np.diff of the whole path and of the whole dW copy
    for model, reference in (
            (DiffU(0.3), lambda s: oracles.diffu_increments_reference(
                0.3, 0.1, n, s)),
            (Mixed(0.3, -0.7), lambda s: oracles.mixed_increments_reference(
                0.3, -0.7, 0.1, n, s))):
        stream, ref_stream = GaussianStream(n), GaussianStream(n)
        got = increments(model, 0.1, n, stream).values
        want = reference(ref_stream)
        assert got.tobytes() == want.tobytes(), model
        assert stream.count_drawn == ref_stream.count_drawn == n + 1


@pytest.mark.parametrize("model", [DiffU(0.1), Mixed(0.1, 0.5)],
                         ids=["du", "mixed"])
def test_diffu_and_mixed_hold_one_array(model):
    # the n + 1 point path is the output's array; beside it only a block
    # (of dW, or numpy's copy of the overlapping operand), the AR(1) band
    # and the finiteness check's block mask are allocated
    n = 2**20
    increments(model, 0.1, 2, GaussianStream(0))     # loads the BLAS extension
    tracemalloc.start()
    try:
        out = increments(model, 0.1, n, GaussianStream(15)).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * out.nbytes


def test_ar1_recursion_allocates_only_its_band():
    y = GaussianStream(14).fill(2**20)
    tracemalloc.start()
    try:
        assert models._ar1_recursion(0.9, y) is y
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * y.nbytes


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def test_theoretical_psd_values():
    assert theoretical_psd(White(), 3.7) == 1.0
    assert theoretical_psd(RedOuDt(0.1), 0.1) == pytest.approx(50.0, rel=1e-12)
    assert theoretical_psd(DiffU(0.1), 0.1) == pytest.approx(0.5, rel=1e-12)
    assert theoretical_psd(Mixed(0.1, 0.5), 0.0) == pytest.approx(36.0, rel=1e-12)
    assert theoretical_psd(Mixed(0.1, 0.5), 1e6) == pytest.approx(1.0, rel=1e-9)
    s = theoretical_psd(Ar1Driven(0.9), np.array([50.0, 100.0]))
    assert s[0] / s[1] == pytest.approx(4.0, rel=1e-3)


def test_fgn_psd_shape_and_zero_rejection():
    assert theoretical_psd(Fgn(0.7), 2.0) == pytest.approx(2.0 ** (-0.4), rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_psd(Fgn(0.7), 0.0)
    with pytest.raises(ValueError):
        theoretical_psd(Fgn(0.7), np.array([1.0, 0.0]))


@given(theta=st.floats(1e-3, 10.0), omega=st.floats(0.0, 1e3))
def test_psd_complementarity_identity(theta, omega):
    s_du = theoretical_psd(DiffU(theta), omega)
    s_red = theoretical_psd(RedOuDt(theta), omega)
    assert s_du + theta**2 * s_red == pytest.approx(1.0, rel=1e-12)


@given(theta=st.floats(1e-3, 10.0), gamma=st.floats(-20.0, 20.0),
       omega=st.floats(0.0, 1e3))
def test_psd_mixed_decomposition_identity(theta, gamma, omega):
    s_mixed = theoretical_psd(Mixed(theta, gamma), omega)
    s_red = theoretical_psd(RedOuDt(theta), omega)
    assert s_mixed == pytest.approx((gamma**2 + 2 * gamma * theta) * s_red + 1.0,
                                    rel=1e-9, abs=1e-12)


def test_wiener_khinchin_red_psd_from_acf():
    # cosine transform of the OU autocovariance reproduces the red density
    theta = 0.1
    t_cut = 40.0 / theta
    for omega in (theta / 2, theta, 5 * theta, 10 * theta):
        val, _ = quad(lambda tau: ou_autocov(theta, tau), 0.0, t_cut,
                      weight="cos", wvar=omega, limit=400)
        assert 2.0 * val == pytest.approx(theoretical_psd(RedOuDt(theta), omega),
                                          rel=0.01)


def test_ar1_psd_low_frequency_matches_sampled_form():
    # at small omega the continuous-limit formula agrees with the exact
    # spectral density of the sampled AR(1) sequence
    phi = 0.9
    for omega in (0.01, 0.05):
        exact = oracles.expected_periodogram("ar1", 1.0, omega, phi=phi)
        assert theoretical_psd(Ar1Driven(phi), omega) == pytest.approx(
            float(exact), rel=0.01)


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------

_MODELS = st.one_of(
    st.just(White()),
    st.builds(RedOuDt, st.floats(1e-3, 10.0)),
    st.builds(DiffU, st.floats(1e-3, 10.0)),
    st.builds(Mixed, st.floats(1e-3, 10.0), st.floats(-5.0, 5.0)),
    st.builds(Ar1Driven, st.floats(1e-3, 1.0, exclude_max=True)),
    st.builds(Fgn, st.floats(1e-3, 1.0, exclude_max=True)),
)


@given(model=_MODELS)
@settings(max_examples=200)
def test_model_text_round_trip(model):
    assert parse_model(oracles.format_model(model)) == model


def test_parse_model_examples():
    assert parse_model("model=red theta=0.1") == RedOuDt(0.1)
    assert parse_model("model=mixed theta=0.1 gamma=0.5") == Mixed(0.1, 0.5)
    assert parse_model("model=fgn hurst=0.7") == Fgn(0.7)
    assert parse_model("model=ar1 phi=0.9") == Ar1Driven(0.9)
    # a key that is no field of the model is named as such, before its value
    # is read
    for text, want in [
        ("model=red theta=0.1 init=zero",
         "model 'red' has no field 'init' (fields: theta)"),
        ("model=mixed theta=0.1 theta2=1",
         "model 'mixed' has no field 'theta2' (fields: theta, gamma)"),
        ("model=white theta=x", "model 'white' has no field 'theta' (fields: none)"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            parse_model(text)


@pytest.mark.parametrize("text", [
    "", "theta=0.1", "model=purple", "model=red", "model=red theta=x",
    "model=red theta=0.1 theta=0.2", "model=white theta=0.1",
    "model=red theta 0.1", "model=fgn hurst=1.5",
    "model=red theta=0.1 init=zero", "model=red theta=0.1 theta2=1",
])
def test_parse_model_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_model(text)


def test_sampling_determinism_across_models():
    for text in ("model=white", "model=red theta=0.1", "model=du theta=0.2",
                 "model=mixed theta=0.1 gamma=0.5", "model=ar1 phi=0.9",
                 "model=fgn hurst=0.7"):
        model = parse_model(text)
        dt = 1.0
        a = increments(model, dt, 500, GaussianStream(77)).values
        b = increments(model, dt, 500, GaussianStream(77)).values
        np.testing.assert_array_equal(a, b)
