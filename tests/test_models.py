import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import oracles
import rednoise.models as models
from conftest import StubStream
from rednoise import (Ar1Driven, ContinuousSystemParams, DiffU,
                      DiscreteSystemParams, Fgn, GaussianStream, Mixed, RedOuDt,
                      TimeSeries, White, ar1_autocov, band_average,
                      empirical_acf, fgn_increment_cov, fgn_sample,
                      increments, ou_autocov, ou_exact_sample,
                      ou_increment_cov, parse_model, periodogram,
                      plateau_experiment, restoring_run, simulate_discrete,
                      simulate_exact, spectra_run, theoretical_psd)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: RedOuDt(0.0),
    lambda: RedOuDt(-0.1),
    lambda: RedOuDt(0.1, init="midway"),
    lambda: DiffU(float("nan")),
    lambda: Mixed(0.0, 0.5),
    lambda: Mixed(0.1, float("inf")),
    lambda: Ar1Driven(0.0),
    lambda: Ar1Driven(1.0),
    lambda: Ar1Driven(0.5, init="x"),
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
                   lambda s: fgn_sample(0.7, dt, 5, s),
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
    ("n", 1, lambda n, s: fgn_sample(0.7, 1.0, n, s)),
    ("n", 1, lambda n, s: increments(White(), 1.0, n, s)),
    ("n", 1, lambda n, s: simulate_discrete(DiscreteSystemParams(0.8, 0.9, 1.0), n, s)),
    ("n_out", 1,
     lambda n, s: simulate_exact(ContinuousSystemParams(0.2, 0.1, 1.0), 1.0, n, s)),
    ("max_lag", 0, lambda n, s: empirical_acf(_RAMP, n)),
    ("max_lag", 0, lambda n, s: restoring_run(max_lag=n)),
    ("band_width", 1, lambda n, s: band_average(periodogram(_RAMP), n)),
    ("band_width", 1, lambda n, s: spectra_run(band_width=n)),
    ("replicas", 32, lambda n, s: plateau_experiment(RedOuDt(0.1), 1.0, 500.0, 0.01,
                                                     [10.0], n, s)),
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

# ---------------------------------------------------------------------------
# hand-checkable recursions and closed-form values
# ---------------------------------------------------------------------------

def test_ar1_hand_recursion():
    out = increments(Ar1Driven(0.9, init="zero"), 1.0, 3, StubStream([1.0, -0.5]))
    np.testing.assert_allclose(out.values, [0.0, 1.0, 0.4], rtol=1e-15)
    assert out.dt == 1.0


@pytest.mark.parametrize("block", [1, 2, 3, models._AR1_BLOCK])
def test_ar1_recursion_gives_lfilter_bytes(monkeypatch, block):
    # the blocked banded solve rounds as lfilter does, at every block size
    # and on both sides of each block edge; negative coefficients are Euler
    # steps at lam*dt in (1, 2).  A BLAS kernel that fuses the multiply and
    # add, or reorders the sum, fails here.
    monkeypatch.setattr(models, "_AR1_BLOCK", block)
    stream = GaussianStream(11)
    for coeff in (0.0, 0.3, np.exp(-0.01), np.exp(-1e-4), 1.0 - 1e-7, 1.0,
                  -0.5, -0.9):
        for x0 in (0.0, -0.0, 0.7):
            for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
                z = stream.fill(n)
                for scale in (1.0, 0.37):
                    got = models._ar1_recursion(coeff, scale, x0, z)
                    want = oracles._ar1_whole(coeff, scale, x0, z)
                    assert got.tobytes() == want.tobytes(), (coeff, x0, n, scale)


def test_ou_one_step_coefficients():
    # one deterministic step exposes the recursion coefficient and noise scale
    out = ou_exact_sample(0.1, 0.1, 2, StubStream([2.0, 1.0]), init="stationary")
    coeff = np.exp(-0.01)
    scale = np.sqrt(-np.expm1(-0.02) / 0.2)
    q0 = 2.0 / np.sqrt(0.2)
    np.testing.assert_allclose(out.values, [q0, coeff * q0 + scale], rtol=1e-14)
    assert abs(coeff - 0.990050) < 5e-7
    assert abs(scale - 0.314655) < 1e-2 * 0.314655


def test_ou_zero_init_single_sample():
    out = ou_exact_sample(0.1, 0.1, 1, StubStream([]), init="zero")
    np.testing.assert_array_equal(out.values, [0.0])


def test_ar1_autocov_values():
    assert ar1_autocov(0.9, 0) == pytest.approx(5.263158, abs=1e-6)
    assert ar1_autocov(0.9, -2) == pytest.approx(4.263158, abs=1e-6)
    assert ar1_autocov(1e-9, 0) == pytest.approx(1.0, rel=1e-12)


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
    incr = fgn_sample(0.5, 0.1, 1_000_000, GaussianStream(7))
    x = incr.values
    lag1 = np.mean(x[:-1] * x[1:]) / x.var()
    assert abs(lag1) < 0.004
    assert x.var() == pytest.approx(0.1, rel=0.02)


def test_fgn_variance_and_lag1_cov():
    incr = fgn_sample(0.7, 1.0, 1_000_000, GaussianStream(8))
    x = incr.values
    assert x.var() == pytest.approx(1.0, rel=0.02)
    lag1 = np.mean(x[:-1] * x[1:]) - x.mean() ** 2
    assert lag1 == pytest.approx(0.319508, rel=0.05)


def test_fgn_deep_lag_covariances():
    incr = fgn_sample(0.8, 1.0, 2_000_000, GaussianStream(9))
    x = incr.values - incr.values.mean()
    for m in (1, 2, 5, 10):
        est = np.mean(x[:-m] * x[m:])
        assert est == pytest.approx(fgn_increment_cov(0.8, 1.0, m), rel=0.10)


@pytest.mark.parametrize("n", [2, 3, 4, 17, 1000, 1001, 2**16 + 1])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9])
def test_fgn_sample_matches_full_length_reference(n, hurst):
    # the in-place, blocked sampler gives the reference's bytes and draws;
    # 2**16 + 1 puts a block boundary inside both the row and the spectrum
    for dt in (1.0, 0.5):
        for seed in (0, 5):
            stream, ref_stream = GaussianStream(seed), GaussianStream(seed)
            got = fgn_sample(hurst, dt, n, stream).values
            want = oracles.fgn_sample_reference(hurst, dt, n, ref_stream)
            assert got.tobytes() == want.tobytes()
            assert stream.count_drawn == ref_stream.count_drawn == 2 * n


@pytest.mark.parametrize("n", [1000, 2**14])
def test_fgn_negative_eigenvalue_raises(monkeypatch, n):
    # corrupt one eigenvalue of the embedding: there is no fallback, so the
    # sampler must refuse and name H and n
    rfft = np.fft.rfft

    def broken(a, *args, **kwargs):
        out = rfft(a, *args, **kwargs)
        out[1] = -1.0
        return out

    monkeypatch.setattr(np.fft, "rfft", broken)
    with pytest.raises(RuntimeError,
                       match=rf"not nonnegative definite for H=0\.7, n={n}"):
        fgn_sample(0.7, 1.0, n, GaussianStream(3))


def test_fgn_sample_large_n():
    # the direct covariance lost enough digits to make the embedding
    # indefinite at H=0.9 from n of about 3e6
    stream = GaussianStream(0)
    incr = fgn_sample(0.9, 1.0, 3_000_000, stream)
    assert len(incr) == 3_000_000
    assert stream.count_drawn == 6_000_000


def test_fgn_sample_traced_peak_per_sample():
    # the 2n-point row and the n+1 rfft bins (16 bytes per sample each),
    # then the bins, the 2n-point irfft and the output (8); numpy's FFT
    # scratch is not traced
    n = 2**17
    tracemalloc.start()
    try:
        fgn_sample(0.9, 1.0, n, GaussianStream(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 96


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

# every model and init with its documented draws for n increments
_PROTOCOL = [
    (White(), lambda n: n),
    (RedOuDt(0.1), lambda n: n),                     # 1 init + n-1 steps
    (RedOuDt(0.1, init="zero"), lambda n: n - 1),
    (DiffU(0.1), lambda n: n + 1),                   # n+1 OU values
    (DiffU(0.1, init="zero"), lambda n: n),
    (Mixed(0.1, 0.5), lambda n: n + 1),              # U0 + n shared dW
    (Ar1Driven(0.9), lambda n: n),
    (Ar1Driven(0.9, init="zero"), lambda n: n - 1),
    (Fgn(0.7), lambda n: 2 * n),                     # circulant embedding
]
# the shortest lengths, and one past a block of the AR(1) solve and of the
# fGn workspace
_EDGES = (1, 2, models._AR1_BLOCK + 1, models._FGN_BLOCK + 1)


@pytest.mark.parametrize("model,n,expect", [
    (White(), 50, 50),
    (RedOuDt(0.1), 50, 50),                          # 1 init + 49 steps
    (RedOuDt(0.1, init="zero"), 50, 49),
    (DiffU(0.1), 50, 51),                            # n+1 OU values
    (Mixed(0.1, 0.5), 50, 51),                       # U0 + n shared dW
    (Ar1Driven(0.9), 50, 50),
    (Ar1Driven(0.9, init="zero"), 50, 49),
    (Fgn(0.7), 50, 100),                             # circulant embedding
    (Fgn(0.7), 1, 2),
] + [(model, n, draws(n)) for model, draws in _PROTOCOL for n in _EDGES])
def test_draw_counts(model, n, expect):
    stream = GaussianStream(11)
    increments(model, 1.0, n, stream)
    assert stream.count_drawn == expect


def test_mixed_shares_its_brownian_stream():
    # reconstruct by hand from the same draws: U_0 stationary, Euler U, and
    # the same dW appearing in both the U update and the output
    theta, gamma, dt, n = 0.2, 0.7, 0.05, 1000
    incr = increments(Mixed(theta, gamma), dt, n, GaussianStream(12))
    stream = GaussianStream(12)
    u = stream.normal() / np.sqrt(2 * theta)
    dw = np.sqrt(dt) * stream.fill(n)
    out = np.empty(n)
    for k in range(n):
        out[k] = gamma * u * dt + dw[k]
        u = u - theta * u * dt + dw[k]
    np.testing.assert_allclose(incr.values, out, rtol=1e-12, atol=1e-15)


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
    st.builds(RedOuDt, st.floats(1e-3, 10.0), st.sampled_from(["stationary", "zero"])),
    st.builds(DiffU, st.floats(1e-3, 10.0), st.sampled_from(["stationary", "zero"])),
    st.builds(Mixed, st.floats(1e-3, 10.0), st.floats(-5.0, 5.0)),
    st.builds(Ar1Driven, st.floats(1e-3, 1.0, exclude_max=True),
              st.sampled_from(["stationary", "zero"])),
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
    assert parse_model("model=ar1 phi=0.9 init=zero") == Ar1Driven(0.9, "zero")


@pytest.mark.parametrize("text", [
    "", "theta=0.1", "model=purple", "model=red", "model=red theta=x",
    "model=red theta=0.1 theta=0.2", "model=white theta=0.1",
    "model=red theta 0.1", "model=fgn hurst=1.5",
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
