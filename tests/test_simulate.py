import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import rednoise.simulate as sim
from conftest import StubStream
from rednoise import (ContinuousSystemParams, DiscreteSystemParams,
                      GaussianStream, TimeSeries, White,
                      continuous_from_discrete, increments, ou_exact_sample,
                      simulate_discrete, simulate_exact, stationary_autocorr)

DISC = DiscreteSystemParams(psi=0.8, phi=0.9, sigma=1.0)
CONT = continuous_from_discrete(DISC)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: DiscreteSystemParams(0.0, 0.9, 1.0),
    lambda: DiscreteSystemParams(1.0, 0.9, 1.0),
    lambda: DiscreteSystemParams(0.8, 1.0, 1.0),
    lambda: DiscreteSystemParams(0.8, 0.9, 0.0),
    lambda: DiscreteSystemParams(0.8, 0.9, 1.0, x0=float("nan")),
    lambda: ContinuousSystemParams(0.0, 0.1, 1.0),
    lambda: ContinuousSystemParams(0.2, -0.1, 1.0),
    lambda: ContinuousSystemParams(0.2, 0.1, -1.0),
    lambda: ContinuousSystemParams(float("inf"), 0.1, 1.0),
    lambda: ContinuousSystemParams(0.2, 0.1, 1.0, x0=float("inf")),
    lambda: DiscreteSystemParams(0.8, 0.9, float("nan")),
    lambda: simulate_exact(CONT, 0.0, 100, GaussianStream(0)),
    lambda: simulate_exact(CONT, float("nan"), 100, GaussianStream(0)),
    lambda: simulate_exact(CONT, 1.0, 0, GaussianStream(0)),
    lambda: simulate_exact(CONT, 1.0, 2.5, GaussianStream(0)),
])
def test_invalid_params_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("record", [DiscreteSystemParams, ContinuousSystemParams])
@pytest.mark.parametrize("sigma, cause", [
    (1e300, "sigma=1e+300 too large: sigma**2 overflows"),
    (1e-300, "sigma=1e-300 too small: sigma**2 underflows to 0"),
], ids=["overflow", "underflow"])
def test_sigma_whose_square_leaves_the_float64_range_is_named(record, sigma,
                                                              cause):
    with pytest.raises(ValueError) as info:
        record(0.8, 0.9, sigma)
    assert str(info.value) == cause


@pytest.mark.parametrize("record", [DiscreteSystemParams, ContinuousSystemParams])
def test_sigma_with_a_subnormal_square_is_accepted(record):
    # sigma**2 = 1e-320 is subnormal, not 0
    assert record(0.8, 0.9, 1e-160).sigma == 1e-160


BAD_RATES = [0.0, -1.0, float("nan"), float("inf"), 1e-320, 5e-324]


@pytest.mark.parametrize("rate", BAD_RATES)
@pytest.mark.parametrize("name", ["lam", "theta"])
def test_continuous_rates_must_be_normal(name, rate):
    # a subnormal rate would sample with a wrong innovation variance
    cause = "smallest normal" if 0.0 < rate < 1e-300 else "positive and finite"
    with pytest.raises(ValueError, match=f"^{name} must be .*{cause}"):
        ContinuousSystemParams(**{"lam": 0.2, "theta": 0.1, "sigma": 1.0,
                                  name: rate})


def test_rate_map_from_discrete():
    assert CONT.lam == pytest.approx(0.223144, abs=1e-6)
    assert CONT.theta == pytest.approx(0.105361, abs=1e-6)
    assert CONT.sigma == 1.0
    # the map inverts the one-step decay factors exactly
    assert np.exp(-CONT.lam) == pytest.approx(0.8, rel=1e-15)
    assert np.exp(-CONT.theta) == pytest.approx(0.9, rel=1e-15)


# ---------------------------------------------------------------------------
# discrete chain
# ---------------------------------------------------------------------------

def test_discrete_hand_recursion():
    out = simulate_discrete(DISC, 3, StubStream([1.0]))
    np.testing.assert_allclose(out.values, [0.0, 0.0, 1.0], rtol=1e-15)
    assert out.dt == 1.0


def test_discrete_draw_count_and_short_runs():
    stream = GaussianStream(0)
    simulate_discrete(DISC, 100, stream)
    assert stream.count_drawn == 98
    np.testing.assert_array_equal(simulate_discrete(DISC, 1, StubStream([])).values,
                                  [0.0])
    np.testing.assert_array_equal(simulate_discrete(DISC, 2, StubStream([])).values,
                                  [0.0, 0.0])
    with pytest.raises(ValueError):
        simulate_discrete(DISC, 0, GaussianStream(0))


def test_discrete_white_forcing_limit():
    # phi -> 0 makes the forcing white, so X reduces to an AR(1) with psi
    params = DiscreteSystemParams(0.8, 1e-9, 1.0)
    x = simulate_discrete(params, 1_000_000, GaussianStream(1)).values[1000:]
    x = x - x.mean()
    lag1 = np.mean(x[:-1] * x[1:]) / x.var()
    assert lag1 == pytest.approx(0.8, abs=0.01)


def test_discrete_chain_autocovariance():
    # oracle: two nested AR(1) filters have an explicit lag-h covariance
    import oracles
    x = simulate_discrete(DISC, 2_000_000, GaussianStream(2)).values[2000:]
    x = x - x.mean()
    lags = np.array([0, 1, 2, 5, 10, 20])
    expect = oracles.ar1_chain_autocov(DISC.psi, DISC.sigma, DISC.phi, lags)
    for lag, want in zip(lags, expect):
        got = np.mean(x[: x.size - lag] * x[lag:]) if lag else x.var()
        assert got == pytest.approx(want, rel=0.03)


# ---------------------------------------------------------------------------
# Euler integrator (the reference in tests/oracles.py)
# ---------------------------------------------------------------------------

def test_euler_zero_rate_is_random_walk():
    tot = np.empty(10_000)
    stream = GaussianStream(3)
    for i in range(tot.size):
        forcing = increments(White(), 0.01, 100, stream)
        tot[i] = oracles.euler_integrate(0.0, 1.0, 0.0, forcing).values[-1]
    assert tot.var() == pytest.approx(1.0, rel=0.05)


def test_euler_pure_decay():
    forcing = TimeSeries(0.001, np.zeros(1000))
    out = oracles.euler_integrate(1.0, 0.0, 1.0, forcing)
    assert len(out.values) == 1001
    assert out.values[-1] == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_euler_rejects_bad_input():
    forcing = TimeSeries(0.1, np.ones(5))
    with pytest.raises(ValueError):
        oracles.euler_integrate(float("inf"), 1.0, 0.0, forcing)
    with pytest.raises(ValueError):
        oracles.euler_integrate(0.1, float("nan"), 0.0, forcing)
    with pytest.raises(ValueError, match=r"lam\*dt=2.0"):
        oracles.euler_integrate(20.0, 1.0, 0.0, forcing)
    # just below 2 the step is stable, if oscillating
    out = oracles.euler_integrate(19.9, 0.0, 1.0, forcing).values
    assert np.all(np.diff(np.abs(out)) < 0.0)


def test_euler_strong_convergence_rate():
    # CRN check: per replica, hold one OU forcing path fixed on a grid finer
    # than every tested step, integrate at dt = 0.1, 0.05, 0.025 with
    # left-endpoint forcing, and measure the RMS gap to the exact solution
    # for piecewise-constant forcing; halving dt should about halve the
    # replica-averaged error (first-order scheme)
    from scipy.signal import lfilter
    lam, theta = 0.5, 0.1
    dt0, n0 = 0.0125, 8192
    decay = np.exp(-lam * dt0)
    gain = -np.expm1(-lam * dt0) / lam
    stream = GaussianStream(4)
    errors = np.zeros(3)
    replicas = 32
    for _ in range(replicas):
        child = stream.spawn(1)[0]
        u = ou_exact_sample(theta, dt0, n0, child).values
        ref = np.concatenate(([0.0], lfilter([gain], [1.0, -decay], u)))
        for i, step in enumerate((8, 4, 2)):
            dt = dt0 * step
            forcing = TimeSeries(dt, u[::step] * dt)
            path = oracles.euler_integrate(lam, 1.0, 0.0, forcing).values
            diff = path[1:] - ref[step::step]
            errors[i] += np.sqrt(np.mean(diff ** 2))
    assert 1.5 < errors[0] / errors[1] < 2.5
    assert 1.5 < errors[1] / errors[2] < 2.5


# ---------------------------------------------------------------------------
# blocked cascade
# ---------------------------------------------------------------------------

def test_blocked_simulators_match_single_shot_oracle(monkeypatch):
    # the block size caps memory only: at every block size, ragged or not,
    # both simulators give the bytes and draw count of one pass over the
    # path; sigma != 1 checks where the cascade folds it into the U gain
    for chunk in (1, 2, 3, 1000, 2**22):
        monkeypatch.setattr(sim, "_BLOCK", chunk)
        for sigma in (1.0, 1.7):
            for x0 in (0.0, -0.0, 0.7):
                disc = DiscreteSystemParams(DISC.psi, DISC.phi, sigma, x0=x0)
                for n in (1, 2, 3, 17, 12345):
                    got, want = GaussianStream(6), GaussianStream(6)
                    values = simulate_discrete(disc, n, got).values
                    ref = oracles.simulate_discrete_reference(disc, n, want)
                    assert values.tobytes() == ref.tobytes(), (chunk, sigma, x0, n)
                    assert got.count_drawn == want.count_drawn == max(n - 2, 0)
                cont = continuous_from_discrete(disc)
                for n_out in (1, 2, 3, 17, 12345):
                    got, want = GaussianStream(8), GaussianStream(8)
                    values = simulate_exact(cont, 1.0, n_out, got).values
                    ref = oracles.simulate_exact_reference(cont, 1.0, n_out, want)
                    assert values.tobytes() == ref.tobytes(), (chunk, sigma, x0, n_out)
                    assert got.count_drawn == want.count_drawn == 2 * (n_out - 1)


def test_simulators_hold_a_few_blocks():
    # beyond the output, each simulator holds a few blocks of _BLOCK doubles
    # at once (the draws or U, and the recursion's output, solved in place),
    # not whole paths; the exact sampler draws a pair per step, so its draws
    # fill two blocks.  The shipped block size is the one under test.
    block = 8 * sim._BLOCK
    assert 2**17 + 1 > 2 * sim._BLOCK            # every run spans several blocks
    simulate_exact(CONT, 1.0, 11, GaussianStream(0))      # import scipy first
    for run, n_out, blocks in (
            (lambda s: simulate_discrete(DISC, 2**20, s), 2**20, 2.5),
            (lambda s: simulate_exact(CONT, 1.0, 2**17 + 1, s), 2**17 + 1, 3.5)):
        tracemalloc.start()
        try:
            run(GaussianStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_out + blocks * block, (peak - 8 * n_out) / block


# ---------------------------------------------------------------------------
# exact sampler of the continuous system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam, theta", [
    (CONT.lam, CONT.theta), (CONT.theta, CONT.lam), (0.5, 0.02),
    (0.1, 0.1), (0.1, 0.1 * (1 + 1e-9)), (0.1, 0.1 * (1 - 1e-9))])
def test_exact_step_matches_van_loan(lam, theta):
    # the closed forms (and the series below max(lam, theta) h = 0.05, on
    # both sides of which the last two steps sit) against the block-matrix
    # exponential, entry by entry
    hi = max(lam, theta)
    params = ContinuousSystemParams(lam, theta, 1.3)
    for h in (1e-3, 0.1, 1.0, 10.0, 0.0499 / hi, 0.0501 / hi):
        got = sim._exact_step(params, h)
        want = oracles.restoring_step_vanloan(lam, theta, 1.3, h)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0,
                                   err_msg=f"h={h}")


def test_exact_stationary_moments():
    # Var X = sigma^2 / (2 theta lam (lam + theta)), checked against the
    # Lyapunov equation; the lag-1 covariance is (e^{Ah} P)_{XX}.  At 4e6
    # unit steps their relative standard errors are about 0.3%.
    from scipy.linalg import solve_continuous_lyapunov
    lam, theta, sigma = CONT.lam, CONT.theta, 2.0
    drift = np.array([[-theta, 0.0], [sigma, -lam]])
    cov = solve_continuous_lyapunov(drift, -np.diag([1.0, 0.0]))
    var_x = sigma ** 2 / (2.0 * theta * lam * (lam + theta))
    assert cov[1, 1] == pytest.approx(var_x, rel=1e-12)
    _, b, c, _, _, _ = oracles.restoring_step_vanloan(lam, theta, sigma, 1.0)
    lag1 = c * cov[0, 1] + b * cov[1, 1]
    x = simulate_exact(ContinuousSystemParams(lam, theta, sigma), 1.0,
                       4_000_000, GaussianStream(14)).values[200:]
    x = x - x.mean()
    assert x.var() == pytest.approx(var_x, rel=0.015)
    assert np.mean(x[:-1] * x[1:]) == pytest.approx(lag1, rel=0.015)


def test_continuous_transient_forgets_start():
    # same seed, x0 = 10 vs 0: the second half of the run must agree to well
    # under 0.5% (the deterministic transient has fully decayed)
    base = simulate_exact(CONT, 0.1, 1_000_001, GaussianStream(11)).values
    kicked = simulate_exact(
        ContinuousSystemParams(CONT.lam, CONT.theta, CONT.sigma, x0=10.0),
        0.1, 1_000_001, GaussianStream(11)).values
    half = len(base) // 2
    assert np.max(np.abs(base[half:] - kicked[half:])) < 1e-10
    v0, v1 = base[half:].var(), kicked[half:].var()
    assert abs(v1 - v0) / v0 < 0.005


def test_exact_has_no_step_limit_and_grid():
    # lam dt = 3 is beyond Euler's limit; the exact step stays stable, and
    # one value per step comes back on the requested grid
    params = ContinuousSystemParams(30.0, 0.1, 1.0, x0=5.0)
    out = simulate_exact(params, 0.1, 1001, GaussianStream(15))
    assert out.dt == 0.1 and out.values.size == 1001
    assert out.values[0] == 5.0 and np.all(np.abs(out.values) < 10.0)
    np.testing.assert_array_equal(
        simulate_exact(CONT, 1.0, 1, StubStream([])).values, [CONT.x0])


# ---------------------------------------------------------------------------
# closed-form autocorrelation
# ---------------------------------------------------------------------------

def test_autocorr_reference_values():
    assert stationary_autocorr(CONT, 0.0) == 1.0
    assert stationary_autocorr(CONT, 1.0) == pytest.approx(0.98948, abs=5e-5)
    equal = ContinuousSystemParams(0.1, 0.1, 1.0)
    assert stationary_autocorr(equal, 10.0) == pytest.approx(0.735759, abs=1e-6)
    assert stationary_autocorr(CONT, -3.0) == stationary_autocorr(CONT, 3.0)


def test_autocorr_array_matches_per_lag_form():
    # an array of lags gives, element by element, the bits of the per-lag
    # reference, in both branches (the last theta is confluent with lam)
    rng = np.random.default_rng(0)
    taus = np.concatenate((np.arange(21.0), -np.arange(21.0) * 0.1,
                           rng.uniform(0.0, 80.0, 2000)))
    for lam in (0.05, 0.105, -np.log(0.8), 1.0, 4.0):
        for theta in (0.01, 0.1, -np.log(0.9), 2.5, lam * (1.0 + 1e-9)):
            params = ContinuousSystemParams(lam, theta, 1.0)
            want = np.array([oracles.stationary_autocorr_scalar(lam, theta, t)
                             for t in taus])
            got = stationary_autocorr(params, taus)
            assert got.tobytes() == want.tobytes()
            swapped = ContinuousSystemParams(theta, lam, 1.0)
            assert stationary_autocorr(swapped, taus).tobytes() == got.tobytes()
            one = stationary_autocorr(params, taus[30])
            assert type(one) is float and one == want[30]


@given(lam=st.floats(1e-3, 10.0), theta=st.floats(1e-3, 10.0),
       tau=st.floats(0.0, 50.0))
def test_autocorr_rate_exchange_symmetry(lam, theta, tau):
    a = stationary_autocorr(ContinuousSystemParams(lam, theta, 1.0), tau)
    b = stationary_autocorr(ContinuousSystemParams(theta, lam, 1.0), tau)
    assert a == b                                 # bitwise, both branches


def test_autocorr_confluent_limit_is_continuous():
    theta = 0.1
    for tau in (0.5, 5.0, 20.0):
        inside = stationary_autocorr(
            ContinuousSystemParams(theta, theta, 1.0), tau)
        outside = stationary_autocorr(
            ContinuousSystemParams(theta * (1 + 1e-6), theta, 1.0), tau)
        assert outside == pytest.approx(inside, rel=1e-5)


@given(lam=st.floats(1e-2, 5.0), theta=st.floats(1e-2, 5.0),
       tau=st.floats(0.0, 30.0))
def test_autocorr_bounded_and_decaying(lam, theta, tau):
    r = stationary_autocorr(ContinuousSystemParams(lam, theta, 1.0), tau)
    assert 0.0 <= r <= 1.0 + 1e-12
    assert stationary_autocorr(
        ContinuousSystemParams(lam, theta, 1.0), tau + 1.0) <= r + 1e-12


def test_discrete_and_continuous_acf_agree_with_formula():
    # moderate-length run: both simulators land on the same closed-form
    # autocorrelation within a few percent
    n = 2_000_000
    burn = 200
    xd = simulate_discrete(DISC, n, GaussianStream(12)).values[burn:]
    xd = xd - xd.mean()
    vd = xd.var()
    xc = simulate_exact(CONT, 1.0, n // 10, GaussianStream(13)).values[burn:]
    xc = xc - xc.mean()
    vc = xc.var()
    for lag in (1, 2, 5, 10):
        want = stationary_autocorr(CONT, float(lag))
        got_d = np.mean(xd[:-lag] * xd[lag:]) / vd
        got_c = np.mean(xc[:-lag] * xc[lag:]) / vc
        assert got_d == pytest.approx(want, abs=0.02)
        assert got_c == pytest.approx(want, abs=0.02)
