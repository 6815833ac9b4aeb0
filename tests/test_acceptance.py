"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line with the measured
numbers (shown by pytest for failing tests, and for passing ones under
``-rP``; the -v listing itself gives the per-criterion verdict).  Shared
full-scale runs are computed once via module-scoped fixtures.

Criterion 1 gates each band-averaged spectrum against the exact law of the
sequence actually sampled (``oracles.expected_periodogram``, averaged over the
same raw bins as the band), not against the continuous-time density.  Two
causes made the continuous-time comparison unpassable by any correct program:

* Wrong target.  Sampling a continuous-time differential on a grid of step dt
  changes its expected periodogram: the damped models exceed the continuous
  density by about the factor nu^2/(2 - 2 cos nu) (nu = omega dt), which is
  +23.4% at the half-Nyquist window edge -- more than double the tolerance
  before any estimator noise.
* Noise floor above the tolerance.  The full run's maximum over ~5,000
  1000-bin bands (relative sd 1/sqrt(1000) = 3.2% each) sits near 4 sigma,
  about 12%, even for white noise whose target is exact.

So the quick run (n=2^21) is gated at 15% on its 1000-bin bands, and the full
run (n=2e7) at 10% on bands of 10,000 bins (consecutive groups of ten
1000-bin bands), which is the quick run's frequency resolution: per-band noise
then falls with n, as the tighter full tolerance presumes.  The window, the
tolerances and the seed are unchanged, and the printed line shows the ungated
continuous-law deviations and the sampling factor next to the gated ones.
"""

import numpy as np
import pytest

import oracles
from rednoise import (Ar1Driven, ContinuousSystemParams, DiffU, Fgn,
                      GaussianStream, Mixed, RedOuDt, White, band_average,
                      increments, loglog_slope, ou_exact_sample,
                      periodogram, plateau_experiment, psd_kernel_auto,
                      psd_kernel_cross, restoring_run, simulate_discrete,
                      simulate_exact, spectra_run, stationary_autocorr,
                      theoretical_psd, DiscreteSystemParams)
from rednoise.cli import FIG1_SEED, FIG2_SEED, THEOREM_SEED


@pytest.fixture(scope="module")
def spectra_full():
    return spectra_run(seed=FIG1_SEED)            # theta=0.1 gamma=0.5 n=2e7


@pytest.fixture(scope="module")
def spectra_quick():
    return spectra_run(n=2 ** 21, seed=FIG1_SEED)


def _report(num, passed, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    return line


FULL_GROUP = 10   # full-run 1000-bin bands per gated band: 10,000 bins


def _window_devs(result, group):
    """Per model, the max relative deviation over the criterion-1 window from
    the exact sampled law (gated) and from the continuous-time law (ungated).

    The window's bands are merged in consecutive runs of ``group`` (a trailing
    partial run is dropped), and each law is averaged over exactly the raw
    periodogram bins its band averages, as in test_spectral.
    """
    n, dt, bw = result.n, result.dt, result.band_width
    exact, continuous = {}, {}
    for comp in result.comparisons:
        omegas = comp.spectrum.omegas
        inside = np.flatnonzero((omegas >= comp.omega_lo)
                                & (omegas <= comp.omega_hi))
        first, count = inside[0], inside.size // group * group
        powers = comp.spectrum.powers[first:first + count]
        powers = powers.reshape(-1, group).mean(axis=1)
        nu = 2 * np.pi * np.arange(first * bw + 1, (first + count) * bw + 1) / n
        params = {k: getattr(comp.model, k) for k in ("theta", "gamma")
                  if hasattr(comp.model, k)}
        laws = ((exact, oracles.expected_periodogram(comp.name, dt, nu,
                                                      **params)),
                (continuous, theoretical_psd(comp.model, nu / dt)))
        for out, law in laws:
            band_law = law.reshape(-1, group * bw).mean(axis=1)
            out[comp.name] = float(np.abs(powers / band_law - 1.0).max())
    return exact, continuous


def test_criterion_1_band_spectra_within_10pct(spectra_full, spectra_quick):
    full, full_cont = _window_devs(spectra_full, FULL_GROUP)
    quick, quick_cont = _window_devs(spectra_quick, 1)
    ok = all(d <= 0.10 for d in full.values()) and \
        all(d <= 0.15 for d in quick.values())
    nu_edge = spectra_full.comparisons[0].omega_hi * spectra_full.dt
    factor = nu_edge ** 2 / (2 - 2 * np.cos(nu_edge))

    def devs(gated, ungated):
        return " ".join(f"{k}={gated[k]:.1%} [{ungated[k]:.1%}]" for k in gated)

    detail = ("max rel dev over [4th band, 0.5*Nyquist] vs the exact sampled "
              "law [ungated: vs the continuous-time law] — "
              f"full(10%, {FULL_GROUP * spectra_full.band_width}-bin bands): "
              + devs(full, full_cont)
              + f"; quick(15%, {spectra_quick.band_width}-bin bands): "
              + devs(quick, quick_cont)
              + f". Sampling factor nu^2/(2-2cos nu) at the window edge "
                f"nu={nu_edge:.4f}: {factor:.4f} ({factor - 1:+.1%}).")
    line = _report(1, ok, detail)
    assert ok, line


def test_criterion_2_red_slope(spectra_full):
    slope = spectra_full.red_slope
    ok = abs(slope + 2.0) <= 0.05
    line = _report(2, ok, f"log-log slope over omega in [1,10]: {slope:.4f} "
                          "(target -2.00 +/- 0.05)")
    assert ok, line


def test_criterion_3_restoring_system_acf():
    full = restoring_run(seed=FIG2_SEED)
    quick = restoring_run(n=2_000_000, seed=FIG2_SEED)
    devs = (full.discrete.max_rel_dev, full.continuous.max_rel_dev,
            quick.discrete.max_rel_dev, quick.continuous.max_rel_dev)
    ok = devs[0] <= 0.01 and devs[1] <= 0.01 and \
        devs[2] <= 0.03 and devs[3] <= 0.03
    line = _report(3, ok,
                   f"ACF max rel dev vs closed form, lags 0..20 — full(1%): "
                   f"discrete={devs[0]:.2%} continuous={devs[1]:.2%}; "
                   f"quick(3%): discrete={devs[2]:.2%} continuous={devs[3]:.2%}")
    assert ok, line


def test_criterion_4_exact_ou_regression():
    u = ou_exact_sample(0.1, 0.1, 1_000_001, GaussianStream(0)).values
    x, y = u[:-1], u[1:]
    coeff, intercept = np.polyfit(x, y, 1)
    resid_sd = np.std(y - coeff * x - intercept)
    ok = abs(coeff - 0.990050) <= 0.001 and \
        abs(resid_sd - 0.314655) <= 0.01 * 0.314655
    line = _report(4, ok,
                   f"lag-1 regression on 1e6 stationary samples: "
                   f"coeff={coeff:.6f} (target 0.990050 +/- 0.001), "
                   f"residual sd={resid_sd:.6f} (target 0.314655 +/- 1%)")
    assert ok, line


def test_criterion_5_plateau_theorem_signature():
    results = {}
    for beta in (0.0, 0.5, 1.0):
        results[beta] = plateau_experiment(
            RedOuDt(0.1), beta, 1000.0, 0.01, replicas=64,
            stream=GaussianStream(THEOREM_SEED))
    r0, rh, r1 = results[0.0], results[0.5], results[1.0]
    ok = (r0.passed and abs(r0.decay_slope + 2.0) <= 0.2
          and rh.passed and abs(rh.plateau_estimate - 0.25) <= 0.05 * 0.25
          and r1.passed and abs(r1.plateau_estimate - 1.0) <= 0.05)
    line = _report(5, ok,
                   f"beta=0: decay slope {r0.decay_slope:.3f} (-2 +/- 0.2); "
                   f"beta=0.5: plateau {rh.plateau_estimate:.4f} (0.25 +/- 5%); "
                   f"beta=1: plateau {r1.plateau_estimate:.4f} (1.0 +/- 5%); "
                   f"64 replicas each")
    assert ok, line


def test_criterion_6_kernel_quadrature_equivalence():
    worst_auto = worst_cross = 0.0
    for t in (1.0, 10.0, 100.0):
        for omega in (0.01, 0.1, 1.0, 10.0):
            for theta in (0.05, 0.1, 0.5):
                qa = oracles.quad_psd_kernel_auto(t, omega, theta)
                qc = oracles.quad_psd_kernel_cross(t, omega, theta)
                worst_auto = max(worst_auto,
                                 abs(psd_kernel_auto(t, omega, theta) / qa - 1))
                worst_cross = max(worst_cross,
                                  abs(psd_kernel_cross(t, omega, theta) - qc)
                                  / abs(qc))
    t_lim, theta, omega = 1e4, 0.1, 1.0
    lim_auto = psd_kernel_auto(t_lim, omega, theta) / t_lim
    cross = psd_kernel_cross(t_lim, omega, theta)
    lim_cross = (cross + np.conj(cross)).real / (2.0 * theta * t_lim)
    identity_gap = abs(lim_auto / lim_cross - 1.0)
    ok = worst_auto <= 1e-6 and worst_cross <= 1e-6 and identity_gap <= 1e-3
    line = _report(6, ok,
                   f"closed forms vs 2-D quadrature over 36-case grid: "
                   f"auto worst {worst_auto:.2e}, cross worst {worst_cross:.2e} "
                   f"(tol 1e-6); long-horizon identity gap {identity_gap:.2e} "
                   f"(tol 1e-3 at T=1e4)")
    assert ok, line


def test_criterion_7_negative_increment_covariance():
    n_pairs = 1_000_000
    lag = 10                                      # tau=1 at dt=0.1
    u = ou_exact_sample(0.1, 0.1, n_pairs + lag + 1, GaussianStream(0)).values
    du = np.diff(u)
    a, b = du[:n_pairs], du[lag:lag + n_pairs]
    cov = np.mean(a * b) - np.mean(a) * np.mean(b)
    target = -4.5242e-4
    rel = abs(cov - target) / abs(target)
    ok = cov < 0 and rel <= 0.20
    line = _report(7, ok,
                   f"cov of OU increments 1 apart over 1e6 pairs: {cov:.4e} "
                   f"(target {target:.4e}, rel dev {rel:.1%}, tol 20%, "
                   f"must be negative)")
    assert ok, line


def test_criterion_8_fgn_spectral_exponent():
    slopes = {}
    for hurst in (0.5, 0.6, 0.7, 0.8):
        incr = increments(Fgn(hurst), 1.0, 2 ** 21, GaussianStream(0))
        avg = band_average(periodogram(incr), 1000)
        slopes[hurst] = loglog_slope(avg, 0.01, 0.3)
        if hurst == 0.5:
            window = (avg.omegas >= 0.01) & (avg.omegas <= 0.3)
            flat_level = float(avg.powers[window].mean())
    ok = all(abs(slopes[h][0] - (1 - 2 * h)) <= 0.05 for h in (0.6, 0.7, 0.8))
    ok = ok and abs(slopes[0.5][0]) <= 0.05 and abs(flat_level - 1.0) <= 0.05
    line = _report(8, ok,
                   "fitted mid-band slopes: "
                   + " ".join(f"H={h}: {slopes[h][0]:.3f} (target {1 - 2 * h:+.1f})"
                              for h in (0.6, 0.7, 0.8))
                   + f"; H=0.5 slope {slopes[0.5][0]:.3f}, "
                     f"level {flat_level:.4f} (flat within 5%)")
    assert ok, line


def test_criterion_9_algebraic_identities():
    rng = np.random.default_rng(0)
    # rate-exchange symmetry of the stationary autocorrelation, bitwise
    for _ in range(200):
        lam, theta = rng.uniform(0.01, 5.0, size=2)
        tau = rng.uniform(0.0, 50.0)
        a = stationary_autocorr(ContinuousSystemParams(lam, theta, 1.0), tau)
        b = stationary_autocorr(ContinuousSystemParams(theta, lam, 1.0), tau)
        assert a == b
    # spectral complementarity and the mixed decomposition, exact
    omegas = np.geomspace(1e-3, 1e3, 500)
    for theta in (0.05, 0.1, 0.5, 2.0):
        s_red = theoretical_psd(RedOuDt(theta), omegas)
        s_du = theoretical_psd(DiffU(theta), omegas)
        np.testing.assert_allclose(s_du + theta ** 2 * s_red,
                                   np.ones_like(omegas), rtol=1e-12)
        for gamma in (-0.1, 0.5, 2.0):
            s_mixed = theoretical_psd(Mixed(theta, gamma), omegas)
            np.testing.assert_allclose(
                s_mixed, (gamma ** 2 + 2 * theta * gamma) * s_red + 1.0,
                rtol=1e-9)
    # determinism of every seeded sampler and simulator
    for model in (White(), RedOuDt(0.1), DiffU(0.1), Mixed(0.1, 0.5),
                  Ar1Driven(0.9), Fgn(0.7)):
        dt = 1.0 if isinstance(model, Ar1Driven) else 0.1
        a = increments(model, dt, 2000, GaussianStream(21)).values
        b = increments(model, dt, 2000, GaussianStream(21)).values
        np.testing.assert_array_equal(a, b)
    disc = DiscreteSystemParams(0.8, 0.9, 1.0)
    np.testing.assert_array_equal(
        simulate_discrete(disc, 5000, GaussianStream(22)).values,
        simulate_discrete(disc, 5000, GaussianStream(22)).values)
    cont = ContinuousSystemParams(0.2, 0.1, 1.0)
    np.testing.assert_array_equal(
        simulate_exact(cont, 1.0, 501, GaussianStream(23)).values,
        simulate_exact(cont, 1.0, 501, GaussianStream(23)).values)
    _report(9, True, "rate-exchange symmetry (200 random triples, bitwise), "
                     "S_du + theta^2 S_red = 1 and the mixed-decomposition "
                     "identity (exact on 500-point grids), determinism of "
                     "all seeded samplers and simulators")
