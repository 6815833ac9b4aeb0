"""End-to-end reproduction pipelines used by the CLI and the acceptance tests.

``spectra_run`` generates the four benchmark noise differentials (white, red,
OU-increment, mixed), band-averages their periodograms, and compares against
the closed-form densities.  ``restoring_run`` samples the discrete and
continuous linearly restoring systems on the unit grid (the continuous one by
its exact transition) and compares their autocorrelations against the shared
closed form.  ``plateau_experiment`` averages the periodograms of replicas of
``dY = U dt + beta dW`` and shows the high-frequency dichotomy: a plateau at
``beta**2`` when ``beta != 0``, an ``omega**-2`` decay when ``beta = 0``.
All three are pure functions of their parameters and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (DiffU, Mixed, NoiseModel, RedOuDt, White,
                     _check_sampling, finite_psd_theoretical, increments,
                     theoretical_psd)
from .series import (TimeSeries, _check_finite, _check_n, _check_positive,
                     _check_square)
from .simulate import (ContinuousSystemParams, DiscreteSystemParams,
                       continuous_from_discrete, simulate_discrete,
                       simulate_exact, stationary_autocorr)
from .spectral import (AvgSpectrum, _band_omegas, _band_powers,
                       _check_band_width, band_average, empirical_acf,
                       loglog_slope)
from .streams import GaussianStream, _map_substreams

__all__ = ["SpectrumComparison", "SpectraResult", "AcfComparison",
           "RestoringResult", "PlateauReport", "spectra_run", "restoring_run",
           "plateau_experiment"]

# spectra_run fits the red spectrum's log-log slope over these frequencies.
_SLOPE_WINDOW = (1.0, 10.0)
# plateau_experiment measures the plateau over this band of angular
# frequencies, and reports the power near each of _PLATEAU_OMEGAS.
_PLATEAU_BAND = (10.0, 30.0)
_PLATEAU_OMEGAS = (10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class SpectrumComparison:
    """One model's band-averaged spectrum against its closed form."""

    name: str
    model: NoiseModel
    spectrum: AvgSpectrum
    theory: np.ndarray
    omega_lo: float
    omega_hi: float
    max_rel_dev: float


@dataclass(frozen=True)
class SpectraResult:
    """Everything measured by :func:`spectra_run`."""

    comparisons: tuple[SpectrumComparison, ...]
    red_slope: float
    n: int
    dt: float
    band_width: int


def spectra_run(theta: float = 0.1, gamma: float = 0.5, n: int = 20_000_000,
                dt: float = 0.1, band_width: int = 1000,
                seed: int = 0) -> SpectraResult:
    """Band-averaged spectra of the four benchmark differentials vs theory.

    Each model runs on its own substream of ``seed``.  The comparison window
    runs from the 4th averaged band up to half the Nyquist frequency;
    ``max_rel_dev`` is the largest relative deviation inside that window from
    the continuous-time limiting density (:func:`theoretical_psd`).  That is
    not the law of the sampled series: near Nyquist the expected periodogram
    of the damped models exceeds it by about the sampling factor
    ``nu^2 / (2 - 2 cos nu)`` (``nu = omega dt``; +23.4% at the window edge),
    so ``max_rel_dev`` describes the distance from the continuum limit, not
    the estimator's error.  Also fits the log-log slope of the red
    spectrum over ``omega`` in [1, 10] (closed form: -2 in that range for
    small theta).

    The models run on two threads: one samples while another's spectrum is
    formed (the FFT path of ``spectral._rfft`` decides whether two
    transforms may run at once).  Results come back in model order, with
    the bits of a serial run.  A slope window holding fewer than 8 band
    centres is rejected before any draw.
    """
    dt, n = _check_sampling(White(), dt, n)
    band_width = _check_band_width(band_width, n // 2)
    nyquist = np.pi / dt
    if nyquist * nyquist == np.inf:
        raise ValueError(f"dt={dt} too small: (pi/dt)**2 overflows")
    omegas = _band_omegas(n, dt, band_width)
    w_lo, w_hi = _SLOPE_WINDOW
    in_window = np.count_nonzero((omegas >= w_lo) & (omegas <= w_hi))
    if in_window < 8:
        raise ValueError(
            f"dt={dt} puts only {in_window} band centres in the slope window "
            f"[{w_lo}, {w_hi}] (n={n}, band_width={band_width}); need at "
            "least 8")
    lo = omegas[3]
    hi = 0.5 * np.pi / dt
    sel = (omegas >= lo) & (omegas <= hi)
    cases = (("white", White()),
             ("red", RedOuDt(theta)),
             ("du", DiffU(theta)),
             ("mixed", Mixed(theta, gamma)))
    for _, model in cases:
        _check_sampling(model, dt, n)

    def compare(job):
        (name, model), child = job
        powers = _band_powers(increments(model, dt, n, child).values, dt,
                              band_width)
        avg = AvgSpectrum(omegas=omegas, powers=powers)
        theory = np.asarray(theoretical_psd(model, omegas))
        rel = np.abs(powers[sel] / theory[sel] - 1.0)
        return SpectrumComparison(
            name=name, model=model, spectrum=avg, theory=theory,
            omega_lo=float(lo), omega_hi=float(hi),
            max_rel_dev=float(rel.max()))

    comparisons = tuple(_map_substreams(
        compare, zip(cases, GaussianStream(seed).spawn(len(cases))),
        in_flight=2))
    red_slope, _ = loglog_slope(comparisons[1].spectrum, w_lo, w_hi)
    return SpectraResult(comparisons=comparisons, red_slope=red_slope,
                         n=n, dt=dt, band_width=band_width)


@dataclass(frozen=True)
class AcfComparison:
    """An empirical autocorrelation against the closed form, by time lag."""

    label: str
    taus: np.ndarray
    empirical: np.ndarray
    theory: np.ndarray
    max_rel_dev: float


@dataclass(frozen=True)
class RestoringResult:
    """Everything measured by :func:`restoring_run`."""

    discrete: AcfComparison
    continuous: AcfComparison
    params_continuous: ContinuousSystemParams
    burn_in: int


def _acf_vs_theory(label: str, series: TimeSeries, burn_in: int, max_lag: int,
                   params: ContinuousSystemParams) -> AcfComparison:
    tail = TimeSeries(dt=series.dt, values=series.values[burn_in:])
    est = empirical_acf(tail, max_lag, mode="correlation")
    taus = est.lags * series.dt
    theory = stationary_autocorr(params, taus)
    rel = np.abs(est.values - theory) / np.abs(theory)
    return AcfComparison(label=label, taus=taus, empirical=est.values,
                         theory=theory, max_rel_dev=float(rel.max()))


def restoring_run(psi: float = 0.8, phi: float = 0.9, sigma: float = 1.0,
                  n: int = 20_000_000, max_lag: int = 20,
                  seed: int = 0) -> RestoringResult:
    """Discrete vs continuous restoring system vs the closed-form ACF.

    Both systems run on the unit grid, ``n`` values each: the discrete chain
    by its recursion, the continuous system by its exact transition
    (:func:`simulate_exact`), so neither carries a discretization bias.  Both
    paths drop a burn-in of ``max(10/lam, 10/theta)`` time units before
    estimation (the closed form is the asymptotic law), then their
    autocorrelations at lags 0..max_lag are compared with the closed form.
    Separate substreams drive the two simulations, so they are independent
    realizations.  The two systems run on two threads, each simulating its
    path, taking its ACF and freeing the path; every result has the bits of
    running them one after the other.  ``n`` must exceed the burn-in plus
    ``10 * max_lag``, the shortest tail :func:`empirical_acf` accepts.
    """
    params_d = DiscreteSystemParams(psi=psi, phi=phi, sigma=sigma, x0=0.0)
    params_c = continuous_from_discrete(params_d)
    dt = 1.0                            # the discrete chain's unit grid
    burn = int(np.ceil(10.0 / min(params_c.lam, params_c.theta) / dt))
    n = _check_n(n)
    max_lag = _check_n(max_lag, "max_lag", least=0)
    if n - burn <= 10 * max_lag:
        raise ValueError(
            f"n={n} too short for a burn-in of {burn} and max_lag={max_lag}: "
            f"need n > {burn} + 10*{max_lag} = {burn + 10 * max_lag}")
    simulators = {
        "discrete": lambda child: simulate_discrete(params_d, n, child),
        "continuous": lambda child: simulate_exact(params_c, dt, n, child)}

    def compare(job):
        label, child = job
        return _acf_vs_theory(label, simulators[label](child), burn, max_lag,
                              params_c)

    discrete, continuous = _map_substreams(
        compare, zip(simulators, GaussianStream(seed).spawn(2)))
    return RestoringResult(discrete=discrete, continuous=continuous,
                           params_continuous=params_c, burn_in=burn)


@dataclass(frozen=True)
class PlateauReport:
    """Outcome of :func:`plateau_experiment`.

    ``empirical[i]`` is the replica-averaged power near ``omegas[i]``;
    ``theoretical[i]`` the matching closed form (OU kernel plus ``beta**2``);
    ``plateau_estimate`` the mean power over the plateau band;
    ``plateau_target`` is ``beta**2``.  ``decay_slope`` is the fitted log-log
    slope over the plateau band, meaningful mainly for ``beta = 0``.
    ``passed`` reflects the plateau assertion (``beta != 0``: estimate within
    5% of target; ``beta = 0``: decay slope within -2 +/- 0.2).
    """

    beta: float
    t: float
    dt: float
    replicas: int
    omegas: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    plateau_band: tuple[float, float]
    plateau_estimate: float
    plateau_target: float
    decay_slope: float
    passed: bool
    detail: str


def plateau_experiment(alpha_model: RedOuDt, beta: float, t: float, dt: float,
                       replicas: int, stream: GaussianStream) -> PlateauReport:
    """Measure the high-frequency power of ``dY = U dt + beta dW``.

    Each replica draws an independent stationary OU path U and an independent
    Brownian increment stream W (one spawned substream per replica; U first,
    then W), forms the increments in one array, and takes their periodogram
    in place; powers are averaged across replicas bin by bin.  The plateau
    estimate is the mean averaged power over the band ``_PLATEAU_BAND``
    (omega in [10, 30]); for nonzero ``beta`` it must land within 5% of
    ``beta**2``, for ``beta = 0`` the fitted log-log slope over the band must
    be -2 +/- 0.2 (pure red noise keeps decaying; any Brownian admixture pins
    the plateau at its squared amplitude).  The power is reported near each
    of the frequencies ``_PLATEAU_OMEGAS`` (10, 15, ..., 30).  Replicas run
    on two threads, at most four in flight, and their powers are summed in
    replica order, so the result has the bits of a serial loop.

    Preconditions: an integer ``replicas >= 32``, at least 16 steps, and
    ``dt <= 2 pi / 300`` so that the band sits far below Nyquist.
    """
    if not isinstance(alpha_model, RedOuDt):
        raise ValueError(f"alpha_model must be RedOuDt, got {type(alpha_model).__name__}")
    beta = _check_square(_check_finite(beta, "beta"), "beta", nonzero=True)
    t = _check_positive(t, "T")
    dt = _check_positive(dt, "dt")
    replicas = _check_n(replicas, "replicas", least=32)
    lo, hi = _PLATEAU_BAND
    # this also rejects any frequency above Nyquist, pi/dt
    if dt > 2.0 * np.pi / (10.0 * hi):
        raise ValueError(
            f"dt={dt} too coarse for max frequency {hi:.3g} "
            "(need dt <= 2*pi/(10*max omega))")

    # t/dt may overflow to inf; no array holds 2**63 steps, which the
    # pre-flight below rejects by T and dt
    n = int(round(min(t / dt, 2.0**63)))
    if n < 16:
        raise ValueError(f"horizon T={t} at dt={dt} gives only {n} steps")
    _check_sampling(alpha_model, dt, n, f"horizon T={t} at dt={dt}")
    omegas = np.array(_PLATEAU_OMEGAS)
    theoretical = finite_psd_theoretical(alpha_model, t, omegas) + beta * beta
    grid = _band_omegas(n, dt, 1)

    def replica(child):
        dy = increments(alpha_model, dt, n, child).values
        white = child.fill(n)           # scaled in place, freed before the FFT
        white *= beta * np.sqrt(dt)
        dy += white
        del white
        return _band_powers(dy, dt, 1)

    mean_powers = None
    for powers in _map_substreams(replica, stream.spawn(replicas), in_flight=4):
        mean_powers = powers if mean_powers is None else mean_powers + powers
    mean_powers /= replicas

    d_omega = grid[0]
    empirical = np.empty(omegas.size)
    for i, w in enumerate(omegas):
        half = max(0.02 * w, 3.0 * d_omega)
        sel = np.abs(grid - w) <= half
        empirical[i] = mean_powers[sel].mean()

    band_sel = (grid >= lo) & (grid <= hi)
    plateau_estimate = float(mean_powers[band_sel].mean())
    plateau_target = beta * beta

    width = max(int(np.count_nonzero(band_sel) // 40), 1)
    avg = band_average(AvgSpectrum(omegas=grid, powers=mean_powers), width)
    decay_slope, _ = loglog_slope(avg, lo, hi)

    if beta != 0.0:
        rel = abs(plateau_estimate - plateau_target) / plateau_target
        passed = rel <= 0.05
        detail = (f"plateau {plateau_estimate:.6g} vs target {plateau_target:.6g} "
                  f"(rel dev {rel:.2%}, tol 5%)")
    else:
        passed = abs(decay_slope + 2.0) <= 0.2
        detail = (f"decay slope {decay_slope:.4f} over band [{lo:g}, {hi:g}] "
                  "(target -2 +/- 0.2)")
    return PlateauReport(beta=beta, t=t, dt=dt, replicas=replicas,
                         omegas=omegas, empirical=empirical,
                         theoretical=np.asarray(theoretical),
                         plateau_band=_PLATEAU_BAND,
                         plateau_estimate=plateau_estimate,
                         plateau_target=plateau_target,
                         decay_slope=float(decay_slope),
                         passed=passed, detail=detail)
