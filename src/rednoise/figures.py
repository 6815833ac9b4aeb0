"""End-to-end reproduction pipelines used by the CLI and the acceptance tests.

``spectra_run`` generates the four benchmark noise differentials (white, red,
OU-increment, mixed), band-averages their periodograms, and compares against
the closed-form densities.  ``restoring_run`` samples the discrete and
continuous linearly restoring systems on the unit grid (the continuous one by
its exact transition) and compares their autocorrelations against the shared
closed form.  Both are pure functions of their parameters and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (DiffU, Mixed, NoiseModel, RedOuDt, White, increments,
                     theoretical_psd)
from .series import TimeSeries, _check_n
from .simulate import (ContinuousSystemParams, DiscreteSystemParams,
                       continuous_from_discrete, simulate_discrete,
                       simulate_exact, stationary_autocorr)
from .spectral import (AvgSpectrum, _band_spectrum, _check_band_width,
                       empirical_acf, loglog_slope)
from .streams import GaussianStream, _map_substreams

__all__ = ["SpectrumComparison", "SpectraResult", "AcfComparison",
           "RestoringResult", "spectra_run", "restoring_run"]


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
    """
    n = _check_n(n)
    band_width = _check_band_width(band_width, n // 2)
    cases = (("white", White()),
             ("red", RedOuDt(theta)),
             ("du", DiffU(theta)),
             ("mixed", Mixed(theta, gamma)))
    stream = GaussianStream(seed)
    comparisons = []
    red_slope = math.nan
    for (name, model), child in zip(cases, stream.spawn(len(cases))):
        incr = increments(model, dt, n, child)
        avg = _band_spectrum(incr, band_width)
        del incr
        theory = np.asarray(theoretical_psd(model, avg.omegas))
        lo = avg.omegas[3]
        hi = 0.5 * np.pi / dt
        sel = (avg.omegas >= lo) & (avg.omegas <= hi)
        rel = np.abs(avg.powers[sel] / theory[sel] - 1.0)
        comparisons.append(SpectrumComparison(
            name=name, model=model, spectrum=avg, theory=theory,
            omega_lo=float(lo), omega_hi=float(hi),
            max_rel_dev=float(rel.max())))
        if name == "red":
            red_slope, _ = loglog_slope(avg, 1.0, 10.0)
    return SpectraResult(comparisons=tuple(comparisons), red_slope=red_slope,
                         n=n, dt=float(dt), band_width=band_width)


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
