"""End-to-end reproduction pipelines used by the CLI and the acceptance tests.

``spectra_run`` generates the four benchmark noise differentials (white, red,
OU-increment, mixed), band-averages their periodograms, and compares against
the closed-form densities.  ``restoring_run`` simulates the discrete and
continuous linearly restoring systems and compares their autocorrelations
against the shared closed form.  Both are pure functions of their parameters
and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (DiffU, Mixed, NoiseModel, RedOuDt, White, increments,
                     theoretical_psd)
from .series import TimeSeries
from .simulate import (ContinuousSystemParams, DiscreteSystemParams, SimConfig,
                       continuous_from_discrete, simulate_continuous,
                       simulate_discrete, stationary_autocorr)
# periodogram and band_average are not called here; they stay importable
# under these names because bench/traced_cli.py wraps them in this module.
from .spectral import (AcfEstimate, AvgSpectrum, _band_spectrum, band_average,  # noqa: F401
                       empirical_acf, loglog_slope, periodogram)
from .streams import GaussianStream

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
    n_compared: int


@dataclass(frozen=True)
class SpectraResult:
    """Everything measured by :func:`spectra_run`."""

    comparisons: tuple[SpectrumComparison, ...]
    red_slope: float
    red_intercept: float
    n: int
    dt: float
    band_width: int
    seed: int

    def by_name(self, name: str) -> SpectrumComparison:
        for comp in self.comparisons:
            if comp.name == name:
                return comp
        raise KeyError(name)


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
    cases = (("white", White()),
             ("red", RedOuDt(theta)),
             ("du", DiffU(theta)),
             ("mixed", Mixed(theta, gamma)))
    stream = GaussianStream(seed)
    comparisons = []
    red_slope = red_intercept = math.nan
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
            max_rel_dev=float(rel.max()), n_compared=int(rel.size)))
        if name == "red":
            red_slope, red_intercept = loglog_slope(avg, 1.0, 10.0)
    return SpectraResult(comparisons=tuple(comparisons), red_slope=red_slope,
                         red_intercept=red_intercept, n=int(n), dt=float(dt),
                         band_width=int(band_width), seed=int(seed))


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
    params_discrete: DiscreteSystemParams
    params_continuous: ContinuousSystemParams
    n: int
    burn_in: int
    seed: int


def _acf_vs_theory(label: str, series: TimeSeries, burn_in: int, max_lag: int,
                   params: ContinuousSystemParams) -> AcfComparison:
    tail = TimeSeries(dt=series.dt, values=series.values[burn_in:])
    est = empirical_acf(tail, max_lag, mode="correlation")
    taus = est.lags * series.dt
    theory = np.array([stationary_autocorr(params, tau) for tau in taus])
    rel = np.abs(est.values - theory) / np.abs(theory)
    return AcfComparison(label=label, taus=taus, empirical=est.values,
                         theory=theory, max_rel_dev=float(rel.max()))


def restoring_run(psi: float = 0.8, phi: float = 0.9, sigma: float = 1.0,
                  n: int = 20_000_000, dt_fine: float = 0.1,
                  subsample: int = 10, max_lag: int = 20,
                  seed: int = 0) -> RestoringResult:
    """Discrete vs continuous restoring system vs the closed-form ACF.

    The discrete chain runs on the unit grid; the continuous system is
    integrated at ``dt_fine`` with OU forcing and subsampled to the same
    output step.  Both paths drop a burn-in of ``max(10/lam, 10/theta)`` time
    units before estimation (the closed form is the asymptotic law), then
    their autocorrelations at lags 0..max_lag are compared with the closed
    form, each on its own time grid.  Separate substreams drive the two
    simulations, so they are independent realizations.
    """
    params_d = DiscreteSystemParams(psi=psi, phi=phi, sigma=sigma, x0=0.0)
    params_c = continuous_from_discrete(params_d)
    stream = GaussianStream(seed)
    child_d, child_c = stream.spawn(2)

    path_d = simulate_discrete(params_d, n, child_d)
    config = SimConfig(dt_fine=dt_fine, subsample=subsample, n_out=n)
    path_c = simulate_continuous(params_c, config, child_c)

    settle = 10.0 / min(params_c.lam, params_c.theta)
    burn_d = int(np.ceil(settle / path_d.dt))
    burn_c = int(np.ceil(settle / path_c.dt))
    discrete = _acf_vs_theory("discrete", path_d, burn_d, max_lag, params_c)
    continuous = _acf_vs_theory("continuous", path_c, burn_c, max_lag, params_c)
    return RestoringResult(discrete=discrete, continuous=continuous,
                           params_discrete=params_d, params_continuous=params_c,
                           n=int(n), burn_in=burn_d, seed=int(seed))
