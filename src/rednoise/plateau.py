"""Finite-horizon spectra and the high-frequency plateau experiment.

A noise differential with any Brownian part keeps a non-vanishing power
density at arbitrarily high frequencies, while a pure drift-type differential
(red noise) decays as ``omega**-2``.  This module provides the closed-form
finite-horizon machinery behind that dichotomy and a replica experiment that
exhibits it numerically:

- :func:`psd_kernel_auto` — windowed double Fourier integral of the
  stationary OU autocovariance (real);
- :func:`psd_kernel_cross` — iterated Fourier integral over the ordered
  triangle coupling the OU level to its own driving increments (complex);
- :func:`finite_psd_theoretical` — finite-horizon PSD assembled from the two
  kernels for the red and mixed models;
- :func:`plateau_experiment` — replica-averaged periodograms of
  ``dY = U dt + beta dW`` (W independent of U) with plateau and decay
  assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Mixed, NoiseModel, RedOuDt, ou_exact_sample
from .series import (TimeSeries, _check_finite, _check_n, _check_positive,
                     _check_rate)
from .spectral import AvgSpectrum, band_average, loglog_slope, periodogram
from .streams import GaussianStream, _map_substreams

__all__ = ["PlateauReport", "psd_kernel_auto", "psd_kernel_cross",
           "finite_psd_theoretical", "plateau_experiment"]

# Angular frequencies over which plateau_experiment measures the plateau.
_PLATEAU_BAND = (10.0, 30.0)


def psd_kernel_auto(t: float, omega, theta: float) -> np.ndarray | float:
    """Windowed spectral mass of the OU autocovariance.

    ``integral over [0,T]^2 of exp(-i omega (u - s)) * exp(-theta |u - s|) /
    (2 theta) du ds`` — real by symmetry.  Dividing by T gives the
    finite-horizon PSD of the red differential ``U dt``, and
    ``psd_kernel_auto / T -> 1 / (theta^2 + omega^2)`` as T grows.

    Identically equal to ``(psd_kernel_cross + conj(psd_kernel_cross)) /
    (2 theta)`` — the two kernels are evaluated independently and the
    identity is a test oracle, not an implementation shortcut.
    """
    t = _check_positive(t, "T")
    rate = _check_rate(theta, "theta")
    if rate * rate == np.inf:
        raise ValueError(f"theta={rate} too large: theta**2 overflows")
    omega = np.asarray(omega, dtype=np.float64)
    d = theta * theta + omega * omega
    decay = np.exp(-theta * t)
    out = t / d + ((omega**2 - theta**2) * (1.0 - decay * np.cos(omega * t))
                   - 2.0 * theta * omega * decay * np.sin(omega * t)) / (theta * d * d)
    return out if out.ndim else float(out)


def psd_kernel_cross(t: float, omega, theta: float) -> np.ndarray | complex:
    """Ordered-triangle kernel ``[T(theta - i omega) + e^{-T(theta - i omega)} - 1]
    / (theta - i omega)^2``.

    Equals the iterated integral over ``0 <= s <= u <= T`` of
    ``exp(-i omega (s - u)) exp(-theta (u - s))``; its real part carries the
    drift/Brownian cross term of the mixed model.  Kept in explicit complex
    arithmetic — the poles sit at ``theta = i omega`` and real-only
    rearrangements reintroduce the cancellation this form avoids.
    """
    t = _check_positive(t, "T")
    _check_rate(theta, "theta")
    omega = np.asarray(omega, dtype=np.float64)
    pole = theta - 1j * omega
    out = (t * pole + np.exp(-t * pole) - 1.0) / (pole * pole)
    return out if out.ndim else complex(out)


def finite_psd_theoretical(model: NoiseModel, t: float, omega) -> np.ndarray | float:
    """Finite-horizon PSD of the red or mixed differential at horizon ``t``.

    ``RedOuDt -> psd_kernel_auto / T``;
    ``Mixed -> (gamma^2 psd_kernel_auto + 2 gamma Re(psd_kernel_cross) + T) / T``.
    Converges pointwise to :func:`~rednoise.models.theoretical_psd` as the
    horizon grows.  Other model variants are rejected.
    """
    t = float(t)
    if isinstance(model, RedOuDt):
        out = psd_kernel_auto(t, omega, model.theta) / t
    elif isinstance(model, Mixed):
        auto = psd_kernel_auto(t, omega, model.theta)
        cross = np.real(psd_kernel_cross(t, omega, model.theta))
        out = (model.gamma**2 * auto + 2.0 * model.gamma * cross + t) / t
    else:
        raise ValueError(
            f"finite-horizon PSD available for RedOuDt and Mixed only, "
            f"got {type(model).__name__}")
    return out


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
                       omegas, replicas: int,
                       stream: GaussianStream) -> PlateauReport:
    """Measure the high-frequency power of ``dY = U dt + beta dW``.

    Each replica draws an independent stationary OU path U and an independent
    Brownian increment stream W (one spawned substream per replica; U first,
    then W), forms the increments, and takes the periodogram; powers are
    averaged across replicas bin by bin.  The plateau estimate is the mean
    averaged power over the band ``_PLATEAU_BAND`` (omega in [10, 30]); for
    nonzero ``beta`` it must land within 5% of ``beta**2``, for ``beta = 0``
    the fitted log-log slope over the band must be -2 +/- 0.2 (pure red
    noise keeps decaying; any Brownian admixture pins the plateau at its
    squared amplitude).  Replicas run on two threads, at most four in
    flight, and their powers are summed in replica order, so the result has
    the bits of a serial loop.

    Preconditions: an integer ``replicas >= 32`` and
    ``dt <= 2 pi / (10 * max(omegas))`` so every reported frequency sits far
    below Nyquist.
    """
    if not isinstance(alpha_model, RedOuDt):
        raise ValueError(f"alpha_model must be RedOuDt, got {type(alpha_model).__name__}")
    beta = _check_finite(beta, "beta")
    t = _check_positive(t, "T")
    dt = _check_positive(dt, "dt")
    replicas = _check_n(replicas, "replicas", least=32)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    if omegas.size == 0:
        raise ValueError("omegas must be non-empty")
    for w in omegas:
        _check_positive(w, "every omega")
    lo, hi = _PLATEAU_BAND
    w_top = max(omegas.max(), hi)
    # this also rejects any frequency above Nyquist, pi/dt
    if dt > 2.0 * np.pi / (10.0 * w_top):
        raise ValueError(
            f"dt={dt} too coarse for max frequency {w_top:.3g} "
            "(need dt <= 2*pi/(10*max omega))")

    n = int(round(t / dt))
    if n < 16:
        raise ValueError(f"horizon T={t} at dt={dt} gives only {n} steps")
    theta = alpha_model.theta
    theoretical = finite_psd_theoretical(alpha_model, t, omegas) + beta * beta

    def replica(child):
        u = ou_exact_sample(theta, dt, n, child, init=alpha_model.init)
        dy = u.values * dt + beta * np.sqrt(dt) * child.fill(n)
        return periodogram(TimeSeries(dt=dt, values=dy))

    mean_powers = None
    for pg in _map_substreams(replica, stream.spawn(replicas), in_flight=4):
        mean_powers = pg.powers if mean_powers is None \
            else mean_powers + pg.powers
    mean_powers /= replicas
    grid = pg.omegas                       # same grid for every replica

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
    avg = band_average(AvgSpectrum(omegas=grid, powers=mean_powers,
                                   band_width=1), width)
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
