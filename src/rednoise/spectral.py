"""Spectral and correlation estimators for increment series.

The periodogram here is normalized so that for Brownian increments
(``dY = sqrt(dt) z``) its expected value is 1 at every frequency, matching
the flat unit density that plays the role of the white-noise reference:
``P(omega_j) = |FFT(dY)_j|^2 / (n dt)`` at ``omega_j = 2 pi j / (n dt)``,
``j = 1 .. n//2`` (the zero frequency is dropped).  No taper is applied;
variance reduction comes from band averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import IncrementSeries, TimeSeries, _check_values

__all__ = ["Periodogram", "AvgSpectrum", "AcfEstimate", "periodogram",
           "band_average", "empirical_acf", "loglog_slope"]

# Periodogram bins per chunk in _band_spectrum (rounded down to whole bands).
_BAND_CHUNK = 1 << 16


@dataclass(frozen=True)
class Periodogram:
    """Raw periodogram: angular frequencies, powers, and grid provenance."""

    omegas: np.ndarray
    powers: np.ndarray
    n_samples: int
    dt: float

    def __post_init__(self):
        _check_values(self.omegas)
        _check_values(self.powers)
        if self.omegas.shape != self.powers.shape:
            raise ValueError("omegas and powers must have the same length")
        if np.any(self.powers < 0):
            raise ValueError("periodogram powers must be nonnegative")

    def __len__(self):
        return self.omegas.size


@dataclass(frozen=True)
class AvgSpectrum:
    """Band-averaged spectrum: band-center frequencies and band mean powers."""

    omegas: np.ndarray
    powers: np.ndarray
    band_width: int

    def __post_init__(self):
        _check_values(self.omegas)
        _check_values(self.powers)
        if self.omegas.shape != self.powers.shape:
            raise ValueError("omegas and powers must have the same length")

    def __len__(self):
        return self.omegas.size


@dataclass(frozen=True)
class AcfEstimate:
    """Empirical autocovariance (or autocorrelation) at integer lags."""

    lags: np.ndarray
    values: np.ndarray
    mode: str = "covariance"

    def __post_init__(self):
        _check_values(self.lags)
        _check_values(self.values)
        if self.lags.shape != self.values.shape:
            raise ValueError("lags and values must have the same length")
        if self.mode not in ("covariance", "correlation"):
            raise ValueError(f"mode must be covariance or correlation, got {self.mode!r}")


def periodogram(series: IncrementSeries | TimeSeries) -> Periodogram:
    """Periodogram of a series, normalized to the flat-unit white reference.

    Left-endpoint discretization of the finite-window Fourier integral of the
    increments.  Uses the real FFT; returns ``n // 2`` points at
    ``omega_j = 2 pi j / (n dt)`` for ``j = 1 .. n//2`` (any length is
    accepted, not just powers of two).  Requires at least 2 samples.
    """
    values = series.values
    n = values.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    dt = series.dt
    spec = np.fft.rfft(values)[1:n // 2 + 1]
    powers = (spec.real**2 + spec.imag**2) / (n * dt)
    omegas = 2.0 * np.pi * np.arange(1, n // 2 + 1) / (n * dt)
    return Periodogram(omegas=omegas, powers=powers, n_samples=n, dt=dt)


def band_average(pg: Periodogram, band_width: int) -> AvgSpectrum:
    """Average the periodogram over disjoint blocks of ``band_width`` bins.

    Each band is reduced to (mean frequency, mean power); a trailing partial
    band is dropped, so the output has ``len(pg) // band_width`` bands.
    ``band_width=1`` is the identity on the data.
    """
    band_width = int(band_width)
    if band_width < 1:
        raise ValueError(f"band_width must be at least 1, got {band_width}")
    if band_width > len(pg):
        raise ValueError(
            f"band_width={band_width} exceeds the {len(pg)} available bins")
    n_bands = len(pg) // band_width
    m = n_bands * band_width
    omegas = pg.omegas[:m].reshape(n_bands, band_width).mean(axis=1)
    powers = pg.powers[:m].reshape(n_bands, band_width).mean(axis=1)
    return AvgSpectrum(omegas=omegas, powers=powers, band_width=band_width)


def _band_spectrum(series: IncrementSeries | TimeSeries,
                   band_width: int) -> AvgSpectrum:
    """``band_average(periodogram(series), band_width)``, bit for bit.

    Takes one real FFT, then forms powers, frequencies and band means a
    chunk of whole bands at a time, so the full-length periodogram arrays
    never exist.  Each band is the same row mean over the same values as in
    :func:`band_average`, hence the identical bits.
    """
    values = series.values
    n = values.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    band_width = int(band_width)
    if band_width < 1:
        raise ValueError(f"band_width must be at least 1, got {band_width}")
    if band_width > n // 2:
        raise ValueError(
            f"band_width={band_width} exceeds the {n // 2} available bins")
    dt = series.dt
    spec = np.fft.rfft(values)
    n_bands = n // 2 // band_width
    omegas = np.empty(n_bands)
    powers = np.empty(n_bands)
    rows = max(1, _BAND_CHUNK // band_width)
    for r0 in range(0, n_bands, rows):
        r1 = min(r0 + rows, n_bands)
        lo, hi = r0 * band_width + 1, r1 * band_width + 1     # FFT bins
        chunk = spec[lo:hi]
        p = (chunk.real**2 + chunk.imag**2) / (n * dt)
        w = 2.0 * np.pi * np.arange(lo, hi) / (n * dt)
        powers[r0:r1] = p.reshape(r1 - r0, band_width).mean(axis=1)
        omegas[r0:r1] = w.reshape(r1 - r0, band_width).mean(axis=1)
    return AvgSpectrum(omegas=omegas, powers=powers, band_width=band_width)


def empirical_acf(series: IncrementSeries | TimeSeries, max_lag: int,
                  mode: str = "covariance") -> AcfEstimate:
    """Empirical autocovariance at integer lags 0 to ``max_lag``.

    Uses the biased estimator ``c(m) = (1/n) sum_k (x_k - xbar)(x_{k+m} - xbar)``
    (nonnegative-definite; the 1/n vs 1/(n-m) difference is immaterial at the
    lags allowed here).  ``mode="correlation"`` divides by ``c(0)``, making
    the lag-0 entry exactly 1.  ``max_lag`` must stay below ``n / 10`` to
    keep estimator variance in check.

    All sums (the mean and each lag sum) are accumulated over the palindromic
    array ``a + a[::-1]`` and halved.  A palindrome is bitwise unchanged by
    reversal, so the estimate is invariant under time reversal of the input
    not just mathematically but bit for bit.
    """
    values = series.values
    n = values.size
    max_lag = int(max_lag)
    if max_lag < 0:
        raise ValueError(f"max_lag must be nonnegative, got {max_lag}")
    if max_lag >= n / 10:
        raise ValueError(
            f"max_lag={max_lag} too large for {n} samples (must be < n/10)")
    if np.ptp(values) == 0.0:
        # constant input: the exact answer is all zeros, and rounding in the
        # mean subtraction must not leave ~1e-30 dust behind
        cov = np.zeros(max_lag + 1)
    else:
        xbar = np.sum(values + values[::-1]) / (2.0 * n)
        x = values - xbar
        cov = np.empty(max_lag + 1)
        for m in range(max_lag + 1):
            prod = x[: n - m] * x[m:]
            cov[m] = np.sum(prod + prod[::-1]) / (2.0 * n)
    if mode == "correlation":
        if cov[0] == 0.0:
            raise ValueError("zero variance: correlation undefined")
        cov = cov / cov[0]
        cov[0] = 1.0
    elif mode != "covariance":
        raise ValueError(f"mode must be covariance or correlation, got {mode!r}")
    lags = np.arange(max_lag + 1, dtype=np.float64)
    return AcfEstimate(lags=lags, values=cov, mode=mode)


def loglog_slope(spectrum: Periodogram | AvgSpectrum, omega_min: float,
                 omega_max: float) -> tuple[float, float]:
    """Least-squares slope and intercept of log power vs log frequency.

    Fits over the bands with ``omega_min <= omega <= omega_max``; at least 8
    bands must fall in the window and all their powers must be positive.
    Returns ``(slope, intercept)`` with the intercept in natural-log space,
    so the fitted density is ``exp(intercept) * omega**slope``.
    """
    omega_min = float(omega_min)
    omega_max = float(omega_max)
    if not 0.0 < omega_min < omega_max:
        raise ValueError(
            f"need 0 < omega_min < omega_max, got [{omega_min}, {omega_max}]")
    mask = (spectrum.omegas >= omega_min) & (spectrum.omegas <= omega_max)
    n_in = int(np.count_nonzero(mask))
    if n_in < 8:
        raise ValueError(
            f"only {n_in} bands in [{omega_min}, {omega_max}]; "
            "need at least 8 for a slope fit")
    powers = spectrum.powers[mask]
    if np.any(powers <= 0.0):
        raise ValueError("nonpositive power in fit window; cannot take logs")
    slope, intercept = np.polyfit(np.log(spectrum.omegas[mask]), np.log(powers), 1)
    return float(slope), float(intercept)
