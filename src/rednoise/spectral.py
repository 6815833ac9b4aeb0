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
from itertools import repeat

import numpy as np

from .series import TimeSeries, _check_n, _check_values

__all__ = ["AvgSpectrum", "AcfEstimate", "periodogram",
           "band_average", "empirical_acf", "loglog_slope"]

# Periodogram bins per chunk in _band_spectrum (rounded down to whole bands).
_BAND_CHUNK = 1 << 16

# Largest leaf of empirical_acf's summation tree, in points; each leaf is
# formed and summed in buffers of about this size.  At least 128, the size
# below which numpy itself stops splitting.
_ACF_LEAF = 1 << 16


@dataclass(frozen=True)
class AvgSpectrum:
    """Band-averaged spectrum: band-center frequencies and band mean powers.

    ``band_width`` periodogram bins are averaged per band; the raw
    periodogram is the spectrum of band width 1.
    """

    omegas: np.ndarray
    powers: np.ndarray
    band_width: int

    def __post_init__(self):
        _check_values(self.omegas)
        _check_values(self.powers)
        if self.omegas.shape != self.powers.shape:
            raise ValueError("omegas and powers must have the same length")
        negative = np.flatnonzero(self.powers < 0)
        if negative.size:
            i = negative[0]
            raise ValueError(
                f"powers must be nonnegative, got {self.powers[i]} "
                f"at omega={self.omegas[i]}")

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


def periodogram(series: TimeSeries) -> AvgSpectrum:
    """Periodogram of a series, normalized to the flat-unit white reference.

    Left-endpoint discretization of the finite-window Fourier integral of the
    increments.  Uses the real FFT; returns ``n // 2`` points at
    ``omega_j = 2 pi j / (n dt)`` for ``j = 1 .. n//2`` (any length is
    accepted, not just powers of two), as a spectrum of band width 1.
    Requires at least 2 samples.
    """
    return _band_spectrum(series, 1)


def _check_band_width(band_width, bins: int) -> int:
    band_width = _check_n(band_width, "band_width")
    if band_width > bins:
        raise ValueError(
            f"band_width={band_width} exceeds the {bins} available bins")
    return band_width


def band_average(pg: AvgSpectrum, band_width: int) -> AvgSpectrum:
    """Average the periodogram over disjoint blocks of ``band_width`` bins.

    Each band is reduced to (mean frequency, mean power); a trailing partial
    band is dropped, so the output has ``len(pg) // band_width`` bands.
    ``band_width=1`` is the identity on the data.
    """
    band_width = _check_band_width(band_width, len(pg))
    n_bands = len(pg) // band_width
    m = n_bands * band_width
    omegas = pg.omegas[:m].reshape(n_bands, band_width).mean(axis=1)
    powers = pg.powers[:m].reshape(n_bands, band_width).mean(axis=1)
    return AvgSpectrum(omegas=omegas, powers=powers, band_width=band_width)


def _band_spectrum(series: TimeSeries, band_width: int) -> AvgSpectrum:
    """Periodogram averaged over disjoint bands of ``band_width`` bins.

    ``band_average(periodogram(series), band_width)`` without the
    full-length periodogram: takes one real FFT, then forms powers,
    frequencies and band means a chunk of whole bands at a time.  Each band
    is the same row mean over the same values as in :func:`band_average`,
    hence the same bits.
    """
    values = series.values
    n = values.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    band_width = _check_band_width(band_width, n // 2)
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


def _split(k: int) -> int:
    """Length of the first half where numpy's pairwise sum splits ``k``
    points: half, rounded down to a multiple of 8."""
    h = k // 2
    return h - h % 8


def _leaves(start: int, k: int):
    """``(start, length)`` of each leaf of :func:`_tree_sum`, in order."""
    if k <= _ACF_LEAF:
        yield start, k
    else:
        h = _split(k)
        yield from _leaves(start, h)
        yield from _leaves(start + h, k - h)


def _tree_sum(k: int, leaf_sums) -> float:
    """numpy's pairwise sum of ``k`` points, from the sums of its leaves.

    Splits as ``np.sum`` of a contiguous float64 array does until a piece
    fits in ``_ACF_LEAF`` points, and takes each leaf's sum, in the order of
    :func:`_leaves`, from the iterator ``leaf_sums``.  Given each leaf's
    ``np.sum``, the result has the bits of one ``np.sum`` over all ``k``
    points, since ``np.sum`` splits a leaf as it would inside the whole
    array.
    """
    if k <= _ACF_LEAF:
        return next(leaf_sums)
    h = _split(k)
    return _tree_sum(h, leaf_sums) + _tree_sum(k - h, leaf_sums)


def _lag_sums(values: np.ndarray, max_lag: int) -> np.ndarray:
    """``np.sum(prod + prod[::-1])`` for lags 0..max_lag, bit for bit, where
    ``prod = x[:n-m] * x[m:]``, ``x = values - xbar`` and ``xbar`` is
    ``np.sum(values + values[::-1]) / (2 n)``.

    Leaf ``[a, a+k)`` of lag m is ``x[a+i] x[a+i+m] + r[a+i] r[a+i+m]``,
    ``r = x[::-1]``: the mirrored half of the palindrome read forward on
    the reversed input.  The lags' summation trees split at nearby points,
    so their leaves are taken in order of start, and leaves that start
    within ``_ACF_LEAF // 8`` points of each other share one centered
    window of ``x`` and one of ``r``.
    """
    import heapq                      # at the call site: keeps CLI import lean
    n = values.size
    leaf = min(_ACF_LEAF, n)
    slack = _ACF_LEAF // 8
    fwd, rev = np.empty(leaf + slack + max_lag), np.empty(leaf + slack + max_lag)
    p, q = np.empty(leaf), np.empty(leaf)
    xbar = _tree_sum(n, (np.sum(np.add(values[a:a + k],
                                       values[n - a - k:n - a][::-1], out=p[:k]))
                         for a, k in _leaves(0, n))) / (2.0 * n)
    sums = [[] for _ in range(max_lag + 1)]    # per lag, in leaf order

    def sum_group(group):
        a0 = group[0][0][0]
        width = max(a + k + m for (a, k), m in group) - a0
        x = np.subtract(values[a0:a0 + width], xbar, out=fwd[:width])
        r = np.subtract(values[n - a0 - width:n - a0][::-1], xbar,
                        out=rev[:width])
        for (a, k), m in group:
            s = a - a0
            np.multiply(x[s:s + k], x[s + m:s + m + k], out=p[:k])
            np.multiply(r[s:s + k], r[s + m:s + m + k], out=q[:k])
            sums[m].append(np.sum(np.add(p[:k], q[:k], out=p[:k])))

    group = []
    for job in heapq.merge(*(zip(_leaves(0, n - m), repeat(m))
                             for m in range(max_lag + 1))):
        if group and job[0][0] - group[0][0][0] > slack:
            sum_group(group)
            group = []
        group.append(job)
    sum_group(group)
    return np.array([_tree_sum(n - m, iter(leaf_sums))
                     for m, leaf_sums in enumerate(sums)])


def empirical_acf(series: TimeSeries, max_lag: int,
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

    Each sum is numpy's pairwise sum of its palindrome (:func:`_tree_sum`),
    formed a leaf of at most ``_ACF_LEAF`` points at a time from centered
    windows of the input (:func:`_lag_sums`).  No full-length array is
    built, and the bits are those of ``np.sum`` over the whole palindrome.
    """
    if mode not in ("covariance", "correlation"):
        raise ValueError(f"mode must be covariance or correlation, got {mode!r}")
    values = series.values
    n = values.size
    max_lag = _check_n(max_lag, "max_lag", least=0)
    if max_lag >= n / 10:
        raise ValueError(
            f"max_lag={max_lag} too large for {n} samples (must be < n/10)")
    if np.ptp(values) == 0.0:
        # constant input: the exact answer is all zeros, and rounding in the
        # mean subtraction must not leave ~1e-30 dust behind
        cov = np.zeros(max_lag + 1)
    else:
        cov = _lag_sums(values, max_lag) / (2.0 * n)
    if mode == "correlation":
        if cov[0] == 0.0:
            raise ValueError("zero variance: correlation undefined")
        cov = cov / cov[0]
        cov[0] = 1.0
    lags = np.arange(max_lag + 1, dtype=np.float64)
    return AcfEstimate(lags=lags, values=cov, mode=mode)


def loglog_slope(spectrum: AvgSpectrum, omega_min: float,
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
