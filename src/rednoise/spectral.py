"""Spectral and correlation estimators for increment series.

The periodogram here is normalized so that for Brownian increments
(``dY = sqrt(dt) z``) its expected value is 1 at every frequency, matching
the flat unit density that plays the role of the white-noise reference:
``P(omega_j) = |FFT(dY)_j|^2 / (n dt)`` at ``omega_j = 2 pi j / (n dt)``,
``j = 1 .. n//2`` (the zero frequency is dropped).  No taper is applied;
variance reduction comes from band averaging.

The FFT is pocketfft's, run in place through scipy's compiled
``pypocketfft`` extension alone (loaded at the first FFT in about 1 ms,
without the ``scipy.fft`` package), on one of two paths.  Odd ``n``, ``n``
below ``_FOUR_STEP_MIN`` and an ``n/2`` with no split into two factors of
at least 64 take the whole-array real FFT: numpy vendors the same kernel,
so every bin has the bits of ``np.fft.rfft``, but pocketfft holds two more
arrays of the input's length.  The rest take a four-step FFT, whose scratch
does not grow with ``n``; its band powers lie within 1e-12 of the largest
band power of ``np.fft.rfft``'s (about 1e-15 is seen), not bit for bit.
Both release the interpreter lock, so ``fig1`` samples one model while
another's spectrum is formed.  One whole-array band spectrum runs at a
time, whichever command forms it (``_SPECTRUM_LOCK``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._scipy import extension
from .series import _BLOCK, TimeSeries, _all_finite, _check_n, _check_values

__all__ = ["AvgSpectrum", "AcfEstimate", "periodogram",
           "band_average", "empirical_acf", "loglog_slope"]

# Largest leaf of empirical_acf's summation tree, in points; each leaf is
# formed and summed in buffers of about this size.  At least 128, the size
# below which numpy itself stops splitting.
_ACF_LEAF = 1 << 16
# Shortest even series that takes the four-step transform.  The paths cross
# between 2e6 and 4e6 points: one spectrum on one thread, 46.5 ms whole-array
# against 45.2 ms four-step at 2e6 and 119.0/113.7 at 4e6 (medians of 15;
# numpy 2.4).  Below it the whole-array FFT, no slower, keeps numpy's bits.
_FOUR_STEP_MIN = 4_000_000
# One whole-array band spectrum at a time: pocketfft's real FFT holds two
# more arrays of its input's length, so two at once would double the peak.
# The four-step transform's scratch does not grow with n; it takes no lock.
_SPECTRUM_LOCK = threading.Lock()


@dataclass(frozen=True)
class AvgSpectrum:
    """Band-averaged spectrum: band-center frequencies and band mean powers.

    The raw periodogram is the spectrum whose bands are single bins.
    """

    omegas: np.ndarray
    powers: np.ndarray

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
    Requires at least 2 samples.  The FFT runs on a copy of the values.
    """
    return _band_spectrum(TimeSeries(series.dt, series.values.copy()), 1)


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
    return AvgSpectrum(omegas=omegas, powers=powers)


def _halfcomplex(y: np.ndarray, forward: bool) -> np.ndarray:
    """Real FFT of ``y`` in place, in FFTPACK's halfcomplex order; returns ``y``.

    Forward, bin j of ``np.fft.rfft(y)`` becomes ``y[0]`` (j = 0, real),
    ``y[2j-1] + 1j*y[2j]`` (0 < j < n/2) and, for even n, ``y[n-1]`` (the
    real Nyquist bin).  Backward, that layout becomes the real sequence of
    ``np.fft.irfft(..., n, norm="forward")``, without the 1/n.  Both run
    pocketfft's real kernel, which numpy vendors too, so the bits are
    numpy's.  The transform holds no output array of its own, only
    pocketfft's scratch and its plan, which pocketfft keeps cached after
    the call, and it releases the interpreter lock.  pocketfft is not a
    numpy ufunc: ``np.errstate`` does not see an overflow inside it.
    """
    extension("fft._pocketfft", "pypocketfft", "FFT").r2r_fftpack(
        y, (0,), forward, forward, 0, y, 1)
    return y


def _band_omegas(n: int, dt: float, band_width: int) -> np.ndarray:
    """Mean frequency of each whole band of ``band_width`` periodogram bins
    of an ``n``-point series, formed a chunk of bands at a time; a ``dt``
    whose frequencies (or a band's sum of them) overflow is named."""
    n_bands = n // 2 // band_width
    omegas = np.empty(n_bands)
    rows = max(1, _BLOCK // 16 // band_width)
    try:
        with np.errstate(over="raise"):
            for r0 in range(0, n_bands, rows):
                r1 = min(r0 + rows, n_bands)
                w = 2.0 * np.pi * np.arange(r0 * band_width + 1,
                                            r1 * band_width + 1) / (n * dt)
                omegas[r0:r1] = w.reshape(r1 - r0, band_width).mean(axis=1)
    except FloatingPointError:
        raise ValueError(f"dt={dt} too small: the frequencies near pi/dt "
                         "overflow") from None
    return omegas


def _four_step_rows(n: int) -> int:
    """Rows of the four-step transform of ``n`` points, nearest 512 (columns
    that stay in cache), or 0 for the whole-array one: odd ``n``, ``n <
    _FOUR_STEP_MIN``, or no split of ``n/2`` into factors of at least 64."""
    m = n // 2
    if n % 2 or n < _FOUR_STEP_MIN:
        return 0
    rows = [d for d in range(64, math.isqrt(m) + 1) if m % d == 0]
    return min(rows + [m // d for d in rows], key=lambda d: abs(d - 512),
               default=0)


def _four_step_sums(y: np.ndarray, n1: int, band_width: int) -> np.ndarray:
    """Band sums of ``|X_k|^2``, ``X`` the real FFT of ``y``, taken in place.

    Bailey's four steps give the complex FFT ``Z`` of ``y`` read as ``m =
    n/2`` values in an ``(n1, m/n1)`` view, bin ``k1 + n1 k2`` at ``[k1,
    k2]``.  Numerical Recipes' split (§12.3) forms ``X_k = E + w_n^k O`` and
    ``X_(m-k) = conj(E - w_n^k O)``, where ``2E = Z_k + conj Z_(m-k)`` and
    ``2iO = Z_k - conj Z_(m-k)``, from a chunk of columns and its mirror.
    """
    n = y.size
    m, half, n2 = n // 2, n // 4, n // 2 // n1
    c2c = extension("fft._pocketfft", "pypocketfft", "FFT").c2c
    z = y.view(np.complex128).reshape(n1, n2)
    c2c(z, (0,), True, 0, z, 1)
    s = (m.bit_length() + 1) // 2          # w_m^e = hi[e >> s] lo[e % 2^s]
    hi = np.exp(-2j * np.pi * (np.arange((m >> s) + 1) << s) / m)
    lo = np.exp(-2j * np.pi * np.arange(1 << s) / m)
    span = max(d for d in range(1, math.isqrt(n2) + 1) if n2 % d == 0)
    rows = max(1, _BLOCK // 16 // n2)
    for r0 in range(1, n1, rows):
        k1 = np.arange(r0, min(r0 + rows, n1))[:, None]
        block = z[r0:r0 + k1.size].reshape(k1.size, -1, span)
        # column b = span i + j: w_m^(k1 b) = w_m^(k1 span i) w_m^(k1 j)
        for exp, axis in ((k1 * span * np.arange(n2 // span), 2),
                          (k1 * np.arange(span), 1)):
            block *= np.expand_dims(hi[exp >> s] * lo[exp & ((1 << s) - 1)],
                                    axis)
    c2c(z, (1,), True, 0, z, 1)
    if not _all_finite(y):         # an overflow inside pocketfft
        raise FloatingPointError
    sums = np.zeros(m // band_width)
    t1 = -0.5j * np.exp(-2j * np.pi * np.arange(n1) / n)    # w_n^k1 / 2i
    t2 = np.exp(-1j * np.pi * np.arange(n2) / n2)            # w_n^(n1 k2)
    cols = max(1, min(_BLOCK // 16 // n1, n2 // 2))
    e, d, w = (np.empty((n1, cols), np.complex128) for _ in range(3))
    p = e.reshape(-1).view(np.float64).reshape(2, cols * n1)  # e, reused
    for c0 in range(0, half // n1 + 1, cols):
        c1 = c0 + cols
        # bin m - k lies at [n1 - k1, n2 - 1 - k2], or at [0, -k2 % n2]
        np.conjugate(z[:0:-1, n2 - c1:n2 - c0][:, ::-1], out=e[1:])
        np.conjugate(z[0, -np.arange(c0, c1) % n2], out=e[0])
        np.subtract(z[:, c0:c1], e, out=d)
        e += z[:, c0:c1]
        e *= 0.5
        d *= t1[:, None]
        d *= t2[c0:c1]                                       # w_n^k O_k
        np.add(e, d, out=w)                                  # X_k
        np.subtract(e, d, out=d)                             # conj X_(m-k)
        for x, power in ((w, p[0]), (d, p[1])):
            np.square(x.view(np.float64), out=x.view(np.float64))
            np.add(x.real, x.imag, out=power.reshape(cols, n1).T)
        k0, top = n1 * c0, min(n1 * c1, m - half)
        # each run of bins first, first + 1, ... into its whole bands
        for first, run in ((max(k0, 1), p[0, max(1 - k0, 0):half + 1 - k0]),
                           (m - top + 1, p[1, :top - k0][::-1])):
            run = run[:max(sums.size * band_width + 1 - first, 0)]
            band, off = divmod(first - 1, band_width)
            if band_width == 1:
                sums[band:band + run.size] += run
            elif run.size:
                starts = np.arange(-off % band_width, run.size, band_width)
                seg = np.add.reduceat(run, np.r_[0, starts] if off else starts)
                sums[band:band + seg.size] += seg
    return sums


def _band_powers(y: np.ndarray, dt: float, band_width: int) -> np.ndarray:
    """Mean periodogram power of each whole band; transforms ``y`` in place.

    The powers of a chunk of whole bands are formed from the halfcomplex
    bins at a time, or from pairs of four-step bins where
    :func:`_four_step_rows` splits ``n``, so beside ``y`` only the FFT's
    scratch and one chunk are held.  The whole-array path runs under
    ``_SPECTRUM_LOCK``, from its transform to its last band.
    """
    n = y.size
    n1 = _four_step_rows(n)
    n_bands = n // 2 // band_width
    rows = max(1, _BLOCK // band_width)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if n1:
                return _four_step_sums(y, n1, band_width) / (n * dt) / band_width
            with _SPECTRUM_LOCK:
                # errstate does not see inside pocketfft: an overflow there
                # shows as a nonfinite bin
                if not _all_finite(_halfcomplex(y, True)):
                    raise FloatingPointError
                powers = np.empty(n_bands)
                for r0 in range(0, n_bands, rows):
                    r1 = min(r0 + rows, n_bands)
                    lo, hi = r0 * band_width + 1, r1 * band_width + 1   # bins
                    # bin j is y[2j-1] + 1j*y[2j]; an even n's last is real
                    p = y[2 * lo - 1:2 * hi - 1:2] ** 2
                    im = y[2 * lo:2 * hi:2]
                    p[:im.size] += im**2
                    p /= n * dt
                    powers[r0:r1] = p.reshape(r1 - r0, band_width).mean(axis=1)
    except FloatingPointError:
        raise ValueError("periodogram overflows: the FFT or its squared "
                         "amplitudes exceed the float64 range") from None
    return powers


def _band_spectrum(series: TimeSeries, band_width: int) -> AvgSpectrum:
    """Periodogram averaged over disjoint bands of ``band_width`` bins.

    ``band_average(periodogram(series), band_width)`` without the
    full-length periodogram, and with the FFT taken in place in
    ``series.values``, which it overwrites.  Each band is the same row mean
    over the same values as in :func:`band_average`, hence the same bits.
    It streams to save memory, not time: built whole, with the same bytes,
    the peak RSS of ``fig1 --n 8000000`` rose from 292.6 to 314.8 MB
    (median of 5 alternating runs; Python 3.11, numpy 2.4).
    """
    values = series.values
    n = values.size
    if n < 2:
        raise ValueError("periodogram needs at least 2 samples")
    band_width = _check_band_width(band_width, n // 2)
    return AvgSpectrum(omegas=_band_omegas(n, series.dt, band_width),
                       powers=_band_powers(values, series.dt, band_width))


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


def _pairwise_var(values: np.ndarray, mean: np.float64) -> np.float64:
    """``np.var`` of ``values``, whose ``np.mean`` is ``mean``, bit for bit
    and without its centered copy: each leaf's squared deviations are formed
    and summed in one reused buffer."""
    n = values.size
    buf = np.empty(min(n, _ACF_LEAF))

    def leaf(a, k):
        x = np.subtract(values[a:a + k], mean, out=buf[:k])
        return np.sum(np.square(x, out=x))

    return _tree_sum(n, (leaf(a, k) for a, k in _leaves(0, n))) / n


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
    # errstate is per thread, and fig2 calls this on a worker, so it is set
    # here rather than by the caller
    try:
        with np.errstate(over="raise", invalid="raise"):
            if np.ptp(values) == 0.0:
                # constant input: the exact answer is all zeros, and rounding
                # in the mean subtraction must not leave ~1e-30 dust behind
                cov = np.zeros(max_lag + 1)
            else:
                cov = _lag_sums(values, max_lag) / (2.0 * n)
    except FloatingPointError:
        raise ValueError("empirical_acf overflows: the lag sums exceed the "
                         "float64 range") from None
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
