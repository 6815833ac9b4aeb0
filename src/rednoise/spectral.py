"""Spectral and correlation estimators for increment series.

The periodogram here is normalized so that for Brownian increments
(``dY = sqrt(dt) z``) its expected value is 1 at every frequency, matching
the flat unit density that plays the role of the white-noise reference:
``P(omega_j) = |FFT(dY)_j|^2 / (n dt)`` at ``omega_j = 2 pi j / (n dt)``,
``j = 1 .. n//2`` (the zero frequency is dropped).  No taper is applied;
variance reduction comes from band averaging.

The FFT is pocketfft's, run in place through scipy's compiled
``pypocketfft`` extension alone (loaded at the first FFT in about 1 ms,
without the ``scipy.fft`` package), for the band spectra here and for the
fGn sampler's 2n-point embedding (``models``).  ``_rfft`` and ``_irfft``
take one of two paths and give both one bin layout, so their callers have
one body.  Odd ``n``, ``n`` below ``_FOUR_STEP_MIN`` (2^20) and an ``n/2``
with no split into two factors of at least 64 take the whole-array real
FFT: numpy vendors the same kernel, so every bin has the bits of
``np.fft.rfft``, but pocketfft holds two more arrays of the input's length
(under 16 MiB together below the floor), so one such transform runs at a
time, whichever command takes it (``_SPECTRUM_LOCK``).  The rest take a
four-step FFT, whose scratch does not grow with ``n``: its twiddles go a
block of rows at a time, and its split into the real FFT's bins a piece
of a row at a time, on 1-D slices that need no numpy iterator buffer; its
band powers lie within 1e-12 of the largest band power of
``np.fft.rfft``'s (about 1e-15 is seen), not bit for bit.  Both release
the interpreter lock, so ``fig1`` samples one model while another's
spectrum is formed.
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
# Shortest even series that takes the four-step transform.  Below it the
# whole-array FFT keeps numpy's bits, and pocketfft's two extra arrays stay
# under 16 MiB together.  From it they are saved: `psd --band-width 100` of
# 2^21 and 3e6 points peaks at 47.1 and 54.1 MB against 78.5 and 99.2, in
# 0.208 and 0.218 s against 0.217 and 0.227 (medians of 10 alternating
# pairs; numpy 2.4), though one spectrum in process takes 56 against 47 ms
# at 2^21.  A floor of 2^16 took `theorem --replicas 256`, whose replicas
# hold 1e5 points, from 0.93 to 1.04 s.
_FOUR_STEP_MIN = 1 << 20
# One whole-array real FFT at a time, held by _rfft and _irfft around the
# transform alone: pocketfft's holds two more arrays of its input's length
# (odd, unsplit or below 2^20 points), so two at once would double the
# peak.  The four-step transform's scratch does not grow with n; no lock.
_SPECTRUM_LOCK = threading.Lock()
# Most columns of a row that _four_step_split forms at a time: two buffers
# of 32 KiB, which stay in cache.
_SPLIT_COLS = 2048


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
    real Nyquist bin), so the bins from 1 are complex values at ``y[1:]``.
    Backward, that layout becomes the real sequence of ``np.fft.irfft(...,
    n, norm="forward")``, without the 1/n.  Both run pocketfft's real
    kernel, which numpy vendors too, so the bits are numpy's.  The
    transform holds no output array of its own, only pocketfft's scratch
    (two arrays of n values; hence ``_SPECTRUM_LOCK``, which its only
    callers, :func:`_rfft` and :func:`_irfft`, hold) and its plan, which
    pocketfft keeps cached after the call, and it releases the interpreter
    lock.  pocketfft is not a numpy ufunc: ``np.errstate`` does not see an
    overflow inside it.
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


def _four_step(z: np.ndarray, forward: bool) -> np.ndarray:
    """Bailey's four-step FFT of the ``m`` values of the C-contiguous complex
    ``(n1, m/n1)`` array ``z``, read row by row, in place; returns ``z``.
    Forward, ``c2c`` along axis 0, the twiddles ``w_m^(k1 b)`` and ``c2c``
    along axis 1 take value ``n2 a + b`` at ``[a, b]`` to bin ``k1 + n1 k2``
    at ``[k1, k2]``; backward undoes them, without the 1/m."""
    m, (n1, n2) = z.size, z.shape
    c2c = extension("fft._pocketfft", "pypocketfft", "FFT").c2c
    c2c(z, (0 if forward else 1,), forward, 0, z, 1)
    s = (m.bit_length() + 1) // 2          # w_m^e = hi[e >> s] lo[e % 2^s]
    hi = np.exp(-2j * np.pi * (np.arange((m >> s) + 1) << s) / m)
    lo = np.exp(-2j * np.pi * np.arange(1 << s) / m)
    if not forward:
        hi, lo = hi.conj(), lo.conj()
    span = max(d for d in range(1, math.isqrt(n2) + 1) if n2 % d == 0)
    rows = max(1, _BLOCK // 4 // n2)
    for r0 in range(1, n1, rows):
        k1 = np.arange(r0, min(r0 + rows, n1))[:, None]
        block = z[r0:r0 + k1.size].reshape(k1.size, -1, span)
        # column b = span i + j: w_m^(k1 b) = w_m^(k1 span i) w_m^(k1 j)
        for exp, axis in ((k1 * span * np.arange(n2 // span), 2),
                          (k1 * np.arange(span), 1)):
            block *= np.expand_dims(hi[exp >> s] * lo[exp & ((1 << s) - 1)],
                                    axis)
    c2c(z, (1 if forward else 0,), forward, 0, z, 1)
    return z


def _four_step_split(z: np.ndarray, forward: bool) -> np.ndarray:
    """Numerical Recipes' split (§12.3), in place, of :func:`_four_step`'s
    bins ``Z`` of n real values read as ``m = n/2`` complex ones: forward,
    their real FFT's ``X_k`` to bin k's slot and ``X_0 + 1j*X_m`` to slot 0;
    backward, from them, ``2 Z``, whose backward :func:`_four_step` is n
    times the real sequence.  Returns ``z``.  Each pair ``(k, m - k)`` with
    ``0 < k <= m/2`` is formed once, from its ``k`` side: ``2e = Z_k + conj
    Z_(m-k)`` and ``d = w_n^k (Z_k - conj Z_(m-k)) / 2i`` give ``e + d =
    X_k`` and ``e - d = conj X_(m-k)`` (backward, with conjugate twiddles
    and no halving, ``2 Z_k`` and ``2 conj Z_(m-k)``).  Row r's bins
    ``k = r + n1 k2 <= m/2`` are the front of the row, and their partners
    the back of row ``n1 - r`` read backwards; row 0 pairs column k2 with
    column ``n2 - k2`` and leaves bin 0 to the last line.  So every operand
    is a 1-D slice of a row, which numpy runs without an iterator buffer.
    A row goes in even pieces of at most ``_SPLIT_COLS`` columns, so the
    scratch does not grow with n; no piece is one column long unless its
    row is, since numpy multiplies one value in place without the fused
    multiply-add of its vector loop.  The self-paired bin m/2, in row 0 or
    row n1/2, is written as ``X_k``, then as its partner."""
    (n1, n2), m = z.shape, z.size
    t1 = -0.5j * np.exp(-2j * np.pi * np.arange(n1) / (2 * m))  # w_n^k1 / 2i
    t2 = np.exp(-1j * np.pi * np.arange(n2) / n2)                # w_n^(n1 k2)
    if not forward:
        t1, t2 = 2 * t1.conj(), t2.conj()
    e, d = (np.empty(min(_SPLIT_COLS, n2 // 2 + 1), np.complex128)
            for _ in range(2))
    s = z[0, 0]
    for r in range(n1):
        back = z[-r, ::-1]                  # bin m - k at back[k2 - shift]
        shift = 0 if r else 1
        cols = (m // 2 - r) // n1 + 1 - shift
        pieces = -(-cols // e.size)
        cuts = [shift + cols * i // pieces for i in range(pieces + 1)]
        for a, b in zip(cuts, cuts[1:]):
            zk, zm = z[r, a:b], back[a - shift:b - shift]
            ee, dd = e[:b - a], d[:b - a]
            np.conjugate(zm, out=ee)
            np.subtract(zk, ee, out=dd)
            ee += zk
            if forward:
                ee *= 0.5
            dd *= t1[r]
            dd *= t2[a:b]
            np.add(ee, dd, out=zk)
            np.subtract(ee, dd, out=ee)
            np.conjugate(ee, out=zm)
    z[0, 0] = complex(s.real + s.imag, s.real - s.imag)
    return z


def _rfft(y: np.ndarray):
    """Real FFT of the 1-D float64 ``y``, in place (in a contiguous copy if
    ``y`` is strided), as ``(z, first, ends)``: ``z`` is a complex ``(n1,
    n2)`` view that holds bin k of ``np.fft.rfft(y)`` at ``[(k - first) %
    n1, (k - first) // n1]``, and ``ends`` a float view of bin 0 and, for
    even n, the real bin n/2, one slot past ``z``'s last.  Where
    :func:`_four_step_rows` splits n, that is :func:`_four_step` and its
    split, within 1e-12 of the largest bin of numpy's: ``first = 0``, and
    ``ends`` is slot 0, which packs bins 0 and n/2.  Elsewhere it is
    :func:`_halfcomplex`, under ``_SPECTRUM_LOCK``, with numpy's bits:
    ``n1 = 1``, ``first = 1`` and ``z`` is ``y[1:n - 1 + n % 2]``."""
    y = np.ascontiguousarray(y)
    n = y.size
    n1 = _four_step_rows(n)
    if n1:
        z = _four_step_split(
            _four_step(y.view(np.complex128).reshape(n1, -1), True), True)
        return z, 0, z.reshape(-1)[:1].view(np.float64)
    with _SPECTRUM_LOCK:
        _halfcomplex(y, True)
    return (y[1:n - 1 + n % 2].view(np.complex128)[None], 1,
            y[:1] if n % 2 else y[::n - 1])


def _irfft(y: np.ndarray, z: np.ndarray, first: int) -> np.ndarray:
    """Undo :func:`_rfft` of the contiguous ``y``, from the bins written into
    its ``z`` and ``ends``: ``y`` becomes ``np.fft.irfft(..., n,
    norm="forward")``, without the 1/n; returns ``y``."""
    if first:
        with _SPECTRUM_LOCK:
            _halfcomplex(y, False)
    else:
        _four_step(_four_step_split(z, False), False)
    return y


def _band_powers(y: np.ndarray, dt: float, band_width: int) -> np.ndarray:
    """Mean periodogram power of each whole band; transforms ``y`` in place.

    The bins of :func:`_rfft` are read a chunk of whole bands (about
    ``_BLOCK // 8`` bins) at a time, as a block of ``z``'s columns, so
    beside ``y`` only the FFT's scratch and one chunk are held.
    """
    n = y.size
    n_bands = n // 2 // band_width
    rows = max(1, _BLOCK // 8 // band_width)
    powers = np.empty(n_bands)
    try:
        with np.errstate(over="raise", invalid="raise"):
            z, first, ends = _rfft(y)
            # errstate does not see inside pocketfft: an overflow there
            # shows as a nonfinite bin
            if not (_all_finite(z.reshape(-1).view(np.float64))
                    and _all_finite(ends)):
                raise FloatingPointError
            n1 = z.shape[0]
            for r0 in range(0, n_bands, rows):
                r1 = min(r0 + rows, n_bands)
                lo = r0 * band_width + 1 - first        # slots lo:hi
                hi = r1 * band_width + 1 - first
                c0 = lo // n1
                x = z[:, c0:-(-hi // n1)].T.reshape(-1)  # in bin order
                x = x[lo - n1 * c0:hi - n1 * c0]
                p = x.real ** 2
                p += x.imag ** 2
                if p.size < hi - lo:    # an even n's real bin n/2
                    p = np.append(p, ends[1] ** 2)
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
    ``series.values``, which it overwrites.  On either FFT path each band
    is the row mean of :func:`band_average` over the same periodogram, that
    of :func:`_rfft`'s bins, hence the same bits.
    It streams to save memory, not time: built whole, with the same bytes,
    the peak RSS of ``fig1 --n 8000000`` rose from 292.6 to 314.8 MB
    (median of 5 alternating runs; Python 3.11, numpy 2.4).  Beside
    ``series.values`` it holds the bands and the FFT's scratch: a few chunks
    of bins on the four-step path, else pocketfft's two arrays of n values.
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
