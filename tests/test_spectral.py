import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import peak_rss_rise
from rednoise import spectral
from rednoise import (Ar1Driven, AvgSpectrum, DiffU, Fgn, GaussianStream,
                      Mixed, RedOuDt, TimeSeries, White, band_average,
                      empirical_acf, increments, loglog_slope, periodogram)


def _series(values, dt=1.0):
    return TimeSeries(dt, np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# periodogram
# ---------------------------------------------------------------------------

def test_periodogram_bins_and_fields():
    n, dt = 64, 0.25
    pg = periodogram(_series(GaussianStream(0).fill(n), dt))
    assert len(pg.omegas) == n // 2
    np.testing.assert_allclose(pg.omegas,
                               2 * np.pi * np.arange(1, 33) / (n * dt))
    assert np.all(pg.powers >= 0)


def test_periodogram_rejects_tiny_input():
    with pytest.raises(ValueError):
        periodogram(_series([1.0]))


def test_white_mean_power_matches_variance():
    # Parseval: the mean raw power equals the sample variance divided by dt
    incr = increments(White(), 0.5, 2 ** 20, GaussianStream(1))
    pg = periodogram(TimeSeries(incr.dt, incr.values))
    assert pg.powers.mean() == pytest.approx(incr.values.var() / 0.5, rel=0.02)
    # ... and in fact almost exactly, up to the Nyquist-bin bookkeeping
    assert pg.powers.mean() == pytest.approx(incr.values.var() / 0.5, rel=1e-4)


def test_pure_cosine_concentrates_in_its_bin():
    n, dt, j0 = 4096, 0.25, 57
    k = np.arange(n)
    omega0 = 2 * np.pi * j0 / (n * dt)
    pg = periodogram(_series(np.cos(omega0 * k * dt), dt))
    assert pg.powers[j0 - 1] / pg.powers.sum() >= 0.99


@pytest.mark.parametrize("kind,dt", [
    ("white", 0.1), ("red", 0.1), ("du", 0.1), ("mixed", 0.1), ("ar1", 1.0),
])
def test_periodogram_matches_exact_discrete_law(kind, dt):
    # the expected periodogram of each sampled model has a closed form in the
    # digital frequency nu = omega*dt; the estimator must track it across the
    # whole axis, Nyquist included
    models = {"white": White(), "red": RedOuDt(0.1), "du": DiffU(0.1),
              "mixed": Mixed(0.1, 0.5), "ar1": Ar1Driven(0.9)}
    n, bw = 2 ** 20, 1024
    incr = increments(models[kind], dt, n, GaussianStream(2))
    avg = band_average(periodogram(incr), bw)
    raw_nu = 2 * np.pi * np.arange(1, n // 2 + 1) / n
    expect = oracles.expected_periodogram(kind, dt, raw_nu)
    expect = expect[:len(avg.powers) * bw].reshape(-1, bw).mean(axis=1)
    rel = avg.powers / expect - 1.0
    assert abs(rel.mean()) < 0.01          # no systematic bias
    assert np.abs(rel).max() < 0.2         # per-band noise has sd ~ 1/32


# ---------------------------------------------------------------------------
# band averaging
# ---------------------------------------------------------------------------

def test_band_average_examples():
    pg = AvgSpectrum(np.array([1.0, 2.0, 3.0, 4.0]),
                     np.array([1.0, 2.0, 3.0, 4.0]))
    avg = band_average(pg, 2)
    np.testing.assert_allclose(avg.powers, [1.5, 3.5])
    np.testing.assert_allclose(avg.omegas, [1.5, 3.5])


def test_spectrum_rejects_negative_power():
    with pytest.raises(ValueError, match=r"nonnegative, got -0.5 at omega=2.0"):
        AvgSpectrum(np.array([1.0, 2.0, 3.0]), np.array([1.0, -0.5, 2.0]))


def test_band_average_identity_and_counts():
    pg = periodogram(_series(GaussianStream(3).fill(20000)))
    ident = band_average(pg, 1)
    np.testing.assert_array_equal(ident.powers, pg.powers)
    np.testing.assert_array_equal(ident.omegas, pg.omegas)
    assert len(band_average(pg, 1000).powers) == 10
    # trailing partial band is dropped
    assert len(band_average(pg, 3000).powers) == 3


def test_band_average_rejects_oversized_band():
    pg = periodogram(_series(GaussianStream(4).fill(64)))
    with pytest.raises(ValueError):
        band_average(pg, 33)
    with pytest.raises(ValueError):
        band_average(pg, 0)


def test_band_average_preserves_covered_mean():
    pg = periodogram(_series(GaussianStream(5).fill(2002)))
    bw = 7
    avg = band_average(pg, bw)
    covered = pg.powers[:len(avg.powers) * bw]
    assert avg.powers.mean() == pytest.approx(covered.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# streamed band spectrum
# ---------------------------------------------------------------------------

def _same_bits(series, band_width):
    # the streamed body (on a copy, which its FFT overwrites) against
    # band_average of the whole-array periodogram, at this band width and at
    # band width 1 (the periodogram itself)
    handed = _series(series.values.copy(), series.dt)
    for got, bw in ((spectral._band_spectrum(handed, band_width), band_width),
                    (periodogram(series), 1)):
        ref = band_average(oracles.periodogram_reference(series), bw)
        assert got.omegas.tobytes() == ref.omegas.tobytes()
        assert got.powers.tobytes() == ref.powers.tobytes()


# 75,000 and 75,001 bins: with 1000-bin bands, band 65 holds bins
# 65,001..66,000 and so straddles bin 2**16 = 65,536
@pytest.mark.parametrize("n", [150_001, 150_002])
@pytest.mark.parametrize("bw", [1, 3, 1000, "half"])
def test_band_spectrum_is_band_average_bit_for_bit(n, bw):
    series = _series(GaussianStream(n).fill(n), 0.1)
    _same_bits(series, n // 2 if bw == "half" else bw)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3000), bw=st.integers(1, 1500),
       chunk=st.integers(1, 200), dt=st.floats(1e-3, 1e3))
def test_band_spectrum_matches_for_any_chunking(n, bw, chunk, dt):
    # small chunks put many chunk edges, and a partial last chunk, in range
    series = _series(GaussianStream(n).fill(n) * 1e3, dt)
    with patch.object(spectral, "_BLOCK", chunk):
        _same_bits(series, min(bw, n // 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 4097, 8192, 65537, 100003,
                               2**19, 2**21 + 1])
@pytest.mark.parametrize("bw", [1, 7, 1000])
def test_in_place_fft_has_the_bits_of_numpys_rfft(n, bw):
    # the halfcomplex transform against the body written on np.fft.rfft:
    # even and odd n (a real Nyquist bin or none), prime n (pocketfft's
    # Bluestein path), bands straddling chunk edges, and even n that split
    # but are too short for the four-step path (2**19, below its 2**20 floor)
    assert spectral._four_step_rows(n) == 0
    bw = min(bw, n // 2)
    values = GaussianStream(n).fill(n) * 3.0
    want = oracles.band_spectrum_rfft(_series(values, 0.1), bw)
    handed = values.copy()
    got = spectral._band_spectrum(_series(handed, 0.1), bw)
    assert got.omegas.tobytes() == want.omegas.tobytes()
    assert got.powers.tobytes() == want.powers.tobytes()
    assert handed.tobytes() != values.tobytes()        # transformed in place
    pg = periodogram(_series(values, 0.1))
    want = oracles.band_spectrum_rfft(_series(values, 0.1), 1)
    assert pg.powers.tobytes() == want.powers.tobytes()
    assert pg.omegas.tobytes() == want.omegas.tobytes()
    assert values.tobytes() == (GaussianStream(n).fill(n) * 3.0).tobytes()


def test_band_spectrum_rejects_what_the_reference_rejects():
    with pytest.raises(ValueError, match="at least 2 samples"):
        spectral._band_spectrum(_series([1.0]), 1)
    series = _series(GaussianStream(4).fill(64))
    for bw in (0, 33):
        with pytest.raises(ValueError, match="band_width"):
            spectral._band_spectrum(series, bw)


# ---------------------------------------------------------------------------
# autocovariance estimation
# ---------------------------------------------------------------------------

def test_acf_ar1_correlation_profile():
    x = increments(Ar1Driven(0.9), 1.0, 2_000_000, GaussianStream(6))
    est = empirical_acf(TimeSeries(1.0, x.values), 20, mode="correlation")
    np.testing.assert_array_equal(est.lags, np.arange(21))
    assert est.values[0] == 1.0
    for m in range(1, 21):
        assert est.values[m] == pytest.approx(0.9 ** m, abs=0.01)


def test_acf_covariance_mode_scale():
    x = increments(Ar1Driven(0.8), 1.0, 500_000, GaussianStream(7))
    est = empirical_acf(TimeSeries(1.0, x.values), 5, mode="covariance")
    assert est.values[0] == pytest.approx(x.values.var(), rel=1e-10)


def test_acf_constant_series():
    series = _series(np.full(1000, 3.7))
    est = empirical_acf(series, 10, mode="covariance")
    np.testing.assert_array_equal(est.values, np.zeros(11))
    with pytest.raises(ValueError):
        empirical_acf(series, 10, mode="correlation")


def test_acf_reversal_is_bitwise_identical():
    incr = increments(RedOuDt(0.1), 0.1, 10_001, GaussianStream(8))
    fwd = TimeSeries(0.1, incr.values)
    rev = TimeSeries(0.1, incr.values[::-1].copy())
    for mode in ("covariance", "correlation"):
        a = empirical_acf(fwd, 50, mode=mode)
        b = empirical_acf(rev, 50, mode=mode)
        np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("leaf", [2**12, 2**14, 2**16])
def test_acf_matches_whole_array_oracle_bit_for_bit(monkeypatch, leaf):
    # the leafwise sums follow numpy's own pairwise tree, so at any leaf
    # size they give the bytes of np.sum over the full-length palindromes;
    # a numpy that changes its summation tree fails here.  Lags below n/10,
    # up to 24; then 2000 lags, whose trees split far apart
    monkeypatch.setattr(spectral, "_BLOCK", leaf)
    stream = GaussianStream(12)
    cases = [(n, min(-(-n // 10) - 1, 24))
             for n in (11, 127, 128, 129, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 5,
                       1_000_003)] + [(20_011, 2_000)]
    for n, max_lag in cases:
        values = 2.5 + 0.3 * stream.fill(n)
        for mode in ("covariance", "correlation"):
            got = empirical_acf(_series(values), max_lag, mode=mode).values
            want = oracles.empirical_acf_reference(values, max_lag, mode)
            assert got.tobytes() == want.tobytes(), (leaf, n, mode)


def test_acf_holds_no_full_length_array():
    # beyond its input the estimator holds four buffers of about one leaf
    # each (two products, and two centered windows an eighth of a leaf and
    # max_lag points longer) and a little bookkeeping, not a single array of
    # the input's length
    n, max_lag = 2**20, 20
    series = _series(GaussianStream(13).fill(n))
    tracemalloc.start()
    try:
        empirical_acf(series, max_lag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaf = 8 * spectral._BLOCK
    assert peak <= 4.5 * leaf, peak / leaf
    assert peak < 8 * n / 2


def test_acf_lag_budget():
    series = _series(GaussianStream(9).fill(1000))
    empirical_acf(series, 99)
    with pytest.raises(ValueError):
        empirical_acf(series, 100)
    with pytest.raises(ValueError):
        empirical_acf(series, -1)
    with pytest.raises(ValueError):
        empirical_acf(series, 10, mode="median")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e300, 1e306])
def test_overflowing_sums_raise_naming_the_estimator(scale):
    # finite input whose squares (at 1e300 also its range, at 1e306 its FFT)
    # overflow: one ValueError that names the estimator, no numpy warning,
    # and the caller's floating-point error state left as it was
    series = _series(GaussianStream(10).fill(4000) * scale)
    before = np.geterr()
    for mode in ("covariance", "correlation"):
        with pytest.raises(ValueError, match="^empirical_acf overflows: "):
            empirical_acf(series, 10, mode=mode)
    with pytest.raises(ValueError, match="^periodogram overflows: "):
        periodogram(series)
    with pytest.raises(ValueError, match="^periodogram overflows: "):
        spectral._band_spectrum(series, 7)
    assert np.geterr() == before


def _near_max(n):
    values = np.abs(GaussianStream(11).fill(n))
    return values * (1e308 / values.max())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [
    _near_max(4000),
    # only bin 0 overflows; every other bin is exactly 0, so no squared
    # amplitude does
    np.full(4096, 5e304),
], ids=["near-1e308", "bin-0-only"])
def test_overflowing_fft_raises_naming_the_periodogram(values):
    # finite input whose FFT itself overflows: pocketfft is no numpy ufunc,
    # so errstate does not see it, and the transformed values are checked
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.fft.rfft(values)[0])
    before = np.geterr()
    with pytest.raises(ValueError, match="^periodogram overflows: "):
        periodogram(_series(values))
    for bw in (1, 7):
        with pytest.raises(ValueError, match="^periodogram overflows: "):
            spectral._band_spectrum(_series(values.copy()), bw)
    assert np.geterr() == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dt, band_width", [
    (1e-320, 1), (5e-324, 7),
    # pi/dt is finite, but a band's sum of two bins near it is not
    (3.2e-308, 2),
])
def test_tiny_dt_rejected_by_name_before_the_fft(dt, band_width):
    # the frequencies near pi/dt overflow: the step is named, not the
    # periodogram, and the values are not transformed
    x = GaussianStream(12).fill(1000)
    series = _series(x.copy(), dt)
    before = np.geterr()
    message = f"^dt={dt} too small: the frequencies near pi/dt overflow$"
    if band_width == 1:
        with pytest.raises(ValueError, match=message):
            periodogram(series)
    with pytest.raises(ValueError, match=message):
        spectral._band_spectrum(series, band_width)
    assert series.values.tobytes() == x.tobytes()
    assert np.geterr() == before


def test_acf_checks_mode_before_reading_the_series():
    # a bad mode is rejected up front, not after max_lag + 1 full passes
    class Unread:
        @property
        def values(self):
            raise AssertionError("series read before mode was checked")
    with pytest.raises(ValueError, match="'median'"):
        empirical_acf(Unread(), 10, mode="median")


# ---------------------------------------------------------------------------
# four-step band spectrum
# ---------------------------------------------------------------------------

@pytest.fixture
def four_step(monkeypatch):
    """Every even length whose half splits takes the four-step path."""
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)


def _matches_rfft(values, bw, dt=0.1):
    # frequencies bit for bit, powers within 1e-12 of the largest band
    want = oracles.band_spectrum_rfft(_series(values, dt), bw)
    got = spectral._band_spectrum(_series(values.copy(), dt), bw)
    assert got.omegas.tobytes() == want.omegas.tobytes()
    err = np.abs(got.powers - want.powers).max()
    assert err <= 1e-12 * want.powers.max(), err / want.powers.max()
    return got, want


@pytest.mark.parametrize("n, rows", [(2 * 64 * 64, 64), (2 * 64 * 200, 200),
                                     (2 * 97 * 1009, 97), (2**17, 512),
                                     (200_000, 500)])
@pytest.mark.parametrize("bw", [1, 3, 1000])
def test_four_step_band_spectrum_matches_rfft(four_step, n, rows, bw):
    # a square split, more rows than columns and fewer, a prime row count,
    # and bands of 1 bin, whose last is the real Nyquist bin
    assert spectral._four_step_rows(n) == rows
    values = GaussianStream(n).fill(n) * 3.0
    got, want = _matches_rfft(values, bw)
    if bw == 1:
        assert got.powers[-1] == pytest.approx(want.powers[-1], rel=1e-12)


@pytest.mark.parametrize("bw", [1, 7, 1000])
def test_four_step_at_the_shipped_floor_matches_rfft(bw):
    # unpatched, fig1 --quick's 2**21 takes the four-step path, as does the
    # floor 2**20, and a split length just below the floor does not
    assert spectral._four_step_rows(2**20) == 512
    assert spectral._four_step_rows(2**20 - 128) == 0
    n = 2**21
    assert spectral._four_step_rows(n) == 512
    _matches_rfft(GaussianStream(n).fill(n) * 3.0, bw)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(64, 150), n2=st.integers(64, 150),
       bw=st.integers(1, 3000), block=st.integers(16, 2**15),
       dt=st.floats(1e-3, 1e3))
def test_four_step_matches_rfft_for_any_chunking(n1, n2, bw, block, dt):
    # chunks of whole columns and runs of bins that start and end inside
    # bands, on both sides of each pair (k, m - k)
    n = 2 * n1 * n2
    values = GaussianStream(n).fill(n) * 1e3
    with patch.object(spectral, "_FOUR_STEP_MIN", 2), \
            patch.object(spectral, "_BLOCK", block):
        assert spectral._four_step_rows(n)
        _matches_rfft(values, min(bw, n // 2), dt)


@pytest.mark.parametrize("n, rows", [(2, 0), (3, 0), (17, 0), (4097, 0),
                                     (2**17 + 1, 0), (2 * 64 * 64, 64),
                                     (2 * 97 * 1009, 97), (2**17, 512)])
def test_rfft_puts_each_bin_at_its_documented_slot(monkeypatch, n, rows):
    # bin k at [(k - first) % n1, (k - first) // n1], bins 0 and n/2 in
    # ends: numpy's bits on the whole-array path, within 1e-12 of the
    # largest on a square, a prime-row and a 512-row four-step split; and
    # _irfft undoes the transform, times n
    if rows:
        monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    assert spectral._four_step_rows(n) == rows
    x = GaussianStream(n).fill(n)
    want = np.fft.rfft(x)
    y = x.copy()
    z, first, ends = spectral._rfft(y)
    n1 = z.shape[0]
    assert (n1, first) == ((rows, 0) if rows else (1, 1))
    assert np.shares_memory(ends, y)                    # in place
    assert n == 2 or np.shares_memory(z, y)             # z is empty at n = 2
    assert ends.size == 2 - n % 2
    k = np.arange(1, (n + 1) // 2)          # the bins with an imaginary part
    got = np.r_[ends[:1], z[(k - first) % n1, (k - first) // n1], ends[1:]]
    back = spectral._irfft(y, z, first)
    assert back is y
    if rows:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(y - n * x).max() <= 1e-12 * n * np.abs(x).max()
    else:
        assert got.tobytes() == want.tobytes()
        assert y.tobytes() == np.fft.irfft(want, n, norm="forward").tobytes()


@pytest.mark.parametrize("n", [2 * 64 * 64, 2 * 97 * 1009, 2**17])
@pytest.mark.parametrize("bw", [1, 3, 1000])
def test_four_step_band_powers_are_band_means_of_its_bins(four_step, n, bw):
    # one formula on both paths: each band is band_average's mean of the
    # periodogram of _rfft's own bins, bit for bit
    dt = 0.1
    x = GaussianStream(n).fill(n) * 3.0
    z, first, ends = spectral._rfft(x.copy())
    n1 = z.shape[0]
    k = np.arange(1, n // 2 + 1) - first
    bins = np.r_[z[k[:-1] % n1, k[:-1] // n1], ends[1]]
    pg = AvgSpectrum(omegas=2 * np.pi * np.arange(1, n // 2 + 1) / (n * dt),
                     powers=(bins.real**2 + bins.imag**2) / (n * dt))
    got = spectral._band_spectrum(_series(x, dt), bw)
    assert got.powers.tobytes() == band_average(pg, bw).powers.tobytes()


def test_short_odd_and_unsplit_lengths_keep_the_whole_array_path(monkeypatch):
    # odd n, m = n/2 with no split into two factors of at least 64, and n
    # below the length floor
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 10_000)
    for n in (2 * 64 * 79 + 1, 2 * 61 * 101, 2 * 2 * 8191, 2 * 64 * 78):
        assert spectral._four_step_rows(n) == 0
    assert spectral._four_step_rows(2 * 64 * 79) == 79


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [
    _near_max(8192),
    np.full(8192, 5e304),
    GaussianStream(10).fill(8192) * 1e160,
], ids=["near-1e308", "bin-0-only", "squares"])
def test_four_step_overflow_raises_naming_the_periodogram(four_step, values):
    # an FFT bin that overflows inside pocketfft, where errstate does not
    # see it, or squared amplitudes that overflow in numpy
    before = np.geterr()
    for bw in (1, 7):
        with pytest.raises(ValueError, match="^periodogram overflows: "):
            spectral._band_spectrum(_series(values.copy()), bw)
    assert np.geterr() == before


@pytest.mark.parametrize("step", [2, -1, -3])
@pytest.mark.parametrize("path_min", [2, 10**9], ids=["four-step", "whole"])
def test_strided_series_gives_the_bytes_of_its_contiguous_copy(
        monkeypatch, step, path_min):
    # a view with any stride, on either path, is transformed as its copy
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", path_min)
    n = 2 * 64 * 80
    drawn = GaussianStream(15).fill(abs(step) * n)
    assert bool(spectral._four_step_rows(n)) == (path_min == 2)
    for bw in (1, 7):
        x = drawn.copy()[::step]     # the spectrum overwrites its input
        assert x.size == n and not x.flags.c_contiguous
        got = spectral._band_spectrum(_series(x), bw)
        want = spectral._band_spectrum(_series(drawn[::step].copy()), bw)
        assert got.powers.tobytes() == want.powers.tobytes()
        assert got.omegas.tobytes() == want.omegas.tobytes()


def test_psd_peak_rss_per_sample_at_a_four_step_length(tmp_path):
    # psd of 2**21 points, on the four-step path with the shipped floor: the
    # peak RSS rises by the input read (8 bytes per sample) and bounded
    # scratch (8.3 in all); the whole-array FFT, which holds two more arrays
    # of the input's length, rose 24
    n = 2**21
    assert spectral._four_step_rows(n)
    for name, size in (("small", 4096), ("long", n)):
        values = GaussianStream(4).fill(size).astype("<f8")
        values.tofile(tmp_path / f"{name}.f64le")

    def psd(name):
        argv = ["psd", "--in", str(tmp_path / f"{name}.f64le"), "--dt", "1",
                "--band-width", "100", "--out", str(tmp_path / f"{name}.csv")]
        return f"main({argv!r})"

    rise = peak_rss_rise("from rednoise.cli import main\n" + psd("small"),
                         psd("long")) / n
    assert rise <= 12, rise


def test_four_step_scratch_does_not_grow_with_n(four_step):
    # beside its input the four-step path holds a chunk of bins, a piece of
    # a row and a few tables, not the two input-length arrays of the
    # whole-array transform; four times the length (512 rows either way,
    # half rows of 2048 columns at 2**22) leaves the traced scratch within
    # 10% (1.05 seen; 1.17 for the split a chunk of whole columns at a time)
    peaks = []
    for n in (2**20, 2**22):
        series = _series(GaussianStream(14).fill(n))
        assert spectral._four_step_rows(n) == 512
        tracemalloc.start()
        try:
            spectral._band_spectrum(series, 1000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.05 * 8 * 2**20, peaks[0] / (8 * 2**20)
    assert peaks[1] <= 1.1 * peaks[0], peaks[1] / peaks[0]


@pytest.mark.parametrize("n1, n2", [
    (64, 64),       # square: the self-paired bin m/2 in row 0
    (64, 65),       # even by odd: bin m/2 mid-row, in row n1/2
    (65, 64),       # odd by even: bin m/2 in row 0
    (127, 129),     # prime by odd: no self-paired bin
    (67, 2048),     # prime by even
    (500, 3001),    # more rows than half a row's columns, odd n2
])
@pytest.mark.parametrize("cols", [7, 2048])
@pytest.mark.parametrize("forward", [True, False], ids=["fwd", "bwd"])
def test_four_step_split_has_the_bits_of_the_column_split(monkeypatch, n1, n2,
                                                          cols, forward):
    # row by row, in pieces of any width (7 columns puts piece ends beside
    # bin m/2 and row 0's shifted partner), each pair gets the bytes of
    # the split a chunk of whole columns at a time
    monkeypatch.setattr(spectral, "_SPLIT_COLS", cols)
    stream = GaussianStream(n1 * n2)
    z = stream.fill(2 * n1 * n2).view(np.complex128).reshape(n1, n2) * 3.0
    want = oracles.four_step_split_columns(z.copy(), forward)
    got = z.copy()
    assert spectral._four_step_split(got, forward) is got
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 2**16 - 1, 2**16 + 1, 200_003])
def test_pairwise_mean_and_var_have_numpys_bits(n):
    # generate's statistics: np.mean itself, and np.var on numpy's own
    # pairwise tree, a leaf at a time
    values = 2.5 + 0.3 * GaussianStream(n).fill(n)
    assert spectral._pairwise_var(values, np.mean(values)).tobytes() == \
        np.var(values).tobytes()


def test_pairwise_var_holds_no_centered_copy():
    n = 2**20
    values = GaussianStream(15).fill(n)
    tracemalloc.start()
    try:
        spectral._pairwise_var(values, np.mean(values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * spectral._BLOCK, peak


# ---------------------------------------------------------------------------
# log-log slope fitting
# ---------------------------------------------------------------------------

def test_slope_recovers_exact_power_law():
    omegas = np.geomspace(0.1, 100.0, 64)
    spec = AvgSpectrum(omegas, 5.0 * omegas ** -1.3)
    slope, intercept = loglog_slope(spec, 0.1, 100.0)
    assert slope == pytest.approx(-1.3, abs=1e-10)
    assert intercept == pytest.approx(np.log(5.0), abs=1e-10)


def test_slope_red_noise_inverse_square():
    incr = increments(RedOuDt(0.1), 0.1, 2 ** 20, GaussianStream(10))
    avg = band_average(periodogram(incr), 1024)
    slope, _ = loglog_slope(avg, 1.0, 10.0)
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_slope_fgn_mid_band():
    incr = increments(Fgn(0.7), 1.0, 2 ** 18, GaussianStream(11))
    avg = band_average(periodogram(incr), 256)
    slope, _ = loglog_slope(avg, 0.01 * np.pi, 0.3 * np.pi)
    assert slope == pytest.approx(-0.4, abs=0.05)


def test_slope_white_flat():
    incr = increments(White(), 1.0, 2 ** 20, GaussianStream(12))
    avg = band_average(periodogram(incr), 1024)
    slope, _ = loglog_slope(avg, 0.1, 3.0)
    assert slope == pytest.approx(0.0, abs=0.05)


def test_slope_preconditions():
    omegas = np.geomspace(0.1, 100.0, 64)
    spec = AvgSpectrum(omegas, omegas ** -2.0)
    with pytest.raises(ValueError):
        loglog_slope(spec, 0.1, 0.15)          # fewer than 8 bands in window
    powers = omegas ** -2.0
    powers[30] = 0.0
    with pytest.raises(ValueError):
        loglog_slope(AvgSpectrum(omegas, powers), 0.1, 100.0)
