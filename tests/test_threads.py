"""Substream tasks on threads: ordered results and the bits of a serial run."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
import rednoise
import rednoise.figures as figures
import rednoise.spectral as spectral
import rednoise.streams as streams
from rednoise import (DiffU, GaussianStream, Mixed, RedOuDt, TimeSeries, White,
                      empirical_acf, increments, plateau_experiment,
                      restoring_run, spectra_run)
from rednoise.cli import main
from rednoise.streams import _map_substreams


@pytest.fixture(params=[1, 2, 4])
def threads(request, monkeypatch):
    """Run substream tasks on 1, 2 or 4 threads, switching between them
    every few microseconds."""
    monkeypatch.setattr(streams, "_THREADS", request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def _record_spawns(monkeypatch):
    """Collect every stream spawned from now on, in spawn order."""
    children = []
    spawn = GaussianStream.spawn

    def record(self, k):
        out = spawn(self, k)
        children.extend(out)
        return out

    monkeypatch.setattr(GaussianStream, "spawn", record)
    return children


# ---------------------------------------------------------------------------
# the ordered map
# ---------------------------------------------------------------------------

def test_results_come_in_job_order_when_an_earlier_job_finishes_last():
    second_done = threading.Event()
    finished = []

    def task(i):
        if i == 0:
            assert second_done.wait(10), "job 1 never ran beside job 0"
        finished.append(i)
        if i == 1:
            second_done.set()
        return 10 * i

    assert list(_map_substreams(task, range(6))) == [0, 10, 20, 30, 40, 50]
    assert finished[:2] == [1, 0]


def test_jobs_in_flight_stay_bounded(threads):
    started = []
    lock = threading.Lock()

    def task(i):
        with lock:
            started.append(i)
        return i

    for i, result in enumerate(_map_substreams(task, range(20))):
        assert result == i
        # job i is yielded: at most two later jobs per thread were submitted
        assert len(started) <= i + 1 + 2 * threads


@pytest.mark.filterwarnings("error")
def test_overflowing_acf_on_a_worker_raises_naming_the_estimator():
    # np.errstate is per thread, so the estimator sets its own: an overflow
    # on a substream worker, where fig2 takes its ACFs, is named, with no
    # numpy warning
    big = TimeSeries(1.0, GaussianStream(3).fill(2000) * 1e160)
    with pytest.raises(ValueError, match="^empirical_acf overflows: the lag "
                                         "sums exceed the float64 range$"):
        list(_map_substreams(lambda s: empirical_acf(s, 20), [big]))


def test_a_failing_job_raises_at_its_turn():
    def task(i):
        if i == 2:
            raise ValueError("job 2 failed")
        return i

    results = _map_substreams(task, range(8))
    assert next(results) == 0 and next(results) == 1
    with pytest.raises(ValueError, match="job 2 failed"):
        next(results)


# ---------------------------------------------------------------------------
# threaded pipelines against their serial loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 5])
def test_restoring_run_has_the_bits_of_the_serial_run(monkeypatch, threads, seed):
    n = 200_000
    children = _record_spawns(monkeypatch)
    want, serial = oracles.restoring_run_serial(0.8, 0.9, n, 20, seed)
    assert [s.count_drawn for s in serial] == [n - 2, 2 * (n - 1)]
    children.clear()
    got = restoring_run(psi=0.8, phi=0.9, n=n, max_lag=20, seed=seed)
    assert [s.count_drawn for s in children] == [n - 2, 2 * (n - 1)]
    assert got.burn_in == want.burn_in
    assert got.params_continuous == want.params_continuous
    for g, w in ((got.discrete, want.discrete), (got.continuous, want.continuous)):
        assert g.label == w.label and g.max_rel_dev == w.max_rel_dev
        for field in ("taus", "empirical", "theory"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_spectra_run_has_the_bits_of_the_serial_run(monkeypatch, threads, seed):
    # four models on threads, one band spectrum at a time, against the
    # serial loop on np.fft.rfft: the same bytes, draws and red slope
    n, dt, bw = 2**17 + 3, 0.1, 1000
    counts = [n, n, n + 1, n + 1]
    children = _record_spawns(monkeypatch)
    want, want_slope, serial = oracles.spectra_run_serial(0.1, 0.5, n, dt, bw,
                                                          seed)
    assert [s.count_drawn for s in serial] == counts
    children.clear()
    got = spectra_run(theta=0.1, gamma=0.5, n=n, dt=dt, band_width=bw,
                      seed=seed)
    assert [s.count_drawn for s in children] == counts
    assert got.red_slope == want_slope
    assert (got.n, got.dt, got.band_width) == (n, dt, bw)
    assert len(got.comparisons) == len(want)
    for g, w in zip(got.comparisons, want):
        assert (g.name, g.model, g.omega_lo, g.omega_hi, g.max_rel_dev) == \
            (w.name, w.model, w.omega_lo, w.omega_hi, w.max_rel_dev)
        for a, b in ((g.spectrum.omegas, w.spectrum.omegas),
                     (g.spectrum.powers, w.spectrum.powers),
                     (g.theory, w.theory)):
            assert a.tobytes() == b.tobytes(), g.name


class _Forbidden:
    """A lock whose taking fails the test."""

    def __enter__(self):
        raise AssertionError("a four-step band spectrum took the lock")

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("seed", [0, 7])
def test_four_step_spectra_run_takes_no_lock_and_has_serial_bits(
        monkeypatch, threads, seed):
    # on the four-step path the spectra run without the lock, and each has
    # the bits of the same band powers taken one model after another, and
    # of a run on one thread
    n, dt, bw = 2**17, 0.1, 1000
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    models = (White(), RedOuDt(0.1), DiffU(0.1), Mixed(0.1, 0.5))
    want = [spectral._band_powers(increments(model, dt, n, child).values, dt, bw)
            for model, child in zip(models, GaussianStream(seed).spawn(4))]
    monkeypatch.setattr(spectral, "_SPECTRUM_LOCK", _Forbidden())
    got = spectra_run(theta=0.1, gamma=0.5, n=n, dt=dt, band_width=bw,
                      seed=seed)
    monkeypatch.setattr(streams, "_THREADS", 1)
    one = spectra_run(theta=0.1, gamma=0.5, n=n, dt=dt, band_width=bw,
                      seed=seed)
    assert got.red_slope == one.red_slope
    for g, o, w in zip(got.comparisons, one.comparisons, want, strict=True):
        assert g.spectrum.powers.tobytes() == w.tobytes(), g.name
        assert o.spectrum.powers.tobytes() == w.tobytes(), g.name
        assert g.max_rel_dev == o.max_rel_dev


class _Counting:
    """A lock that records each time it is taken (``list.append`` is
    atomic, so threads may take it at once)."""

    def __init__(self):
        self.taken = []

    def __enter__(self):
        self.taken.append(1)

    def __exit__(self, *exc):
        return False


def test_whole_array_spectra_take_the_lock(monkeypatch):
    # an odd n takes the whole-array transform, one spectrum at a time
    lock = _Counting()
    monkeypatch.setattr(spectral, "_FOUR_STEP_MIN", 2)
    monkeypatch.setattr(spectral, "_SPECTRUM_LOCK", lock)
    spectra_run(n=2**17 + 1, band_width=1000)
    assert len(lock.taken) == 4


def test_theorem_and_psd_spectra_take_the_lock(monkeypatch):
    # the lock lives where the transform is chosen, so every whole-array
    # band spectrum takes it: each plateau replica and psd's one spectrum
    lock = _Counting()
    monkeypatch.setattr(spectral, "_SPECTRUM_LOCK", lock)
    plateau_experiment(RedOuDt(0.1), 1.0, 50.0, 0.01, 33, GaussianStream(4))
    assert len(lock.taken) == 33
    x = GaussianStream(5).fill(10_000)
    spectral._band_spectrum(TimeSeries(0.1, x), 10)
    assert len(lock.taken) == 34


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_plateau_experiment_has_the_bits_of_the_serial_loop(monkeypatch, threads,
                                                            beta):
    model, t, dt, replicas = RedOuDt(0.1), 50.0, 0.01, 33
    children = _record_spawns(monkeypatch)
    want, want_omegas, serial = oracles.plateau_powers_serial(
        model, beta, t, dt, replicas, GaussianStream(4))
    want_counts = [s.count_drawn for s in serial]
    assert want_counts == [2 * round(t / dt)] * replicas
    children.clear()
    seen = []
    band_average = figures.band_average

    def spy(pg, width):
        seen.append((pg.omegas.copy(), pg.powers.copy()))
        return band_average(pg, width)

    monkeypatch.setattr(figures, "band_average", spy)
    report = plateau_experiment(model, beta, t, dt, replicas, GaussianStream(4))
    assert [s.count_drawn for s in children] == want_counts
    (omegas, powers), = seen
    assert omegas.tobytes() == want_omegas.tobytes()
    assert powers.tobytes() == want.tobytes()
    assert np.isfinite(report.plateau_estimate)


# ---------------------------------------------------------------------------
# the first AR(1) recursion on two threads at once
# ---------------------------------------------------------------------------

_FIRST_USE = """
import importlib.machinery
import sys
import threading

import numpy as np

from rednoise import GaussianStream, models

jobs = [(0.9, 1.0, 0.5, GaussianStream(1).fill(5000)),
        (np.exp(-0.01), 0.37, -1.0, GaussianStream(2).fill(5000))]
starts = []
for coeff, scale, x0, z in jobs:
    y = np.empty(z.size + 1)
    y[0] = x0
    np.multiply(z, scale, out=y[1:])
    starts.append((coeff, y))
sys.setswitchinterval(1e-6)
loads = []
create = importlib.machinery.ExtensionFileLoader.create_module

def counted(self, spec):
    loads.append(spec.name)
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = counted
paths = [None, None]
start = threading.Barrier(2, timeout=60)

def first_use(i):
    start.wait()
    paths[i] = models._ar1_recursion(*starts[i])

threads = [threading.Thread(target=first_use, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
assert loads == ["scipy.linalg._fblas"], loads
assert "scipy.linalg" not in sys.modules
import oracles
for path, job in zip(paths, jobs):
    assert path.tobytes() == oracles._ar1_whole(*job).tobytes(), job
"""


@pytest.mark.parametrize("interpreter", range(5))
def test_first_recursions_on_two_threads_load_blas_once(interpreter):
    # each fresh interpreter makes its first two recursions at one moment;
    # the extension is created once and both paths have the lfilter bits
    dirs = [str(Path(rednoise.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        dirs + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _FIRST_USE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_FIRST_FFT = """
import importlib.machinery
import sys
import threading

import oracles
from rednoise import GaussianStream, TimeSeries, spectral

values = [GaussianStream(1).fill(65537), GaussianStream(2).fill(40000)]
sys.setswitchinterval(1e-6)
loads = []
create = importlib.machinery.ExtensionFileLoader.create_module

def counted(self, spec):
    loads.append(spec.name)
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = counted
spectra = [None, None]
start = threading.Barrier(2, timeout=60)

def first_use(i):
    start.wait()
    spectra[i] = spectral._band_spectrum(TimeSeries(0.5, values[i].copy()), 7)

threads = [threading.Thread(target=first_use, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
assert loads == ["scipy.fft._pocketfft.pypocketfft"], loads
assert "scipy.fft" not in sys.modules
for got, x in zip(spectra, values):
    want = oracles.band_spectrum_rfft(TimeSeries(0.5, x), 7)
    assert got.powers.tobytes() == want.powers.tobytes()
"""


@pytest.mark.parametrize("interpreter", range(3))
def test_first_ffts_on_two_threads_load_pocketfft_once(interpreter):
    # each fresh interpreter takes its first two FFTs at one moment; the
    # extension is created once and both spectra have numpy's bits
    dirs = [str(Path(rednoise.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        dirs + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _FIRST_FFT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# a failing task on the command line
# ---------------------------------------------------------------------------

def _fail(*args, **kwargs):
    raise RuntimeError("sampler failed in a worker")


@pytest.mark.parametrize("target, argv", [
    ("rednoise.figures.simulate_exact", ("fig2", "--n", "20000")),
    pytest.param("rednoise.figures.increments", ("theorem", "--quick"),
                 id="theorem"),
    ("rednoise.figures.increments",
     ("fig1", "--n", "200000", "--band-width", "10")),
])
def test_a_task_failure_gives_one_error_line_and_exit_2(
        tmp_path, capsys, monkeypatch, target, argv):
    monkeypatch.setattr(target, _fail)
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: sampler failed in a worker\n"
