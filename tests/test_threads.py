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
import rednoise.plateau as plateau
import rednoise.streams as streams
from rednoise import GaussianStream, RedOuDt, plateau_experiment, restoring_run
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


@pytest.mark.parametrize("in_flight", [1, 2, 4])
def test_jobs_in_flight_stay_bounded(in_flight):
    started = []
    lock = threading.Lock()

    def task(i):
        with lock:
            started.append(i)
        return i

    for i, result in enumerate(_map_substreams(task, range(20), in_flight)):
        assert result == i
        # job i is yielded: at most in_flight later jobs were submitted
        assert len(started) <= i + 1 + in_flight


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
    want, serial = oracles.restoring_run_serial(0.8, 0.9, 1.3, n, 20, seed)
    assert [s.count_drawn for s in serial] == [n - 2, 2 * (n - 1)]
    children.clear()
    got = restoring_run(psi=0.8, phi=0.9, sigma=1.3, n=n, max_lag=20, seed=seed)
    assert [s.count_drawn for s in children] == [n - 2, 2 * (n - 1)]
    assert got.burn_in == want.burn_in
    assert got.params_continuous == want.params_continuous
    for g, w in ((got.discrete, want.discrete), (got.continuous, want.continuous)):
        assert g.label == w.label and g.max_rel_dev == w.max_rel_dev
        for field in ("taus", "empirical", "theory"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_plateau_experiment_has_the_bits_of_the_serial_loop(monkeypatch, threads,
                                                            beta):
    model, t, dt, replicas = RedOuDt(0.1), 50.0, 0.01, 33
    children = _record_spawns(monkeypatch)
    want, serial = oracles.plateau_powers_serial(model, beta, t, dt, replicas,
                                                 GaussianStream(4))
    want_counts = [s.count_drawn for s in serial]
    assert want_counts == [2 * round(t / dt)] * replicas
    children.clear()
    seen = []
    band_average = plateau.band_average

    def spy(pg, width):
        seen.append(pg.powers.copy())
        return band_average(pg, width)

    monkeypatch.setattr(plateau, "band_average", spy)
    report = plateau_experiment(model, beta, t, dt, (10.0, 20.0, 30.0),
                                replicas, GaussianStream(4))
    assert [s.count_drawn for s in children] == want_counts
    assert seen[0].tobytes() == want.tobytes()
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
    paths[i] = models._ar1_recursion(*jobs[i])

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


# ---------------------------------------------------------------------------
# a failing task on the command line
# ---------------------------------------------------------------------------

def _fail(*args, **kwargs):
    raise RuntimeError("sampler failed in a worker")


@pytest.mark.parametrize("target, argv", [
    ("rednoise.figures.simulate_exact", ("fig2", "--n", "20000")),
    ("rednoise.plateau.ou_exact_sample", ("theorem", "--quick")),
])
def test_a_task_failure_gives_one_error_line_and_exit_2(
        tmp_path, capsys, monkeypatch, target, argv):
    monkeypatch.setattr(target, _fail)
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: sampler failed in a worker\n"
