import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rednoise
from rednoise import (Ar1Driven, DiffU, GaussianStream, IncrementSeries,
                      RedOuDt, band_average, empirical_acf, increments,
                      load_values, periodogram)
from rednoise.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _variance_from_summary(out):
    match = re.search(r"variance=([0-9.eE+-]+)", out)
    assert match, out
    return float(match.group(1))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_white_unit_variance(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--model", "model=white",
                       "--n", "1000", "--dt", "1", "--seed", "7",
                       "--out", str(tmp_path / "w.csv"))
    assert code == 0
    assert _variance_from_summary(out) == pytest.approx(1.0, rel=0.15)


def test_generate_red_left_endpoint_variance(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--model", "model=red theta=0.1",
                       "--n", "2000000", "--dt", "0.1", "--seed", "7",
                       "--out", str(tmp_path / "r.csv"))
    assert code == 0
    # Var(U) * dt^2 = (1/(2*0.1)) * 0.01
    assert _variance_from_summary(out) == pytest.approx(0.05, rel=0.03)


@pytest.mark.parametrize("fmt,suffix", [("csv", "csv"), ("f64le", "f64le")])
def test_generate_rerun_is_byte_identical(tmp_path, capsys, fmt, suffix):
    args = ("generate", "--model", "model=mixed theta=0.1 gamma=0.5",
            "--n", "5000", "--dt", "0.1", "--seed", "3", "--format", fmt)
    a, b = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_matches_library_call(tmp_path, capsys):
    out = tmp_path / "du.f64le"
    code, _, _ = run(capsys, "generate", "--model", "model=du theta=0.2",
                     "--n", "4096", "--dt", "0.5", "--seed", "11",
                     "--out", str(out))
    assert code == 0
    values, _ = load_values(out, dt=0.5)
    want = increments(DiffU(0.2), 0.5, 4096, GaussianStream(11))
    np.testing.assert_array_equal(values, want.values)


def test_generate_format_inference(tmp_path, capsys):
    raw = tmp_path / "x.f64le"
    run(capsys, "generate", "--model", "model=white", "--n", "100",
        "--seed", "0", "--out", str(raw))
    assert raw.stat().st_size == 800            # headerless doubles
    text = tmp_path / "x.csv"
    run(capsys, "generate", "--model", "model=white", "--n", "100",
        "--seed", "0", "--out", str(text))
    assert text.read_text().startswith("t,value")


# ---------------------------------------------------------------------------
# psd / acf / slope pipeline
# ---------------------------------------------------------------------------

@pytest.fixture()
def red_series_file(tmp_path, capsys):
    path = tmp_path / "red.csv"
    code, _, _ = run(capsys, "generate", "--model", "model=red theta=0.1",
                     "--n", str(2 ** 20), "--dt", "0.1", "--seed", "5",
                     "--out", str(path))
    assert code == 0
    return path


def test_psd_matches_library(tmp_path, capsys, red_series_file):
    out = tmp_path / "spec.csv"
    code, _, _ = run(capsys, "psd", "--in", str(red_series_file),
                     "--band-width", "1024", "--out", str(out))
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    incr = increments(RedOuDt(0.1), 0.1, 2 ** 20, GaussianStream(5))
    avg = band_average(periodogram(incr), 1024)
    np.testing.assert_array_equal(data[:, 0], avg.omegas)
    np.testing.assert_array_equal(data[:, 1], avg.powers)


def test_slope_on_red_spectrum(tmp_path, capsys, red_series_file):
    spec = tmp_path / "spec.csv"
    run(capsys, "psd", "--in", str(red_series_file), "--band-width", "1024",
        "--out", str(spec))
    out = tmp_path / "fit.csv"
    code, stdout, _ = run(capsys, "slope", "--in", str(spec),
                          "--omega-min", "1", "--omega-max", "10",
                          "--out", str(out))
    assert code == 0
    slope = float(re.search(r"slope=(-?[0-9.]+)", stdout).group(1))
    assert slope == pytest.approx(-2.0, abs=0.1)
    written = np.loadtxt(out, delimiter=",", skiprows=1)
    assert written[0] == pytest.approx(slope, abs=1e-6)


def test_acf_command_matches_library(tmp_path, capsys):
    src = tmp_path / "series.f64le"
    run(capsys, "generate", "--model", "model=ar1 phi=0.9", "--n", "20000",
        "--dt", "1", "--seed", "9", "--out", str(src))
    out = tmp_path / "acf.csv"
    code, _, _ = run(capsys, "acf", "--in", str(src), "--dt", "1",
                     "--max-lag", "10", "--mode", "correlation",
                     "--out", str(out))
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    incr = increments(Ar1Driven(0.9), 1.0, 20000, GaussianStream(9))
    est = empirical_acf(IncrementSeries(1.0, incr.values), 10,
                        mode="correlation")
    np.testing.assert_array_equal(data[:, 1], est.values)
    assert data[0, 1] == 1.0


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_error_exits(tmp_path, capsys):
    # unparseable model
    code, _, err = run(capsys, "generate", "--model", "model=chartreuse",
                       "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "error:" in err
    # missing input file
    code, _, err = run(capsys, "psd", "--in", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "y.csv"))
    assert code == 2 and "error:" in err
    # raw input without a grid step
    raw = tmp_path / "z.f64le"
    run(capsys, "generate", "--model", "model=white", "--n", "64",
        "--seed", "0", "--out", str(raw))
    code, _, err = run(capsys, "acf", "--in", str(raw),
                       "--out", str(tmp_path / "a.csv"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("exc, cause", [
    (RuntimeError("circulant embedding not nonnegative definite"),
     "error: circulant embedding not nonnegative definite\n"),
    (RuntimeError(), "error: RuntimeError\n"),
    (MemoryError("Unable to allocate 24.0 TiB"),
     "error: out of memory: Unable to allocate 24.0 TiB\n"),
    (MemoryError(), "error: out of memory: allocation failed\n"),
])
def test_sampler_failures_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                               exc, cause):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr("rednoise.cli.increments", fail)
    code, out, err = run(capsys, "generate", "--model", "model=fgn hurst=0.9",
                         "--n", "10", "--out", str(tmp_path / "f.f64le"))
    assert code == 2 and out == "" and err == cause


def test_analysis_commands_never_import_scipy(tmp_path):
    # scipy is loaded only by the filtering samplers; a file analysis and an
    # fGn sample (FFT only) must leave it unloaded
    script = f"""
import sys
from rednoise.cli import main
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import"
d = {str(tmp_path)!r}
for argv in (
        ["generate", "--model", "model=fgn hurst=0.7", "--n", "4096",
         "--dt", "0.5", "--out", d + "/f.csv"],
        ["psd", "--in", d + "/f.csv", "--band-width", "8", "--out", d + "/p.csv"],
        ["acf", "--in", d + "/f.csv", "--out", d + "/a.csv"],
        ["slope", "--in", d + "/p.csv", "--omega-min", "0.1",
         "--omega-max", "6"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(rednoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# theorem command
# ---------------------------------------------------------------------------

def test_theorem_quick_pass_and_csv(tmp_path, capsys):
    out = tmp_path / "plateau.csv"
    code, stdout, _ = run(capsys, "theorem", "--beta", "1", "--quick",
                          "--out", str(out))
    assert code == 0
    assert "PASS theorem" in stdout
    header = out.read_text().splitlines()[0]
    assert header == "omega,empirical,theoretical,plateau_target"
    # byte-identical rerun
    out2 = tmp_path / "plateau2.csv"
    run(capsys, "theorem", "--beta", "1", "--quick", "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_theorem_negative_control_fails(capsys):
    code, stdout, _ = run(capsys, "theorem", "--beta", "0.5", "--quick",
                          "--assert-target", "0")
    assert code == 1
    assert "FAIL theorem" in stdout and "reason=" in stdout


def test_theorem_zero_beta_decays(capsys):
    code, stdout, _ = run(capsys, "theorem", "--beta", "0", "--quick")
    assert code == 0
    slope = float(re.search(r"decay_slope=(-?[0-9.]+)", stdout).group(1))
    assert slope == pytest.approx(-2.0, abs=0.2)


# ---------------------------------------------------------------------------
# figure commands (quick mode)
# ---------------------------------------------------------------------------

def test_fig1_quick(tmp_path, capsys):
    code, stdout, _ = run(capsys, "fig1", "--quick", "--out", str(tmp_path))
    assert code == 0
    for name in ("white", "red", "du", "mixed"):
        f = tmp_path / f"{name}.csv"
        assert f.exists()
        assert f.read_text().splitlines()[0] == "omega,empirical,theoretical"
    assert "red_slope=" in stdout and "PASS fig1" in stdout


def test_fig2_quick(tmp_path, capsys):
    code, stdout, _ = run(capsys, "fig2", "--quick", "--out", str(tmp_path))
    assert code == 0
    for name in ("discrete", "continuous", "theory"):
        assert (tmp_path / f"{name}.csv").exists()
    assert "lam=0.223144" in stdout and "theta=0.105361" in stdout
    assert "PASS fig2" in stdout
    # all three curves are 1 at lag 0
    for name in ("discrete", "continuous", "theory"):
        first = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",",
                           skiprows=1)[0]
        assert first[0] == 0.0 and first[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the --n scaling law
# ---------------------------------------------------------------------------

def test_halving_n_doubles_band_variance(tmp_path, capsys):
    # fixed frequency-width bands: at half the length each band holds half
    # as many bins, so the variance of band powers about their flat mean
    # doubles.  Averaged over three seeds to tame the ratio's own noise.
    ratios = []
    for seed in (0, 1, 2):
        variances = []
        for n, bw in ((2 ** 20, 256), (2 ** 19, 128)):
            src = tmp_path / f"w{seed}{n}.f64le"
            run(capsys, "generate", "--model", "model=white", "--n", str(n),
                "--dt", "1", "--seed", str(seed), "--out", str(src))
            spec = tmp_path / f"s{seed}{n}.csv"
            code, _, _ = run(capsys, "psd", "--in", str(src), "--dt", "1",
                             "--band-width", str(bw), "--out", str(spec))
            assert code == 0
            powers = np.loadtxt(spec, delimiter=",", skiprows=1)[:, 1]
            variances.append(powers.var())
        ratios.append(variances[1] / variances[0])
    assert 1.5 < np.mean(ratios) < 2.5
