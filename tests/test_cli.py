import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rednoise
from rednoise import (Ar1Driven, DiffU, GaussianStream, RedOuDt, TimeSeries,
                      band_average, empirical_acf, increments, load_values,
                      periodogram)
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


@pytest.mark.parametrize("name, raw", [("w.txt", False), ("w.F64LE", True)])
def test_generated_file_reads_back_without_format(tmp_path, capsys, name, raw):
    # generate and the readers infer the format by one rule: f64le for a
    # .f64le suffix in any case, CSV for every other name
    path = tmp_path / name
    assert run(capsys, "generate", "--model", "model=ar1 phi=0.9",
               "--n", "1003", "--seed", "4", "--out", str(path))[0] == 0
    if raw:
        assert path.stat().st_size == 8 * 1003
    else:
        assert path.read_text().startswith("t,value\n")
    step = ("--dt", "1") if raw else ()
    series = increments(Ar1Driven(0.9), 1.0, 1003, GaussianStream(4))
    spec, acf = tmp_path / "spec.csv", tmp_path / "acf.csv"
    assert run(capsys, "psd", "--in", str(path), *step,
               "--out", str(spec))[0] == 0
    data = np.loadtxt(spec, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1], periodogram(series).powers)
    code, _, err = run(capsys, "acf", "--in", str(path), *step,
                       "--max-lag", "5", "--out", str(acf))
    assert code == 0 and err == ""
    data = np.loadtxt(acf, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1], empirical_acf(series, 5).values)


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
    est = empirical_acf(TimeSeries(1.0, incr.values), 10,
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


def test_truncated_f64le_input_exits_2(tmp_path, capsys):
    path = tmp_path / "odd.f64le"
    path.write_bytes(bytes(13))
    code, out, err = run(capsys, "psd", "--in", str(path), "--dt", "1",
                         "--out", str(tmp_path / "p.csv"))
    assert code == 2 and out == ""
    assert err == f"error: {path}: size 13 bytes is not a multiple of 8\n"


@pytest.mark.parametrize("command, name, content", [
    ("psd", "h.csv", b"t,value\n"),
    ("acf", "h.csv", b"t,value\n"),
    ("slope", "h.csv", b"omega,power\n"),
    ("psd", "e.f64le", b""),
    ("acf", "e.f64le", b""),
])
def test_file_without_data_exits_2_naming_it(tmp_path, command, name, content):
    # in a subprocess, so that a warning numpy prints on stderr is seen
    path = tmp_path / name
    path.write_bytes(content)
    argv = [command, "--in", str(path)]
    argv += (["--omega-min", "1", "--omega-max", "2"] if command == "slope"
             else ["--dt", "1", "--out", str(tmp_path / "o.csv")])
    script = f"import sys; from rednoise.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(rednoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {path}: no data")


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "model=white", "--n", "-5"),
    ("fig2", "--n", "-3"),
    ("fig2", "--quick", "--n", "-3"),
])
def test_negative_n_exits_2_naming_n(tmp_path, capsys, argv):
    out_path = tmp_path / "x"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: n ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["generate", "psd", "acf", "slope",
                                     "fig1", "fig2", "theorem"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rednoise {command}")


def test_slope_rejects_negative_power(tmp_path, capsys):
    # the negative power lies outside the fit window and is still rejected
    spec = tmp_path / "spec.csv"
    rows = [f"{w},{-0.25 if w == 3 else 1.0}" for w in range(1, 21)]
    spec.write_text("omega,power\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "slope", "--in", str(spec),
                         "--omega-min", "5", "--omega-max", "20")
    assert code == 2 and out == ""
    assert err == "error: powers must be nonnegative, got -0.25 at omega=3.0\n"


@pytest.mark.parametrize("exc, cause", [
    (RuntimeError("circulant embedding not nonnegative definite"),
     "error: circulant embedding not nonnegative definite\n"),
    (RuntimeError(), "error: RuntimeError\n"),
    (MemoryError("Unable to allocate 24.0 TiB"),
     "error: out of memory: Unable to allocate 24.0 TiB\n"),
    (MemoryError(), "error: out of memory: allocation failed\n"),
    (KeyError("hurst"), "error: KeyError: 'hurst'\n"),
    (ZeroDivisionError("float division by zero"),
     "error: ZeroDivisionError: float division by zero\n"),
])
def test_sampler_failures_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                               exc, cause):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr("rednoise.cli.increments", fail)
    code, out, err = run(capsys, "generate", "--model", "model=fgn hurst=0.9",
                         "--n", "10", "--out", str(tmp_path / "f.f64le"))
    assert code == 2 and out == "" and err == cause


@pytest.mark.parametrize("model, cause", [
    ("model=mixed theta=15 gamma=0.5", "theta*dt=1.5"),
    ("model=mixed theta=25 gamma=0.5", "theta*dt=2.5"),
    ("model=red theta=1e-320", "smallest normal double"),
])
def test_out_of_range_products_exit_2(tmp_path, capsys, model, cause):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "generate", "--model", model, "--dt", "0.1",
                         "--n", "100", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and cause in err and err.count("\n") == 1


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


def _run_script(script):
    src = str(Path(rednoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_filtering_commands_never_import_scipy_signal(tmp_path):
    # the AR(1) recursion takes dtbsv from scipy's compiled _fblas alone; a
    # red sample, a small fig2 (whose 1% gate fails at this n, exit 1) and a
    # quick theorem must leave it the only scipy module loaded
    script = f"""
import sys
from rednoise.cli import main
d = {str(tmp_path)!r}
assert main(["generate", "--model", "model=red theta=0.1", "--n", "1000",
             "--out", d + "/r.csv"]) == 0
assert main(["fig2", "--n", "20000", "--out", d + "/fig2"]) in (0, 1)
assert main(["theorem", "--quick", "--out", d + "/t.csv"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.linalg._fblas"], loaded
"""
    _run_script(script)
    assert (tmp_path / "fig2" / "continuous.csv").exists()
    assert (tmp_path / "t.csv").exists()


def test_scipy_linalg_reuses_the_loaded_blas_extension():
    # after the shortcut, importing scipy.linalg finds the same module, so
    # there is one dtbsv routine and the package still works
    script = """
import sys
import numpy as np
from rednoise import models
fblas = models._fblas()
import scipy.linalg
import scipy.linalg.blas
assert sys.modules["scipy.linalg._fblas"] is fblas
assert scipy.linalg.blas.dtbsv is fblas.dtbsv
assert np.array_equal(scipy.linalg.expm(np.zeros((2, 2))), np.eye(2))
"""
    _run_script(script)


def test_missing_blas_extension_exits_2_naming_the_directory(tmp_path, capsys,
                                                            monkeypatch):
    # no fallback to the scipy.linalg package: a scipy without _fblas gives
    # one error line naming where it was looked for
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    code, out, err = run(capsys, "generate", "--model", "model=red theta=0.1",
                         "--n", "10", "--out", str(tmp_path / "r.csv"))
    assert code == 2 and out == "" and not (tmp_path / "r.csv").exists()
    assert err == (f"error: scipy's BLAS extension _fblas not found in "
                   f"{[str(tmp_path / 'linalg')]}\n")


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
    # beta = 0.5 puts the plateau near 0.25, far outside 5% of 1
    code, stdout, _ = run(capsys, "theorem", "--beta", "0.5", "--quick",
                          "--assert-target", "1")
    assert code == 1
    assert "FAIL theorem" in stdout and "reason=" in stdout
    assert "vs asserted target 1 (tol 5%)" in stdout


def test_theorem_zero_target_exits_2(tmp_path, capsys):
    # a 5% band around 0 cannot hold a measured plateau; the error points to
    # the decay-slope gate of --beta 0 instead
    out_path = tmp_path / "plateau.csv"
    code, out, err = run(capsys, "theorem", "--beta", "0", "--quick",
                         "--assert-target", "0", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: --assert-target 0 cannot pass")
    assert "--beta 0" in err and err.count("\n") == 1


def test_theorem_overflowing_theta_exits_2_before_simulating(capsys,
                                                            made_streams):
    code, out, err = run(capsys, "theorem", "--quick", "--theta", "1e300")
    assert code == 2 and out == ""
    assert err == "error: theta=1e+300 too large: theta**2 overflows\n"
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)


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


@pytest.mark.parametrize("n, max_lag", [(50, 20), (100, 20), (295, 20),
                                        (145, 5)])
def test_fig2_too_short_for_burn_in_and_lags_exits_2(tmp_path, capsys, n,
                                                    max_lag):
    # the 95-step burn-in and the ACF's n/10 rule are checked against the n
    # the user gave, before anything is simulated or written
    out_path = tmp_path / "fig2"
    code, out, err = run(capsys, "fig2", "--n", str(n), "--max-lag",
                         str(max_lag), "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == (f"error: n={n} too short for a burn-in of 95 and "
                   f"max_lag={max_lag}: need n > 95 + 10*{max_lag} = "
                   f"{95 + 10 * max_lag}\n")


def test_fig2_negative_max_lag_exits_2_before_simulating(tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    for name in ("simulate_discrete", "simulate_exact"):
        monkeypatch.setattr(f"rednoise.figures.{name}",
                            lambda *args, name=name: calls.append(name))
    out_path = tmp_path / "fig2"
    code, out, err = run(capsys, "fig2", "--quick", "--max-lag", "-1",
                         "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == "error: max_lag must be at least 0, got -1\n"
    assert calls == []


def test_fig2_shortest_accepted_n_runs(tmp_path, capsys):
    code, out, err = run(capsys, "fig2", "--n", "296", "--out", str(tmp_path))
    assert code in (0, 1) and err == ""
    assert "n=296 burn_in=95" in out


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
