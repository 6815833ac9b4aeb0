import errno
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
                      periodogram, save_series)
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
    path = tmp_path / name
    path.write_bytes(content)
    err = _file_command_error(tmp_path, command, path)
    assert err.startswith(f"error: {path}: no data")


def _file_command_error(tmp_path, command, path, dt="1"):
    """stderr of ``command`` run on ``path`` (with ``--dt`` unless ``dt`` is
    None) in a subprocess, so that a warning numpy prints there is seen;
    the command must exit 2 with one line and no stdout."""
    argv = [command, "--in", str(path)]
    if command == "slope":
        argv += ["--omega-min", "1", "--omega-max", "2"]
    else:
        if dt is not None:
            argv += ["--dt", dt]
        argv += ["--out", str(tmp_path / "o.csv")]
    script = f"import sys; from rednoise.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(rednoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1, proc.stderr
    return proc.stderr


_F64 = np.array([0.5, -1.0, 2.0, 0.25]).astype("<f8").tobytes()


@pytest.mark.parametrize("command, name, content, cause", [
    ("psd", "n.csv", b"t,value\n0,1\n1,nan\n2,3\n", "values must be finite"),
    ("acf", "i.csv", b"t,value\n0,1\n1,-inf\n2,3\n", "values must be finite"),
    ("psd", "o.csv", b"t,value\n0,1\n1,1e309\n2,3\n", "values must be finite"),
    ("psd", "n.f64le", _F64 + np.array([np.nan]).tobytes(),
     "values must be finite"),
    ("acf", "o.f64le", np.array([np.inf]).tobytes() + _F64,
     "values must be finite"),
    ("slope", "n.csv", b"omega,power\n1,1\n2,nan\n", "values must be finite"),
    ("slope", "i.csv", b"omega,power\ninf,1\n2,1\n", "values must be finite"),
    ("psd", "r.csv", b"t,value\n0,1\n1,2,3\n2,3\n",
     "the number of columns changed from 2 to 3 at line 3\n"),
    ("slope", "r.csv", b"omega,power\n1,1\n2,1,0\n",
     "the number of columns changed from 2 to 3 at line 3\n"),
    ("slope", "g.csv", b"omega,power\n1,1\n2,-1\n3,1\n",
     "powers must be nonnegative, got -1.0 at omega=2.0\n"),
    ("acf", "s.csv", b"t,value\n0,1\n1,abc\n",
     "could not convert string 'abc' to float64 at line 3, column 2.\n"),
    ("psd", "c.csv", b"t,value\n# made by hand\n\n0,1\n1,2,3\n",
     "the number of columns changed from 2 to 3 at line 5\n"),
    ("acf", "c.csv", b"t,value\r\n0,1 # one\r\n#\r\n\r\n2,x\r\n",
     "could not convert string 'x' to float64 at line 5, column 2.\n"),
    ("psd", "w.csv", b"t,value\n0,1\n# c\n  \n2,3\n",
     "the number of columns changed from 2 to 1 at line 4\n"),
], ids=["psd-csv-nan", "acf-csv-inf", "psd-csv-1e309", "psd-f64le-nan",
        "acf-f64le-inf", "slope-nan", "slope-inf", "psd-ragged",
        "slope-ragged", "slope-negative-power", "acf-not-a-number",
        "psd-ragged-after-comment", "acf-not-a-number-after-comment-crlf",
        "psd-blank-is-a-row"])
def test_file_with_bad_values_exits_2_naming_it(tmp_path, command, name,
                                                 content, cause):
    path = tmp_path / name
    path.write_bytes(content)
    err = _file_command_error(tmp_path, command, path)
    assert err.startswith(f"error: {path}: {cause}"), err
    assert "usecols" not in err


@pytest.mark.parametrize("fmt", ["f64le", "csv"])
def test_psd_with_tiny_dt_exits_2_naming_dt(tmp_path, fmt):
    # pi/dt overflows: one line naming the step, no numpy warning and no
    # blame on the periodogram
    dt = 1e-320
    x = GaussianStream(0).fill(1000)
    path = tmp_path / f"w.{fmt}"
    save_series(path, TimeSeries(dt, x))
    err = _file_command_error(tmp_path, "psd", path,
                              dt=str(dt) if fmt == "f64le" else None)
    assert err.startswith("error: dt=") and err.endswith(
        " too small: the frequencies near pi/dt overflow\n"), err


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
    assert err == (f"error: {spec}: powers must be nonnegative, got -0.25 "
                   "at omega=3.0\n")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, cause", [
    ("model=mixed theta=15 gamma=0.5", "theta*dt=1.5"),
    ("model=mixed theta=25 gamma=0.5", "theta*dt=2.5"),
    ("model=red theta=1e-320", "smallest normal double"),
    ("model=mixed theta=0.1 gamma=1e308",
     "gamma=1e+308 too large: gamma**2 overflows"),
    # gamma**2 is finite, but the sum of 1e5 squared deviations is not
    ("model=mixed theta=0.1 gamma=1e153",
     "variance of the generated values overflows"),
])
def test_out_of_range_products_exit_2(tmp_path, capsys, model, cause):
    # under filterwarnings("error") a numpy warning ahead of the error line
    # raises, and the one-line check fails
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "generate", "--model", model, "--dt", "0.1",
                         "--n", "100000", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: ") and cause in err and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["model=du theta=1e-300",
                                   "model=red theta=1e-300",
                                   "model=mixed theta=1e-300 gamma=0.5"])
def test_swamped_ou_step_exits_2_naming_theta_and_dt(tmp_path, capsys, model):
    # at 2*theta*dt < 2**-106 every OU innovation rounds away, and the path
    # would be its start repeated (variance 0 for du, rounding dust of a
    # constant near 1e266 for red and mixed)
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "generate", "--model", model, "--dt", "1",
                         "--n", "1000", "--seed", "0", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: theta=1e-300 with dt=1.0 gives an OU step ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_generate_dt_whose_squares_underflow_exits_2_naming_dt(tmp_path,
                                                               capsys):
    # the values (about 2e-162) are normal, but their squares underflow and
    # the variance would print as 0, not dt
    out_path = tmp_path / "x.f64le"
    code, out, err = run(capsys, "generate", "--model", "model=white",
                         "--n", "10", "--dt", "5e-324", "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == ("error: dt=5e-324 too small: the variance of the "
                   "generated values underflows\n")


def test_ou_step_above_the_rounding_limit_is_generated(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "generate", "--model", "model=du theta=1e-30",
                         "--dt", "0.1", "--n", "1000", "--seed", "0",
                         "--out", str(out_path))
    assert code == 0 and err == "" and out_path.exists()


_PACKAGES = ("scipy", "scipy.fft", "scipy.linalg", "scipy.signal")


def test_analysis_commands_never_import_scipy(tmp_path):
    # of scipy, a file analysis and an fGn sample load only the compiled
    # pocketfft extension (the in-place real FFT), and no scipy package
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
assert loaded == ["scipy.fft._pocketfft.pypocketfft"], loaded
assert not [p for p in {_PACKAGES!r} if p in sys.modules]
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
    # the AR(1) recursion takes dtbsv from scipy's compiled _fblas alone and
    # theorem's periodograms the compiled pocketfft; a red sample, a small
    # fig2 (whose 1% gate fails at this n, exit 1) and a quick theorem must
    # leave these two the only scipy modules loaded, and no scipy package
    script = f"""
import sys
from rednoise.cli import main
d = {str(tmp_path)!r}
assert main(["generate", "--model", "model=red theta=0.1", "--n", "1000",
             "--out", d + "/r.csv"]) == 0
assert main(["fig2", "--n", "20000", "--out", d + "/fig2"]) in (0, 1)
assert main(["theorem", "--quick", "--out", d + "/t.csv"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.fft._pocketfft.pypocketfft",
                  "scipy.linalg._fblas"], loaded
assert not [p for p in {_PACKAGES!r} if p in sys.modules]
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
from rednoise._scipy import extension
fblas = extension("linalg", "_fblas", "BLAS")
import scipy.linalg
import scipy.linalg.blas
assert sys.modules["scipy.linalg._fblas"] is fblas
assert scipy.linalg.blas.dtbsv is fblas.dtbsv
assert np.array_equal(scipy.linalg.expm(np.zeros((2, 2))), np.eye(2))
"""
    _run_script(script)


def test_scipy_fft_reuses_the_loaded_fft_extension():
    # after the first in-place FFT, importing scipy.fft finds the same
    # compiled module, and the package still works
    script = """
import sys
import numpy as np
from rednoise import GaussianStream, TimeSeries, periodogram
x = GaussianStream(0).fill(1001)
periodogram(TimeSeries(1.0, x))
name = "scipy.fft._pocketfft.pypocketfft"
fft = sys.modules[name]
assert "scipy.fft" not in sys.modules
import scipy.fft
import scipy.fft._pocketfft.basic
assert sys.modules[name] is fft
assert scipy.fft._pocketfft.basic.pfft is fft
assert np.array_equal(scipy.fft.rfft(x), np.fft.rfft(x))
assert np.allclose(scipy.fft.irfft(scipy.fft.rfft(x), x.size), x)
"""
    _run_script(script)


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "model=fgn hurst=0.7", "--n", "10"),
    ("fig1", "--n", "200000", "--band-width", "10"),
], ids=["generate-fgn", "fig1"])
def test_missing_fft_extension_exits_2_naming_the_directory(
        tmp_path, capsys, monkeypatch, argv):
    # no fallback to numpy's out-of-place FFT: a scipy without pypocketfft
    # gives one error line naming where it was looked for
    monkeypatch.delitem(sys.modules, "scipy.fft._pocketfft.pypocketfft",
                        raising=False)
    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    # nothing is written; fig1 made its output directory first, left empty
    assert (list(out_path.iterdir()) == [] if argv[0] == "fig1"
            else not out_path.exists())
    searched = [str(tmp_path / "fft" / "_pocketfft")]
    assert err == (f"error: scipy's FFT extension pypocketfft not found in "
                   f"{searched}\n")


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
    # at beta = 0.05 the drift's omega^-2 tail still outweighs beta**2 over
    # [10, 30], so the measured plateau misses its target by far more than 5%
    code, stdout, _ = run(capsys, "theorem", "--quick", "--beta", "0.05")
    assert code == 1
    assert stdout.splitlines()[-1] == (
        "FAIL theorem reason=plateau-assertion plateau 0.0059129 vs target "
        "0.0025 (rel dev 136.52%, tol 5%)")


@pytest.mark.filterwarnings("error")
def test_theorem_overflowing_theta_exits_2_before_simulating(tmp_path, capsys,
                                                            made_streams):
    # each squared argument, step and count is checked by name before any draw
    for argv, cause in [
        (("theorem", "--quick", "--theta", "1e300"),
         "theta=1e+300 too large: theta**2 overflows"),
        (("theorem", "--quick", "--beta", "1e200"),
         "beta=1e+200 too large: beta**2 overflows"),
        (("fig1", "--quick", "--dt", "1e-300", "--out", str(tmp_path / "f")),
         "dt=1e-300 too small: (pi/dt)**2 overflows"),
        # the slope window [1, 10] holds no band centre at these steps
        (("fig1", "--quick", "--dt", "100", "--out", str(tmp_path / "f")),
         "dt=100.0 puts only 0 band centres in the slope window [1.0, 10.0] "
         "(n=2097152, band_width=1000); need at least 8"),
        (("fig1", "--quick", "--dt", "1e-150", "--out", str(tmp_path / "f")),
         "dt=1e-150 puts only 0 band centres in the slope window [1.0, 10.0] "
         "(n=2097152, band_width=1000); need at least 8"),
        # a nonzero beta whose square underflows to 0
        (("theorem", "--quick", "--beta", "1e-200"),
         "beta=1e-200 too small: beta**2 underflows to 0"),
        # counts whose working array no array can hold (none is allocated)
        (("theorem", "--quick", "--dt", "1e-300"),
         "horizon T=500.0 at dt=1e-300 gives a working array larger than the "
         "9223372036854775807 bytes an array can hold"),
        (("generate", "--model", "model=white", "--n", "100000000000000000000",
          "--out", str(tmp_path / "f")),
         "n=100000000000000000000 gives a working array larger than the "
         "9223372036854775807 bytes an array can hold"),
        (("generate", "--model", "model=white", "--n", "4000000000000000000",
          "--out", str(tmp_path / "f")),
         "n=4000000000000000000 gives a working array larger than the "
         "9223372036854775807 bytes an array can hold"),
        (("fig1", "--n", "100000000000000000000", "--out", str(tmp_path / "f")),
         "n=100000000000000000000 gives a working array larger than the "
         "9223372036854775807 bytes an array can hold"),
        # theta*dt = 0.1, but U dt has sd dt/sqrt(2 theta) = 2e450
        (("generate", "--model", "model=red theta=1e-301", "--dt", "1e300",
          "--n", "10", "--out", str(tmp_path / "f")),
         "theta=1e-301 with dt=1e+300 gives increments beyond the float64 "
         "range (16 sd of the drift overflows)"),
        (("generate", "--model", "model=mixed theta=1e-301 gamma=0.5", "--dt",
          "1e300", "--n", "10", "--out", str(tmp_path / "f")),
         "theta=1e-301, gamma=0.5 with dt=1e+300 gives increments beyond the "
         "float64 range (16 sd of the drift overflows)"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {cause}\n")
    # fig1 makes its output directory before it samples; nothing is written
    assert list(tmp_path.iterdir()) == [tmp_path / "f"]
    assert list((tmp_path / "f").iterdir()) == []
    assert [s.count_drawn for s in made_streams] == [0] * len(made_streams)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, cause", [
    (("acf", "--in", "{big}", "--dt", "1"),
     "empirical_acf overflows: the lag sums exceed the float64 range"),
    (("psd", "--in", "{big}", "--dt", "1"),
     "periodogram overflows: the FFT or its squared amplitudes exceed the "
     "float64 range"),
], ids=["acf", "psd"])
def test_overflowing_estimates_exit_2_naming_the_estimator(tmp_path, capsys,
                                                           argv, cause):
    # finite values whose squares overflow: one error line that names the
    # estimator and no numpy warning ahead of it
    big = tmp_path / "big.f64le"
    (GaussianStream(3).fill(2000) * 1e160).astype("<f8").tofile(big)
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *(a.format(big=big) for a in argv),
                         "--out", str(out_path))
    assert (code, out, err) == (2, "", f"error: {cause}\n")
    assert not out_path.exists()


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
    # the user gave, before anything is simulated or written (the output
    # directory is made first, and left empty)
    out_path = tmp_path / "fig2"
    code, out, err = run(capsys, "fig2", "--n", str(n), "--max-lag",
                         str(max_lag), "--out", str(out_path))
    assert code == 2 and out == "" and list(out_path.iterdir()) == []
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
    assert code == 2 and out == "" and list(out_path.iterdir()) == []
    assert err == "error: max_lag must be at least 0, got -1\n"
    assert calls == []


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_an_existing_file_as_out_stops_before_any_stream(tmp_path, capsys,
                                                         made_streams, command):
    # the output directory is made before the pipeline runs, so a path that
    # cannot be one ends the run at once, with one error line naming it
    taken = tmp_path / "taken"
    taken.write_text("kept")
    code, out, err = run(capsys, command, "--quick", "--out", str(taken))
    assert (code, out) == (2, "")
    assert err == (f"error: [Errno {errno.EEXIST}] "
                   f"{os.strerror(errno.EEXIST)}: '{taken}'\n")
    assert made_streams == [] and taken.read_text() == "kept"


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


@pytest.mark.parametrize("command, runner, argv, note", [
    ("fig1", "spectra_run", ("--n", "5"), "--n"),
    ("fig2", "restoring_run", ("--n", "20000000"), "--n"),
    ("theorem", "plateau_experiment", ("--T", "3", "--replicas", "40"),
     "--T and --replicas"),
    ("theorem", "plateau_experiment", ("--replicas", "64"), "--replicas"),
])
def test_quick_names_the_flags_it_ignores(tmp_path, capsys, monkeypatch,
                                          command, runner, argv, note):
    # the run is the same with or without the ignored flags; one stderr
    # note names them
    calls = []

    def stop(*args, **kwargs):
        calls.append((args, kwargs))
        raise ValueError("stopped")

    monkeypatch.setattr(f"rednoise.cli.{runner}", stop)
    out = ("--out", str(tmp_path / "o"))
    for extra, want_err in (((), "error: stopped\n"),
                            (argv, f"note: --quick ignores {note}\n"
                                   "error: stopped\n")):
        code, stdout, err = run(capsys, command, "--quick", *extra, *out)
        assert (code, stdout, err) == (2, "", want_err)
    assert repr(calls[0]) == repr(calls[1])


def test_quick_theorem_stdout_is_the_same_with_ignored_flags(capsys):
    plain = run(capsys, "theorem", "--quick")
    flagged = run(capsys, "theorem", "--quick", "--T", "3", "--replicas", "40")
    assert plain[0] == flagged[0] == 0 and plain[1] == flagged[1]
    assert (plain[2], flagged[2]) == (
        "", "note: --quick ignores --T and --replicas\n")


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
