import tracemalloc
import warnings

import numpy as np
import pytest

from rednoise import (GaussianStream, TimeSeries, load_values, save_series,
                      write_csv)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: TimeSeries(0.0, np.ones(3)),
    lambda: TimeSeries(-1.0, np.ones(3)),
    lambda: TimeSeries(float("nan"), np.ones(3)),
    lambda: TimeSeries(1.0, np.ones((2, 2))),
    lambda: TimeSeries(1.0, np.array([])),
    lambda: TimeSeries(1.0, np.array([1.0, float("inf")])),
    lambda: TimeSeries(float("inf"), np.ones(3)),
    lambda: TimeSeries(1.0, np.array([float("nan")])),
])
def test_container_validation(build):
    with pytest.raises(ValueError):
        build()


def test_time_axis():
    series = TimeSeries(0.5, np.arange(4, dtype=np.float64))
    np.testing.assert_allclose(series.t, [0.0, 0.5, 1.0, 1.5])
    assert len(series) == 4


def test_values_coerced_to_float64():
    series = TimeSeries(1.0, [1, 2, 3])
    assert series.values.dtype == np.float64


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_lossless(tmp_path):
    path = tmp_path / "series.csv"
    values = GaussianStream(0).fill(257) * 1e-3
    save_series(path, TimeSeries(0.1, values), fmt="csv")
    loaded, dt = load_values(path)
    np.testing.assert_array_equal(loaded, values)   # %.16e survives the trip
    assert dt == pytest.approx(0.1, rel=1e-12)


def test_f64le_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "series.f64le"
    values = GaussianStream(1).fill(1000)
    save_series(path, TimeSeries(0.25, values), fmt="f64le")
    assert path.stat().st_size == 8000
    loaded, dt = load_values(path, dt=0.25)
    np.testing.assert_array_equal(loaded, values)
    assert dt == 0.25


def test_format_inferred_from_suffix(tmp_path):
    values = GaussianStream(2).fill(64)
    csv_path = tmp_path / "a.csv"
    raw_path = tmp_path / "a.f64le"
    save_series(csv_path, TimeSeries(1.0, values))
    save_series(raw_path, TimeSeries(1.0, values), fmt="f64le")
    np.testing.assert_array_equal(load_values(csv_path)[0], values)
    np.testing.assert_array_equal(load_values(raw_path, dt=1.0)[0], values)
    # without a format, writing follows the reader's rule: raw for .f64le in
    # any case, CSV for every other suffix
    for name, size in (("b.F64LE", 8 * 64), ("b.txt", None)):
        save_series(tmp_path / name, TimeSeries(1.0, values))
        if size:
            assert (tmp_path / name).stat().st_size == size
        np.testing.assert_array_equal(
            load_values(tmp_path / name, dt=1.0)[0], values)


def test_dt_handling(tmp_path):
    path = tmp_path / "series.csv"
    save_series(path, TimeSeries(0.5, np.arange(5, dtype=np.float64)))
    # inferred from the time column, or overridden by the caller
    assert load_values(path)[1] == pytest.approx(0.5)
    assert load_values(path, dt=2.0)[1] == 2.0
    raw = tmp_path / "series.f64le"
    save_series(raw, TimeSeries(0.5, np.arange(5, dtype=np.float64)),
                fmt="f64le")
    with pytest.raises(ValueError):
        load_values(raw)                    # raw bytes carry no grid


def test_truncated_f64le_rejected_naming_path_and_size(tmp_path):
    path = tmp_path / "odd.f64le"
    path.write_bytes(np.arange(3.0).tobytes()[:-3])
    with pytest.raises(ValueError, match=r"odd\.f64le: size 21 bytes is not a multiple of 8") as exc:
        load_values(path, dt=1.0)
    assert str(exc.value) == f"{path}: size 21 bytes is not a multiple of 8"


@pytest.mark.parametrize("name, content, cause", [
    ("h.csv", b"t,value\n", "no data rows below the header line"),
    ("h.csv", b"t,value", "no data rows below the header line"),
    ("h.csv", b"t,value\n\n# comment\n", "no data rows below the header line"),
    ("e.f64le", b"", "no data (size 0 bytes)"),
])
def test_file_without_data_rejected_naming_path(tmp_path, name, content, cause):
    path = tmp_path / name
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's empty-input warning fails
        with pytest.raises(ValueError) as exc:
            load_values(path, dt=1.0)
    assert str(exc.value) == f"{path}: {cause}"


def test_f64le_read_is_one_array_of_the_file_bytes(tmp_path):
    # the file is read straight into the returned array: its bytes are the
    # file's (signed zero and subnormals included) and no second copy exists
    path = tmp_path / "big.f64le"
    values = GaussianStream(3).fill(2**20)
    values[:3] = (-0.0, 5e-324, np.finfo(np.float64).max)
    path.write_bytes(values.astype("<f8").tobytes())
    tracemalloc.start()
    try:
        loaded, dt = load_values(path, dt=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.dtype == np.float64 and loaded.flags.writeable and dt == 0.5
    assert loaded.tobytes() == path.read_bytes()
    assert peak < 1.1 * path.stat().st_size


def test_nonuniform_time_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n1.0,2.0\n3.0,3.0\n")
    with pytest.raises(ValueError):
        load_values(path)


def test_single_row_needs_explicit_dt(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,value\n0.0,7.5\n")
    with pytest.raises(ValueError):
        load_values(path)
    values, dt = load_values(path, dt=0.1)
    np.testing.assert_array_equal(values, [7.5])
    assert dt == 0.1


def test_unknown_format_rejected(tmp_path):
    series = TimeSeries(1.0, np.ones(3))
    with pytest.raises(ValueError):
        save_series(tmp_path / "x.csv", series, fmt="parquet")
    save_series(tmp_path / "x.csv", series)
    with pytest.raises(ValueError):
        load_values(tmp_path / "x.csv", fmt="parquet")


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def test_write_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, "omega,power", np.array([1.0, 2.0]), np.array([0.5, 0.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "omega,power"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 0.5


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", "a,b", np.ones(3), np.ones(4))


def test_write_csv_round_trips_float64(tmp_path):
    path = tmp_path / "precise.csv"
    values = np.array([np.pi, np.e * 1e-17, -1.0 / 3.0, 12345.6789e100])
    write_csv(path, "t,value", np.arange(4.0), values)
    loaded, _ = load_values(path, dt=1.0)
    np.testing.assert_array_equal(loaded, values)


def _reference_csv(header, *columns):
    lines = [header] + [",".join(f"{c[i]:.16e}" for c in columns)
                        for i in range(len(columns[0]))]
    return ("\n".join(lines) + "\n").encode("utf-8")


# block-ragged lengths around the 4096-row formatting block
@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 10_000])
@pytest.mark.parametrize("n_cols", [1, 2, 3])
def test_write_csv_bytes_match_per_row_format(tmp_path, n, n_cols):
    special = [0.0, -0.0, 5e-324, 1e-320, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e22, 1.0 / 3.0]
    rng = np.random.default_rng(n)
    columns = []
    for j in range(n_cols):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        col[:len(special)] = np.roll(special, j)[:n]
        columns.append(col)
    header = ",".join("abc"[:n_cols])
    path = tmp_path / "t.csv"
    write_csv(path, header, *columns)
    assert path.read_bytes() == _reference_csv(header, *columns)
