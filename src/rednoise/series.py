"""Series container and file formats.

A ``TimeSeries`` carries values on a uniform grid of step ``dt``: either a
sampled path, or the per-step increments of an integrated noise
differential.  It is written either as two-column CSV (``t,value``, 17
significant digits) or as raw little-endian float64 (``f64le``), and read
back from either format.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from itertools import islice
from numbers import Real
from pathlib import Path

import numpy as np

__all__ = [
    "TimeSeries",
    "save_series",
    "load_values",
    "write_csv",
]


# Points per working block wherever a pass over a long array is split to cap
# its temporaries: the finiteness mask here, the fGn workspace and the
# DiffU and Mixed increments (models), the simulators' steps (simulate), and
# the band spectrum's chunks of bins and the largest leaf of the ACF's and
# variance's summation tree (spectral; at least 128, below which numpy
# itself stops splitting).  Each module imports it by name, so a test can
# set one module's block alone.
_BLOCK = 2**16


def _all_finite(values: np.ndarray) -> bool:
    """Whether every value of a 1-D array is finite, tested a block at a
    time, so that no full-length mask is built."""
    return all(np.isfinite(values[a:a + _BLOCK]).all()
               for a in range(0, values.size, _BLOCK))


def _check_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
    if values.size < 1:
        raise ValueError("values must contain at least one sample")
    if not _all_finite(values):
        raise ValueError("values must be finite")
    return values


# The smallest normal double.  A rate below it is rejected: 1/(2 rate)
# overflows and exp(-rate h) rounds to 1.
_TINY = np.finfo(np.float64).tiny


def _check_finite(x, name: str) -> float:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _check_positive(x, name: str) -> float:
    x = float(x)
    if not 0.0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def _check_rate(x, name: str) -> float:
    x = _check_positive(x, name)
    if x < _TINY:
        raise ValueError(
            f"{name} must be at least the smallest normal double {_TINY}, got {x}")
    return x


def _check_square(x, name: str, nonzero: bool = False) -> float:
    x = float(x)
    if x * x == np.inf:
        raise ValueError(f"{name}={x} too large: {name}**2 overflows")
    if nonzero and x != 0.0 and x * x == 0.0:
        raise ValueError(f"{name}={x} too small: {name}**2 underflows to 0")
    return x


def _check_fraction(x, name: str) -> float:
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {x}")
    return x


def _check_n(n, name: str = "n", least: int = 1) -> int:
    """A count (of samples, steps, lags, bins, replicas or streams): an
    integral value, not a bool, of at least ``least``."""
    if isinstance(n, bool) or not (isinstance(n, Real) and float(n).is_integer()):
        raise ValueError(f"{name} must be an integer, got {n}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {int(n)}")
    return int(n)


@dataclass
class TimeSeries:
    """Values on a uniform grid of step ``dt``.

    Read as a path, ``values[k]`` is the value at time ``k * dt``; read as
    increments, ``values[k]`` accrues over ``[k*dt, (k+1)*dt)``.  Both
    readings share the time axis ``t = k * dt``.
    """

    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dt = _check_positive(self.dt, "dt")
        self.values = _check_values(self.values)

    def __len__(self):
        return self.values.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

FORMATS = ("csv", "f64le")

# CSV rows formatted per string operation in write_csv.
_CSV_BLOCK = 4096


def write_csv(path, header: str, *columns) -> None:
    """Write aligned columns as UTF-8 CSV with 17 significant digits.

    Rows are formatted a block at a time with one ``%`` operation; ``%.16e``
    prints a float exactly as ``f"{x:.16e}"`` does.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("columns must have equal length")
    k = len(cols)
    row = ",".join(["%.16e"] * k) + "\n"
    flat = np.column_stack(cols).ravel()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _CSV_BLOCK):
            rows = min(_CSV_BLOCK, n - start)
            fh.write((row * rows) % tuple(flat[start * k:(start + rows) * k].tolist()))


def _resolve_format(path, fmt: str | None) -> str:
    """``fmt`` if it is one of ``FORMATS``; without it, ``f64le`` for a
    ``.f64le`` suffix in any case and ``csv`` otherwise."""
    if fmt is None:
        fmt = "f64le" if Path(path).suffix.lower() == ".f64le" else "csv"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return fmt


def save_series(path, series, fmt: str | None = None) -> None:
    """Write a TimeSeries to ``path`` in the given format.

    Without ``fmt`` the format follows the suffix, as in :func:`load_values`.
    """
    fmt = _resolve_format(path, fmt)
    if fmt == "csv":
        write_csv(path, "t,value", series.t, series.values)
    else:
        # written from the array's own buffer, not a bytes copy of it
        Path(path).write_bytes(np.ascontiguousarray(series.values, dtype="<f8"))


def _read_csv(path, names: str) -> np.ndarray:
    """The rows below the header line of a CSV file, as a float64 array of at
    least the two columns ``names``, both finite.

    A file with no data row is rejected by name before numpy reads it, so
    numpy's empty-input warning is never printed; every fault names the path.
    """
    with open(path, "rb") as fh:
        fh.readline()                                   # the header
        if not any(line.split(b"#", 1)[0].strip() for line in fh):
            raise ValueError(f"{path}: no data rows below the header line")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        # numpy's advice after the ";" names its own arguments, and its row
        # counts the lines with text before any "#" below the header, from 1
        # for a ragged row and from 0 for a bad cell: name the file's line
        cause = str(exc).split(";")[0]
        at = re.search(r" at row (\d+)", cause)
        if at:
            with open(path, encoding="latin-1") as fh:
                rows = (i for i, line in enumerate(fh, 1)
                        if i > 1 and line.split("#", 1)[0].rstrip("\n"))
                row = int(at[1]) - cause.startswith("the number of columns")
                line = next(islice(rows, row, None))
            cause = f"{cause[:at.start()]} at line {line}{cause[at.end():]}"
        raise ValueError(f"{path}: {cause}") from None
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected at least two CSV columns ({names})")
    if not (_all_finite(data[:, 0]) and _all_finite(data[:, 1])):
        raise ValueError(f"{path}: values must be finite")
    return data


def load_values(path, fmt: str | None = None, dt: float | None = None):
    """Read values (and step) back from a file written by :func:`save_series`.

    Returns ``(values, dt)``.  Without ``fmt`` the format follows the
    suffix: ``.f64le`` in any case reads raw doubles, anything else CSV.  For
    CSV the step is inferred from the ``t`` column (an explicit ``dt``
    argument overrides it); for ``f64le`` the step carries no representation
    in the file and must be supplied.
    """
    path = Path(path)
    fmt = _resolve_format(path, fmt)
    if fmt == "f64le":
        if dt is None:
            raise ValueError("dt is required when reading f64le data")
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == 0:
                raise ValueError(f"{path}: no data (size 0 bytes)")
            if size % 8:
                raise ValueError(f"{path}: size {size} bytes is not a multiple of 8")
            # read straight into the one array returned (a no-op cast on a
            # little-endian machine)
            values = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False)
        if not _all_finite(values):
            raise ValueError(f"{path}: values must be finite")
        return values, _check_positive(dt, "dt")
    data = _read_csv(path, "t,value")
    t, values = data[:, 0], data[:, 1]
    if dt is None:
        if t.size < 2:
            raise ValueError(f"{path}: cannot infer dt from a single row; pass dt")
        steps = np.diff(t)
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-8, atol=1e-12 * max(dt, 1.0)):
            raise ValueError(f"{path}: time column is not uniformly spaced")
    return values.astype(np.float64), _check_positive(dt, "dt")
