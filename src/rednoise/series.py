"""Series containers and file formats.

A ``TimeSeries`` carries sampled values of a process on a uniform grid; an
``IncrementSeries`` carries per-step increments of an integrated noise
differential on the same kind of grid.  Both are written either as two-column
CSV (``t,value``, 17 significant digits) or as raw little-endian float64
(``f64le``), and read back from either format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "TimeSeries",
    "IncrementSeries",
    "save_series",
    "load_values",
    "write_csv",
]


def _check_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
    if values.size < 1:
        raise ValueError("values must contain at least one sample")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


def _check_dt(dt) -> float:
    dt = float(dt)
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return dt


@dataclass
class TimeSeries:
    """Uniformly sampled path: ``values[k]`` at time ``k * dt``."""

    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.dt = _check_dt(self.dt)
        self.values = _check_values(self.values)

    def __len__(self):
        return self.values.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt


@dataclass
class IncrementSeries:
    """Per-step increments: ``values[k]`` accrues over ``[k*dt, (k+1)*dt)``."""

    dt: float
    values: np.ndarray = field(repr=False)
    model: object | None = None

    def __post_init__(self):
        self.dt = _check_dt(self.dt)
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


def save_series(path, series, fmt: str = "csv") -> None:
    """Write a TimeSeries/IncrementSeries to ``path`` in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "csv":
        write_csv(path, "t,value", series.t, series.values)
    else:
        Path(path).write_bytes(np.ascontiguousarray(series.values, dtype="<f8").tobytes())


def load_values(path, fmt: str | None = None, dt: float | None = None):
    """Read values (and step) back from a file written by :func:`save_series`.

    Returns ``(values, dt)``.  For CSV the step is inferred from the ``t``
    column (an explicit ``dt`` argument overrides it); for ``f64le`` the step
    carries no representation in the file and must be supplied.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "f64le"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "f64le":
        if dt is None:
            raise ValueError("dt is required when reading f64le data")
        values = np.frombuffer(path.read_bytes(), dtype="<f8").astype(np.float64)
        return values, _check_dt(dt)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected at least two CSV columns (t,value)")
    t, values = data[:, 0], data[:, 1]
    if dt is None:
        if t.size < 2:
            raise ValueError(f"{path}: cannot infer dt from a single row; pass dt")
        steps = np.diff(t)
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-8, atol=1e-12 * max(dt, 1.0)):
            raise ValueError(f"{path}: time column is not uniformly spaced")
    return values.astype(np.float64), _check_dt(dt)
