"""Run one ``rednoise`` CLI command with its layers traced.

    python bench/traced_cli.py SPANS.json COMMAND_ID -- CLI_ARGS...

The package source is not edited.  Before ``rednoise.cli.main`` runs, each
public function in ``PATCHES`` is replaced, in the module that looks it up,
by a wrapper that records a span (name, start, end, parent span, command id)
and the counters of ``COUNTERS``.  Spans stay in memory and are written to
SPANS.json when the command ends, whether it returns, fails or raises.  The
exit code and console output are those of the untraced command.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import resource
import sys
import time

# (module whose global or class attribute callers look up, attribute,
#  span name).  A function imported into several modules is wrapped in each,
#  under one span name: the module that defines it.
PATCHES = (
    ("rednoise.cli", "spectra_run", "figures.spectra_run"),
    ("rednoise.cli", "restoring_run", "figures.restoring_run"),
    ("rednoise.cli", "plateau_experiment", "plateau.plateau_experiment"),
    ("rednoise.cli", "increments", "models.increments"),
    ("rednoise.cli", "save_series", "series.save_series"),
    ("rednoise.cli", "load_values", "series.load_values"),
    ("rednoise.cli", "write_csv", "series.write_csv"),
    ("rednoise.cli", "periodogram", "spectral.periodogram"),
    ("rednoise.cli", "band_average", "spectral.band_average"),
    ("rednoise.cli", "empirical_acf", "spectral.empirical_acf"),
    ("rednoise.cli", "loglog_slope", "spectral.loglog_slope"),
    ("rednoise.figures", "increments", "models.increments"),
    ("rednoise.figures", "simulate_discrete", "simulate.simulate_discrete"),
    ("rednoise.figures", "simulate_continuous", "simulate.simulate_continuous"),
    ("rednoise.figures", "periodogram", "spectral.periodogram"),
    ("rednoise.figures", "band_average", "spectral.band_average"),
    ("rednoise.figures", "empirical_acf", "spectral.empirical_acf"),
    ("rednoise.figures", "loglog_slope", "spectral.loglog_slope"),
    ("rednoise.plateau", "ou_exact_sample", "models.ou_exact_sample"),
    ("rednoise.plateau", "periodogram", "spectral.periodogram"),
    ("rednoise.plateau", "band_average", "spectral.band_average"),
    ("rednoise.plateau", "loglog_slope", "spectral.loglog_slope"),
    ("rednoise.models", "ou_exact_sample", "models.ou_exact_sample"),
    ("rednoise.models", "fgn_sample", "models.fgn_sample"),
    ("rednoise.models", "lfilter", "models.lfilter"),
    ("rednoise.simulate", "lfilter", "simulate.lfilter"),
    ("rednoise.series", "write_csv", "series.write_csv"),
    ("rednoise.streams", "GaussianStream.fill", "streams.fill"),
    ("rednoise.streams", "GaussianStream.spawn", "streams.spawn"),
)


def _periodogram(pg, series):
    n = series.values.size
    # input, complex spectrum and the two output arrays
    return {"spectral.periodogram.points": n,
            "spectral.periodogram.bytes_computed": 8 * n + 16 * (n // 2 + 1)
            + pg.omegas.nbytes + pg.powers.nbytes}


def _empirical_acf(est, series, max_lag, *args, **kwargs):
    n = series.values.size
    lags = est.lags.size
    # each lag pass reads two operand slices of n - m values
    return {"spectral.empirical_acf.lag_passes": lags,
            "spectral.empirical_acf.bytes_computed":
                16 * (lags * n - lags * (lags - 1) // 2)}


def _lfilter(module):
    def count(result, b, a, x, *args, **kwargs):
        return {f"{module}.lfilter.points": len(x)}
    return count


def _write_csv(result, path, header, *columns):
    return {"series.write_csv.rows": len(columns[0]),
            "series.write_csv.bytes": os.path.getsize(path)}


def _save_series(result, path, series, *args, **kwargs):
    return {"series.save_series.rows": series.values.size,
            "series.save_series.bytes": os.path.getsize(path)}


def _load_values(result, path, *args, **kwargs):
    return {"series.load_values.rows": result[0].size,
            "series.load_values.bytes": os.path.getsize(path)}


def _fill(result, stream, n):
    return {"streams.draws": int(n)}


# Work counted at a span, as ``span name -> f(result, *args, **kwargs)``
# returning ``{counter name: amount}``.  Every span also counts its calls as
# ``<span name>.calls``; a run reports each counter summed over its calls.
COUNTERS = {
    "spectral.periodogram": _periodogram,
    "spectral.empirical_acf": _empirical_acf,
    "models.lfilter": _lfilter("models"),
    "simulate.lfilter": _lfilter("simulate"),
    "series.write_csv": _write_csv,
    "series.save_series": _save_series,
    "series.load_values": _load_values,
    "streams.fill": _fill,
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory recorder of nested spans and per-span counters."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "command": self.command_id}
        self.spans.append(record)
        self._stack.append(record["id"])
        rss0 = _maxrss_mb()
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["rss_rise_mb"] = _maxrss_mb() - rss0
            self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(f"{name}.calls", 1)
            if counter is not None:
                for key, amount in counter(result, *args, **kwargs).items():
                    self.count(key, amount)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in ``PATCHES``; record the ones that are absent."""
        for module_name, attr, name in PATCHES:
            *path, last = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, last, self.wrap(name, original))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": self.command_id, "spans": self.spans,
                       "counts": self.counts, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS.json COMMAND_ID -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    spans_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(command_id)
    try:
        with tracer.span("cli.import"):
            cli = importlib.import_module("rednoise.cli")
        tracer.install()
        with tracer.span("cli.main"):
            return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
