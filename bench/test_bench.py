"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py

They run real CLI subprocesses against ``src/`` (about a minute in all) and
write only under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

# Documented draw counts per sequence at the benchmark's sizes.
EXPECTED_DRAWS = {
    # fig1: white n, red 1 + (n - 1), du 1 + n, mixed 1 + n;
    # theorem, per replica: U_0, n - 1 OU innovations, n Brownian increments
    "sampler-spectra": 4 * bench.FIG1_N + 2
    + bench.THEOREM_REPLICAS * 2 * bench.THEOREM_POINTS,
    # per fig2 run: discrete n - 2, continuous (n - 1) * subsample - 1
    "restoring-long": bench.FIG2_REPLICATES * (
        (bench.FIG2_N - 2) + (bench.FIG2_N - 1) * bench.FIG2_SUBSAMPLE - 1),
    # red 1 + (n - 1), fgn 2n
    "series-roundtrip": bench.RED_N + 2 * bench.FGN_N,
}
EXPECTED_FFT_POINTS = {
    "sampler-spectra": 4 * bench.FIG1_N
    + bench.THEOREM_REPLICAS * bench.THEOREM_POINTS,
    "restoring-long": 0,
    "series-roundtrip": bench.RED_N + bench.FGN_N,
}


@pytest.fixture
def work():
    path = bench.WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_ops_failed_frac_counts_a_rejected_command(work, monkeypatch):
    # `psd --in` on a missing file is rejected by the CLI with exit code 2.
    commands = [
        bench.Command(("generate", "--model", "model=white", "--n", "1000",
                       "--seed", "0", "--out", "w.csv"),
                      outputs=(bench.Output("w.csv", lines=1001),)),
        bench.Command(("psd", "--in", "missing.csv", "--out", "p.csv")),
    ]
    monkeypatch.setitem(bench.WORKLOADS, "rejected",
                        bench.Workload(1000, lambda seed: commands))
    monkeypatch.setattr(bench, "WORK", work)
    record = bench.measure("rejected", None, 0.0, trace=False)
    rounds = bench.MIN_ROUNDS[False]
    assert [c["rc"] for c in record["sequences"][0]["commands"]] == [0, 2]
    assert (record["attempted"], record["failed"]) == (2 * rounds, rounds)
    assert record["values"]["ops_failed_frac"] == 0.5
    assert record["problems"], "a failed command must make the run incorrect"
    assert len(record["wall_s"]) == rounds and min(record["wall_s"]) > 0
    assert len(record["setup_s"]) == bench.SETUP_REPEATS


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_exact_counters_repeat(name, work):
    commands = bench.WORKLOADS[name].commands(None)
    runs = []
    for i in range(2):
        seq = bench.run_sequence(name, commands, work, traced=True, index=i,
                                 deadline=time.perf_counter() + 120)
        assert not seq["problems"], seq["problems"]
        runs.append({k: v for k, v in bench.layer_metrics(seq["commands"]).items()
                     if bench.is_counter(k)})
    assert runs[0] == runs[1]
    assert runs[0]["streams.draws"] == EXPECTED_DRAWS[name]
    assert runs[0].get("spectral.periodogram.points", 0) == EXPECTED_FFT_POINTS[name]


def test_layer_metrics_self_time_and_coverage():
    def span(id_, name, parent, start, end):
        return {"id": id_, "name": name, "parent": parent, "start": start,
                "end": end, "rss_rise_mb": 1.0}

    trace = {"spans": [span(0, "cli.import", None, 0.0, 1.0),
                       span(1, "cli.main", None, 1.0, 4.0),
                       span(2, "models.increments", 1, 1.5, 3.0),
                       span(3, "streams.fill", 2, 1.5, 2.0)],
             "counts": {"streams.draws": 7}}
    values = bench.layer_metrics([{"wall_s": 5.0, "trace": trace}])
    assert values["cli.import_s"] == 1.0
    assert values["models.increments.busy_s"] == 1.5
    assert values["models.increments.self_s"] == 1.0
    assert values["cli.main.self_s"] == 1.5
    assert values["streams.draws"] == 7
    # 1.5 s inside layer spans out of 4.0 s after import
    assert values["trace.coverage"] == pytest.approx(1.5 / 4.0)


def test_command_past_the_deadline_is_killed_and_fails(work):
    seq = bench.run_sequence("late", [bench.Command(("theorem",))], work,
                             traced=False, index=0, deadline=time.perf_counter())
    assert seq["commands"][0]["rc"] < 0
    assert not seq["commands"][0]["ok"] and seq["problems"]
