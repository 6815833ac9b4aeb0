"""Benchmark of the rednoise CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  A workload is a fixed sequence of
``python -m rednoise.cli`` commands, run one subprocess at a time from this
single process (a closed loop with one client).  The sequence repeats until
``--seconds`` is spent, and every repetition is checked for correctness.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced sequences with sequences whose commands
run under ``bench/traced_cli.py``, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full run record is written to
``.bench_work/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED_CLI = BENCH / "traced_cli.py"

# A run kills any command still running this long after the run started, so
# that it ends within three minutes even if the program hangs; a killed
# command counts as failed.
RUN_DEADLINE_S = 170.0
# Fresh-interpreter imports timed per run for setup_s.  They are spread
# over the run, between sequences, so that setup_s and wall_s see the same
# stretch of host load.  The first one in a new checkout also compiles the
# bytecode; the median leaves it out.
SETUP_REPEATS = 5
# Thread pools pinned to one thread in every child.  rednoise makes no BLAS
# or OpenMP call, but numpy's OpenBLAS starts one thread per core at import;
# on a host with few cores those threads contend with the command itself.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
# Sequences run at least this many times, even past --seconds, so that a
# median exists (untraced runs) or an overhead can be taken (traced runs).
MIN_ROUNDS = {False: 3, True: 1}

# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

# Seeds the CLI publishes for its self-checking commands; used when --seed
# is omitted.  ``generate`` has no published seed and uses 0.
PUBLISHED_SEEDS = {"fig1": 20, "fig2": 1, "theorem": 3, "generate": 0}

# The gates of fig1, fig2 and theorem are statistical, and the CLI warns that
# some seeds miss them.  At the scale used here fig2 --quick misses its 3%
# tolerance at CLI seeds 19 and 20 (continuous ACF deviation 0.031 and
# 0.035).  With --seed N these commands use entry N (mod length) of a list
# of CLI seeds that were each run at this scale and passed; the k-th
# replicate of a command in one sequence uses the entry k places further.
# Without --seed the published seed's entry is the first.
CHECKED_SEEDS = {
    "fig1": tuple(range(25)),
    "theorem": tuple(range(25)),
    "fig2": tuple(s for s in range(28) if s not in (19, 20)),
}


def cli_seed(command: str, seed: int | None, replicate: int = 0) -> int:
    if command == "generate":
        return PUBLISHED_SEEDS[command] if seed is None else seed
    pool = CHECKED_SEEDS[command]
    start = pool.index(PUBLISHED_SEEDS[command]) if seed is None else seed
    return pool[(start + replicate) % len(pool)]


# ---------------------------------------------------------------------------
# correctness gates printed by the CLI
# ---------------------------------------------------------------------------

def _gate(name, value, target, tol, binding):
    return {"name": name, "value": value, "target": target, "tol": tol,
            "binding": binding, "ok": abs(value - target) <= tol}


def _fig1_gates(text: str) -> list[dict]:
    # max_rel_dev is printed against a reference tolerance that the CLI does
    # not enforce (acceptance criterion 1 explains why); red_slope is the gate.
    gates = [_gate(f"fig1.max_rel_dev.{model}", float(dev), 0.0, float(tol),
                   binding=False)
             for model, dev, tol in re.findall(
                 r"^fig1 model=(\w+) .*max_rel_dev=([\d.]+) .*ref_tol=([\d.]+)",
                 text, re.M)]
    m = re.search(r"^fig1 red_slope=(-?[\d.]+)", text, re.M)
    if m:
        gates.append(_gate("fig1.red_slope", float(m[1]), -2.0, 0.05, True))
    return gates


def _fig2_gates(text: str) -> list[dict]:
    m = re.search(r"^fig2 max_rel_dev discrete=([\d.]+) continuous=([\d.]+) "
                  r"tol=([\d.]+)", text, re.M)
    if not m:
        return []
    tol = float(m[3])
    return [_gate("fig2.max_rel_dev.discrete", float(m[1]), 0.0, tol, True),
            _gate("fig2.max_rel_dev.continuous", float(m[2]), 0.0, tol, True)]


def _theorem_gates(text: str) -> list[dict]:
    m = re.search(r"plateau ([-\d.eE+]+) vs target ([-\d.eE+]+) "
                  r"\(rel dev [\d.]+%, tol ([\d.]+)%\)", text)
    if not m:
        return []
    target = float(m[2])
    return [_gate("theorem.plateau", float(m[1]), target,
                  float(m[3]) / 100.0 * abs(target), True)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Output:
    """A file a command writes, relative to the workload's output directory."""

    path: str
    lines: int | None = None      # CSV: header plus rows
    size: int | None = None       # raw file: bytes


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]         # arguments after ``rednoise``
    outputs: tuple[Output, ...] = ()
    gates: Callable[[str], list[dict]] | None = None


@dataclass(frozen=True)
class Workload:
    points: int                   # grid points produced or read per sequence
    commands: Callable[[int | None], list[Command]]


FIG1_N = 8_000_000                # per model; published 2e7, --quick 2**21
FIG1_BAND = 1000                  # fig1's default band width
FIG2_N = 2_000_000                # fig2 --quick output length
FIG2_SUBSAMPLE = 10               # fine steps per output step
FIG2_LAGS = 21                    # fig2's default --max-lag 20, plus lag 0
# fig2 --quick runs per sequence, each on its own CLI seed.  One run is about
# 2 s, shorter than the slow spells of a shared host, so a median of single
# runs jumps between a fast and a slow level; three in a row average them.
FIG2_REPLICATES = 3
THEOREM_REPLICAS = 256
THEOREM_POINTS = 100_000          # T=1000 at dt=0.01, the CLI defaults
RED_N = 200_000
FGN_N = 2_000_000
PSD_BANDS = 10_000                # rows of each psd output


def _sampler_spectra(seed):
    rows = FIG1_N // 2 // FIG1_BAND + 1
    return [
        Command(("fig1", "--n", str(FIG1_N), "--seed",
                 str(cli_seed("fig1", seed)), "--out", "fig1"),
                outputs=tuple(Output(f"fig1/{m}.csv", lines=rows)
                              for m in ("white", "red", "du", "mixed")),
                gates=_fig1_gates),
        Command(("theorem", "--replicas", str(THEOREM_REPLICAS),
                 "--seed", str(cli_seed("theorem", seed)),
                 "--out", "theorem.csv"),
                outputs=(Output("theorem.csv", lines=6),),
                gates=_theorem_gates),
    ]


def _restoring_long(seed):
    return [Command(
        ("fig2", "--quick", "--seed", str(cli_seed("fig2", seed, k)),
         "--out", f"fig2-{k}"),
        outputs=tuple(Output(f"fig2-{k}/{name}.csv", lines=FIG2_LAGS + 1)
                      for name in ("discrete", "continuous", "theory")),
        gates=_fig2_gates) for k in range(FIG2_REPLICATES)]


def _series_roundtrip(seed):
    s = str(cli_seed("generate", seed))
    return [
        Command(("generate", "--model", "model=red theta=0.1", "--n", str(RED_N),
                 "--seed", s, "--out", "red.csv"),
                outputs=(Output("red.csv", lines=RED_N + 1),)),
        Command(("generate", "--model", "model=fgn hurst=0.9", "--n", str(FGN_N),
                 "--seed", s, "--out", "fgn.f64le"),
                outputs=(Output("fgn.f64le", size=8 * FGN_N),)),
        Command(("psd", "--in", "red.csv", "--band-width",
                 str(RED_N // 2 // PSD_BANDS), "--out", "red_psd.csv"),
                outputs=(Output("red_psd.csv", lines=PSD_BANDS + 1),)),
        Command(("acf", "--in", "red.csv", "--max-lag", "20",
                 "--out", "red_acf.csv"),
                outputs=(Output("red_acf.csv", lines=22),)),
        Command(("psd", "--in", "fgn.f64le", "--dt", "1", "--band-width",
                 str(FGN_N // 2 // PSD_BANDS), "--out", "fgn_psd.csv"),
                outputs=(Output("fgn_psd.csv", lines=PSD_BANDS + 1),)),
        Command(("slope", "--in", "red_psd.csv", "--omega-min", "0.5",
                 "--omega-max", "2", "--out", "red_slope.csv"),
                outputs=(Output("red_slope.csv", lines=2),)),
    ]


WORKLOADS = {
    # fig1's four long samplers and 8e6-point FFTs, then theorem's many
    # small, cache-resident sampler and FFT calls
    "sampler-spectra": Workload(4 * FIG1_N + THEOREM_REPLICAS * THEOREM_POINTS,
                                _sampler_spectra),
    "restoring-long": Workload(
        FIG2_REPLICATES * (FIG2_N + (FIG2_N - 1) * FIG2_SUBSAMPLE),
        _restoring_long),
    "series-roundtrip": Workload(
        # generate red and fgn; psd and acf read red; psd reads fgn;
        # slope reads the red psd
        RED_N + FGN_N + 2 * RED_N + FGN_N + PSD_BANDS, _series_roundtrip),
}

# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **CHILD_THREADS,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine, all CPUs summed.

    Wall time on a shared virtual machine rises with it; the record keeps it
    per sequence so that a slow stretch of the host can be told from a slow
    program.  None where ``/proc/stat`` has no steal column.
    """
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def spawn(argv: list[str], cwd: Path, log_path: Path, deadline: float) -> dict:
    """Run ``argv`` to completion, or kill it at ``deadline``.

    Returns the exit code, wall time and the child's own CPU time and peak
    RSS.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            # wait4 rather than wait: it returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_output(out_dir: Path, output: Output) -> str | None:
    path = out_dir / output.path
    if not path.is_file():
        return f"{output.path}: missing"
    if output.size is not None and path.stat().st_size != output.size:
        return f"{output.path}: {path.stat().st_size} bytes, expected {output.size}"
    if output.lines is not None:
        with open(path, "rb") as fh:
            lines = sum(block.count(b"\n")
                        for block in iter(lambda: fh.read(1 << 20), b""))
        if lines != output.lines:
            return f"{output.path}: {lines} lines, expected {output.lines}"
    return None


def run_sequence(name: str, commands: list[Command], work: Path,
                 traced: bool, index: int, deadline: float) -> dict:
    """Run one pass of a workload's commands and check what they did."""
    out_dir = work / "out"
    logs = work / "logs"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    logs.mkdir(parents=True, exist_ok=True)
    results, problems = [], []
    steal0 = steal_s()
    for i, cmd in enumerate(commands):
        tag = f"{'t' if traced else 'u'}{index}-{i}"
        spans_path = logs / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(TRACED_CLI), str(spans_path),
                    f"{name}/{tag}", "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "rednoise.cli", *cmd.argv]
        log_path = logs / f"{tag}.log"
        res = spawn(argv, out_dir, log_path, deadline)
        text = log_path.read_text(encoding="utf-8", errors="replace")
        status = [line for line in text.splitlines()
                  if line.startswith(("OK ", "PASS ", "FAIL ", "error:"))]
        res.update(argv=list(cmd.argv), status=status,
                   gates=cmd.gates(text) if cmd.gates else [])
        res["ok"] = (res["rc"] == 0 and "Traceback" not in text
                     and not any(line.startswith("FAIL") for line in status)
                     and any(line.startswith(("OK ", "PASS ")) for line in status))
        if not res["ok"]:
            problems.append(f"{cmd.argv[0]} #{i} failed: rc={res['rc']} "
                            f"{(status or text.splitlines()[-1:] or [''])[-1]}")
        if cmd.gates and not res["gates"]:
            problems.append(f"{cmd.argv[0]} #{i}: gate values not printed")
        problems += [f"{g['name']}={g['value']} outside {g['target']} +/- {g['tol']}"
                     for g in res["gates"] if g["binding"] and not g["ok"]]
        if traced:
            res["trace"] = (json.loads(spans_path.read_text())
                            if spans_path.is_file() else None)
        results.append(res)
    steal1 = steal_s()
    hashes = {}
    for cmd in commands:
        for output in cmd.outputs:
            problem = _check_output(out_dir, output)
            if problem:
                problems.append(problem)
            else:
                hashes[output.path] = _sha256(out_dir / output.path)
    return {"traced": traced, "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "steal_s": None if steal0 is None else steal1 - steal0,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "commands": results, "outputs": hashes, "problems": problems}


def time_setup(work: Path, times: list[float], problems: list[str],
               deadline: float) -> None:
    """Time one fresh interpreter importing ``rednoise.cli``."""
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-c", "import rednoise.cli"]
    res = spawn(argv, work, logs / f"setup{len(times)}.log", deadline)
    times.append(res["wall_s"])
    if res["rc"] != 0:
        problems.append(f"import rednoise.cli failed: rc={res['rc']}")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(commands: list[dict]) -> dict:
    """Per-layer values of one traced sequence.

    ``commands`` holds each command's parent-measured ``wall_s`` and its
    ``trace`` (spans and counters from ``traced_cli.py``).  For every span
    name this gives ``busy_s`` (span time), ``self_s`` (span time minus
    child spans) and ``rss_rise_mb`` (largest rise of peak RSS across one
    span); counters are summed.  ``cli.import_s`` is the import span, and
    ``trace.coverage`` the share of wall time after import that falls inside
    layer spans below ``cli.main``.
    """
    values: dict[str, float] = {}
    covered = after_import = 0.0
    for cmd in commands:
        trace = cmd.get("trace") or {"spans": [], "counts": {}}
        spans = trace["spans"]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        import_s = 0.0
        for s in spans:
            duration = s["end"] - s["start"]
            name = s["name"]
            values[f"{name}.busy_s"] = values.get(f"{name}.busy_s", 0.0) + duration
            values[f"{name}.self_s"] = (values.get(f"{name}.self_s", 0.0)
                                        + duration - child_time.get(s["id"], 0.0))
            values[f"{name}.rss_rise_mb"] = max(
                values.get(f"{name}.rss_rise_mb", 0.0), s["rss_rise_mb"])
            if name == "cli.import":
                import_s += duration
            elif name == "cli.main":
                covered += child_time.get(s["id"], 0.0)
        for key, amount in trace["counts"].items():
            values[key] = values.get(key, 0) + amount
        values["cli.import_s"] = values.get("cli.import_s", 0.0) + import_s
        after_import += cmd["wall_s"] - import_s
    values["trace.coverage"] = covered / after_import if after_import > 0 else 0.0
    return values


def is_counter(name: str) -> bool:
    """Counters must repeat exactly; times and memory may not."""
    return not name.endswith(("_s", "_mb")) and name != "trace.coverage"


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_facts() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    meminfo = re.search(r"^MemTotal:\s*(\d+) kB", _read("/proc/meminfo") or "", re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model[1].strip() if model else platform.processor(),
            "caches": caches,
            "ram_mb": int(meminfo[1]) // 1024 if meminfo else None,
            "python": platform.python_version(), **versions}


def source_facts() -> dict:
    """Line count of ``src/`` and the package's ``__all__`` export count."""
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    exports = None
    init = SRC / "rednoise" / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exports = len(node.value.elts)
    return {"src_lines": lines, "exports": exports}


def thread_env() -> dict:
    return {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(xs) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(xs)
    if n < 11:
        return f"tail percentile n/a ({n} samples, need 11)"
    p = int(100 * (1 - 10 / n))
    value = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.4f} s over {n} samples"


def count_ops(sequences: list[dict]) -> tuple[int, int]:
    """Commands attempted and failed; a failed command still counts in wall_s."""
    commands = [c for s in sequences for c in s["commands"]]
    return len(commands), sum(not c["ok"] for c in commands)


def measure(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    work = WORK / name
    deadline = time.perf_counter() + RUN_DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup, problems = [], []
    sequences = []
    start = time.perf_counter()
    rounds = 0
    while True:
        # imports due by now, if SETUP_REPEATS are spread evenly over the run
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while len(setup) < min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * share)):
            time_setup(work, setup, problems, deadline)
        sequences.append(run_sequence(name, commands, work, False, rounds,
                                      deadline))
        if trace:
            sequences.append(run_sequence(name, commands, work, True, rounds,
                                          deadline))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        time_setup(work, setup, problems, deadline)
    for seq in sequences:
        problems += seq["problems"]
    reference = sequences[0]["outputs"]
    for seq in sequences[1:]:
        changed = sorted(p for p in reference if seq["outputs"].get(p) != reference[p])
        if changed:
            problems.append(f"outputs differ between repetitions: {changed}")
            break

    untraced = [s for s in sequences if not s["traced"]]
    walls = [s["wall_s"] for s in untraced]
    wall_s = _median(walls)
    attempted, failed = count_ops(sequences)
    values = {"wall_s": wall_s,
              "samples_per_s": workload.points / wall_s if wall_s else 0.0,
              "peak_rss_mb": _median([s["peak_rss_mb"] for s in untraced]),
              "setup_s": _median(setup),
              "ops_failed_frac": failed / attempted}
    if trace:
        traced = [s for s in sequences if s["traced"]]
        per_seq = [layer_metrics(s["commands"]) for s in traced]
        keys = sorted(set().union(*per_seq))
        for key in keys:
            column = [m.get(key, 0) for m in per_seq]
            if is_counter(key):
                if len(set(column)) > 1:
                    problems.append(f"counter {key} differs between runs: {column}")
                values[key] = column[0]
            else:
                values[key] = _median(column)
        values["trace.overhead_s"] = _median([s["wall_s"] for s in traced]) - wall_s
        missing = sorted({m for s in traced for c in s["commands"]
                          for m in ((c.get("trace") or {}).get("missing") or [])})
        if missing:
            print(f"note: not traced (absent from src): {', '.join(missing)}")

    return {"workload": name, "seed": seed, "trace": trace,
            "seconds": seconds,
            "cli_seeds": _cli_seeds(commands),
            "points": workload.points, "setup_s": setup,
            "wall_s": walls, "wall_tail": _tail(walls),
            "attempted": attempted, "failed": failed, "problems": problems,
            "values": values,
            "gates": [g for c in sequences[0]["commands"] for g in c["gates"]],
            "outputs_sha256": reference,
            "sequences": [{k: v for k, v in s.items() if k != "commands"}
                          | {"commands": [{k: v for k, v in c.items() if k != "trace"}
                                          for c in s["commands"]]}
                          for s in sequences],
            "machine": machine_facts(), "thread_env": thread_env(),
            "child_thread_env": CHILD_THREADS,
            "source": source_facts()}


def _cli_seeds(commands: list[Command]) -> dict[str, list[int]]:
    seeds: dict[str, list[int]] = {}
    for cmd in commands:
        if "--seed" in cmd.argv:
            seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
            if seed not in seeds.setdefault(cmd.argv[0], []):
                seeds[cmd.argv[0]].append(seed)
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the CLI's published seeds)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="time to spend repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rednoise" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no rednoise source tree at {SRC} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = record["values"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    record["metrics"] = metrics
    WORK.mkdir(exist_ok=True)
    record_path = WORK / (f"record-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  cli seeds "
          f"{record['cli_seeds']}  sequences {len(record['sequences'])}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'ops_failed_frac':44s} {values['ops_failed_frac']:>16.6g} frac")
        print(f"  wall_s {record['wall_tail']}")
    for g in record["gates"]:
        print(f"  gate {g['name']} = {g['value']:g} (target {g['target']:g} "
              f"+/- {g['tol']:g}, {'binding' if g['binding'] else 'reference'}) "
              f"{'ok' if g['ok'] else 'outside'}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  record: {record_path}")
    print(json.dumps({"correct": not record["problems"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
