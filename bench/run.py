"""Benchmark of `autosand run` on scaled-down workcells.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each `autosand run` happens in a fresh
process (bench/child.py): one client, closed loop, runs back to back for S
seconds, and at least once on each of the workload's fixed cells.  Every
run's artifacts are checked against bench/reference.json, and a calibration
loop timed between runs scales the times to a reference host speed.  The
last line of standard output is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from traced runs (alternating with untraced
ones, for the tracing overhead) with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TIME_LIMIT = 170.0    # seconds one invocation may take, children included
# The host's speed swings by up to 1.7x for minutes at a time: the same run
# took 2.4 s and 4.4 s a minute apart.  A fixed calibration loop, timed before
# and after every run, swings with it, so times are reported scaled to a host
# on which the loop takes REF_PROBE_S; it took 0.23-0.46 s on a 2-core Xeon VM.
REF_PROBE_S = 0.3


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def probe() -> float:
    """Seconds a fixed loop of 4x4 numpy solves and Python arithmetic takes."""
    a = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) * 0.01
    b = np.arange(1.0, 5.0)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(30000):
        x = np.linalg.solve(a, b)
        acc += float(x @ x) + sum(abs(v) for v in x)
        a[0, 0] += 1e-12
    return time.perf_counter() - start


def spawn(work: Path, ini: Path, k: int, trace: bool, run_id: str, deadline: float) -> dict:
    """Run one `autosand run` in a fresh process and return its result record."""
    out = work / f"run{k}"
    result_path = work / f"run{k}.json"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the run started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(ROOT), str(ini), str(out),
             str(result_path), repr(t0), "1" if trace else "0", run_id],
            stdout=sys.stderr, env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"run {run_id} exceeded the time limit") from err
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"run {run_id} could not run (exit {proc.returncode})")
    result = json.loads(result_path.read_text())
    result["wall_s"] = time.monotonic() - t0
    shutil.rmtree(out, ignore_errors=True)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced and traced run records, made back to back for `seconds`.

    Untraced runs cycle through the seed's inputs, one per cell; with
    tracing, runs alternate untraced and traced on the seed's first input
    only, so call counts repeat exactly and the difference is the tracing
    overhead.
    """
    import workloads

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.inputs(seed)[:1] if trace else workloads.inputs(seed)
    for cell, ga in inputs:
        workloads.write_ini(workload, cell, ga, work / f"{workloads.key(cell, ga)}.ini")
    deadline = time.monotonic() + TIME_LIMIT
    # compile and cache autosand's modules so the first run's set-up is not an outlier
    subprocess.run([sys.executable, "-c", "import autosand.cli"], env=child_env(),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)

    plain, traced = [], []
    min_plain = 1 if trace else len(inputs)
    end = time.monotonic() + seconds
    probe()  # warm-up
    probes = [probe()]
    for k in itertools.count():
        use_trace = trace and k % 2 == 1
        s = workloads.key(*inputs[(k // 2 if trace else k) % len(inputs)])
        result = spawn(work, work / f"{s}.ini", k, use_trace,
                       f"{workload}-s{seed}-r{k}", deadline)
        probes.append(probe())
        scale = REF_PROBE_S / statistics.fmean(probes[-2:])
        result.update(input=s, k=k, traced=use_trace, probe_s=probes[-1],
                      run_ref_s=result["run_s"] * scale,
                      setup_ref_s=result["setup_s"] * scale)
        (traced if use_trace else plain).append(result)
        typical = statistics.median(r["wall_s"] + r["probe_s"] for r in plain + traced)
        done = len(plain) >= min_plain and (traced or not trace)
        if done and time.monotonic() + typical > end:
            break
    return plain, traced


def tally(runs: list, wanted) -> tuple[int, int, bool]:
    """Face attempts, failed attempts and overall correctness of some runs.

    A run that exits non-zero or whose digest differs from the reference
    counts every face attempt as failed.
    """
    attempted = failed = 0
    correct = True
    for r in runs:
        n = r.get("attempted", r["faces"])
        ok = r["code"] == 0 and r.get("digest") == wanted(r["input"])
        attempted += n
        failed += r["failed"] if ok else n
        correct = correct and ok
    return attempted, failed, correct


def end_to_end(plain: list, attempted: int, failed: int) -> dict:
    """Medians over the untraced runs, plus the run-level quality numbers.

    Cells differ in work and in outcome, and a cell may run once more than
    another in the time given, so run_s, travel_cost and force_err_n are
    means over cells of each cell's median.  run_s and setup_s are scaled to
    the reference host speed; run_wall_s and setup_wall_s are as measured.
    """
    def med(key):
        seen = [r[key] for r in plain if r.get(key) is not None]
        return statistics.median(seen) if seen else float("nan")

    def cell_mean(key):
        by_input = {}
        for r in plain:
            if r.get(key) is not None:
                by_input.setdefault(r["input"], []).append(r[key])
        if not by_input:
            return float("nan")
        return statistics.fmean(statistics.median(v) for v in by_input.values())

    return {"run_s": cell_mean("run_ref_s"), "setup_s": med("setup_ref_s"),
            "run_wall_s": cell_mean("run_s"), "setup_wall_s": med("setup_s"),
            "probe_s": med("probe_s"), "peak_rss_mb": med("peak_rss_mb"), "pass_ratio": 1.0 - failed / attempted,
            "fail_ratio": failed / attempted, "travel_cost": cell_mean("travel_cost"),
            "force_err_n": cell_mean("force_err_n")}


def per_layer(plain: list, traced: list) -> dict:
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["planner.travel_cost"] = statistics.median(r["travel_cost"] for r in traced)
    layers["controller.force_err_n"] = statistics.median(r["force_err_n"] for r in traced)
    layers["trace.overhead_s"] = (statistics.median(r["run_ref_s"] for r in traced)
                                  - statistics.median(r["run_ref_s"] for r in plain))
    return layers


def environment() -> dict:
    """Machine and code identity recorded with each result."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "autosand").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas, "commit": commit,
            "src_lines": src_lines}


def declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(values: dict, section: str) -> dict:
    units = declared(section)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "autosand" / "__init__.py").is_file():
        print(f"no autosand sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = check.load_reference()

    def wanted(s):
        return check.expected(reference, args.workload, s)

    if any(wanted(workloads.key(*i)) is None for i in workloads.inputs(args.seed)):
        print(f"no reference digest for {args.workload} seed {args.seed}", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    attempted, failed, correct = tally(plain, wanted)
    correct = correct and tally(traced, wanted)[2]
    values = end_to_end(plain, attempted, failed)
    for r in traced:
        if r["unwrapped"]:
            print(f"not traced (missing): {', '.join(r['unwrapped'])}", file=sys.stderr)
    runs = [{key: r[key] for key in ("run_id", "input", "traced", "run_s", "setup_s",
                                     "probe_s", "run_ref_s")}
            for r in sorted(plain + traced, key=lambda r: r["k"])]
    print(json.dumps({"env": environment(), "runs": runs, "e2e": values}))
    try:
        metrics = (report(per_layer(plain, traced), "per_layer") if args.trace
                   else report(values, "end_to_end"))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
