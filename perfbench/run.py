"""gupbic benchmark: prints every metric of one workload run, with its unit.

    python3 perfbench/run.py --workload scan-wkb --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s`` from
fresh interpreters, the rest from a workload child process (workloads.py).
Times are scaled to a reference machine speed by calibration work that never
calls gupbic (speed.py, README "Machine speed").
With ``--trace 1`` the child runs a fixed, seeded request list with the
layer wrappers of tracer.py and reports the per-layer metrics.  The metric
names and units come from BENCHMARK.json; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is not 0, and no result is printed, when gupbic cannot be
imported from this checkout's ``src`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-well", "scan-wkb", "cli-mix")
SETUP_STARTS = 3
RUN_LIMIT_S = 170.0

# a user's set-up: start Python, import the CLI, scale the default setup
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import gupbic.cli
from gupbic.core import nondimensionalize
if not gupbic.cli.__file__.startswith({src!r}):
    sys.exit("gupbic imported from outside the checkout: " + gupbic.cli.__file__)
nondimensionalize(gupbic.cli.default_setup())
"""

# a calibration start: an interpreter importing numpy and a fixed set of stdlib
# modules, never gupbic.  Set-up CPU times are scaled to the reference speed, at
# which this start takes REFERENCE_START_S of CPU time (near its time on a
# 2-vCPU Xeon VM when that runs fast).
CALIBRATION_CODE = (
    "import numpy, json, decimal, fractions, email.parser, http.client, xml.dom.minidom, "
    "unittest, argparse, asyncio, csv, sqlite3, tarfile"
)
REFERENCE_START_S = 0.2

# one thread per process: the benchmark measures the single-threaded program
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchmarkError(Exception):
    pass


def child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=timeout, env=CHILD_ENV, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def start_seconds(code: str, deadline: float) -> tuple[float, float]:
    """Wall and CPU seconds of one fresh interpreter running ``code``."""
    t0, c0 = time.perf_counter(), children_cpu_s()
    child([sys.executable, "-c", code], deadline - time.monotonic())
    return time.perf_counter() - t0, children_cpu_s() - c0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(deadline: float) -> tuple[float, list[float]]:
    """Median set-up CPU time at the reference speed.  Calibration starts run
    before, between and after the set-up starts; each set-up is scaled by the
    mean CPU time of its two neighbours.  The median also drops the one slow start of
    a fresh checkout, which compiles the bytecode."""
    setup = SETUP_CODE.format(src=str(SRC))
    calibration = [start_seconds(CALIBRATION_CODE, deadline)[1]]
    walls, scaled = [], []
    for i in range(SETUP_STARTS):
        wall, cpu = start_seconds(setup, deadline)
        calibration.append(start_seconds(CALIBRATION_CODE, deadline)[1])
        walls.append(wall)
        scaled.append(cpu * REFERENCE_START_S / statistics.mean(calibration[i : i + 2]))
    return statistics.median(scaled), walls


def workload_report(args, deadline: float) -> dict:
    proc = child(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic(),
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("workload child printed no report")
    return json.loads(lines[-1])


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        declared = declared_metrics(args.trace)
        measured = {}
        if not args.trace:
            measured["setup_s"], starts = setup_seconds(deadline)
            print(f"setup_s wall of each start: {', '.join(f'{t:.4f}' for t in starts)}")
        report = workload_report(args, deadline)
        measured.update(report["metrics"])
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise BenchmarkError(f"workload reported no value for {missing}")
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed}: {json.dumps(report['info'], sort_keys=True)}")
    for failure in report["first_failures"]:
        print(f"FAILED {failure}")
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
