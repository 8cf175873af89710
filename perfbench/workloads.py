"""Workload process of the gupbic benchmark.

Generates every input from the seed, drives gupbic through its public entry
points (``spectrum.dof_scan`` and an in-process ``cli.main(argv)``), checks
each output at the acceptance suite's tolerances and prints one JSON object.
``run.py`` starts this file in a child process so that the child's peak
resident memory is the workload's own.

    python3 perfbench/workloads.py --workload scan-wkb --seed 1 --seconds 12 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
sys.path[:0] = [str(SRC), str(HERE)]

# calls go through these module objects, so the tracer's patches apply
import gupbic.cli as cli  # noqa: E402
import gupbic.core as core  # noqa: E402
import gupbic.spectrum as spectrum  # noqa: E402
import speed  # noqa: E402
from tracer import WKB_CLASSIFY_LABELS, Tracer  # noqa: E402

if Path(core.__file__).resolve().parent != SRC / "gupbic":
    raise ImportError(f"gupbic imported from {core.__file__}, not from {SRC}")

M_E = 9.10956e-31  # kg, the CLI's default electron mass
ENERGY_SCALE = 1e-18  # J, canonical energy of the WKB reference setups
E_LO, E_HI = 1e-19, 2e-17  # J, the energy range of acceptance criterion 2
WKB_EPS = (1e-4, 0.2)  # scan-wkb epsilon; harmonic scans fail above ~0.28
WAVE_EPS = (0.02, 0.2)  # harmonic wavefunction epsilon; see README "Known failures"
WELL_BETA_EXP = (41.0, 47.0)
EXPECTED_DOF = {"well": 2, "linear": 1, "harmonic": 2}
WALL_TOL = 1e-8  # criterion 3
MOMENTUM_RESIDUAL_TOL = 1e-10  # criterion 8
EXPONENT_TOL = 1e-8  # criterion 7
SPECTRUM_RTOL = 1e-10  # criterion 1

CLI_KEYS = (
    "wavefunction.well",
    "wavefunction.harmonic",
    "dof-scan.well",
    "dof-scan.linear",
    "dof-scan.harmonic",
    "observability.well",
    "observability.linear",
    "observability.harmonic",
    "spectrum.well",
    "momentum-check.linear",
    "verify.well",
)


# --- seeded inputs -------------------------------------------------------------

PURPOSES = {"warmup": 1, "timed": 2, "trace": 3}


def input_rng(seed: int, purpose: str) -> np.random.Generator:
    """One stream per seed and phase, so warm-up, timed and traced inputs differ."""
    return np.random.default_rng([seed, PURPOSES[purpose]])


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def energies(rng: np.random.Generator, n: int, lo: float = E_LO, hi: float = E_HI) -> np.ndarray:
    """n strictly increasing energies in [lo, hi] J."""
    values = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(values) <= 0.0):
        values = np.sort(rng.uniform(lo, hi, n))
    return values


def wkb_setup_args(kind: str, eps: float) -> dict:
    """beta and slope or omega of the reference WKB setup with E_c = 1e-18 J.

    The acceptance suite's linear/harmonic setups, computed here rather than
    taken from gupbic.verification so that the inputs cannot change with the
    program under test.
    """
    hbar = core.HBAR
    if kind == "linear":
        length = hbar / math.sqrt(2.0 * M_E * ENERGY_SCALE)
        extra = {"L": ENERGY_SCALE / length}
    else:
        omega = 2.0 * ENERGY_SCALE / hbar
        length = math.sqrt(hbar / (M_E * omega))
        extra = {"omega": omega}
    return {"beta": 1.5 * eps * length**2 / hbar**2, **extra}


def physical_setup(kind: str, beta: float, a: float = 1e-10, L=None, omega=None):
    potential = {
        "well": lambda: core.InfiniteWell(a=a),
        "linear": lambda: core.Linear(slope=L),
        "harmonic": lambda: core.Harmonic(omega=omega),
    }[kind]()
    return core.PhysicalSetup(mass=M_E, beta=beta, potential=potential)


def cli_flags(kind: str, args: dict) -> list[str]:
    flags = ["--potential", kind]
    for key, value in args.items():
        flags += [f"--{key}", repr(value)]
    return flags


@dataclass
class ScanRequest:
    kind: str
    setup_args: dict
    energies: np.ndarray

    @property
    def key(self) -> str:
        return f"dof_scan.{self.kind}"

    @property
    def ops(self) -> int:
        return len(self.energies)


@dataclass
class CliRequest:
    argv: list[str]
    key: str
    ops: int = 1


def scan_well_requests(rng: np.random.Generator):
    while True:
        beta = 10.0 ** rng.uniform(*WELL_BETA_EXP)
        yield ScanRequest("well", {"beta": beta}, energies(rng, 32))


def scan_wkb_requests(rng: np.random.Generator):
    while True:
        for kind in ("harmonic", "linear"):
            eps = log_uniform(rng, *WKB_EPS)
            yield ScanRequest(kind, wkb_setup_args(kind, eps), energies(rng, 2))


def cli_round(rng: np.random.Generator) -> list[CliRequest]:
    """One round of the mix: one request per command and potential, in a fixed order.

    Linear ``wavefunction`` is left out: it fails for about half of the
    energies (README "Known failures").
    """

    def energy() -> str:
        return repr(rng.uniform(E_LO, E_HI))

    def grid(n: int) -> list[str]:
        lo, hi = energies(rng, 2)
        return ["--n", str(n), "--e-min", repr(float(lo)), "--e-max", repr(float(hi))]

    def wkb(kind: str, eps_range) -> list[str]:
        return cli_flags(kind, wkb_setup_args(kind, log_uniform(rng, *eps_range)))

    a = log_uniform(rng, 5e-11, 2e-10)
    omega = log_uniform(rng, 1e15, 1e30)
    slope = log_uniform(rng, 1e-29, 1e-8)
    momentum_energy = repr(rng.uniform(0.5, 5.0) * ENERGY_SCALE)
    return [
        CliRequest(["wavefunction", "--E", energy()], "wavefunction.well"),
        CliRequest(["wavefunction", "--E", energy()] + wkb("harmonic", WAVE_EPS), "wavefunction.harmonic"),
        CliRequest(["dof-scan"] + grid(64), "dof-scan.well"),
        CliRequest(["dof-scan"] + grid(3) + wkb("linear", WKB_EPS), "dof-scan.linear"),
        CliRequest(["dof-scan"] + grid(3) + wkb("harmonic", WKB_EPS), "dof-scan.harmonic"),
        CliRequest(["observability", "--a", repr(a)], "observability.well"),
        CliRequest(["observability", "--potential", "linear", "--L", repr(slope)], "observability.linear"),
        CliRequest(["observability", "--potential", "harmonic", "--omega", repr(omega)], "observability.harmonic"),
        CliRequest(["spectrum", "--k-max", str(rng.integers(1, 9)), "--a", repr(a)], "spectrum.well"),
        CliRequest(
            ["momentum-check", "--E", momentum_energy] + cli_flags("linear", wkb_setup_args("linear", 1e-2)),
            "momentum-check.linear",
        ),
        CliRequest(["verify"], "verify.well"),
    ]


ROUND_SIZE = 11  # len(cli_round(...))


def cli_mix_requests(rng: np.random.Generator):
    while True:
        yield from cli_round(rng)


WORKLOADS = {
    "scan-well": scan_well_requests,
    "scan-wkb": scan_wkb_requests,
    "cli-mix": cli_mix_requests,
}
ROUND = {"scan-well": 1, "scan-wkb": 1, "cli-mix": ROUND_SIZE}
WARMUP_REQUESTS = {"scan-well": 50, "scan-wkb": 2, "cli-mix": ROUND_SIZE}
TRACE_REQUESTS = {"scan-well": 600, "scan-wkb": 40, "cli-mix": 3 * ROUND_SIZE}
# one fixed percentile, so that two commits are compared at the same one; the
# timed phase runs until at least ten latencies lie beyond it.  p95 spread
# four times as much as p90 over seeds on cli-mix (README "Run-to-run spread").
TAIL_PERCENTILE = 90.0
# the median and p90 settle only after about 200 requests: cli-mix latencies
# span 4 ms to 1 s, and scan-wkb completes only 120-150 requests in 20 s when
# the machine runs slow (README "Run-to-run spread")
MIN_REQUESTS = {"scan-well": 0, "scan-wkb": 200, "cli-mix": 19 * ROUND_SIZE}
# caps the timed phase when the machine runs very slow, so that a run stays
# near a minute; cli-mix needs about 50 s for its 209 requests when it is slow
MAX_TIMED_S = 60.0


# --- running one request ----------------------------------------------------------


@dataclass(slots=True)
class Outcome:
    key: str
    ops: int
    failed: int
    latency_s: float  # wall
    cpu_s: float  # CPU time of the request, without time stolen by the hypervisor
    result: object = None
    error: str | None = None


def clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since ``start = clocks()``."""
    wall, cpu = clocks()
    return wall - start[0], cpu - start[1]


def run_scan(req: ScanRequest, span=contextlib.nullcontext) -> Outcome:
    setup = physical_setup(req.kind, **req.setup_args)
    t0 = clocks()
    try:
        with span():
            scan = spectrum.dof_scan(setup, req.energies, threads=1)
    except Exception as exc:  # counted as failures of every energy
        return Outcome(req.key, req.ops, req.ops, *since(t0), None, repr(exc))
    latency = since(t0)
    expected = EXPECTED_DOF[req.kind]
    bad = [i for i, d in enumerate(scan.dof) if d != expected]
    error = None
    if bad:
        i = bad[0]
        error = f"energy {req.energies[i]!r}: dof {scan.dof[i]}, {scan.errors.get(i)}"
    return Outcome(req.key, req.ops, len(bad), *latency, tuple(scan.dof), error)


def run_cli(req: CliRequest, span=contextlib.nullcontext, digest: bool = True) -> Outcome:
    OUT.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        t0 = clocks()
        try:
            with span(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(req.argv + ["--out", str(out)])
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc(limit=3)
        latency = since(t0)
        if code == 0:
            try:
                error = CHECKS[req.key](out, req.argv)
            except (OSError, ValueError, KeyError) as exc:
                error = f"output check raised {exc!r}"
        elif code is not None:
            error = f"exit {code}: {stderr.getvalue().strip()}"
        result = (code, digest_outputs(out)) if digest else code
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Outcome(req.key, 1, int(error is not None), *latency, result, error)


def run_request(req, span=contextlib.nullcontext, digest: bool = True) -> Outcome:
    """``digest`` hashes a command's output files into its result (traced runs)."""
    return run_scan(req, span) if isinstance(req, ScanRequest) else run_cli(req, span, digest)


def digest_outputs(out: Path) -> str:
    """SHA-256 over the command's data files; manifest.json holds wall times."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- output checks (acceptance-suite tolerances) -------------------------------------


def flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_wavefunction(out: Path, argv, walls: bool) -> str | None:
    rows = read_csv(out / "wavefunctions.csv")
    states = sorted({int(r["state_index"]) for r in rows})
    if states != [1, 2]:
        return f"degeneracy {len(states)}, expected 2"
    values = [complex(float(r["re_phi"]), float(r["im_phi"])) for r in rows]
    if not all(math.isfinite(abs(v)) for v in values):
        return "non-finite wavefunction value"
    if not walls:
        return None
    # criterion 3 bounds the unit-normalised scaled state: phi_scaled = phi_SI sqrt(L_c)
    x_tilde = [float(r["x_tilde"]) for r in rows]
    lo, hi = min(x_tilde), max(x_tilde)
    length = float(rows[-1]["x_SI"]) / x_tilde[-1]
    worst = max(abs(v) * math.sqrt(length) for v, x in zip(values, x_tilde) if x in (lo, hi))
    return None if worst <= WALL_TOL else f"wall value {worst:.3e} > {WALL_TOL}"


def check_scan(kind: str):
    def check(out: Path, argv) -> str | None:
        payload = json.loads((out / "scan.json").read_text())
        if payload["errors"]:
            return f"scan errors {payload['errors']}"
        dofs = {row["dof"] for row in payload["rows"]}
        return None if dofs == {EXPECTED_DOF[kind]} else f"dof values {sorted(dofs)}"

    return check


def check_observability(kind: str):
    def check(out: Path, argv) -> str | None:
        payload = json.loads((out / "observability.json").read_text())
        hbar = core.HBAR
        if kind == "linear":
            return None if payload.get("discrepancy_note") else "linear discrepancy note missing"
        if kind == "well":
            expected = -math.log10((math.pi * hbar / (2.0 * flag(argv, "--a"))) ** 2)
        else:
            expected = -math.log10(M_E * hbar * flag(argv, "--omega") / 2.0)
        error = abs(payload["critical_beta_exponent"] - expected)
        return None if error <= EXPONENT_TOL else f"critical exponent off by {error:.3e}"

    return check


def check_spectrum(out: Path, argv) -> str | None:
    hbar, a = core.HBAR, flag(argv, "--a")
    beta_prime = cli.default_setup().beta / 3.0
    rows = read_csv(out / "special_energies.csv")
    if [int(r["k"]) for r in rows] != list(range(1, int(flag(argv, "--k-max")) + 1)):
        return "special-level indices do not run 1..k_max"
    for r in rows:
        k = int(r["k"])
        exact = (
            k**4 * math.pi**4 * hbar**4 * beta_prime / (16.0 * M_E * a**4)
            + k**2 * math.pi**2 * hbar**2 / (8.0 * M_E * a**2)
        )
        if abs(float(r["E_SI"]) / exact - 1.0) > SPECTRUM_RTOL:
            return f"E_{k} = {r['E_SI']} differs from {exact!r}"
    return None


def check_momentum(out: Path, argv) -> str | None:
    payload = json.loads((out / "momentum_check.json").read_text())
    if payload["ode_residual_max"] > MOMENTUM_RESIDUAL_TOL:
        return f"momentum-space residual {payload['ode_residual_max']:.3e}"
    if payload["momentum_space_dimension"] != 1 or payload["position_wronskian_abs"] <= 0.5:
        return "solution-space dimensions 1 vs 4 not shown"
    return None


def check_verify(out: Path, argv) -> str | None:
    payload = json.loads((out / "verify.json").read_text())
    return None if payload["all_passed"] is True else "verify reports failures"


CHECKS = {
    "wavefunction.well": lambda out, argv: check_wavefunction(out, argv, walls=True),
    "wavefunction.harmonic": lambda out, argv: check_wavefunction(out, argv, walls=False),
    "dof-scan.well": check_scan("well"),
    "dof-scan.linear": check_scan("linear"),
    "dof-scan.harmonic": check_scan("harmonic"),
    "observability.well": check_observability("well"),
    "observability.linear": check_observability("linear"),
    "observability.harmonic": check_observability("harmonic"),
    "spectrum.well": check_spectrum,
    "momentum-check.linear": check_momentum,
    "verify.well": check_verify,
}


# --- phases -------------------------------------------------------------------------


def warm_up(workload: str, seed: int) -> float:
    """First calls pay lazy imports and scipy set-up outside the timed phase."""
    t0 = time.perf_counter()
    for req in islice(WORKLOADS[workload](input_rng(seed, "warmup")), WARMUP_REQUESTS[workload]):
        run_request(req)
    for _ in range(20):
        speed.sample()
    return time.perf_counter() - t0


def tail_min_samples(percentile: float) -> int:
    return math.ceil(10.0 / (1.0 - percentile / 100.0)) + 1


def summarize(outcomes: list[Outcome]) -> dict:
    failures = [o for o in outcomes if o.failed]
    return {
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "first_failures": [f"{o.key}: {o.error}" for o in failures[:5]],
    }


def timed_phase(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: each request starts when the previous one ends.

    A calibration kernel runs before each request and after the last; the
    requests' CPU times are scaled to the reference speed of speed.py.
    """
    requests = WORKLOADS[workload](input_rng(seed, "timed"))
    percentile = TAIL_PERCENTILE
    min_samples = max(tail_min_samples(percentile), MIN_REQUESTS[workload])
    outcomes: list[Outcome] = []
    samples: list[float] = []
    start = time.perf_counter()
    while True:
        samples.append(speed.sample())
        outcomes.append(run_request(next(requests), digest=False))
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(outcomes) >= min_samples
        if len(outcomes) % ROUND[workload] == 0 and (done or elapsed >= MAX_TIMED_S):
            break
    samples.append(speed.sample())
    wall = np.array([o.latency_s for o in outcomes])
    scaled = np.array([o.cpu_s for o in outcomes]) * np.array(speed.factors(samples))
    ok = np.array([not o.failed for o in outcomes])
    tail = float(np.percentile(scaled, percentile))
    return {
        **summarize(outcomes),
        "metrics": {
            "requests_per_s": int(ok.sum()) / float(scaled.sum()),
            "request_p50_ms": 1e3 * float(np.median(scaled)),
            "request_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "info": {
            "requests": len(outcomes),
            "timed_s": elapsed,
            "tail_percentile": percentile,
            "samples_beyond_tail": int(np.sum(scaled > tail)),
            "wall_requests_per_s": int(ok.sum()) / float(wall.sum()),
            "wall_p50_ms": 1e3 * float(np.median(wall)),
            "wall_tail_ms": 1e3 * float(np.percentile(wall, percentile)),
            "kernel_p50_ms": 1e3 * statistics.median(samples),
        },
    }


def trace_phase(workload: str, seed: int) -> dict:
    """Each request of a fixed list runs untraced and traced; per-layer numbers."""
    requests = list(islice(WORKLOADS[workload](input_rng(seed, "trace")), TRACE_REQUESTS[workload]))
    tracer = Tracer()
    untraced, traced = [], []
    for i, req in enumerate(requests):
        # alternate which run goes first, so drift over the run cancels in the overhead
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                with tracer.installed():
                    traced.append(run_request(req, lambda: tracer.request_span(i)))
            else:
                untraced.append(run_request(req))
    untraced_s = sum(o.latency_s for o in untraced)
    traced_s = sum(o.latency_s for o in traced)

    metrics = tracer.layer_stats()
    for key in CLI_KEYS:
        times = [o.latency_s for o in untraced if o.key == key]
        metrics[f"cli.{key}.p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    request_s = tracer.outermost_seconds({"request"})
    metrics["basis.classify_or_exponent.wall_frac"] = (
        tracer.outermost_seconds(WKB_CLASSIFY_LABELS) / request_s
    )
    tracer.write(OUT / f"spans-{workload}.jsonl")

    summary = summarize(untraced + traced)
    mismatched = [
        r.key for r, a, b in zip(requests, untraced, traced) if a.result != b.result
    ]
    if mismatched:
        summary["first_failures"].append(f"traced results differ from untraced: {mismatched[:5]}")
    return {
        **summary,
        "identical": not mismatched,
        "metrics": metrics,
        "info": {"requests": len(requests), "spans": len(tracer.spans)},
        "results": [o.result for o in untraced],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    warmup_s = warm_up(args.workload, args.seed)
    if args.trace:
        report = trace_phase(args.workload, args.seed)
        report.pop("results")
    else:
        report = timed_phase(args.workload, args.seed, args.seconds)
    report["info"]["warmup_s"] = warmup_s
    report["correct"] = report["failed"] == 0 and report.pop("identical", True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
