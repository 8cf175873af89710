"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import importlib
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def bindings() -> dict:
    """Every attribute of the gupbic namespaces and traced classes, by identity."""
    owners = [importlib.import_module("gupbic")]
    owners += [importlib.import_module(f"gupbic.{m}") for m in tracer.MODULES]
    owners += [
        getattr(importlib.import_module(f"gupbic.{mod}"), cls) for _, mod, cls, _ in tracer.METHODS
    ]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


def test_wrappers_restore_the_original_functions():
    before = bindings()
    basis = importlib.import_module("gupbic.basis")
    cli = importlib.import_module("gupbic.cli")
    spectrum = importlib.import_module("gupbic.spectrum")
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert basis.quad is not before[(id(basis), "quad")]
            # a name copied by "from .spectrum import dof_scan" is patched too
            assert cli.dof_scan is spectrum.dof_scan
            assert cli.dof_scan.__wrapped__ is before[(id(spectrum), "dof_scan")]
            raise RuntimeError("leave the block by an exception")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: sum(range(20000)))
    outer = t.span("outer", lambda: [inner() for _ in range(3)])
    with t.request_span(0):
        outer()
    calls, self_s = t.totals()
    duration = {t.names[idx]: 0.0 for _, _, idx, _, _ in t.spans}
    for parent, request, idx, t0, t1 in t.spans:
        assert request == 0
        duration[t.names[idx]] += t1 - t0
    assert calls == {"request": 1, "outer": 1, "inner": 3}
    assert self_s["inner"] == pytest.approx(duration["inner"])
    assert self_s["outer"] == pytest.approx(duration["outer"] - duration["inner"])
    assert self_s["request"] == pytest.approx(duration["request"] - duration["outer"])


def test_inputs_come_from_the_seed():
    def first(workload, seed, n):
        return list(islice(workloads.WORKLOADS[workload](workloads.input_rng(seed, "timed")), n))

    for workload in workloads.WORKLOADS:
        a, b, c = first(workload, 7, 12), first(workload, 7, 12), first(workload, 8, 12)
        key = (lambda r: r.argv) if workload == "cli-mix" else (lambda r: list(r.energies))
        assert [key(r) for r in a] == [key(r) for r in b]
        assert [key(r) for r in a] != [key(r) for r in c]
    round_ = workloads.cli_round(workloads.input_rng(7, "timed"))
    assert len(round_) == workloads.ROUND_SIZE
    # one request per command and potential
    assert sorted(r.key for r in round_) == sorted(workloads.CLI_KEYS)


def small_trace(monkeypatch, workload: str, seed: int = 11) -> dict:
    sizes = {"scan-well": 4, "scan-wkb": 2, "cli-mix": workloads.ROUND_SIZE}
    monkeypatch.setitem(workloads.TRACE_REQUESTS, workload, sizes[workload])
    return workloads.trace_phase(workload, seed)


@pytest.mark.parametrize("workload", ["scan-well", "scan-wkb"])
def test_scan_workloads_trace_identically_and_split_layers(monkeypatch, workload):
    report = small_trace(monkeypatch, workload)
    m = report["metrics"]
    assert report["identical"] and report["failed"] == 0
    assert all(isinstance(r, tuple) and None not in r for r in report["results"])
    assert m["oracle.solve_ivp.calls"] == m["matcher.overlap_gram.calls"] == 0
    if workload == "scan-well":
        assert m["basis.quad.calls"] == 0
        assert m["basis.WkbBasisFunction.exponent.calls"] == 0
        assert m["basis.classify_asymptotics.calls"] == 0
        assert m["matcher.assemble.calls"] > 0 and m["basis.characteristic_roots.calls"] > 0
    else:
        assert m["output.write_csv.calls"] == m["output.write_json.calls"] == 0
        assert m["basis.classify_or_exponent.wall_frac"] > 0.5


def test_cli_mix_traces_identically_and_counts_repeat(monkeypatch):
    first = small_trace(monkeypatch, "cli-mix")
    second = small_trace(monkeypatch, "cli-mix")
    assert first["identical"] and first["failed"] == 0
    assert first["results"] == second["results"]
    # digests of every command's output files, never empty
    assert all(code == 0 and len(digest) == 64 for code, digest in first["results"])
    for name in ("basis.quad.calls", "oracle.solve_ivp.nfev", "basis.map_regions.calls"):
        assert first["metrics"][name] == second["metrics"][name] > 0
    m = first["metrics"]
    for name in ("oracle.solve_ivp", "matcher.overlap_gram", "spectrum.momentum_moments"):
        assert m[f"{name}.calls"] > 0
    assert all(m[f"cli.{key}.p50_ms"] > 0 for key in workloads.CLI_KEYS)


def test_checks_reject_wrong_outputs(tmp_path):
    (tmp_path / "scan.json").write_text(
        json.dumps({"errors": {}, "rows": [{"dof": 2}, {"dof": 1}]})
    )
    assert workloads.CHECKS["dof-scan.well"](tmp_path, []) == "dof values [1, 2]"
    (tmp_path / "verify.json").write_text(json.dumps({"all_passed": False}))
    assert workloads.CHECKS["verify.well"](tmp_path, []) is not None


def test_tail_percentile_has_ten_samples_beyond():
    n = workloads.tail_min_samples(workloads.TAIL_PERCENTILE)
    latencies = np.arange(n, dtype=float)
    assert np.sum(latencies > np.percentile(latencies, workloads.TAIL_PERCENTILE)) >= 10


def test_speed_factors_follow_the_kernel_around_each_request():
    ref = speed.REFERENCE_S
    # the machine halves its speed after request 9; one sample is slowed by an interrupt
    samples = [ref] * 10 + [2 * ref] * 10
    samples[3] = 10 * ref
    factors = speed.factors(samples)
    assert len(factors) == len(samples) - 1
    assert factors[1] == factors[3] == 1.0
    assert factors[15] == 0.5


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-well", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
