"""Span recorder that wraps gupbic's layer functions from outside the package.

The tracer patches the public functions of the gupbic modules for the
duration of a ``with tracer.installed():`` block and restores every binding
on exit.  Three kinds of target exist:

* a gupbic function is patched in every gupbic namespace that holds it,
  because ``from .basis import map_regions`` copies the name into the
  importing module and calls go through the copy;
* ``quad`` and ``solve_ivp`` are patched per module binding, so each
  module's use of the same scipy function is counted under its own label;
* methods are patched on their class.

Spans stay in memory as (parent, request, name, start, end) tuples and are
written out once, at the end of a run.  Self time is a span's duration minus
the durations of its direct children; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("core", "basis", "matcher", "oracle", "spectrum", "verification", "output", "cli")

# (label, module, attribute): gupbic functions, patched wherever they are bound
SHARED = (
    ("core.nondimensionalize", "core", "nondimensionalize"),
    ("basis.characteristic_roots", "basis", "characteristic_roots"),
    ("basis.map_regions", "basis", "map_regions"),
    ("basis.classify_asymptotics", "basis", "classify_asymptotics"),
    ("matcher.wkb_assembly", "matcher", "wkb_assembly"),
    ("matcher.assemble", "matcher", "assemble"),
    ("matcher.nullity_of", "matcher", "nullity_of"),
    ("matcher.bound_states", "matcher", "bound_states"),
    ("matcher.overlap_gram", "matcher", "overlap_gram"),
    ("oracle.residual", "oracle", "residual"),
    ("spectrum.dof_scan", "spectrum", "dof_scan"),
    ("spectrum.momentum_moments", "spectrum", "momentum_moments"),
    ("verification.run_verification", "verification", "run_verification"),
    ("output.write_csv", "output", "write_csv"),
    ("output.write_json", "output", "write_json"),
)

# (label, module, attribute): scipy functions, patched in that module only
BINDINGS = (
    ("basis.quad", "basis", "quad"),
    ("matcher.quad", "matcher", "quad"),
    ("spectrum.quad", "spectrum", "quad"),
    ("oracle.quad", "oracle", "quad"),
    ("oracle.solve_ivp", "oracle", "solve_ivp"),
)

# (label, module, class, method)
METHODS = (
    ("basis.WkbBasisFunction.exponent", "basis", "WkbBasisFunction", "exponent"),
    ("matcher.StateFunction.derivatives", "matcher", "StateFunction", "derivatives"),
)

LABELS = tuple(t[0] for t in SHARED + BINDINGS + METHODS)

# labels whose outermost spans the scan-wkb split is judged by
WKB_CLASSIFY_LABELS = ("basis.classify_asymptotics", "basis.WkbBasisFunction.exponent")


def _observe_exponent(counters, args, result, exc):
    if exc is not None and type(exc).__name__ == "ValidityError":
        counters["basis.WkbBasisFunction.exponent.invalid"] += 1


def _observe_classify(counters, args, result, exc):
    if exc is None and getattr(result, "name", None) == "UNDEFINED":
        counters["basis.classify_asymptotics.undefined"] += 1


def _observe_solve_ivp(counters, args, result, exc):
    if exc is None:
        counters["oracle.solve_ivp.nfev"] += int(result.nfev)


def _observe_dof_scan(counters, args, result, exc):
    if exc is None:
        counters["spectrum.dof_scan.energies"] += len(result.dof)
        counters["spectrum.dof_scan.errors"] += len(result.errors)


def _bytes_observer(label):
    def observe(counters, args, result, exc):
        if exc is None:
            counters[f"{label}.bytes"] += os.path.getsize(result)

    return observe


OBSERVERS = {
    "basis.WkbBasisFunction.exponent": _observe_exponent,
    "basis.classify_asymptotics": _observe_classify,
    "oracle.solve_ivp": _observe_solve_ivp,
    "spectrum.dof_scan": _observe_dof_scan,
    "output.write_csv": _bytes_observer("output.write_csv"),
    "output.write_json": _bytes_observer("output.write_json"),
}


class Tracer:
    """Records one span per call of each wrapped gupbic function."""

    def __init__(self):
        self.names: list[str] = ["request"]
        self.spans: list[tuple | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, str, object]] | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped so that each call records a span."""
        idx = self._name_index(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, self.request, idx, t0, t1)
                if observe is not None:
                    observe(counters, args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        """Root span of one benchmark request; wrapped calls nest under it."""
        self.request = request_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (-1, request_id, 0, t0, t1)
            self.request = None

    def _plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) of every binding to patch."""
        package = importlib.import_module("gupbic")
        module = {m: importlib.import_module(f"gupbic.{m}") for m in MODULES}
        plan = []
        for label, mod, attr in SHARED:
            original = getattr(module[mod], attr)
            wrapped = self.span(label, original, OBSERVERS.get(label))
            for namespace in [package, *module.values()]:
                plan += [(namespace, name, wrapped) for name, value in vars(namespace).items()
                         if value is original]
        for label, mod, attr in BINDINGS:
            owner = module[mod]
            plan.append((owner, attr, self.span(label, getattr(owner, attr), OBSERVERS.get(label))))
        for label, mod, cls_name, attr in METHODS:
            cls = getattr(module[mod], cls_name)
            plan.append((cls, attr, self.span(label, vars(cls)[attr], OBSERVERS.get(label))))
        return plan

    def install(self) -> None:
        """Patch every target; ``restore`` undoes it.  Wrappers are built once."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._plan()
        for owner, attr, wrapped in self._wrappers:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for (_, _, idx, t0, t1), inner in zip(self.spans, child_s):
            calls[self.names[idx]] += 1
            self_s[self.names[idx]] += (t1 - t0) - inner
        return calls, self_s

    def layer_stats(self) -> dict[str, float]:
        """calls, self_s and the observed counters of every label."""
        calls, self_s = self.totals()
        out: dict[str, float] = {}
        for label in LABELS:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        c = self.counters
        out["basis.WkbBasisFunction.exponent.invalid_frac"] = _ratio(
            c["basis.WkbBasisFunction.exponent.invalid"], calls["basis.WkbBasisFunction.exponent"]
        )
        out["basis.classify_asymptotics.undefined_frac"] = _ratio(
            c["basis.classify_asymptotics.undefined"], calls["basis.classify_asymptotics"]
        )
        out["oracle.solve_ivp.nfev"] = int(c["oracle.solve_ivp.nfev"])
        out["spectrum.dof_scan.error_frac"] = _ratio(
            c["spectrum.dof_scan.errors"], c["spectrum.dof_scan.energies"]
        )
        out["output.write_csv.bytes"] = int(c["output.write_csv.bytes"])
        out["output.write_json.bytes"] = int(c["output.write_json.bytes"])
        return out

    def outermost_seconds(self, labels) -> float:
        """Wall time inside spans of ``labels``, not counting nested repeats."""
        wanted = {i for i, n in enumerate(self.names) if n in labels}
        inside = [False] * len(self.spans)
        total = 0.0
        for sid, (parent, _, idx, t0, t1) in enumerate(self.spans):
            covered = parent >= 0 and inside[parent]
            inside[sid] = covered or idx in wanted
            if idx in wanted and not covered:
                total += t1 - t0
        return total

    def write(self, path: Path) -> None:
        """One JSON object per span: id, parent, request, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for sid, (parent, request, idx, t0, t1) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": request,
                         "name": self.names[idx], "start": t0, "end": t1},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
