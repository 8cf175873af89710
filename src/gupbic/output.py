"""Deterministic CSV/JSON artifacts and run manifests.

CSV formatting is pinned for byte-identical reruns: scientific notation with
17 significant digits, '.' decimal separator, '\\n' line endings, exact header
row.  ``write_csv`` formats each row with one %-template and gives the bytes
of ``_fmt_cell`` applied cell by cell; numpy booleans and floats read as the
Python ones.  Files are written atomically (temp + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__

_BOOLS = (bool, np.bool_)
_FLOATS = (float, np.floating)


def fmt_float(x: float) -> str:
    return f"{x:.16e}"


def _fmt_cell(value) -> str:
    if isinstance(value, _BOOLS):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, _FLOATS):
        return fmt_float(float(value))
    return str(value)


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", newline="") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _cell_code(cell_type: type) -> str:
    """The %-code that formats a cell of this type as ``_fmt_cell`` does."""
    if issubclass(cell_type, _BOOLS):
        return "%s"  # the cell is replaced by "true" or "false" first
    if issubclass(cell_type, int):
        return "%d"
    if issubclass(cell_type, _FLOATS):
        return "%.16e"
    return "%s"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write the CSV; each row is one %-template, built once per tuple of cell types."""
    path = Path(path)
    lines = [",".join(header)]
    # per tuple of cell types: the template and whether a cell is a boolean
    templates: dict[tuple[type, ...], tuple[str, bool]] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            has_bool = any(issubclass(t, _BOOLS) for t in types)
            templates[types] = ",".join(map(_cell_code, types)), has_bool
        template, has_bool = templates[types]
        if has_bool:
            row = tuple(_fmt_cell(cell) if isinstance(cell, _BOOLS) else cell for cell in row)
        lines.append(template % row)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digest(config_path: str | Path | None, fallback: str = "") -> str:
    """Content hash of the config file, or of the canonical parameter string."""
    if config_path is not None:
        return sha256_hex(Path(config_path).read_bytes())
    return sha256_hex(fallback.encode())


@dataclass
class RunManifest:
    command: str
    config_digest: str
    tool_version: str = __version__
    outputs: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0
    argv: list[str] = field(default_factory=list)
    _t0: float = field(default_factory=time.monotonic, repr=False)

    def add_output(self, path: Path) -> None:
        self.outputs.append(str(path))

    def write(self, out_dir: str | Path) -> Path:
        self.wall_time_s = time.monotonic() - self._t0
        payload = {
            "command": self.command,
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "outputs": sorted(self.outputs),
            "wall_time_s": self.wall_time_s,
            "argv": self.argv,
        }
        return write_json(Path(out_dir) / "manifest.json", payload)
