"""Deterministic CSV/JSON artifacts and run manifests.

CSV formatting is pinned for byte-identical reruns: scientific notation with
17 significant digits, '.' decimal separator, '\\n' line endings, exact header
row.  ``_fmt_cell`` is the per-cell specification: floats (numpy ones as the
Python float they convert to) as ``'%.16e'``, booleans as ``true``/``false``,
everything else as ``str``.

``write_csv`` takes columns and gives the bytes of ``_fmt_cell`` applied cell
by cell, formatting column by column.  Float columns are formatted as arrays
(``_float_cells``): the digits of ``'%.16e' % x`` are the 17-digit integer
nearest |x| 10^(16-k), which a double-double product gives exactly wherever
it is not within 1e-9 of a tie; ties, non-finite values and three-digit
exponents go to Python's ``%``.  Other columns format each distinct value
once.  Every cell is a fixed-width byte row padded with NUL bytes, which the
writer drops, so no cell may contain one.

``write_json`` writes exactly ``json.dumps(payload, indent=2, sort_keys=True)``
plus a newline, from ``_encode``: json's pure-Python indent encoder yields
every token through generators, and this one joins each container's items
once.  Strings and keys are escaped to ASCII by json's own escaper, floats
(subclasses such as ``np.float64`` too) are ``float.__repr__`` with
``NaN``/``Infinity``/``-Infinity``, tuples are lists; a non-str key or any
other type is a TypeError.

Every file is written atomically: its bytes go to ``<name>.tmp-<pid>`` through
one raw descriptor, which ``os.replace`` then renames over the target, so a
reader sees the old file or the new one whole.  The directory is created only
when that open finds it missing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__

_BOOLS = (bool, np.bool_)
_FLOATS = (float, np.floating)


def _fmt_cell(value) -> str:
    if isinstance(value, _BOOLS):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, _FLOATS):
        return "%.16e" % float(value)
    return str(value)


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)  # as open(path, "wb")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write data to ``<name>.tmp-<pid>`` through one descriptor, then rename it over path.

    The directory is made only when the first open finds it missing.  If the
    write or the rename fails, the temporary file is removed and path is left
    as it was.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# --- float columns as arrays ------------------------------------------------------

_FLOAT_WIDTH = 24  # "-4.9406564584124654e-324", the longest '%.16e' of a double
_K_MAX = 100  # |k| >= _K_MAX takes a three-digit exponent: Python formats it
_J_MIN = 16 - _K_MAX  # 10^j for j = 16 - k, k in [-_K_MAX - 1, _K_MAX] after a step down
_J_MAX = 16 + _K_MAX + 1
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_TIE_GAP = 1e-9  # the double-double is good to ~1e-14; nearer a tie, Python rounds


def _split(v):
    c = v * _SPLITTER
    hi = c - (c - v)
    return hi, v - hi


def _words(texts: list[bytes]) -> np.ndarray:
    """Equal-length 4-byte texts as uint32, so that a cell's uint32 view takes them whole."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The powers 10^j, j = _J_MIN .. _J_MAX, as hi, lo and hi's two Dekker
    halves, with hi + lo = 10^j to about 2^-106; and the cell words: heads
    NUL, sign, leading digit, "." indexed by 10 * negative + digit, the digit
    quads "0000".."9999", the exponents "e-99".."e+99" indexed by k + 99.

    Built from Python ints, whose true division rounds correctly: hi is 10^j
    rounded, lo the exact remainder rounded.
    """
    his, los = [], []
    for j in range(_J_MIN, _J_MAX + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den
        p, q = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * q - p * den) / (den * q))
    his = np.array(his)
    heads = _words([b"\0%c%d." % (sign, d) for sign in (0, ord("-")) for d in range(10)])
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")  # "0000".."9999"
    quads = np.ascontiguousarray(digits).view(np.uint32).ravel()
    exponents = _words([b"e%+03d" % k for k in range(1 - _K_MAX, _K_MAX)])
    return (his, np.array(los), *_split(his), heads, quads, exponents)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-k) as a normalised double-double (s, t): s = fl(s + t), t exact."""
    his, los, his1, his2 = _tables()[:4]
    j = 16 - _J_MIN - k
    hi = his[j]
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = his1[j], his2[j]
    r = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * los[j]  # Dekker: a hi = p + (...) exactly
    s = p + r
    return s, r - (s - p)


def _percent_cells(values: list[float]) -> np.ndarray:
    """Python's ``'%.16e' % v`` of each value, NUL-padded: shape (len(values), 24)."""
    texts = [("%.16e" % v).encode().ljust(_FLOAT_WIDTH, b"\0") for v in values]
    return np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, _FLOAT_WIDTH)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.16e' % v`` for every float v of x, NUL-padded: shape x.shape + (24,).

    Each |v| = N 10^(k-16) with N the 17-digit integer nearest the double-double
    |v| 10^(16-k).  k starts at floor(log10 |v|) and steps down by one where
    that puts |v| 10^(16-k) below 10^16; N = 10^17 carries into k + 1.  A k
    one too low, which numpy's log10 was not seen to give, leaves N above
    10^17 and the value to Python, as are ties, non-finite values and
    |k| >= 100.  A cell is six uint32 words: head, four digit quads, exponent.
    """
    x = np.asarray(x, dtype=np.float64)
    *_, heads, quads, exponents = _tables()
    a = np.abs(x)
    fast = (a >= 1e-99) & (a < 1e100)  # finite, not zero, k within one of a two-digit exponent
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, k)
    low = (s < 1e16) | ((s == 1e16) & (t < 0.0))  # log10 rounded up to the next integer
    if low.any():
        k[low] -= 1
        s[low], t[low] = _scaled(a[low], k[low])
    rounded = np.floor(t + 0.5)
    n = s.astype(np.int64) + rounded.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    k[carry] += 1
    fast &= (np.abs(t - rounded) < 0.5 - _TIE_GAP) & (n >= 10**16) & (n < 10**17) & (np.abs(k) < _K_MAX)
    n = np.where(fast, n, 0)  # zeros are 0.0000000000000000e+00 with their sign
    k = np.where(fast, k, 0)

    words = np.empty(x.shape + (6,), dtype=np.uint32)
    for slot in range(4, 0, -1):
        q = n // 10**4
        words[..., slot] = quads[n - 10**4 * q]
        n = q
    words[..., 0] = heads[n + 10 * np.signbit(x)]
    words[..., 5] = exponents[k + _K_MAX - 1]
    cells = words.view(np.uint8)
    slow = ~fast & (x != 0.0)
    if slow.any():
        cells[slow] = _percent_cells(x[slow].tolist())
    return cells


def _other_cells(column: np.ndarray) -> np.ndarray:
    """NUL-padded ``_fmt_cell`` bytes of a non-float column, shape (n, widest cell).

    Bool, int and string columns format each distinct value once.  An object
    column formats every cell: its equal values can still differ in type
    (True == 1) or sign (0.0 == -0.0).
    """
    if column.dtype.kind == "O":
        distinct, inverse = column, np.arange(len(column))
    else:
        distinct, inverse = np.unique(column, return_inverse=True)
    texts = [_fmt_cell(v).encode() for v in distinct]
    width = max(map(len, texts), default=0)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), dtype=np.uint8)
    return table.reshape(len(texts), width)[inverse]


def _as_column(column) -> np.ndarray:
    """A numpy array as it is; any other sequence as an object array of its cells."""
    if isinstance(column, np.ndarray):
        return column
    values = np.empty(len(column), dtype=object)
    values[:] = list(column)
    return values


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write the CSV of equal-length 1-D columns, one per header name.

    Float columns are formatted together in one ``_float_cells`` pass, the
    others by ``_other_cells``; the cells fill one byte block, a separator
    after each, and the NUL padding is dropped.
    """
    path = Path(path)
    columns = [_as_column(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1 or any(c.ndim != 1 for c in columns):
        raise ValueError(f"columns must be 1-D and of one length, got shapes {[c.shape for c in columns]}")
    floats = [c for c in columns if c.dtype.kind == "f"]
    float_cells = iter(np.moveaxis(_float_cells(np.stack(floats, axis=1)), 1, 0) if floats else ())
    cells = [next(float_cells) if c.dtype.kind == "f" else _other_cells(c) for c in columns]
    widths = [c.shape[1] + 1 for c in cells]
    ends = np.cumsum(widths, dtype=np.intp)
    block = np.zeros((lengths.pop() if lengths else 0, sum(widths)), dtype=np.uint8)
    for cell, end in zip(cells, ends):
        block[:, end - cell.shape[1] - 1 : end - 1] = cell
    block[:, ends - 1] = ord(",")
    block[:, ends[-1:] - 1] = ord("\n")  # the last separator, none without columns
    body = block.tobytes().translate(None, b"\0")
    _atomic_write(path, (",".join(header) + "\n").encode() + body)
    return path


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_escape = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# the text of a scalar of exactly one of these types; subclasses (np.float64) take _encode's tests
_SCALARS = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _encode(value, indent: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of value, whose line starts with ``indent``.

    ``indent`` is the newline and the spaces before value's line.  A scalar
    of an exact type takes ``_SCALARS``, also inline in a container's loop;
    a subclass of str, int or float is written as its base type, as json
    does.  A non-str key fails ``_escape`` with a TypeError.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner, get, texts = indent + "  ", _SCALARS.get, []
        for key in sorted(value):
            item = value[key]
            scalar = get(type(item))
            texts.append(_escape(key) + ": " + (scalar(item) if scalar else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(texts) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner, get, texts = indent + "  ", _SCALARS.get, []
        for item in value:
            scalar = get(type(item))
            texts.append(scalar(item) if scalar else _encode(item, inner))
        return "[" + inner + ("," + inner).join(texts) + indent + "]"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):  # not a bool: bool has no subclasses, so _SCALARS took it
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    _atomic_write(path, (_encode(payload, "\n") + "\n").encode())
    return path


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digest(config_path: str | Path | None, fallback: str = "") -> str:
    """Content hash of the config file, or of the canonical parameter string."""
    if config_path is not None:
        return sha256_hex(Path(config_path).read_bytes())
    return sha256_hex(fallback.encode())


def write_manifest(
    out_dir: str | Path, command: str, config_digest: str, outputs: Sequence[Path], argv: list[str], started: float
) -> Path:
    """Write ``manifest.json``: the command, the config digest, the tool
    version, the sorted output paths, the wall seconds since ``started`` (a
    ``time.monotonic`` reading) and the argv strings."""
    payload = {
        "command": command,
        "config_digest": config_digest,
        "tool_version": __version__,
        "outputs": sorted(str(p) for p in outputs),
        "wall_time_s": time.monotonic() - started,
        "argv": argv,
    }
    return write_json(Path(out_dir) / "manifest.json", payload)
