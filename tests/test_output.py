import json
import os
import string
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupbic import output
from gupbic.output import _encode, _fmt_cell, _float_cells, write_csv, write_json

CELLS = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float32),
    st.booleans().map(np.bool_),
    st.text(alphabet=string.ascii_letters + string.digits + " .-_%()", max_size=8),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("nan"), float("-inf")]),
)

# a typed numpy column: its dtype and the cells it is drawn from
TYPED = [
    (np.float64, st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)),
    (np.float32, st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True)),
    (np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    (np.bool_, st.booleans()),
    (str, st.text(alphabet=string.ascii_letters + string.digits + " .-_%()", max_size=8)),
]

# the edge list: a tie (2^-25 = 2.98023223876953125e-08 rounds to even), powers
# of 2 and 10 over the whole exponent range with their neighbours, signed
# zeros, the smallest subnormal and the largest finite double
POWERS = np.array([2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-323, 309)])
EDGES = np.concatenate(
    [
        [2.0**-25, 0.0, -0.0, 5e-324, 1.7976931348623157e308],
        POWERS,
        np.nextafter(POWERS, 0.0),
        np.nextafter(POWERS, np.inf),
        -POWERS,
    ]
)


def is_tie(v: float) -> bool:
    """Whether the exact decimal value of v lies halfway between two 17-digit ones."""
    d = Decimal(v)
    return d.scaleb(16 - d.adjusted()) % 1 == Decimal("0.5")


def float_strings(x) -> list[str]:
    cells = _float_cells(np.asarray(x)).reshape(-1, 24)
    return [bytes(c[c != 0]).decode() for c in cells]


def assert_exact(x) -> None:
    x = np.asarray(x, dtype=np.float64).ravel()
    got = _float_cells(x)
    if got[got != 0].tobytes() == "".join("%.16e" % v for v in x.tolist()).encode():
        return
    for v, s in zip(x.tolist(), float_strings(x)):
        assert s == "%.16e" % v, f"{v!r}: {s!r} != {'%.16e' % v!r}"


@st.composite
def columns(draw):
    n = draw(st.integers(0, 10))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        typed = draw(st.sampled_from([None] + TYPED))
        if typed is None:  # a mixed-type object column, as a list
            out.append(draw(st.lists(CELLS, min_size=n, max_size=n)))
        else:
            dtype, cells = typed
            out.append(np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype))
    return out


@given(cols=columns())
@settings(max_examples=400, deadline=None)
def test_columns_give_the_per_cell_bytes(tmp_path_factory, cols):
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    header = [f"c{i}" for i in range(len(cols))]
    assert write_csv(path, header, cols) == path
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    body = "".join(",".join(_fmt_cell(cell) for cell in row) + "\n" for row in rows)
    assert path.read_bytes() == (",".join(header) + "\n" + body).encode()


def test_columns_must_match_the_header_and_each_other(tmp_path):
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "a.csv", ["a", "b"], [[1.0]])
    with pytest.raises(ValueError, match="one length"):
        write_csv(tmp_path / "b.csv", ["a", "b"], [[1.0], [1.0, 2.0]])


def test_bool_cells_read_true_and_false(tmp_path):
    path = write_csv(tmp_path / "flags.csv", ["flag", "n"], [(True, False, np.bool_(True)), (1, 0, 2)])
    assert path.read_text() == "flag,n\ntrue,1\nfalse,0\ntrue,2\n"


def test_numpy_floats_read_as_python_floats(tmp_path):
    cells = [(np.float32(0.1),), (np.float64(0.1),), (0.1,)]
    path = write_csv(tmp_path / "floats.csv", ["f32", "f64", "py"], cells)
    f32 = f"{float(np.float32(0.1)):.16e}"
    assert path.read_text() == f"f32,f64,py\n{f32},{0.1:.16e},{0.1:.16e}\n"
    assert _fmt_cell(np.float32(0.1)) == f32


ANY_FLOAT = st.one_of(
    *(st.floats(width=w, allow_nan=True, allow_infinity=True, allow_subnormal=True) for w in (16, 32, 64))
)


@given(x=ANY_FLOAT)
@settings(max_examples=1000, deadline=None)
def test_float_cells_match_percent_format(x):
    assert float_strings([x]) == ["%.16e" % x]


def test_float_cells_at_the_edges():
    assert float_strings([2.0**-25]) == ["2.9802322387695312e-08"]
    assert_exact(EDGES)


def test_float_cells_on_random_bit_patterns():
    rng = np.random.default_rng(20250)
    assert_exact(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))


@pytest.fixture
def fallback(monkeypatch):
    """The values that _float_cells leaves to Python's %, in order."""
    seen = []
    percent_cells = output._percent_cells

    def counted(values):
        seen.extend(values)
        return percent_cells(values)

    monkeypatch.setattr(output, "_percent_cells", counted)
    return seen


def test_float_cells_step_and_carry_without_the_fallback(fallback):
    # powers of ten and their neighbours are where floor(log10 |x|) misses by
    # one and where rounding carries into a new decade: the array path itself
    # steps the exponent and carries, and leaves Python only the exact ties
    tens = np.array([10.0**e for e in range(-98, 99)])
    x = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    assert float_strings(x) == ["%.16e" % v for v in x.tolist()]
    assert fallback == [v for v in x.tolist() if is_tie(v)]


def test_float_cells_fall_back_to_python_formatting(fallback):
    # three-digit exponents, non-finite values and exact ties take Python's %;
    # two-digit exponents up to 99 and signed zeros do not
    x = [1e100, 1e-100, 2.2250738585072014e-308, float("nan"), -float("inf"), 2.0**-25]
    fast = [-9.999999999999999e99, 1.5e-99, 0.5, -0.0]
    assert float_strings(x + fast) == ["%.16e" % v for v in x + fast]
    assert [str(v) for v in fallback] == [str(v) for v in x]


# --- the atomic writer -------------------------------------------------------------


def test_writer_creates_missing_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "c.json"
    assert write_json(path, {"x": 1}) == path
    assert path.read_text() == '{\n  "x": 1\n}\n'
    assert write_csv(tmp_path / "d" / "e.csv", ["n"], [[1, 2]]).read_text() == "n\n1\n2\n"


def test_writer_replaces_an_existing_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"an older and longer file than the new one\n" * 100)
    old = path.open("rb")  # a reader of the old file keeps reading it whole
    write_csv(path, ["n"], [[7]])
    assert path.read_bytes() == b"n\n7\n"
    assert old.read().startswith(b"an older")
    old.close()
    write_json(tmp_path / "out.json", [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_writer_writes_every_byte_of_short_writes(tmp_path, monkeypatch):
    real = os.write
    monkeypatch.setattr(output.os, "write", lambda fd, data: real(fd, bytes(data[:7])))
    payload = {"rows": [{"x": 0.1 * i, "name": "r%d" % i} for i in range(50)]}
    path = write_json(tmp_path / "short.json", payload)
    monkeypatch.undo()
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    # a failed write or rename leaves the old file and no temporary one
    path = tmp_path / "kept.json"
    write_json(path, {"old": True})

    def full(*args):
        raise OSError(28, "No space left on device")

    for step in ("write", "replace"):
        monkeypatch.setattr(output.os, step, full)
        with pytest.raises(OSError, match="No space"):
            write_json(path, {"new": True})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"old": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"], step


# --- the indent-2 JSON encoder -----------------------------------------------------

JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, -1e16, 1e-7, 1e22]),
)
JSON_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x1F) | st.sampled_from('"\\/\x7f\u2028')),
    st.sampled_from(["\ud800", "\U0001f600", "\u00e9t\u00e9", ""]),
)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**200), JSON_FLOATS, JSON_TEXT
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


@given(payload=JSON_PAYLOADS)
@settings(max_examples=1000, deadline=None)
def test_encoder_matches_json_dumps(payload):
    assert _encode(payload, "\n") == json.dumps(payload, indent=2, sort_keys=True)


def test_encoder_edges_match_json_dumps(tmp_path):
    edges = [
        [], {}, (), [[]], {"": {}}, [(), ((),)], True, False, None, 0, -1, 2**64, -(10**40),
        0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.7976931348623157e308, float("nan"), float("inf"),
        -float("inf"), np.float64(0.1), np.float64(-0.0), np.float64(float("nan")), "\x00\x1f\"\\\u00e9\ud800",
        {"b": [1, 2.5], "a": {"c": (True, None)}, "\u00e9": "x", "A": 1},
        type("Count", (int,), {})(3), type("Label", (str,), {})("x"),  # subclasses write as their base
    ]
    for value in edges + [edges]:
        assert _encode(value, "\n") == json.dumps(value, indent=2, sort_keys=True)
    path = write_json(tmp_path / "edges.json", edges)
    assert path.read_bytes() == (json.dumps(edges, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize(
    "value", [{1: "int key"}, {"a": 1, 2: "b"}, np.int64(1), np.bool_(True), {1.5}, object(), [b"bytes"]]
)
def test_encoder_refuses_non_str_keys_and_unsupported_types(value):
    with pytest.raises(TypeError):
        _encode(value, "\n")
