import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gupbic.output import _fmt_cell, write_csv

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


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt_cell(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@given(rows=st.lists(st.lists(CELLS, max_size=6), max_size=10))
@settings(max_examples=400, deadline=None)
def test_row_templates_give_the_per_cell_bytes(tmp_path_factory, rows):
    # the cell types change from row to row, so one file needs several templates
    path = tmp_path_factory.getbasetemp() / "templates.csv"
    header = ["a", "b", "c"]
    assert write_csv(path, header, rows) == path
    assert path.read_bytes() == reference_csv(header, rows)


def test_bool_cells_read_true_and_false(tmp_path):
    path = write_csv(tmp_path / "flags.csv", ["flag", "n"], [(True, 1), (False, 0), (np.bool_(True), 2)])
    assert path.read_text() == "flag,n\ntrue,1\nfalse,0\ntrue,2\n"


def test_numpy_floats_read_as_python_floats(tmp_path):
    cells = [(np.float32(0.1), np.float64(0.1), 0.1)]
    path = write_csv(tmp_path / "floats.csv", ["f32", "f64", "py"], cells)
    f32 = f"{float(np.float32(0.1)):.16e}"
    assert path.read_text() == f"f32,f64,py\n{f32},{0.1:.16e},{0.1:.16e}\n"
    assert _fmt_cell(np.float32(0.1)) == f32
