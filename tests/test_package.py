import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gupbic
import gupbic.cli

# the names the package exported when it imported every submodule eagerly
EXPORTS = {
    "core": "HBAR DimensionlessProblem Harmonic InfiniteWell Linear PhysicalSetup load_config nondimensionalize",
    "basis": "AsymptoticClass CharacteristicRoots Side WkbParameters characteristic_roots "
    "classify_asymptotics exact_constant_basis wkb_branches",
    "matcher": "BoundStateSolution Case CaseClassification ConstraintSystem StateFunction assemble "
    "bound_states classify conditions_for degrees_of_freedom normalize nullspace point_zero "
    "solve_harmonic solve_linear solve_well",
    "oracle": "MomentumSolution integrate momentum_rep_linear residual wronskian",
    "spectrum": "MomentumMoments Observability SpectrumScan dof_scan ground_analog_state "
    "momentum_moments observability well_special_energies",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]

# the layer names the CLI imported at module level, still readable there
CLI_NAMES = {
    "bound_states": "matcher",
    "dof_scan": "spectrum",
    "observability": "spectrum",
    "well_special_energies": "spectrum",
    "OBVIOUS_RATIO_THRESHOLD": "spectrum",
    "momentum_dimension_evidence": "verification",
    "run_verification": "verification",
}


def test_every_export_resolves_to_its_module_object():
    for module, name in NAMES:
        assert getattr(gupbic, name) is getattr(importlib.import_module(f"gupbic.{module}"), name)
    # resolved on each access, never bound in the package namespace
    assert not {name for _, name in NAMES} & set(vars(gupbic))


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from gupbic import *", namespace)
    assert sorted(gupbic.__all__) == sorted(name for _, name in NAMES)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"gupbic.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gupbic.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        gupbic.cli.no_such_name


def test_cli_layer_names_resolve_without_binding():
    for name, module in CLI_NAMES.items():
        assert getattr(gupbic.cli, name) is getattr(importlib.import_module(f"gupbic.{module}"), name)
        assert name not in vars(gupbic.cli)


def test_bare_import_loads_no_submodule():
    src = str(Path(gupbic.__file__).resolve().parent.parent)
    child = (
        f"import sys; sys.path.insert(0, {src!r}); import gupbic; "
        "print(sorted(m for m in sys.modules if m.startswith('gupbic.')))"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_entry_point_imports_resolve():
    # every name of the README's "Library entry points" import block is a package export
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (node,) = ast.parse(block).body
    assert isinstance(node, ast.ImportFrom) and node.module == "gupbic"
    names = [alias.name for alias in node.names]
    assert len(names) > 10
    assert [name for name in names if not hasattr(gupbic, name)] == []


def test_numpy_is_the_one_runtime_dependency():
    # scipy serves the tests and the benchmark's patched names only: it is in the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
