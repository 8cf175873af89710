"""Bound states in the continuum under a minimal length.

Solves and analyzes the fourth-order position-representation Schroedinger
equation produced by the generalized uncertainty principle: solution-space
degrees of freedom, bound-state degeneracy, wavefunctions, continuous-energy
spectra, and the observability condition, with an independent
direct-integration oracle validating the closed-form and WKB machinery.

The names below are imported from their submodule on first access (PEP 562),
so ``import gupbic`` loads no submodule and each CLI command loads only the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "core": (
        "HBAR",
        "DimensionlessProblem",
        "Harmonic",
        "InfiniteWell",
        "Linear",
        "PhysicalSetup",
        "load_config",
        "nondimensionalize",
    ),
    "basis": (
        "AsymptoticClass",
        "CharacteristicRoots",
        "Side",
        "WkbParameters",
        "characteristic_roots",
        "classify_asymptotics",
        "exact_constant_basis",
        "wkb_basis",
        "wkb_branches",
    ),
    "matcher": (
        "BoundStateSolution",
        "Case",
        "CaseClassification",
        "ConstraintSystem",
        "StateFunction",
        "assemble",
        "bound_states",
        "classify",
        "conditions_for",
        "degrees_of_freedom",
        "normalize",
        "nullspace",
        "point_zero",
        "solve_harmonic",
        "solve_linear",
        "solve_well",
        "well_coefficients",
    ),
    "oracle": (
        "MomentumSolution",
        "decaying_subspace_dimension",
        "growth_exponents",
        "integrate",
        "momentum_rep_linear",
        "residual",
        "wronskian",
        "wronskian_drift",
    ),
    "spectrum": (
        "MomentumMoments",
        "Observability",
        "SpectrumScan",
        "dof_scan",
        "ground_analog_state",
        "momentum_moments",
        "observability",
        "well_special_energies",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # not cached in this namespace: a patch of the submodule's name is seen here too
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
