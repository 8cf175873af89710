"""Bound states in the continuum under a minimal length.

Solves and analyzes the fourth-order position-representation Schroedinger
equation produced by the generalized uncertainty principle: solution-space
degrees of freedom, bound-state degeneracy, wavefunctions, continuous-energy
spectra, and the observability condition, with an independent
direct-integration oracle validating the closed-form and WKB machinery.
"""

__version__ = "0.1.0"  # defined before the submodule imports, which read it

from .core import (
    HBAR,
    DimensionlessProblem,
    Harmonic,
    InfiniteWell,
    Linear,
    PhysicalSetup,
    load_config,
    nondimensionalize,
)
from .basis import (
    AsymptoticClass,
    CharacteristicRoots,
    Side,
    WkbParameters,
    characteristic_roots,
    classify_asymptotics,
    exact_constant_basis,
    wkb_basis,
    wkb_branches,
)
from .matcher import (
    BoundStateSolution,
    Case,
    CaseClassification,
    ConstraintSystem,
    StateFunction,
    assemble,
    bound_states,
    classify,
    conditions_for,
    degrees_of_freedom,
    normalize,
    nullspace,
    point_zero,
    solve_harmonic,
    solve_linear,
    solve_well,
    well_coefficients,
)
from .oracle import (
    MomentumSolution,
    decaying_subspace_dimension,
    growth_exponents,
    integrate,
    momentum_rep_linear,
    residual,
    wronskian,
    wronskian_drift,
)
from .spectrum import (
    MomentumMoments,
    Observability,
    SpectrumScan,
    dof_scan,
    ground_analog_state,
    momentum_moments,
    observability,
    well_special_energies,
)
